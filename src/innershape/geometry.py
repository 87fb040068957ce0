"""First-order geometry of immersed surfaces over a structured parameter mesh.

An immersion assigns a point in R^3 to every unique mesh node; fields are
linear on each triangle, so the coordinate differential, the first
fundamental form and the induced volume density are constant per triangle.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateElementError, MeshMismatchError
from .mesh import DomainMesh

#: relative degeneracy threshold: an element counts as degenerate when
#: det(g) <= (factor * median volume)^2, so the rule does not depend on scale
REGULARITY_FACTOR = 1e-10


@dataclass
class Immersion:
    """An immersed surface: one R^3 position per unique mesh node.

    Plain data: a mesh and a read-only float64 copy of the coordinates.  The
    per-triangle geometry is not kept here; ``assemble`` computes it once,
    checks its regularity and keeps it on the operator it returns.
    """

    mesh: DomainMesh
    coords: np.ndarray = field(repr=False)

    def __post_init__(self):
        coords = np.array(self.coords, dtype=float)
        if coords.shape != (self.mesh.n_nodes, 3):
            raise ValueError(
                f"expected ({self.mesh.n_nodes}, 3) coordinates, got {coords.shape}"
            )
        if not np.all(np.isfinite(coords)):
            raise ValueError("immersion coordinates must be finite")
        coords.flags.writeable = False
        self.coords = coords

    def displaced(self, delta: np.ndarray) -> "Immersion":
        """New immersion with coordinates shifted by a nodal field."""
        return Immersion(self.mesh, self.coords + delta)


@dataclass
class TriangleGeometry:
    """Geometry of all triangles of one immersion.

    Attributes
    ----------
    dq : ndarray, shape (ntri, 3, 2)
        Differential of the immersion: ambient component by parameter
        direction, constant per triangle.
    g_inv : ndarray, shape (ntri, 2, 2)
        Inverse of the first fundamental form g = dq^T dq (exactly symmetric
        by construction).
    det_g : ndarray, shape (ntri,)
    vol : ndarray, shape (ntri,)
        sqrt(det g), the induced volume density.
    """

    dq: np.ndarray = field(repr=False)
    g_inv: np.ndarray = field(repr=False)
    det_g: np.ndarray = field(repr=False)
    vol: np.ndarray = field(repr=False)


def triangle_geometry(q: Immersion) -> TriangleGeometry:
    """Per-triangle differential, inverse metric and volume density.

    Computed afresh on every call; the geometry of an assembled operator's
    immersion is ``op.geom``.
    """
    mesh = q.mesh
    corner = q.coords.take(mesh.triangles, axis=0)  # (ntri, 3 vertices, 3 components)
    g_inv = np.empty((mesh.n_triangles, 2, 2))
    # quietly: an overflow leaves det(g) non-finite, which require_regular rejects
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        dq = np.einsum("tac,tap->tcp", corner, mesh.basis_grad)
        g00 = np.einsum("tc,tc->t", dq[:, :, 0], dq[:, :, 0])
        g01 = np.einsum("tc,tc->t", dq[:, :, 0], dq[:, :, 1])
        g11 = np.einsum("tc,tc->t", dq[:, :, 1], dq[:, :, 1])
        det_g = g00 * g11 - g01 * g01
        vol = np.sqrt(np.maximum(det_g, 0.0))
        inv_det = np.where(det_g != 0.0, 1.0 / det_g, np.inf)
        g_inv[:, 0, 0] = g11 * inv_det
        g_inv[:, 0, 1] = -g01 * inv_det
        g_inv[:, 1, 0] = -g01 * inv_det
        g_inv[:, 1, 1] = g00 * inv_det
    return TriangleGeometry(dq=dq, g_inv=g_inv, det_g=det_g, vol=vol)


def _median(a: np.ndarray) -> float:
    """``np.median`` of a 1-d array, without its import of ``numpy.ma``
    (about 15 ms of start-up on numpy 2): the mean of the two middle values."""
    mid = (a.size - 1) // 2
    part = np.partition(a, [mid, a.size // 2])
    return float(np.mean(part[[mid, a.size // 2]]))


def require_regular(q: Immersion) -> TriangleGeometry:
    """The immersion's geometry, raising on the first degenerate triangle.

    A triangle is degenerate when det(g) is not finite or <= eps^2, with eps =
    ``REGULARITY_FACTOR`` times the median volume.  ``assemble`` calls this
    once per operator and keeps the geometry it returns as ``op.geom``.
    """
    geom = triangle_geometry(q)
    eps = REGULARITY_FACTOR * _median(geom.vol)
    # NaN compares false with the threshold, so non-finite values are flagged first
    finite = np.isfinite(geom.det_g)
    bad = np.nonzero(geom.det_g <= eps * eps if finite.all() else ~finite)[0]
    if bad.size:
        t = int(bad[0])
        vol = f"vol={float(geom.vol[t]):.3e}"
        problem = ("geometry is not finite" if not finite[t]
                   else f"{vol} <= threshold {eps:.3e}" if eps > 0
                   else f"{vol}, and the median volume is 0")
        raise DegenerateElementError(
            f"triangle {t}: {problem}"
            + (f" ({bad.size} offending triangles)" if bad.size > 1 else "")
        )
    return geom


def surface_area(q: Immersion) -> float:
    """Total induced area: sum of vol(g) times parameter area over triangles;
    raises DegenerateElementError when the geometry overflows."""
    area = float(np.sum(triangle_geometry(q).vol * q.mesh.area))
    if not np.isfinite(area):
        raise DegenerateElementError("the surface area is not finite: its geometry overflows")
    return area


def check_same_mesh(a: DomainMesh, b: DomainMesh, what: str) -> None:
    if a != b:
        raise MeshMismatchError(
            f"{what}: meshes differ "
            f"({a.topology.value} {a.nx}x{a.ny} vs {b.topology.value} {b.nx}x{b.ny})"
        )
