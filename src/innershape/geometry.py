"""First-order geometry of immersed surfaces over a structured parameter mesh.

An immersion assigns a point in R^3 to every unique mesh node; fields are
linear on each triangle, so the coordinate differential, the first
fundamental form and the induced volume density are constant per triangle.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateElementError, MeshMismatchError
from .mesh import DomainMesh, compatible

#: relative factor for the default degeneracy threshold: an element counts as
#: degenerate when det(g) <= (factor * median volume)^2
DEFAULT_REGULARITY_FACTOR = 1e-10


@dataclass
class Immersion:
    """An immersed surface: one R^3 position per unique mesh node.

    Coordinates are copied to a read-only float64 array; per-triangle
    geometry and the default regularity threshold are computed once on
    demand and cached.
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
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "_geom", None)
        object.__setattr__(self, "_default_threshold", None)

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
    g : ndarray, shape (ntri, 2, 2)
        First fundamental form dq^T dq.
    g_inv : ndarray, shape (ntri, 2, 2)
        Inverse of g (exactly symmetric by construction).
    det_g : ndarray, shape (ntri,)
    vol : ndarray, shape (ntri,)
        sqrt(det g), the induced volume density.
    """

    dq: np.ndarray = field(repr=False)
    g: np.ndarray = field(repr=False)
    g_inv: np.ndarray = field(repr=False)
    det_g: np.ndarray = field(repr=False)
    vol: np.ndarray = field(repr=False)


@dataclass
class RegularityReport:
    """Outcome of a degeneracy scan over all triangles."""

    threshold: float
    min_vol: float
    offenders: list[tuple[int, float]]

    @property
    def regular(self) -> bool:
        return not self.offenders


def triangle_geometry(q: Immersion) -> TriangleGeometry:
    """Per-triangle differential, metric, inverse and volume density (cached)."""
    if q._geom is not None:
        return q._geom
    mesh = q.mesh
    corner = q.coords[mesh.triangles]  # (ntri, 3 vertices, 3 components)
    dq = np.einsum("tac,tap->tcp", corner, mesh.basis_grad)
    g00 = np.einsum("tc,tc->t", dq[:, :, 0], dq[:, :, 0])
    g01 = np.einsum("tc,tc->t", dq[:, :, 0], dq[:, :, 1])
    g11 = np.einsum("tc,tc->t", dq[:, :, 1], dq[:, :, 1])
    g = np.empty((mesh.n_triangles, 2, 2))
    g[:, 0, 0] = g00
    g[:, 0, 1] = g01
    g[:, 1, 0] = g01
    g[:, 1, 1] = g11
    det_g = g00 * g11 - g01 * g01
    with np.errstate(invalid="ignore"):
        vol = np.sqrt(np.maximum(det_g, 0.0))
    g_inv = np.empty_like(g)
    with np.errstate(divide="ignore", invalid="ignore"):
        inv_det = np.where(det_g != 0.0, 1.0 / det_g, np.inf)
        g_inv[:, 0, 0] = g11 * inv_det
        g_inv[:, 0, 1] = -g01 * inv_det
        g_inv[:, 1, 0] = -g01 * inv_det
        g_inv[:, 1, 1] = g00 * inv_det
    geom = TriangleGeometry(dq=dq, g=g, g_inv=g_inv, det_g=det_g, vol=vol)
    object.__setattr__(q, "_geom", geom)
    return geom


def regularity_threshold(q: Immersion, eps_reg: float | None = None) -> float:
    """Degeneracy threshold on vol: explicit value, or a fraction of the median.

    The default is computed once per immersion and cached on it.
    """
    if eps_reg is not None:
        return eps_reg
    if q._default_threshold is None:
        median = float(np.median(triangle_geometry(q).vol))
        object.__setattr__(q, "_default_threshold", DEFAULT_REGULARITY_FACTOR * median)
    return q._default_threshold


def check_regularity(q: Immersion, eps_reg: float | None = None) -> RegularityReport:
    """Scan all triangles for degenerate metrics."""
    geom = triangle_geometry(q)
    eps = regularity_threshold(q, eps_reg)
    bad = np.nonzero(geom.det_g <= eps * eps)[0]
    offenders = [(int(t), float(geom.vol[t])) for t in bad]
    return RegularityReport(
        threshold=eps, min_vol=float(np.min(geom.vol)), offenders=offenders
    )


def require_regular(q: Immersion, eps_reg: float | None = None) -> TriangleGeometry:
    """Cached geometry, raising on the first degenerate triangle."""
    report = check_regularity(q, eps_reg)
    if not report.regular:
        t, vol = report.offenders[0]
        raise DegenerateElementError(
            f"triangle {t}: vol={vol:.3e} <= threshold {report.threshold:.3e}"
            + (f" ({len(report.offenders)} offending triangles)" if len(report.offenders) > 1 else "")
        )
    return triangle_geometry(q)


def surface_area(q: Immersion) -> float:
    """Total induced area: sum of vol(g) times parameter area over triangles."""
    return float(np.dot(triangle_geometry(q).vol, q.mesh.area))


def check_same_mesh(a: DomainMesh, b: DomainMesh, what: str) -> None:
    if not compatible(a, b):
        raise MeshMismatchError(
            f"{what}: meshes differ "
            f"({a.topology.value} {a.nx}x{a.ny} vs {b.topology.value} {b.nx}x{b.ny})"
        )
