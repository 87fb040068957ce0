"""Structured triangulations of the unit square with optional periodic identification.

The parameter domain is [0,1]^2 subdivided into nx*ny rectangular cells, each
split into two triangles along the lower-left to upper-right diagonal.  A
topology selects which coordinate directions wrap around: none (a plane
sheet), the first (a cylinder), or both (a torus).  Wrapped grid points are
identified, so fields carry one value per unique node.
"""

import functools
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import MeshFormatError, MeshResolutionError

MESH_MAGIC = "IMESH 2"
VELOCITY_MAGIC = "IVEC 2"

# node counts stay within int32, so the metric's pattern keys row * n + col fit int64
MAX_NODES = np.iinfo(np.int32).max


class Topology(Enum):
    """Periodic identification pattern of the parameter square."""

    PLANE = "plane"
    CYLINDER = "cylinder"
    TORUS = "torus"

    @property
    def periodic_x(self) -> bool:
        return self in (Topology.CYLINDER, Topology.TORUS)

    @property
    def periodic_y(self) -> bool:
        return self is Topology.TORUS

    @classmethod
    def parse(cls, name: str) -> "Topology":
        try:
            return cls(name.strip().lower())
        except ValueError:
            valid = ", ".join(t.value for t in cls)
            raise ValueError(f"unknown topology {name!r} (expected one of: {valid})") from None


@dataclass(frozen=True)
class DomainMesh:
    """Triangulated parameter domain with node identification.

    The mesh is the value of its grid: ``==`` and ``hash`` read ``topology``,
    ``nx`` and ``ny``, and the arrays, which ``build_grid`` derives from those
    three, take no part.  ``build_grid`` shares one mesh per grid, so its
    arrays are read-only.

    Attributes
    ----------
    topology : Topology
        Periodic identification pattern.
    nx, ny : int
        Number of cells per coordinate direction.
    nodes : ndarray, shape (n, 2)
        Parameter coordinates of the unique nodes (wrapped representatives),
        row by row.
    triangles : ndarray, shape (ntri, 3)
        Unique node indices per triangle, counterclockwise; cell k's lower
        triangle is 2k and its upper one 2k + 1.
    basis_grad : ndarray, shape (ntri, 3, 2)
        Constant gradients of the three linear nodal basis functions.
    area : ndarray, shape (ntri,)
        Parameter-space triangle areas.
    """

    topology: Topology
    nx: int
    ny: int
    nodes: np.ndarray = field(repr=False, compare=False)
    triangles: np.ndarray = field(repr=False, compare=False)
    basis_grad: np.ndarray = field(repr=False, compare=False)
    area: np.ndarray = field(repr=False, compare=False)

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_triangles(self) -> int:
        return self.triangles.shape[0]

    def grid_index(self, i: int, j: int) -> int:
        """Unique node index of grid point (i, j), wrapping periodic directions.

        Raises ValueError for a point outside [0, nx] x [0, ny] in a
        direction that does not wrap.
        """
        if not ((self.topology.periodic_x or 0 <= i <= self.nx)
                and (self.topology.periodic_y or 0 <= j <= self.ny)):
            raise ValueError(f"grid point ({i}, {j}) is outside the "
                             f"{self.topology.value} {self.nx}x{self.ny} grid")
        return int(_node(*_unique_grid(self.topology, self.nx, self.ny), i, j))


@functools.cache
def build_grid(topology: Topology, nx: int, ny: int, /) -> DomainMesh:
    """Build the structured triangulation for a topology and resolution.

    Parameters
    ----------
    topology : Topology
        Which directions to identify periodically.
    nx, ny : int
        Cells per direction; periodic directions need at least 3.

    Returns
    -------
    DomainMesh
        The one mesh of the grid, built on the first call and shared by every
        later one (``build_grid(t, nx, ny) is build_grid(t, nx, ny)``), with
        read-only arrays.
    """
    ncols, nrows = _unique_grid(topology, nx, ny)

    nodes = np.empty((nrows * ncols, 2))
    iu, ju = np.meshgrid(np.arange(ncols), np.arange(nrows), indexing="xy")
    nodes[:, 0] = iu.ravel() / nx
    nodes[:, 1] = ju.ravel() / ny

    # two triangles per cell, split along the lower-left to upper-right diagonal
    ci, cj = np.meshgrid(np.arange(nx), np.arange(ny), indexing="xy")
    n00, n10, n11, n01 = (_node(ncols, nrows, ci.ravel() + di, cj.ravel() + dj)
                          for di, dj in ((0, 0), (1, 0), (1, 1), (0, 1)))
    triangles = np.empty((2 * nx * ny, 3), dtype=np.int64)
    triangles[0::2] = np.stack([n00, n10, n11], axis=1)
    triangles[1::2] = np.stack([n00, n11, n01], axis=1)

    # hat gradients of the right triangles with legs 1/nx and 1/ny, lower and
    # upper; the signed zeros are those that the inverse edge matrix gives
    lower = [[-nx, -0.0], [nx, -ny], [-0.0, ny]]
    upper = [[-0.0, -ny], [nx, -0.0], [-nx, ny]]
    basis_grad = np.tile(np.array([lower, upper], dtype=float), (nx * ny, 1, 1))
    area = np.full(2 * nx * ny, 0.5 / (nx * ny))

    for shared in (nodes, triangles, basis_grad, area):
        shared.flags.writeable = False
    return DomainMesh(topology, nx, ny, nodes, triangles, basis_grad, area)


def _node(ncols: int, nrows: int, i, j):
    """Unique node of grid point (i, j) among ``ncols`` x ``nrows``: the modulo
    wraps a periodic direction and leaves [0, nx] ([0, ny]) of any other alone."""
    return (j % nrows) * ncols + i % ncols


def _unique_grid(topology: Topology, nx: int, ny: int) -> tuple[int, int]:
    """Columns and rows of unique nodes at a resolution that ``build_grid`` accepts.

    Raises MeshResolutionError for any other resolution.
    """
    if nx < 1 or ny < 1:
        raise MeshResolutionError(f"resolution must be at least 1x1, got {nx}x{ny}")
    if topology.periodic_x and nx < 3:
        raise MeshResolutionError(
            f"{topology.value} is periodic in x and needs nx >= 3, got nx={nx}"
        )
    if topology.periodic_y and ny < 3:
        raise MeshResolutionError(
            f"{topology.value} is periodic in y and needs ny >= 3, got ny={ny}"
        )
    if (nx + 1) * (ny + 1) > MAX_NODES:
        raise MeshResolutionError(f"node count for {nx}x{ny} exceeds the 32-bit index range")
    return (nx if topology.periodic_x else nx + 1), (ny if topology.periodic_y else ny + 1)


# ---------------------------------------------------------------------------
# native file format
# ---------------------------------------------------------------------------


def _write_records(mesh: DomainMesh, values: np.ndarray, path, header: str, what: str,
                   faces=()) -> None:
    """Write ``header``, one ``v`` record per node and one ``f`` record per row
    of ``faces``."""
    values = np.asarray(values, dtype=float)
    if values.shape != (mesh.n_nodes, 3):
        raise ValueError(f"expected ({mesh.n_nodes}, 3) {what}, got {values.shape}")
    with open(path, "w") as f:
        f.write(header)
        for x, y, z in values:
            f.write(f"v {float(x)!r} {float(y)!r} {float(z)!r}\n")
        for a, b, c in faces:
            f.write(f"f {a} {b} {c}\n")


def _write_native(mesh: DomainMesh, values: np.ndarray, path, magic: str) -> None:
    """The magic, the grid and the node records: the grid fixes the node count
    and the connectivity, so the file states neither."""
    header = f"{magic}\n{mesh.topology.value} {mesh.nx} {mesh.ny}\n"
    _write_records(mesh, values, path, header, "values")


def _read_native(path, magic: str) -> tuple[DomainMesh, np.ndarray]:
    try:
        with open(path) as f:
            lines = f.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise MeshFormatError(f"cannot read {path}: {exc}") from exc

    def need(idx: int) -> str:
        if idx >= len(lines):
            raise MeshFormatError("unexpected end of file", line=len(lines) + 1)
        return lines[idx]

    if need(0).strip() != magic:
        raise MeshFormatError(f"expected header {magic!r}", line=1)
    head = need(1).split()
    if len(head) != 3:
        raise MeshFormatError("expected '<topology> <nx> <ny>'", line=2)
    try:
        topology = Topology.parse(head[0])
        nx, ny = int(head[1]), int(head[2])
        ncols, nrows = _unique_grid(topology, nx, ny)
    except (ValueError, MeshResolutionError) as exc:
        raise MeshFormatError(str(exc), line=2) from None

    n_nodes = ncols * nrows
    rows = []
    for k in range(2, 2 + n_nodes):
        parts = need(k).split()
        if len(parts) != 4 or parts[0] != "v":
            raise MeshFormatError("expected 'v x y z'", line=k + 1)
        try:
            rows.append([float(p) for p in parts[1:]])
        except ValueError:
            raise MeshFormatError("bad coordinate", line=k + 1) from None
    values = np.array(rows)
    bad = np.flatnonzero(~np.all(np.isfinite(values), axis=1))
    if bad.size:
        raise MeshFormatError("non-finite coordinate", line=3 + int(bad[0]))
    if any(line.strip() for line in lines[2 + n_nodes:]):
        raise MeshFormatError("trailing content after node records", line=3 + n_nodes)
    # built only once every record is read, so the grid is no larger than the file
    return build_grid(topology, nx, ny), values


def save_mesh(mesh: DomainMesh, coords: np.ndarray, path) -> None:
    """Write a mesh and its immersed node coordinates in the native format."""
    _write_native(mesh, coords, path, MESH_MAGIC)


def load_mesh(path) -> tuple[DomainMesh, np.ndarray]:
    """Read a native mesh file; returns the mesh and its (n, 3) coordinates."""
    return _read_native(path, MESH_MAGIC)


def save_velocity(mesh: DomainMesh, values: np.ndarray, path) -> None:
    """Write a nodal vector field in the native format (velocity header)."""
    _write_native(mesh, values, path, VELOCITY_MAGIC)


def load_velocity(path) -> tuple[DomainMesh, np.ndarray]:
    """Read a native velocity file; returns the mesh and the (n, 3) field."""
    return _read_native(path, VELOCITY_MAGIC)


def export_obj(mesh: DomainMesh, coords: np.ndarray, path) -> None:
    """Write a Wavefront OBJ file (1-based indices).

    Node identification is not representable in OBJ, so seam triangles on
    periodic meshes reference the wrapped nodes; the export is lossy there.
    """
    _write_records(mesh, coords, path, "", "coordinates", mesh.triangles + 1)
