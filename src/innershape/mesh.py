"""Structured triangulations of the unit square with optional periodic identification.

The parameter domain is [0,1]^2 subdivided into nx*ny rectangular cells, each
split into two triangles along the lower-left to upper-right diagonal.  A
topology selects which coordinate directions wrap around: none (a plane
sheet), the first (a cylinder), or both (a torus).  Wrapped grid points are
identified, so fields carry one value per unique node.
"""

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import MeshFormatError, MeshResolutionError

MESH_MAGIC = "IMESH 1"
VELOCITY_MAGIC = "IVEC 1"

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


@dataclass
class DomainMesh:
    """Triangulated parameter domain with node identification.

    The mesh is the value of its grid: ``==`` compares ``topology``, ``nx``
    and ``ny``, and the arrays, which ``build_grid`` derives from those three,
    take no part.

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


def build_grid(topology: Topology, nx: int, ny: int) -> DomainMesh:
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

    return DomainMesh(
        topology=topology,
        nx=nx,
        ny=ny,
        nodes=nodes,
        triangles=triangles,
        basis_grad=basis_grad,
        area=np.full(2 * nx * ny, 0.5 / (nx * ny)),
    )


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


def _write_records(mesh: DomainMesh, values: np.ndarray, path, header: str, base: int,
                   what: str) -> None:
    """Write ``header``, one ``v`` record per node and one ``f`` record per
    triangle, its node indices counted from ``base``."""
    values = np.asarray(values, dtype=float)
    if values.shape != (mesh.n_nodes, 3):
        raise ValueError(f"expected ({mesh.n_nodes}, 3) {what}, got {values.shape}")
    with open(path, "w") as f:
        f.write(header)
        for x, y, z in values:
            f.write(f"v {float(x)!r} {float(y)!r} {float(z)!r}\n")
        for a, b, c in mesh.triangles + base:
            f.write(f"f {a} {b} {c}\n")


def _write_native(mesh: DomainMesh, values: np.ndarray, path, magic: str) -> None:
    header = (f"{magic}\n{mesh.topology.value} {mesh.nx} {mesh.ny}\n"
              f"{mesh.n_nodes} {mesh.n_triangles}\n")
    _write_records(mesh, values, path, header, 0, "values")


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
    counts = need(2).split()
    if len(counts) != 2:
        raise MeshFormatError("expected '<node_count> <tri_count>'", line=3)
    try:
        n_nodes, n_tris = int(counts[0]), int(counts[1])
    except ValueError:
        raise MeshFormatError("counts must be integers", line=3) from None

    grid_counts = (ncols * nrows, 2 * nx * ny)
    if (n_nodes, n_tris) != grid_counts:
        raise MeshFormatError(
            f"header counts {n_nodes}/{n_tris} do not match "
            f"{topology.value} {nx}x{ny} ({grid_counts[0]}/{grid_counts[1]})",
            line=3,
        )

    def records(first: int, count: int, form: str, convert, problem: str) -> list:
        """The converted fields of ``count`` records of ``form`` from 0-based line ``first``."""
        rows = []
        for k in range(first, first + count):
            parts = need(k).split()
            if len(parts) != 4 or parts[0] != form[0]:
                raise MeshFormatError(f"expected '{form}'", line=k + 1)
            try:
                rows.append([convert(p) for p in parts[1:]])
            except ValueError:
                raise MeshFormatError(problem, line=k + 1) from None
        return rows

    values = np.array(records(3, n_nodes, "v x y z", float, "bad coordinate")).reshape(n_nodes, 3)
    bad = np.flatnonzero(~np.all(np.isfinite(values), axis=1))
    if bad.size:
        raise MeshFormatError("non-finite coordinate", line=4 + int(bad[0]))
    tris = records(3 + n_nodes, n_tris, "f i j k", int, "bad node index")
    # built only once every record is read, so the grid is no larger than the file
    mesh = build_grid(topology, nx, ny)
    # an index beyond int64 makes an object array, which still compares
    bad = np.flatnonzero(np.any(np.array(tris).reshape(n_tris, 3) != mesh.triangles, axis=1))
    if bad.size:
        k = int(bad[0])
        raise MeshFormatError(
            f"triangle {tris[k]} does not match the {topology.value} {nx}x{ny} connectivity",
            line=4 + n_nodes + k,
        )
    extra = 3 + n_nodes + n_tris
    if any(line.strip() for line in lines[extra:]):
        raise MeshFormatError("trailing content after triangle records", line=extra + 1)
    return mesh, values


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
    _write_records(mesh, coords, path, "", 1, "coordinates")
