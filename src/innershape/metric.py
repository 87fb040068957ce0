"""Inner metric on velocity fields of an immersed surface.

For nodal fields u, v on an immersion q the inner product is, summed over the
three ambient components and all triangles,

    <u, v>_q = integral of (u.v + alpha^2 ginv(du, dv)) vol(g)

with linear elements: the zeroth-order term uses the exact mass integral of
linear basis functions weighted by the per-triangle volume density, the
first-order term uses the constant per-triangle field differentials
contracted with the inverse fundamental form.  The operator is block-diagonal
over ambient components with three identical symmetric positive definite
scalar blocks, so only one n-by-n block is assembled and every field
operation is applied column-wise.

This module also provides the covectors of the variations of the kinetic
form l(u, v; q) = 1/2 <u, v>_q with respect to the immersion, which drive
the discrete geodesic equation and its adjoint.  Each takes the assembled
operator at q, which carries alpha and the immersion's geometry, already
checked for regularity by ``assemble``:

* ``kinetic_surface_gradient``   -- d/dq l(u, v; q) as a nodal covector,
* ``kinetic_adjoint_covectors``  -- the pair the adjoint sweep needs at one
  step: the covector in the velocity slot of the surface gradient paired
  with a fixed field w, and the second q-variation of l(u, u; q)
  contracted with w.

All covectors pair with nodal variations by the plain Euclidean dot product
over node values.

Every kernel works on per-triangle stacks with batched matrix products.  The
index maps that move between triangles and nodes depend only on the mesh and
are built once per ``DomainMesh`` (see ``_index_maps``): the transposed basis
gradient, the block's fixed sparsity pattern with the slot of every local
entry (assembly is one ``bincount`` into that pattern, and so are products
with the block and the sum of corner covectors onto nodes), and the fronts
that ``solve`` solves any block on that pattern in (``sharp`` solves the
metric block).  Those come from the grid itself (see ``_dissection``): every
node couples only to the grid rows and columns next to its own, so grid
lines cut the mesh into boxes whose unknowns are independent given the
lines, and cutting the boxes again in turn gives a nested dissection.
``solve`` fills the fronts with one gather from the block's values and the
right-hand side, then eliminates them depth by depth, deepest first, with a
few batched ``numpy.linalg`` calls per depth (a multifrontal Cholesky
factorization).
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import SolverError
from .geometry import Immersion, TriangleGeometry, require_regular
from .mesh import DomainMesh

#: exact integrals of products of linear basis functions on the unit-area
#: triangle: area * M3 gives the element mass matrix
_M3 = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0

#: largest accepted relative residual |A x - p| / |p| of a sharp-solve
SHARP_RESIDUAL_TOL = 1e-10


@dataclass
class MetricOperator:
    """Assembled inner-metric operator at one immersion.

    The full operator on stacked (n, 3) fields is block-diagonal with three
    copies of ``block``; ``block @ u`` and ``sharp`` apply it to all columns
    at once.  ``geom`` is the immersion's per-triangle geometry, which
    ``assemble`` checked for regularity with the threshold ``eps_reg``
    (None: the default); the kinetic variations read it from here.
    """

    immersion: Immersion
    alpha: float
    block: "SparseBlock" = field(repr=False)
    eps_reg: float | None
    geom: TriangleGeometry = field(repr=False)

    @property
    def n_nodes(self) -> int:
        return self.block.shape[0]


@dataclass(frozen=True)
class _IndexMaps:
    """Index maps of one mesh, shared by every immersion over it.

    ``grad_t`` is ``basis_grad`` transposed to (ntri, 2, 3).  The scalar
    block's pattern holds the entries (``rows[k]``, ``cols[k]``), sorted by
    row, and ``slot[k]`` is the pattern position of the k-th entry of a
    raveled (ntri, 3, 3) local stack.  ``product_bins`` sends the raveled
    (3, nnz) products of a block with a (n, 3) field to its raveled (n, 3)
    result, and ``corner_bins`` sends raveled (3 * ntri, 3) corner values to
    the raveled (n, 3) nodal sum.

    ``fronts`` are the depths of the dissection tree, root first (see
    ``_Fronts``), over a flat buffer of ``front_size`` values.  Its nonzero
    values before elimination are ``source[fill_src]`` at the positions
    ``fill_slot``, where ``source`` is ``block.data``, then the raveled
    (n, 3) right-hand side, then 1.0 (the padding's unit diagonal).
    """

    n_nodes: int
    grad_t: np.ndarray
    slot: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    product_bins: np.ndarray
    corner_bins: np.ndarray
    fronts: tuple["_Fronts", ...]
    front_size: int
    fill_src: np.ndarray
    fill_slot: np.ndarray


@dataclass(frozen=True)
class SparseBlock:
    """An n-by-n scalar block: its values on its mesh's fixed pattern.

    ``data[k]`` is the entry at (``maps.rows[k]``, ``maps.cols[k]``).  ``@``
    multiplies a (n, 3) field, summing each row's terms in pattern order.
    """

    data: np.ndarray
    maps: _IndexMaps = field(repr=False)

    @property
    def shape(self) -> tuple[int, int]:
        n = self.maps.n_nodes
        return n, n

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        terms = x.T.take(self.maps.cols, axis=1) * self.data
        return np.bincount(
            self.maps.product_bins, weights=terms.ravel(), minlength=x.size
        ).reshape(x.shape)

    def toarray(self) -> np.ndarray:
        dense = np.zeros(self.shape)
        dense[self.maps.rows, self.maps.cols] = self.data
        return dense


#: largest grid box that the dissection does not cut: one front eliminates it
#: whole.  Smaller leaves mean more fronts, each with numpy's fixed per-matrix
#: LAPACK cost; larger ones mean larger dense inverses.
_LEAF_NODES = 16


@dataclass(frozen=True)
class _Fronts:
    """The fronts of one depth of the dissection tree, padded to one size.

    Front k eliminates the nodes ``sep[k]``, its separator; ``bnd[k]`` are
    their neighbours that are eliminated later, in separators of its
    ancestors.  Both are padded with the index n, so every front is an
    (s + b, s + b + 3) matrix, with s and b the two widths: its rows and
    columns run over sep, then bnd, and its last 3 columns hold right-hand
    sides.  The fronts lie in the flat front buffer from ``offset``.
    ``update`` sends the raveled (count, b, b + 3) Schur complements that the
    fronts pass on to their positions among the fronts of the depth above;
    padding goes to the position just past those fronts.
    """

    sep: np.ndarray
    bnd: np.ndarray
    offset: int
    update: np.ndarray

    @property
    def shape(self) -> tuple[int, int, int]:
        count, s = self.sep.shape
        f = s + self.bnd.shape[1]
        return count, f, f + 3

    @property
    def size(self) -> int:
        count, f, w = self.shape
        return count * f * w


def _dissection(mesh: DomainMesh) -> list[list[tuple[np.ndarray, np.ndarray, int]]]:
    """Nested dissection of a grid mesh into boxes of grid nodes.

    Returns, per depth of the tree (root first), each box's separator, all
    the nodes of the box, and the index of the box it was cut from at the
    depth above.  Nodes are numbered row by row, and each couples only to
    the rows and columns next to its own, so one full grid line cuts a box
    in two; a box that wraps round a periodic direction is cut across it by
    two lines, at its start and its middle.  Each box is cut across the
    direction whose lines hold the fewest of its nodes (the longer side on a
    tie), and boxes of at most ``_LEAF_NODES`` nodes are not cut: their
    separator is the whole box.
    """
    ncols = mesh.nx if mesh.topology.periodic_x else mesh.nx + 1
    nrows = mesh.ny if mesh.topology.periodic_y else mesh.ny + 1
    depths: list[list[tuple[np.ndarray, np.ndarray, int]]] = []

    def halve(line, wrap):
        mid = line.size // 2
        if wrap:
            return line[[0, mid]], (line[1:mid], line[mid + 1 :])
        return line[[mid]], (line[:mid], line[mid + 1 :])

    def cut(rows, cols, wrap_r, wrap_c, depth, parent):
        if not (rows.size and cols.size):
            return
        if len(depths) == depth:
            depths.append([])
        index = len(depths[depth])
        box = (rows[:, None] * ncols + cols).ravel()
        if box.size <= _LEAF_NODES:
            depths[depth].append((box, box, parent))
        elif ((1 + wrap_r) * cols.size, -rows.size) <= ((1 + wrap_c) * rows.size, -cols.size):
            lines, pieces = halve(rows, wrap_r)
            depths[depth].append(((lines[:, None] * ncols + cols).ravel(), box, parent))
            for piece in pieces:
                cut(piece, cols, False, wrap_c, depth + 1, index)
        else:
            lines, pieces = halve(cols, wrap_c)
            depths[depth].append(((rows[:, None] * ncols + lines).ravel(), box, parent))
            for piece in pieces:
                cut(rows, piece, wrap_r, False, depth + 1, index)

    cut(np.arange(nrows), np.arange(ncols), mesh.topology.periodic_y,
        mesh.topology.periodic_x, 0, -1)
    return depths


def _padded(group: np.ndarray, values: np.ndarray, count: int, fill: int) -> np.ndarray:
    """A (count, m) table whose row k holds, in order, the values of group k
    (``group`` is sorted), padded with ``fill`` to the largest group's size."""
    size = np.bincount(group, minlength=count)
    table = np.full((count, size.max()), fill)
    table[group, np.arange(group.size) - (np.cumsum(size) - size)[group]] = values
    return table


def _front_maps(mesh: DomainMesh, rows: np.ndarray, cols: np.ndarray) -> dict:
    """The front fields of ``_IndexMaps`` for the block pattern (rows, cols).

    Works one depth of the dissection tree at a time, all its fronts at
    once: one pass over the pattern finds their boundaries, one search among
    the sorted pattern keys finds their separator rows' entries, and one
    comparison finds their boundary nodes in their parents' fronts.
    """
    n, nnz = mesh.n_nodes, rows.size
    # sorted like the pattern; no key has the padding's column n
    keys = rows * (n + 1) + cols
    fronts, offset, src, slot = [], 0, [], []
    for depth in _dissection(mesh):
        count = len(depth)
        seps, boxes, parents = zip(*depth)
        front = np.arange(count)
        sep = _padded(front.repeat([a.size for a in seps]), np.concatenate(seps), count, n)
        # a box's boundary: its nodes' neighbours outside it
        box_of = np.full(n, -1)
        box_of[np.concatenate(boxes)] = front.repeat([a.size for a in boxes])
        owner = box_of[rows]
        out = (owner >= 0) & (box_of[cols] != owner)
        # deduplicated by hand: np.unique imports numpy.ma (1 MB) on numpy 2
        pairs = np.sort(owner[out] * (n + 1) + cols[out])
        pairs = pairs[np.diff(pairs, prepend=-1) > 0]
        bnd = _padded(pairs // (n + 1), pairs % (n + 1), count, n)
        s, b = sep.shape[1], bnd.shape[1]
        f, w = s + b, s + b + 3
        # the source of each value in the separator rows: a pattern entry, a
        # right-hand side value, the padding's unit diagonal, or none (-1)
        query = sep[:, :, None] * (n + 1) + np.hstack([sep, bnd])[:, None, :]
        entry = np.minimum(np.searchsorted(keys, query), nnz - 1)
        fill = np.full((count, f, w), -1)
        fill[:, :s, :f] = np.where(keys[entry] == query, entry, -1)
        rhs = nnz + 3 * sep[:, :, None] + np.arange(3)
        fill[:, :s, f:] = np.where(sep[:, :, None] < n, rhs, -1)
        k, i = np.nonzero(sep == n)
        fill[k, i, i] = nnz + 3 * n
        fill = fill.ravel()
        kept = np.flatnonzero(fill >= 0)
        src.append(fill[kept])
        slot.append(offset + kept)
        update = np.zeros((count, b, b + 3), dtype=np.int64)
        if fronts:
            up = fronts[-1]
            _, pf, pw = up.shape
            parents = np.array(parents)
            # each boundary node's position in its parent's front
            up_nodes = np.hstack([up.sep, up.bnd])[parents]
            to = np.argmax(bnd[:, :, None] == up_nodes[:, None, :], axis=2)
            at = ((parents[:, None] * pf + to) * pw)[:, :, None]
            real = (bnd < n)[:, :, None]
            both = real & real.transpose(0, 2, 1)
            update[:, :, :b] = np.where(both, at + to[:, None, :], up.size)
            update[:, :, b:] = np.where(real, at + pf + np.arange(3), up.size)
        fronts.append(_Fronts(sep, bnd, offset, update.ravel()))
        offset += count * f * w
    return dict(
        fronts=tuple(fronts),
        front_size=offset,
        fill_src=np.concatenate(src),
        fill_slot=np.concatenate(slot),
    )


def _index_maps(mesh: DomainMesh) -> _IndexMaps:
    """The mesh's index maps, built on first use and cached on the mesh."""
    cached = getattr(mesh, "_index_maps", None)
    if cached is None:
        tris = mesh.triangles.astype(np.int64)
        n = mesh.n_nodes
        rows = np.repeat(tris, 3, axis=1).ravel()
        cols = np.tile(tris, (1, 3)).ravel()
        keys, slot = np.unique(rows * n + cols, return_inverse=True)
        rows, cols = keys // n, keys % n
        xyz = np.arange(3)
        cached = _IndexMaps(
            n_nodes=n,
            grad_t=np.ascontiguousarray(mesh.basis_grad.transpose(0, 2, 1)),
            slot=slot,
            rows=rows,
            cols=cols,
            product_bins=(3 * rows + xyz[:, None]).ravel(),
            corner_bins=(3 * tris.reshape(-1, 1) + xyz).ravel(),
            **_front_maps(mesh, rows, cols),
        )
        object.__setattr__(mesh, "_index_maps", cached)
    return cached


def _element_matrices(q: Immersion, alpha: float, geom: TriangleGeometry) -> np.ndarray:
    mesh = q.mesh
    core = mesh.basis_grad @ geom.g_inv @ _index_maps(mesh).grad_t
    local = (geom.vol * mesh.area)[:, None, None] * (_M3 + (alpha * alpha) * core)
    # symmetrize so the assembled matrix is bitwise symmetric
    return 0.5 * (local + local.transpose(0, 2, 1))


def _assemble_scalar(mesh: DomainMesh, local: np.ndarray) -> SparseBlock:
    """Sum a (ntri, 3, 3) stack of element matrices into the scalar block.

    Entries of one slot are added in triangle order, so mirrored slots of
    symmetric element matrices receive bitwise equal sums.
    """
    maps = _index_maps(mesh)
    data = np.bincount(maps.slot, weights=local.ravel(), minlength=maps.rows.size)
    return SparseBlock(data, maps)


def assemble(q: Immersion, alpha: float, eps_reg: float | None = None) -> MetricOperator:
    """Assemble the scalar metric block at an immersion.

    Parameters
    ----------
    q : Immersion
    alpha : float
        Length scale weighting the first-order term; must be finite and >= 0.
    eps_reg : float, optional
        Degeneracy threshold on element volumes, finite and >= 0 (default: a
        small fraction of the median volume).

    Returns
    -------
    MetricOperator
        The block, with the regularity-checked geometry of ``q`` as ``geom``.
    """
    if not (np.isfinite(alpha) and alpha >= 0):
        raise ValueError(f"alpha must be finite and >= 0, got {alpha}")
    if eps_reg is not None and not (np.isfinite(eps_reg) and eps_reg >= 0):
        raise ValueError(f"eps_reg must be None or finite and >= 0, got {eps_reg}")
    geom = require_regular(q, eps_reg)
    block = _assemble_scalar(q.mesh, _element_matrices(q, alpha, geom))
    return MetricOperator(immersion=q, alpha=alpha, block=block, eps_reg=eps_reg, geom=geom)


def parameter_mass_matrix(mesh: DomainMesh) -> SparseBlock:
    """Mass matrix of the flat parameter domain (volume density 1), cached."""
    cached = getattr(mesh, "_flat_mass", None)
    if cached is None:
        cached = _assemble_scalar(mesh, mesh.area[:, None, None] * _M3)
        object.__setattr__(mesh, "_flat_mass", cached)
    return cached


def inner_product(op: MetricOperator, u: np.ndarray, v: np.ndarray) -> float:
    """<u, v> under the operator's metric; exactly symmetric in (u, v)."""
    _check_field(op.n_nodes, u)
    _check_field(op.n_nodes, v)
    if u is v:
        return float(np.sum(u * (op.block @ u)))
    # evaluating both orders and averaging makes the swap a bitwise no-op
    return float(0.5 * (np.sum(u * (op.block @ v)) + np.sum(v * (op.block @ u))))


def norm(op: MetricOperator, u: np.ndarray) -> float:
    """Metric norm sqrt(<u, u>); clamps tiny negative rounding to zero."""
    return float(np.sqrt(max(inner_product(op, u, u), 0.0)))


def sharp(op: MetricOperator, p: np.ndarray) -> np.ndarray:
    """Raise the index: solve A x = p for all three components at once
    (see ``solve``)."""
    return solve(op.block, p)


def solve(block: SparseBlock, p: np.ndarray) -> np.ndarray:
    """Solve ``block @ x = p`` for an SPD block on its mesh's pattern.

    The block is factored over the fronts of the mesh's nested dissection
    (see ``_dissection`` and ``_multifrontal``), which one gather fills with
    the block's values and the (n, 3) right-hand side p (see
    ``_IndexMaps``).  Raises SolverError when the block is not positive
    definite, the solution is not finite, or its relative residual exceeds
    ``SHARP_RESIDUAL_TOL``.
    """
    maps = block.maps
    _check_field(maps.n_nodes, p)
    buf = np.zeros(maps.front_size)
    buf[maps.fill_slot] = np.concatenate((block.data, p.ravel(), [1.0])).take(maps.fill_src)
    x = _multifrontal(maps.fronts, buf, maps.n_nodes)
    if not np.all(np.isfinite(x)):
        raise SolverError("sharp-solve produced a non-finite solution")
    r = block @ x - p
    # both norms in units of the largest entry of r and p, so that no square
    # overflows or underflows to a false pass
    scale = float(max(np.max(np.abs(r)), np.max(np.abs(p)))) or 1.0
    r, p = r / scale, p / scale
    res = float(np.sqrt(np.sum(r * r)))
    rhs = float(np.sqrt(np.sum(p * p)))
    if res > SHARP_RESIDUAL_TOL * rhs:
        raise SolverError(
            f"sharp-solve residual {res * scale:.3e} exceeds {SHARP_RESIDUAL_TOL:g} "
            f"times |rhs|={rhs * scale:.3e}"
        )
    return x


def _multifrontal(fronts: tuple[_Fronts, ...], buf: np.ndarray, n: int) -> np.ndarray:
    """Solve an SPD system assembled into its fronts; ``buf`` is overwritten.

    Deepest depth first, every front [[F, B, r], [B^T, C, t]] (separator
    rows, then boundary rows) is eliminated at once: with G the inverse of
    F's Cholesky factor and [Z | z] = G [B | r], the front passes the Schur
    complement [C - Z^T Z | t - Z^T z] on to its parent.  Root first, the
    separator's values then follow as G^T (z - Z x_bnd).  The block is
    positive definite iff every front's F is, which the batched Cholesky
    factorization checks.
    """
    factors = []
    for depth in reversed(range(len(fronts))):
        fr = fronts[depth]
        count, f, w = fr.shape
        s = fr.sep.shape[1]
        front = buf[fr.offset : fr.offset + fr.size].reshape(count, f, w)
        try:
            chol = np.linalg.cholesky(front[:, :s, :s])
        except np.linalg.LinAlgError:
            raise SolverError(
                f"metric block is not positive definite: a front at dissection depth "
                f"{depth} is not"
            ) from None
        g = np.linalg.inv(chol)
        z = g @ front[:, :s, s:]
        if depth:
            up = fronts[depth - 1]
            schur = front[:, s:, s:] - z[:, :, : f - s].transpose(0, 2, 1) @ z
            buf[up.offset : up.offset + up.size] += np.bincount(
                fr.update, weights=schur.ravel(), minlength=up.size + 1
            )[: up.size]
        factors.append((g, z))
    x = np.zeros((n + 1, 3))
    for fr, (g, z) in zip(fronts, reversed(factors)):
        b = fr.bnd.shape[1]
        x[fr.sep] = g.transpose(0, 2, 1) @ (z[:, :, b:] - z[:, :, :b] @ x[fr.bnd])
    return x[:n]


def _check_field(n_nodes: int, u: np.ndarray) -> None:
    if u.shape != (n_nodes, 3):
        raise ValueError(f"expected ({n_nodes}, 3) field, got {u.shape}")


# ---------------------------------------------------------------------------
# variations of the kinetic form with respect to the immersion
# ---------------------------------------------------------------------------


def _transposed(a: np.ndarray) -> np.ndarray:
    """Contiguous per-triangle transpose of a (ntri, m, k) stack.

    Batched ``@`` is several times slower when its right operand is a
    strided (transposed) view, so right operands are made contiguous first.
    """
    return np.ascontiguousarray(a.transpose(0, 2, 1))


def _frob(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-triangle Frobenius pairing sum_ij a[t, i, j] b[t, i, j]."""
    return np.sum(a * b, axis=(1, 2))


def _variation_prep(op: MetricOperator, *fields: np.ndarray):
    """Validate every field's shape, then return the operator's geometry
    ``op.geom`` (checked by ``assemble``), the corner values U of the first
    field and its differential dU = grad^T U."""
    for f in fields:
        _check_field(op.n_nodes, f)
    mesh = op.immersion.mesh
    U = fields[0].take(mesh.triangles, axis=0)
    return op.geom, U, _index_maps(mesh).grad_t @ U


def _scatter(mesh: DomainMesh, local: np.ndarray) -> np.ndarray:
    """Sum (ntri, 3, 3) per-corner covectors onto the nodes."""
    maps = _index_maps(mesh)
    return np.bincount(maps.corner_bins, weights=local.ravel(), minlength=3 * mesh.n_nodes
                       ).reshape(-1, 3)


def kinetic_surface_gradient(op: MetricOperator, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Nodal covector of the q-variation of 1/2 <u, v>_q.

    Pairing the result with a nodal variation dq gives the directional
    derivative of the kinetic form when the immersion moves by dq.
    Symmetric in u and v; zero against constant dq (translations do not
    change the metric).
    """
    geom, U, dU = _variation_prep(op, u, v)
    mesh = op.immersion.mesh
    Au = geom.g_inv @ dU
    if v is u:
        V, dV, Bv = U, dU, Au
    else:
        V = v.take(mesh.triangles, axis=0)
        dV = _index_maps(mesh).grad_t @ V
        Bv = geom.g_inv @ dV
    k2 = (op.alpha * op.alpha) * mesh.area
    c = mesh.area * _frob(_M3 @ U, V) + k2 * _frob(Au, dV)
    BA = Bv @ _transposed(Au)
    S = 0.5 * (BA + BA.transpose(0, 2, 1))
    Z = 0.25 * (geom.vol * c)[:, None, None] * geom.g_inv - 0.5 * (
        k2 * geom.vol
    )[:, None, None] * S
    local = 2.0 * (mesh.basis_grad @ Z @ _transposed(geom.dq))
    return _scatter(mesh, local)


def kinetic_adjoint_covectors(
    op: MetricOperator, u: np.ndarray, w: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Cross and Hessian covectors of the kinetic form at (u, w).

    Returns ``(cross, hessian)``.  ``cross`` is the covector in the velocity
    slot of the surface gradient paired with w:
    cross . du = kinetic_surface_gradient(op, u, du) . w for every field du.
    ``hessian`` is the second q-variation of 1/2 <u, u>_q contracted with
    direction w, the nodal covector of dq -> d^2/dq^2 [1/2 <u, u>_q](w, dq);
    the underlying bilinear form is symmetric in (w, dq).  Each adjoint step
    needs both at the same (op, u, w), so they share one preparation.
    """
    geom, U, dU = _variation_prep(op, u, w)
    mesh = op.immersion.mesh
    k2 = (op.alpha * op.alpha) * mesh.area
    vol = geom.vol
    g_inv = geom.g_inv

    Au = g_inv @ dU
    MU = _M3 @ U
    # delta(dq), delta(g) and tr(ginv delta(g)) for the direction field w
    ddq = w.take(mesh.triangles, axis=0).transpose(0, 2, 1) @ mesh.basis_grad
    dg = ddq.transpose(0, 2, 1) @ geom.dq
    dg = dg + dg.transpose(0, 2, 1)
    trace = _frob(g_inv, dg)
    G = g_inv @ dg

    coeff = 0.25 * vol * trace
    Y = (coeff * k2)[:, None, None] * Au - (0.5 * k2 * vol)[:, None, None] * (G @ Au)
    cross = _scatter(mesh, (coeff * mesh.area)[:, None, None] * MU + mesh.basis_grad @ Y)

    c = mesh.area * _frob(MU, U) + k2 * _frob(Au, dU)
    S = Au @ _transposed(Au)
    Z = 0.25 * (vol * c)[:, None, None] * g_inv - 0.5 * (k2 * vol)[:, None, None] * S
    dvol = 0.5 * vol * trace
    dginv = -(G @ g_inv)
    dc = -k2 * _frob(dg, S)
    T1 = G @ S
    dS = -(T1 + T1.transpose(0, 2, 1))
    dZ = (
        0.25 * (dvol * c + vol * dc)[:, None, None] * g_inv
        + 0.25 * (vol * c)[:, None, None] * dginv
        - 0.5 * k2[:, None, None] * (dvol[:, None, None] * S + vol[:, None, None] * dS)
    )
    psi = 2.0 * (ddq @ Z + geom.dq @ dZ)
    return cross, _scatter(mesh, mesh.basis_grad @ _transposed(psi))
