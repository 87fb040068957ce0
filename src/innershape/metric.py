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
gradient, the block's fixed CSR pattern with the slot of every local entry
(assembly is one ``bincount`` into that pattern), a sparse node-by-corner
matrix that sums corner covectors onto nodes, and the band layout that
``sharp`` factors the block in.  That layout comes from the grid itself (see
``_band_order``): row-major node order is already a band of half-width
ncols + 1 on the plane and the cylinder, and folding the rows of the torus
keeps its wrapped rows near each other, so no fill-reducing ordering is run.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dpbtrf, dpbtrs

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
    copies of ``block``; ``flat``/``sharp`` apply it to all columns at once.
    ``geom`` is the immersion's per-triangle geometry, which ``assemble``
    checked for regularity with the threshold ``eps_reg`` (None: the
    default); the kinetic variations read it from here.
    """

    immersion: Immersion
    alpha: float
    block: sp.csr_matrix = field(repr=False)
    eps_reg: float | None
    geom: TriangleGeometry = field(repr=False)

    @property
    def n_nodes(self) -> int:
        return self.block.shape[0]


@dataclass(frozen=True)
class _IndexMaps:
    """Index maps of one mesh, shared by every immersion over it.

    ``grad_t`` is ``basis_grad`` transposed to (ntri, 2, 3); ``indptr`` and
    ``indices`` are the CSR pattern of the scalar block, and ``slot[k]`` is
    the pattern position of the k-th entry of a raveled (ntri, 3, 3) local
    stack; ``scatter`` maps raveled (3 * ntri, 3) corner values to nodes.
    ``perm`` is the band order of the nodes (``perm[k]`` is the node at band
    position k) and ``kd`` the block's half-bandwidth in that order; the
    pattern entries ``lower`` (those on or below the diagonal in band order)
    go to the positions ``band`` of a raveled Fortran-order (kd + 1, n) array
    in LAPACK lower band storage.
    """

    grad_t: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    slot: np.ndarray
    scatter: sp.csr_matrix
    perm: np.ndarray
    kd: int
    lower: np.ndarray
    band: np.ndarray


def _band_order(mesh: DomainMesh) -> np.ndarray:
    """Node order in which the scalar block of a grid mesh is a narrow band.

    Nodes are numbered row by row, and each couples only to its own row and
    the two next to it, so row-major order is a band unless the rows wrap.
    On the torus, level k holds rows k and nrows-1-k, interleaved column by
    column with the second row's columns reversed, so every pair of coupled
    nodes lies in one level or two consecutive ones: the half-bandwidth is
    2 ncols + 2 for an even row count and 3 ncols - 2 for an odd one, whose
    middle row forms the last level alone.
    """
    n = mesh.n_nodes
    if not mesh.topology.periodic_y:
        return np.arange(n)
    grid = np.arange(n).reshape(mesh.ny, mesh.nx)
    half = mesh.ny // 2
    pairs = np.stack([grid[:half], grid[::-1, ::-1][:half]], axis=2)
    return np.concatenate([pairs.ravel(), grid[half : mesh.ny - half].ravel()])


def _index_maps(mesh: DomainMesh) -> _IndexMaps:
    """The mesh's index maps, built on first use and cached on the mesh."""
    cached = getattr(mesh, "_index_maps", None)
    if cached is None:
        tris = mesh.triangles.astype(np.int64)
        n = mesh.n_nodes
        rows = np.repeat(tris, 3, axis=1).ravel()
        cols = np.tile(tris, (1, 3)).ravel()
        keys, slot = np.unique(rows * n + cols, return_inverse=True)
        counts = np.bincount(keys // n, minlength=n)
        corners = tris.size
        perm = _band_order(mesh)
        position = np.argsort(perm)
        r, c = position[keys // n], position[keys % n]
        kd = int(np.max(r - c))
        lower = np.flatnonzero(r >= c)
        cached = _IndexMaps(
            grad_t=np.ascontiguousarray(mesh.basis_grad.transpose(0, 2, 1)),
            indptr=np.concatenate(([0], np.cumsum(counts))).astype(np.int32),
            indices=(keys % n).astype(np.int32),
            slot=slot,
            scatter=sp.csr_matrix(
                (np.ones(corners), (tris.ravel(), np.arange(corners))), shape=(n, corners)
            ),
            perm=perm,
            kd=kd,
            lower=lower,
            # entry (r, c) of the band-ordered block sits at band row r - c, column c
            band=c[lower] * (kd + 1) + (r - c)[lower],
        )
        object.__setattr__(mesh, "_index_maps", cached)
    return cached


def _element_matrices(q: Immersion, alpha: float, geom: TriangleGeometry) -> np.ndarray:
    mesh = q.mesh
    core = mesh.basis_grad @ geom.g_inv @ _index_maps(mesh).grad_t
    local = (geom.vol * mesh.area)[:, None, None] * (_M3 + (alpha * alpha) * core)
    # symmetrize so the assembled matrix is bitwise symmetric
    return 0.5 * (local + local.transpose(0, 2, 1))


def _assemble_scalar(mesh: DomainMesh, local: np.ndarray) -> sp.csr_matrix:
    """Sum a (ntri, 3, 3) stack of element matrices into the scalar block.

    Entries of one slot are added in triangle order, so mirrored slots of
    symmetric element matrices receive bitwise equal sums.
    """
    maps = _index_maps(mesh)
    data = np.bincount(maps.slot, weights=local.ravel(), minlength=maps.indices.size)
    n = mesh.n_nodes
    return sp.csr_matrix((data, maps.indices, maps.indptr), shape=(n, n))


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


def parameter_mass_matrix(mesh: DomainMesh) -> sp.csr_matrix:
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
        return float(np.vdot(u, op.block @ u))
    # evaluating both orders and averaging makes the swap a bitwise no-op
    return float(0.5 * (np.vdot(u, op.block @ v) + np.vdot(v, op.block @ u)))


def norm(op: MetricOperator, u: np.ndarray) -> float:
    """Metric norm sqrt(<u, u>); clamps tiny negative rounding to zero."""
    return float(np.sqrt(max(inner_product(op, u, u), 0.0)))


def flat(op: MetricOperator, u: np.ndarray) -> np.ndarray:
    """Lower the index: the covector A u of a field u."""
    _check_field(op.n_nodes, u)
    return op.block @ u


def sharp(op: MetricOperator, p: np.ndarray) -> np.ndarray:
    """Raise the index: solve A x = p for all three components at once.

    One banded Cholesky factorization (LAPACK ``dpbtrf``) of the SPD block
    per call, in the mesh's band order (see ``_band_order``), then one
    banded solve of the three columns.  Reads the block's values through the
    CSR pattern that ``assemble`` builds.  Raises SolverError when the block
    is not positive definite, the solution is not finite, or its relative
    residual exceeds ``SHARP_RESIDUAL_TOL``.
    """
    _check_field(op.n_nodes, p)
    maps = _index_maps(op.immersion.mesh)
    n = op.n_nodes
    ab = np.zeros((maps.kd + 1) * n)
    ab[maps.band] = op.block.data[maps.lower]
    chol, info = dpbtrf(ab.reshape((maps.kd + 1, n), order="F"), lower=1, overwrite_ab=1)
    # info < 0 would flag a malformed argument, which the shapes above rule out
    if info > 0:
        raise SolverError(
            f"metric block is not positive definite: its leading minor of order {info} "
            "(in band order) is not positive"
        )
    xb, _ = dpbtrs(chol, p[maps.perm], lower=1)
    x = np.empty((n, 3))
    x[maps.perm] = xb
    if not np.all(np.isfinite(x)):
        raise SolverError("sharp-solve produced a non-finite solution")
    res = np.linalg.norm(op.block @ x - p)
    rhs = np.linalg.norm(p)
    if res > SHARP_RESIDUAL_TOL * rhs:
        raise SolverError(
            f"sharp-solve residual {res:.3e} exceeds {SHARP_RESIDUAL_TOL:g} "
            f"times |rhs|={rhs:.3e}"
        )
    return x


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
    U = fields[0][mesh.triangles]
    return op.geom, U, _index_maps(mesh).grad_t @ U


def _scatter(mesh: DomainMesh, local: np.ndarray) -> np.ndarray:
    """Sum (ntri, 3, 3) per-corner covectors onto the nodes."""
    return _index_maps(mesh).scatter @ local.reshape(-1, 3)


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
        V = v[mesh.triangles]
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
    ddq = w[mesh.triangles].transpose(0, 2, 1) @ mesh.basis_grad
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
