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
the discrete geodesic equation and its adjoint:

* ``kinetic_surface_gradient``  -- d/dq l(u, v; q) as a nodal covector,
* ``kinetic_surface_hessian``   -- second q-variation of l(u, u; q)
  contracted with a direction field,
* ``kinetic_cross_gradient``    -- covector in the velocity slot of the
  surface gradient paired with a fixed field.

All covectors pair with nodal variations by the plain Euclidean dot product
over node values.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

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
    """

    immersion: Immersion
    alpha: float
    block: sp.csr_matrix = field(repr=False)

    @property
    def n_nodes(self) -> int:
        return self.block.shape[0]

    def full_matrix(self) -> sp.csr_matrix:
        """The 3n-by-3n operator, components stacked [x; y; z]."""
        return sp.block_diag([self.block] * 3, format="csr")


def _element_matrices(q: Immersion, alpha: float, geom: TriangleGeometry) -> np.ndarray:
    mesh = q.mesh
    grad = mesh.basis_grad
    mass = np.einsum("t,ab->tab", geom.vol * mesh.area, _M3)
    core = np.einsum("tap,tpq,tbq->tab", grad, geom.g_inv, grad)
    local = mass + (alpha * alpha) * (geom.vol * mesh.area)[:, None, None] * core
    # symmetrize so the assembled matrix is bitwise symmetric
    return 0.5 * (local + local.transpose(0, 2, 1))


def _assemble_scalar(mesh: DomainMesh, local: np.ndarray) -> sp.csr_matrix:
    tris = mesh.triangles
    rows = np.repeat(tris, 3, axis=1).ravel()
    cols = np.tile(tris, (1, 3)).ravel()
    n = mesh.n_nodes
    return sp.coo_matrix((local.ravel(), (rows, cols)), shape=(n, n)).tocsr()


def assemble(q: Immersion, alpha: float, eps_reg: float | None = None) -> MetricOperator:
    """Assemble the scalar metric block at an immersion.

    Parameters
    ----------
    q : Immersion
    alpha : float
        Length scale weighting the first-order term; must be >= 0.
    eps_reg : float, optional
        Degeneracy threshold on element volumes (default: a small fraction
        of the median volume).

    Returns
    -------
    MetricOperator
    """
    if alpha < 0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    geom = require_regular(q, eps_reg)
    block = _assemble_scalar(q.mesh, _element_matrices(q, alpha, geom))
    return MetricOperator(immersion=q, alpha=alpha, block=block)


def parameter_mass_matrix(mesh: DomainMesh) -> sp.csr_matrix:
    """Mass matrix of the flat parameter domain (volume density 1), cached."""
    cached = getattr(mesh, "_flat_mass", None)
    if cached is None:
        local = np.einsum("t,ab->tab", mesh.area, _M3)
        cached = _assemble_scalar(mesh, local)
        object.__setattr__(mesh, "_flat_mass", cached)
    return cached


def inner_product(op: MetricOperator, u: np.ndarray, v: np.ndarray) -> float:
    """<u, v> under the operator's metric; exactly symmetric in (u, v)."""
    _check_field(op, u)
    _check_field(op, v)
    if u is v:
        return float(np.vdot(u, op.block @ u))
    # evaluating both orders and averaging makes the swap a bitwise no-op
    return float(0.5 * (np.vdot(u, op.block @ v) + np.vdot(v, op.block @ u)))


def norm(op: MetricOperator, u: np.ndarray) -> float:
    """Metric norm sqrt(<u, u>); clamps tiny negative rounding to zero."""
    return float(np.sqrt(max(inner_product(op, u, u), 0.0)))


def flat(op: MetricOperator, u: np.ndarray) -> np.ndarray:
    """Lower the index: the covector A u of a field u."""
    _check_field(op, u)
    return op.block @ u


def sharp(op: MetricOperator, p: np.ndarray) -> np.ndarray:
    """Raise the index: solve A x = p for all three components at once.

    One sparse LU factorization of the SPD block in symmetric mode per call;
    raises SolverError when the block is singular, the solution is not
    finite, or its relative residual exceeds ``SHARP_RESIDUAL_TOL``.
    """
    _check_field(op, p)
    try:
        lu = splu(
            op.block.tocsc(),
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )
    except RuntimeError as exc:
        raise SolverError(f"metric block factorization failed: {exc}") from exc
    x = lu.solve(p)
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


def _check_field(op: MetricOperator, u: np.ndarray) -> None:
    if u.shape != (op.n_nodes, 3):
        raise ValueError(f"expected ({op.n_nodes}, 3) field, got {u.shape}")


# ---------------------------------------------------------------------------
# variations of the kinetic form with respect to the immersion
# ---------------------------------------------------------------------------


def _variation_prep(q: Immersion, u: np.ndarray, v: np.ndarray, eps_reg):
    geom = require_regular(q, eps_reg)
    mesh = q.mesh
    tris = mesh.triangles
    grad = mesh.basis_grad
    U = u[tris]
    V = v[tris]
    dU = np.einsum("tap,tac->tpc", grad, U)
    dV = dU if v is u else np.einsum("tap,tac->tpc", grad, V)
    return geom, mesh, tris, grad, U, V, dU, dV


def _scatter(mesh: DomainMesh, local: np.ndarray) -> np.ndarray:
    out = np.zeros((mesh.n_nodes, 3))
    np.add.at(out, mesh.triangles.ravel(), local.reshape(-1, 3))
    return out


def kinetic_surface_gradient(
    q: Immersion, alpha: float, u: np.ndarray, v: np.ndarray, eps_reg: float | None = None
) -> np.ndarray:
    """Nodal covector of the q-variation of 1/2 <u, v>_q.

    Pairing the result with a nodal variation dq gives the directional
    derivative of the kinetic form when the immersion moves by dq.
    Symmetric in u and v; zero against constant dq (translations do not
    change the metric).
    """
    geom, mesh, tris, grad, U, V, dU, dV = _variation_prep(q, u, v, eps_reg)
    k2 = (alpha * alpha) * mesh.area
    m = mesh.area * np.einsum("tac,ab,tbc->t", U, _M3, V)
    Au = np.einsum("tpq,tqc->tpc", geom.g_inv, dU)
    Bv = Au if v is u else np.einsum("tpq,tqc->tpc", geom.g_inv, dV)
    w = np.einsum("tpc,tpc->t", Au, dV)
    c = m + k2 * w
    BA = np.einsum("tpc,trc->tpr", Bv, Au)
    S = 0.5 * (BA + BA.transpose(0, 2, 1))
    Z = 0.25 * (geom.vol * c)[:, None, None] * geom.g_inv - 0.5 * (
        k2 * geom.vol
    )[:, None, None] * S
    local = 2.0 * np.einsum("tap,tpq,tcq->tac", grad, Z, geom.dq)
    return _scatter(mesh, local)


def _direction_metric_variation(geom: TriangleGeometry, grad, W):
    """delta(dq), delta(g) and tr(ginv delta(g)) for a direction field W."""
    ddq = np.einsum("tac,tap->tcp", W, grad)
    dg = np.einsum("tcp,tcr->tpr", ddq, geom.dq)
    dg = dg + dg.transpose(0, 2, 1)
    trace = np.einsum("tpq,tpq->t", geom.g_inv, dg)
    return ddq, dg, trace


def kinetic_surface_hessian(
    q: Immersion, alpha: float, u: np.ndarray, w: np.ndarray, eps_reg: float | None = None
) -> np.ndarray:
    """Second q-variation of 1/2 <u, u>_q contracted with direction w.

    Returns the nodal covector of dq -> d^2/dq^2 [1/2 <u, u>_q](w, dq); the
    underlying bilinear form is symmetric in (w, dq).
    """
    geom, mesh, tris, grad, U, _, dU, _ = _variation_prep(q, u, u, eps_reg)
    W = w[tris]
    k2 = (alpha * alpha) * mesh.area
    vol = geom.vol

    Au = np.einsum("tpq,tqc->tpc", geom.g_inv, dU)
    m = mesh.area * np.einsum("tac,ab,tbc->t", U, _M3, U)
    wt = np.einsum("tpc,tpc->t", Au, dU)
    c = m + k2 * wt
    S = np.einsum("tpc,trc->tpr", Au, Au)
    Z = 0.25 * (vol * c)[:, None, None] * geom.g_inv - 0.5 * (k2 * vol)[:, None, None] * S

    ddq, dg, trace = _direction_metric_variation(geom, grad, W)
    dvol = 0.5 * vol * trace
    dginv = -np.einsum("tpa,tab,tbq->tpq", geom.g_inv, dg, geom.g_inv)
    dwt = -np.einsum("tpq,tpq->t", dg, S)
    dc = k2 * dwt
    T1 = np.einsum("tpa,tab,tbq->tpq", geom.g_inv, dg, S)
    dS = -(T1 + T1.transpose(0, 2, 1))
    dZ = (
        0.25 * (dvol * c + vol * dc)[:, None, None] * geom.g_inv
        + 0.25 * (vol * c)[:, None, None] * dginv
        - 0.5 * (k2)[:, None, None] * (dvol[:, None, None] * S + vol[:, None, None] * dS)
    )
    psi = 2.0 * (
        np.einsum("tcp,tpq->tcq", ddq, Z) + np.einsum("tcp,tpq->tcq", geom.dq, dZ)
    )
    local = np.einsum("tap,tcp->tac", grad, psi)
    return _scatter(mesh, local)


def kinetic_cross_gradient(
    q: Immersion, alpha: float, u: np.ndarray, w: np.ndarray, eps_reg: float | None = None
) -> np.ndarray:
    """Covector in the velocity slot of the surface gradient paired with w.

    Returns F with F . du = kinetic_surface_gradient(q, alpha, u, du) . w
    for every field du; w plays the role of a fixed surface direction.
    """
    geom, mesh, tris, grad, U, _, dU, _ = _variation_prep(q, u, u, eps_reg)
    W = w[tris]
    k2 = (alpha * alpha) * mesh.area
    vol = geom.vol

    _, dg, trace = _direction_metric_variation(geom, grad, W)
    Au = np.einsum("tpq,tqc->tpc", geom.g_inv, dU)

    coeff = 0.25 * vol * trace
    term1 = (coeff * mesh.area)[:, None, None] * np.einsum("ab,tbc->tac", _M3, U)
    GAu = np.einsum("tap,tpc->tac", grad, Au)
    term2 = (coeff * k2)[:, None, None] * GAu
    X = np.einsum("tpa,tab,tbc->tpc", geom.g_inv, dg, Au)
    term3 = -0.5 * (k2 * vol)[:, None, None] * np.einsum("tap,tpc->tac", grad, X)
    return _scatter(mesh, term1 + term2 + term3)
