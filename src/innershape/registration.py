"""Endpoint registration by metric L-BFGS on the initial velocity.

Minimizes  E(u_0) = path energy + 1/(2 sigma^2) * |q_N - q_target|^2_flat
over the initial velocity of a shot geodesic.  The exact adjoint gradient
is the Riesz gradient in (R^{n x 3}, <.,.>_{op0}), the metric at q0, so
limited-memory BFGS (Liu & Nocedal 1989) runs its two-loop recursion in that
inner product.  Its initial inverse Hessian is the inverse Gauss-Newton
Hessian of the objective linearised at rest, P = (A0 + M/sigma^2)^{-1} A0
on Riesz gradients (A0 the metric block at q0, M the flat mass matrix of
the matching term), scaled by the newest curvature pair.  So the first
direction, -P g, is the minimiser of the linearised objective, and every
direction is searched by Armijo backtracking from a unit step.  A trial step
is taken only with its gradient: one whose shoot or adjoint sweep fails is
rejected like one whose energy does not fall enough.  The
matching term lives here alone: its sigma check, its value, its endpoint
derivative (``matching_covector``, the sweep's seed) and its block M/sigma^2.
"""

import logging
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .adjoint import backward_sweep
from .errors import SolverError, StepFailureError
from .geometry import Immersion, check_same_mesh
from .metric import MetricOperator, SparseBlock, inner_product, norm, parameter_mass_matrix, solve
from .shooting import GeodesicPath, path_energy, shoot

logger = logging.getLogger(__name__)

#: curvature pairs (s, y) kept by the L-BFGS memory
LBFGS_MEMORY = 8

#: Armijo sufficient-decrease constant, backtracking factor and smallest step
ARMIJO_C = 1e-4
ARMIJO_SHRINK = 0.5
STEP_MIN = 1e-12

#: largest number of time steps a configuration may ask for
MAX_STEPS = 10**6


def check_sigma(sigma: float) -> None:
    """Raise ValueError unless sigma > 0 and its matching weight w = 1/(2 sigma^2)
    is a float > 0 with w^2 finite, as the squared gradient norm carries w^2."""
    # Python floats overflow to inf and underflow to 0 here without raising
    # (``w ** 2`` would raise OverflowError, ``w * w`` gives inf)
    two_sq = 2.0 * float(sigma) * float(sigma)
    w = 1.0 / two_sq if sigma > 0 and two_sq > 0 else 0.0
    if not (w > 0 and w * w < np.inf):
        raise ValueError(f"sigma must be > 0 with w = 1/(2 sigma^2) > 0 and w^2 finite, got {sigma}")


@dataclass
class RegistrationConfig:
    """Parameters of a registration run.

    ``tol_match`` is optional; when set, reaching it also counts as
    convergence.  The metric's ``alpha`` travels with the operator
    ``register`` starts from.
    """

    sigma: float = 1.0
    n_steps: int = 10
    max_iters: int = 200
    tol_grad: float = 1e-6
    tol_match: float | None = None

    def validate(self) -> None:
        check_sigma(self.sigma)
        if not 1 <= self.n_steps <= MAX_STEPS:
            raise ValueError(f"n_steps must be in [1, {MAX_STEPS}], got {self.n_steps}")
        if self.max_iters < 0:
            raise ValueError(f"max_iters must be >= 0, got {self.max_iters}")
        if not (np.isfinite(self.tol_grad) and self.tol_grad >= 0):
            raise ValueError(f"tol_grad must be finite and >= 0, got {self.tol_grad}")
        if self.tol_match is not None and not (np.isfinite(self.tol_match) and self.tol_match >= 0):
            raise ValueError(f"tol_match must be None or finite and >= 0, got {self.tol_match}")


class RegistrationStatus(Enum):
    CONVERGED = "converged"
    MAX_ITERS = "max_iters"
    STEP_FAILURE = "step_failure"


@dataclass
class IterationRecord:
    iteration: int
    energy: float
    kinetic: float
    match: float
    grad_norm: float
    step: float


@dataclass
class RegistrationResult:
    """Best iterate of a registration run with its full descent history."""

    u0: np.ndarray = field(repr=False)
    path: GeodesicPath = field(repr=False)
    history: list[IterationRecord] = field(repr=False)
    status: RegistrationStatus = RegistrationStatus.MAX_ITERS

    @property
    def iterations(self) -> int:
        return self.history[-1].iteration

    @property
    def energy(self) -> float:
        return self.history[-1].energy


def l2_matching(q: Immersion, q_target: Immersion) -> float:
    """Squared pointwise distance integrated over the flat parameter domain."""
    check_same_mesh(q.mesh, q_target.mesh, "matching")
    mass = parameter_mass_matrix(q.mesh)
    d = q.coords - q_target.coords
    return float(np.sum(d * (mass @ d)))


def matching_covector(q: Immersion, q_target: Immersion, sigma: float) -> np.ndarray:
    """Euclidean derivative of the matching term at the path endpoint."""
    check_sigma(sigma)
    check_same_mesh(q.mesh, q_target.mesh, "matching covector")
    mass = parameter_mass_matrix(q.mesh)
    return (mass @ (q.coords - q_target.coords)) / (sigma * sigma)


def energy(path: GeodesicPath, q_target: Immersion, sigma: float) -> tuple[float, float, float]:
    """Objective value of a shot path: (total, kinetic, match)."""
    check_sigma(sigma)
    kin = path_energy(path)
    match = l2_matching(path.final, q_target)
    return kin + match / (2.0 * sigma * sigma), kin, match


def _rest_preconditioner(op0: MetricOperator, sigma: float):
    """P r = (A0 + M / sigma^2)^{-1} A0 r, the inverse Gauss-Newton Hessian of
    the objective at rest acting on Riesz gradients in the metric at op0.

    A0 + M / sigma^2 is the Euclidean Hessian at u_0 = 0 of the objective
    with the path linearised (q_N = q0 + u_0), so P is self-adjoint and
    positive definite in <.,.>_{op0}.  Both blocks lie on the mesh's pattern.
    """
    mass = parameter_mass_matrix(op0.immersion.mesh)
    gn = SparseBlock(op0.block.data + mass.data / (sigma * sigma), op0.block.maps)

    def precond(r):
        try:
            return solve(gn, op0.block @ r)
        except SolverError as exc:
            raise SolverError(f"Gauss-Newton preconditioner at the template: {exc}") from exc
    return precond


def _two_loop(op0: MetricOperator, precond, pairs: list, g: np.ndarray) -> np.ndarray:
    """L-BFGS inverse-Hessian approximation applied to ``g``, in the metric at op0.

    ``pairs`` holds ``(s, y, 1 / <y, s>)``, oldest first; the initial
    inverse Hessian is ``precond`` scaled by ``<s, y> / <y, precond y>`` of
    the newest pair, or unscaled with no pair.
    """
    r = g
    coefs = []
    for s, y, rho in reversed(pairs):
        a = rho * inner_product(op0, s, r)
        r = r - a * y
        coefs.append(a)
    r = precond(r)
    if pairs:
        s, y, rho = pairs[-1]
        r = r / (rho * inner_product(op0, y, precond(y)))
    for (s, y, rho), a in zip(pairs, reversed(coefs)):
        r = r + (a - rho * inner_product(op0, y, r)) * s
    return r


def _remember(op0: MetricOperator, pairs: list, s: np.ndarray, y: np.ndarray) -> None:
    """Store the pair (s, y) unless its curvature <y, s> is not positive."""
    ys = inner_product(op0, y, s)
    if ys > 0:
        pairs.append((s, y, 1.0 / ys))
        del pairs[:-LBFGS_MEMORY]


def register(
    op0: MetricOperator, q_target: Immersion, cfg: RegistrationConfig
) -> RegistrationResult:
    """Minimize the registration objective by metric L-BFGS from ``op0.immersion``.

    ``alpha`` comes from ``op0``.  The descent starts from
    rest, u_0 = 0, where the gradient is the raised mismatch
    ``sharp(op0, M (q0 - q_target)) / sigma^2``, so the first direction
    is ``-solve(A0 + M / sigma^2, M (q0 - q_target)) / sigma^2`` (see
    ``_rest_preconditioner``).  Every trial shoots from ``op0``, whose metric
    is the L-BFGS inner product.  Each direction d = -H g is tried first at
    t = 1; a step t is accepted when the energy falls strictly and by at least
    ``ARMIJO_C * t * <g, d>`` and the adjoint sweep then gives its gradient.
    A trial is rejected, and t shrinks by ``ARMIJO_SHRINK``, when its energy
    falls too little or its shoot (StepFailureError) or its sweep
    (SolverError) fails.
    Returns the last, lowest iterate; the history has one row per iterate
    (the initial one included) with the accepted step along the search
    direction that produced it.
    Statuses: CONVERGED when the gradient norm falls to ``tol_grad`` (or the
    matching error to ``tol_match``), MAX_ITERS when the budget runs out,
    STEP_FAILURE when no step of size >= ``STEP_MIN`` passed: none both
    lowered the energy enough and had a gradient.
    Raises SolverError, naming the solve, when the rest path's adjoint sweep
    or the Gauss-Newton preconditioner solve at ``op0`` fails (a far too
    large alpha can do that): no earlier iterate exists to fall back to.
    """
    cfg.validate()
    check_same_mesh(op0.immersion.mesh, q_target.mesh, "registration")

    precond = _rest_preconditioner(op0, cfg.sigma)
    u = np.zeros((op0.immersion.mesh.n_nodes, 3))
    path = shoot(op0, u, cfg.n_steps)
    e_total, e_kin, e_match = energy(path, q_target, cfg.sigma)
    try:
        g = backward_sweep(path, matching_covector(path.final, q_target, cfg.sigma))
    except SolverError as exc:
        raise SolverError(f"adjoint sweep of the rest path: {exc}") from exc

    history: list[IterationRecord] = []
    pairs: list = []
    status = RegistrationStatus.MAX_ITERS
    step = 0.0

    for iteration in range(cfg.max_iters + 1):
        g_norm = norm(op0, g)
        history.append(IterationRecord(iteration, e_total, e_kin, e_match, g_norm, step))
        logger.info(
            "iter %d: E=%.6e kinetic=%.6e match=%.6e |grad|=%.3e step=%.2e",
            iteration, e_total, e_kin, e_match, g_norm, step,
        )
        if g_norm <= cfg.tol_grad or (cfg.tol_match is not None and e_match <= cfg.tol_match):
            status = RegistrationStatus.CONVERGED
            break
        if iteration == cfg.max_iters:
            break

        d = -_two_loop(op0, precond, pairs, g)
        slope = inner_product(op0, g, d)
        step = 1.0
        while step >= STEP_MIN:
            try:
                trial_path = shoot(op0, u + step * d, cfg.n_steps)
                trial = energy(trial_path, q_target, cfg.sigma)
                # the strict decrease also rejects steps whose Armijo margin
                # falls below one ulp of the energy
                if trial[0] < e_total and trial[0] <= e_total + ARMIJO_C * step * slope:
                    g_trial = backward_sweep(
                        trial_path, matching_covector(trial_path.final, q_target, cfg.sigma))
                    break
            except (StepFailureError, SolverError) as exc:
                logger.debug("step %.2e rejected: %s", step, exc)
            step *= ARMIJO_SHRINK
        else:
            status = RegistrationStatus.STEP_FAILURE
            break

        _remember(op0, pairs, step * d, g_trial - g)
        u = u + step * d
        path = trial_path
        e_total, e_kin, e_match = trial
        g = g_trial

    return RegistrationResult(u0=u, path=path, history=history, status=status)
