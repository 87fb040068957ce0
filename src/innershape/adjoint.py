"""Exact gradient of the shooting objective by a backward adjoint sweep.

The objective of a shot path with endpoint matching is

    E(u_0) = dt * sum_i l(u_i, u_i; q_i)
           + 1/(2 sigma^2) * |q_N - q_target|^2_flat

where the matching term uses the flat parameter-domain mass matrix.  The
sweep transposes the linearized forward scheme step by step, so the returned
gradient differentiates the discrete objective exactly up to rounding; a
central finite difference of E must agree to FD-limited accuracy, which the
test suite enforces.

Writing ubar_i and qbar_i for the accumulated Euclidean derivatives of E
with respect to u_i and q_i, the recursion below q_N is, with
w = sharp_{q_{i+1}}(ubar_{i+1}) and D the kinetic surface gradient,

    qbar'   = qbar_{i+1} - 2 D(q_{i+1}; u_{i+1}, w)
    qbar_i  = qbar' + D(q_i; u_i, 2 w + dt * u_i) + dt * Hess_q l(u_i)[w]
    ubar_i  = flat_{q_i}(w + dt * u_i) + 2 dt * Cross(q_i; u_i, w)
                    + dt * qbar'

seeded with ubar_N = 0 and qbar_N = the matching-term derivative.  D is
bilinear in its two velocity slots, so its single term in qbar_i is
2 D(q_i; u_i, w) + dt * D(q_i; u_i, u_i) evaluated in one call.  D, Hess
and Cross at q_i take the forward path's operator at q_i, which carries
alpha and the regularity-checked geometry.  The hat
variables reported to callers are metric-raised forms of these:
u_hat_i = u_i - sharp_{q_i}(ubar_i) and v_hat_i = -sharp_{q_i}(qbar_i), so
that u_hat_N = 0, v_hat_N = sharp(-(1/sigma^2) * flat-mass * (q_N - q_target))
and the metric gradient of E at u_0 is exactly u_0 - u_hat_0.
"""

from dataclasses import dataclass, field

import numpy as np

from .geometry import Immersion, check_same_mesh
from .metric import (
    assemble,
    flat,
    kinetic_cross_gradient,
    kinetic_surface_gradient,
    kinetic_surface_hessian,
    parameter_mass_matrix,
    sharp,
)
from .shooting import GeodesicPath


@dataclass
class AdjointState:
    """Backward-sweep output, indexed chronologically (entry i is time i).

    ``u_hat[0]`` and ``u_hat[N]`` are always present; the interior hat
    fields are filled only when the sweep runs with diagnostics (they cost
    two extra solves per step and are not needed for the gradient).
    """

    sigma: float
    u_hat: list = field(repr=False)
    v_hat: list = field(repr=False)

    @property
    def n_steps(self) -> int:
        return len(self.u_hat) - 1


def matching_covector(q: Immersion, q_target: Immersion, sigma: float) -> np.ndarray:
    """Euclidean derivative of the matching term at the path endpoint."""
    check_same_mesh(q.mesh, q_target.mesh, "matching covector")
    mass = parameter_mass_matrix(q.mesh)
    return (mass @ (q.coords - q_target.coords)) / (sigma * sigma)


def backward_sweep(
    path: GeodesicPath,
    q_target: Immersion,
    sigma: float,
    diagnostics: bool = True,
) -> AdjointState:
    """Run the adjoint recursion down a shot path.

    Parameters
    ----------
    path : GeodesicPath
        Forward path; its cached operators are reused for every solve and
        variation, and supply alpha and eps_reg for the diagnostic operator
        at the endpoint.
    q_target : Immersion
        Matching target for the endpoint.
    sigma : float
        Matching weight 1/(2 sigma^2); must be > 0.
    diagnostics : bool
        Fill interior u_hat/v_hat entries (extra solves per step).

    Returns
    -------
    AdjointState
    """
    if sigma <= 0:
        raise ValueError(f"sigma must be > 0, got {sigma}")
    n = path.n_steps
    dt = path.dt

    qbar = matching_covector(path.final, q_target, sigma)
    ubar = np.zeros_like(qbar)

    u_hat: list = [None] * (n + 1)
    v_hat: list = [None] * (n + 1)
    u_hat[n] = np.zeros_like(qbar)
    if diagnostics:
        op0 = path.operators[0]
        op_final = assemble(path.final, op0.alpha, op0.eps_reg)
        v_hat[n] = -sharp(op_final, qbar)

    for i in range(n - 1, -1, -1):
        u_i = path.velocities[i]
        op_i = path.operators[i]

        if np.any(ubar):
            op_next = path.operators[i + 1]
            w = sharp(op_next, ubar)
            qbar_adj = qbar - 2.0 * kinetic_surface_gradient(op_next, path.velocities[i + 1], w)
            cross = 2.0 * dt * kinetic_cross_gradient(op_i, u_i, w)
            hess = dt * kinetic_surface_hessian(op_i, u_i, w)
        else:
            w = np.zeros_like(ubar)
            qbar_adj = qbar
            cross = 0.0
            hess = 0.0

        # D is bilinear in its velocity slots, so one call gives
        # 2 D(q_i; u_i, w) + dt D(q_i; u_i, u_i)
        qbar = qbar_adj + hess + kinetic_surface_gradient(op_i, u_i, 2.0 * w + dt * u_i)
        ubar = flat(op_i, w + dt * u_i) + cross + dt * qbar_adj

        if diagnostics or i == 0:
            u_hat[i] = u_i - sharp(op_i, ubar)
        if diagnostics:
            v_hat[i] = -sharp(op_i, qbar)

    return AdjointState(sigma=sigma, u_hat=u_hat, v_hat=v_hat)


def gradient(path: GeodesicPath, adjoint: AdjointState) -> np.ndarray:
    """Metric gradient of the objective at u_0: exactly u_0 - u_hat_0."""
    return path.velocities[0] - adjoint.u_hat[0]
