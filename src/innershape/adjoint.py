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
alpha and the regularity-checked geometry.  The sweep returns the metric
gradient of E at u_0, u_0 - u_hat_0 with u_hat_0 = u_0 - sharp_{q_0}(ubar_0);
it solves with the path's operators and assembles none of its own.
"""

import numpy as np

from .geometry import Immersion, check_same_mesh
from .metric import (
    flat,
    kinetic_cross_gradient,
    kinetic_surface_gradient,
    kinetic_surface_hessian,
    parameter_mass_matrix,
    sharp,
)
from .shooting import GeodesicPath


def matching_covector(q: Immersion, q_target: Immersion, sigma: float) -> np.ndarray:
    """Euclidean derivative of the matching term at the path endpoint."""
    check_same_mesh(q.mesh, q_target.mesh, "matching covector")
    mass = parameter_mass_matrix(q.mesh)
    return (mass @ (q.coords - q_target.coords)) / (sigma * sigma)


def backward_sweep(path: GeodesicPath, q_target: Immersion, sigma: float) -> np.ndarray:
    """Run the adjoint recursion down a shot path.

    Parameters
    ----------
    path : GeodesicPath
        Forward path; its cached operators are reused for every solve and
        variation.
    q_target : Immersion
        Matching target for the endpoint.
    sigma : float
        Matching weight 1/(2 sigma^2); must be > 0.

    Returns
    -------
    ndarray, shape (n, 3)
        Metric gradient of the objective at u_0.
    """
    if sigma <= 0:
        raise ValueError(f"sigma must be > 0, got {sigma}")
    n = path.n_steps
    dt = path.dt

    qbar = matching_covector(path.final, q_target, sigma)
    ubar = np.zeros_like(qbar)

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

    # formed through u_hat_0, as docs/gradient.md defines it: returning
    # sharp(op_0, ubar_0) directly changes the last digits of the result
    u0 = path.velocities[0]
    u_hat0 = u0 - sharp(path.operators[0], ubar)
    return u0 - u_hat0
