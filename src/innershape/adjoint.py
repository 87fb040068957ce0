"""Exact gradient of the shooting objective by a backward adjoint sweep.

The objective of a shot path with endpoint matching is

    E(u_0) = dt * sum_i l(u_i, u_i; q_i)
           + 1/(2 sigma^2) * |q_N - q_target|^2_flat

where the matching term uses the flat parameter-domain mass matrix.  The
sweep transposes the linearized forward scheme step by step, so the returned
gradient differentiates the discrete objective exactly up to rounding; a
central finite difference of E must agree to FD-limited accuracy, which the
test suite enforces.

The sweep carries the raised adjoint W_{i+1} = sharp_{q_{i+1}}(ubar_{i+1}),
where ubar_i is the Euclidean derivative of E with respect to u_i, and the
covector qbar' that continues upstream through q_{i+1}.  Seeded with
W_N = 0 and qbar' = the matching-term derivative, step i = N-1 .. 0 runs

    W_i   = W_{i+1} + dt * u_i
            + sharp_{q_i}(2 dt * Cross(q_i; u_i, W_{i+1}) + dt * qbar')
    qbar' <- qbar' + dt * Hess_q l(u_i)[W_{i+1}]
            + D(q_i; u_i, 2 (W_{i+1} - W_i) + dt * u_i)

with D the kinetic surface gradient, and returns W_0, the metric gradient
of E at u_0.  Cross and Hess come from one ``kinetic_adjoint_covectors``
call.  D is bilinear in its two velocity slots, so its single call fuses
this step's D(q_i; u_i, 2 W_{i+1} + dt * u_i) with the next step's
-2 D(q_i; u_i, W_i).  Nothing reads the qbar' of step i = 0, so that
update is not formed: a sweep of N steps makes N solves, N kernel calls
and N - 1 D calls.  Every solve and variation takes the forward path's
operator at q_i, which carries alpha and the regularity-checked geometry;
the sweep assembles none of its own.  docs/gradient.md derives the
recursion.
"""

import numpy as np

from .geometry import Immersion, check_same_mesh
from .metric import (
    kinetic_adjoint_covectors,
    kinetic_surface_gradient,
    parameter_mass_matrix,
    sharp,
)
from .shooting import GeodesicPath


def check_sigma(sigma: float) -> None:
    """Raise ValueError unless the matching scale is finite and > 0."""
    if not (np.isfinite(sigma) and sigma > 0):
        raise ValueError(f"sigma must be finite and > 0, got {sigma}")


def matching_covector(q: Immersion, q_target: Immersion, sigma: float) -> np.ndarray:
    """Euclidean derivative of the matching term at the path endpoint."""
    check_sigma(sigma)
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
        Matching weight 1/(2 sigma^2); must be finite and > 0.

    Returns
    -------
    ndarray, shape (n, 3)
        Metric gradient of the objective at u_0.
    """
    dt = path.dt
    qbar = matching_covector(path.final, q_target, sigma)
    w = np.zeros_like(qbar)
    for i in range(path.n_steps - 1, -1, -1):
        op, u = path.operators[i], path.velocities[i]
        cross, hess = kinetic_adjoint_covectors(op, u, w)
        w_next = w + dt * u + sharp(op, 2.0 * dt * cross + dt * qbar)
        if i:
            qbar = qbar + dt * hess + kinetic_surface_gradient(op, u, 2.0 * (w - w_next) + dt * u)
        w = w_next
    return w
