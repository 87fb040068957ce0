"""Exact gradient of a shot path's energy plus an endpoint cost c,

    E(u_0) = dt * sum_i l(u_i, u_i; q_i) + c(q_N),

by a backward adjoint sweep that takes qbar = dc/dq_N, the Euclidean
derivative of c at the endpoint (``registration.matching_covector`` for the
L2 matching term).  The sweep transposes the linearized forward scheme step by
step, so the returned gradient differentiates the discrete objective exactly
up to rounding; a central finite difference of E must agree to FD-limited
accuracy, which the test suite enforces.

The sweep carries the raised adjoint W_{i+1} = sharp_{q_{i+1}}(ubar_{i+1}),
where ubar_i is the Euclidean derivative of E with respect to u_i, and the
covector qbar' that continues upstream through q_{i+1}.  Seeded with
W_N = 0 and qbar' = qbar, step i = N-1 .. 0 runs

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

from .metric import kinetic_adjoint_covectors, kinetic_surface_gradient, sharp
from .shooting import GeodesicPath


def backward_sweep(path: GeodesicPath, qbar: np.ndarray) -> np.ndarray:
    """Run the adjoint recursion down a shot path.

    Parameters
    ----------
    path : GeodesicPath
        Forward path; its cached operators are reused for every solve and
        variation.
    qbar : ndarray, shape (n, 3)
        Euclidean derivative of the endpoint cost at ``path.final``.

    Returns
    -------
    ndarray, shape (n, 3)
        Metric gradient at u_0 of the path energy plus the endpoint cost.
    """
    dt = path.dt
    n = path.final.mesh.n_nodes
    if qbar.shape != (n, 3):
        raise ValueError(f"expected ({n}, 3) endpoint covector, got {qbar.shape}")
    w = np.zeros_like(qbar)
    for i in range(path.n_steps - 1, -1, -1):
        op, u = path.operators[i], path.velocities[i]
        cross, hess = kinetic_adjoint_covectors(op, u, w)
        w_next = w + dt * u + sharp(op, 2.0 * dt * cross + dt * qbar)
        if i:
            qbar = qbar + dt * hess + kinetic_surface_gradient(op, u, 2.0 * (w - w_next) + dt * u)
        w = w_next
    return w
