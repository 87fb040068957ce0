"""Independent reference implementations used to cross-check the library.

Everything here is deliberately written in plain per-triangle loops with
textbook formulas, sharing no code with the package's vectorized assembly:
disagreement between the two routes is a bug in one of them.  The one
exception is ``covector_sweep``, which checks the algebra of the adjoint
recursion rather than the variations: it runs the lowered (covector) form of
the sweep on the package's own solves and variations.  ``tangent_shoot``
likewise runs the forward-mode linearization of the shoot on the package's
solves and variations, so pairing it with the sweep checks the transposition.
"""

import numpy as np

from innershape.metric import (
    inner_product,
    kinetic_adjoint_covectors,
    kinetic_surface_gradient,
    sharp,
)
from innershape.registration import matching_covector

#: reference-triangle hat-function gradients on the unit triangle
_REF_GRADS = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])


def _corners(mesh, tri):
    """(3, 2) unwrapped parameter corners of one triangle, rebuilt from its
    cell (tri // 2, row by row) and its place in it: even triangles are the
    lower ones, (i, j), (i + 1, j), (i + 1, j + 1), odd ones the upper ones,
    (i, j), (i + 1, j + 1), (i, j + 1).  On a periodic mesh a seam triangle's
    corners continue past 1.0, unlike the wrapped node coordinates."""
    i, j = (tri // 2) % mesh.nx, (tri // 2) // mesh.nx
    offsets = [(0, 0), (1, 0), (1, 1)] if tri % 2 == 0 else [(0, 0), (1, 1), (0, 1)]
    return np.array([((i + di) / mesh.nx, (j + dj) / mesh.ny) for di, dj in offsets])


def _triangle_frames(mesh, tri):
    """Parameter-edge matrix, hat gradients and area of one triangle."""
    p = _corners(mesh, tri)
    edges = np.column_stack([p[1] - p[0], p[2] - p[0]])  # (2, 2)
    area = 0.5 * abs(np.linalg.det(edges))
    # gradient of hat k in parameter coordinates: E^{-T} @ ref-grad_k
    grads = np.linalg.solve(edges.T, _REF_GRADS.T).T  # (3, 2)
    return edges, grads, area


def _jacobian(mesh, coords, tri):
    """3x2 derivative of the immersion on one triangle."""
    p = _corners(mesh, tri)
    corners = coords[mesh.triangles[tri]]  # (3, 3)
    edges = np.column_stack([p[1] - p[0], p[2] - p[0]])
    dq_edges = np.column_stack([corners[1] - corners[0], corners[2] - corners[0]])
    return dq_edges @ np.linalg.inv(edges)


def flat_mass_matrix(mesh) -> np.ndarray:
    """Dense P1 mass matrix of the flat parameter domain."""
    n = mesh.n_nodes
    mass = np.zeros((n, n))
    for tri in range(mesh.n_triangles):
        _, _, area = _triangle_frames(mesh, tri)
        idx = mesh.triangles[tri]
        for a in range(3):
            for b in range(3):
                mass[idx[a], idx[b]] += area * (2.0 if a == b else 1.0) / 12.0
    return mass


def flat_stiffness_matrix(mesh) -> np.ndarray:
    """Dense P1 stiffness matrix of the flat parameter domain."""
    n = mesh.n_nodes
    stiff = np.zeros((n, n))
    for tri in range(mesh.n_triangles):
        _, grads, area = _triangle_frames(mesh, tri)
        idx = mesh.triangles[tri]
        for a in range(3):
            for b in range(3):
                stiff[idx[a], idx[b]] += area * float(np.dot(grads[a], grads[b]))
    return stiff


def metric_inner_quadrature(q, alpha: float, u: np.ndarray, v: np.ndarray) -> float:
    """Inner product by direct per-triangle quadrature.

    The zeroth-order term integrates the product of linear fields with the
    exact edge-midpoint rule; the first-order term is constant per triangle.
    Both are weighted by the induced area element vol = sqrt(det g).
    """
    mesh = q.mesh
    total = 0.0
    for tri in range(mesh.n_triangles):
        _, grads, area = _triangle_frames(mesh, tri)
        jac = _jacobian(mesh, q.coords, tri)
        g = jac.T @ jac
        vol = np.sqrt(np.linalg.det(g))
        g_inv = np.linalg.inv(g)

        corners = mesh.triangles[tri]
        uc, vc = u[corners], v[corners]
        mass = 0.0
        for a, b in ((0, 1), (1, 2), (2, 0)):
            um = 0.5 * (uc[a] + uc[b])
            vm = 0.5 * (vc[a] + vc[b])
            mass += float(np.dot(um, vm))
        mass *= area / 3.0

        grad_u = uc.T @ grads  # (3, 2): component k, parameter direction i
        grad_v = vc.T @ grads
        first = float(np.trace(grad_u @ g_inv @ grad_v.T))
        total += vol * (mass + alpha * alpha * first * area)
    return total


def l2_quadrature(mesh, d: np.ndarray) -> float:
    """Squared L2 norm of a nodal field over the flat parameter domain."""
    total = 0.0
    for tri in range(mesh.n_triangles):
        _, _, area = _triangle_frames(mesh, tri)
        dc = d[mesh.triangles[tri]]
        acc = 0.0
        for a, b in ((0, 1), (1, 2), (2, 0)):
            mid = 0.5 * (dc[a] + dc[b])
            acc += float(np.dot(mid, mid))
        total += acc * area / 3.0
    return total


def kinetic_form(q, alpha: float, u: np.ndarray, v: np.ndarray) -> float:
    """1/2 <u, v>_q via the quadrature oracle (the varied functional)."""
    return 0.5 * metric_inner_quadrature(q, alpha, u, v)


def min_fd_error(pairing: float, values_at, steps=(1e-3, 1e-4, 1e-5, 1e-6, 1e-7)) -> float:
    """Best relative agreement of a pairing with central differences.

    ``values_at(h)`` must return (f(x + h d), f(x - h d)).
    """
    best = np.inf
    for h in steps:
        f_plus, f_minus = values_at(h)
        fd = (f_plus - f_minus) / (2.0 * h)
        scale = max(abs(pairing), abs(fd), 1e-30)
        best = min(best, abs(pairing - fd) / scale)
    return best


def covector_sweep(path, q_target, sigma: float) -> np.ndarray:
    """Metric gradient of the shooting objective by the covector recursion.

    Carries ubar_i = dE/du_i and qbar_i = dE/dq_i as docs/gradient.md
    derives them: with w = sharp_{q_{i+1}}(ubar_{i+1}),

        qbar'   = qbar_{i+1} - 2 D(q_{i+1}; u_{i+1}, w)
        qbar_i  = qbar' + D(q_i; u_i, 2 w + dt u_i) + dt H(q_i; u_i, w)
        ubar_i  = flat_{q_i}(w + dt u_i) + 2 dt C(q_i; u_i, w) + dt qbar'

    seeded with ubar_N = 0, and returns sharp_{q_0}(ubar_0).
    """
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
            cross, hess = kinetic_adjoint_covectors(op_i, u_i, w)
            cross, hess = 2.0 * dt * cross, dt * hess
        else:
            w = np.zeros_like(ubar)
            qbar_adj = qbar
            cross = 0.0
            hess = 0.0

        qbar = qbar_adj + hess + kinetic_surface_gradient(op_i, u_i, 2.0 * w + dt * u_i)
        ubar = op_i.block @ (w + dt * u_i) + cross + dt * qbar_adj

    u0 = path.velocities[0]
    u_hat0 = u0 - sharp(path.operators[0], ubar)
    return u0 - u_hat0


def tangent_shoot(path, v: np.ndarray, qbar: np.ndarray) -> float:
    """Directional derivative dE[v] at u_0 of the path energy plus an endpoint cost.

    Linearizes the shoot forward in the direction du_0 = v, with dq_0 = 0,
    (C, H) from ``kinetic_adjoint_covectors`` and D the kinetic surface
    gradient:

        dq_{i+1} = dq_i + dt du_i
        A_{i+1} du_{i+1} = A_i du_i + 2 C(q_i; u_i, dq_i) - 2 C(q_{i+1}; u_{i+1}, dq_{i+1})
                           + dt (2 D(q_i; u_i, du_i) + H(q_i; u_i, dq_i))
        dE = sum_i dt (<u_i, du_i>_{q_i} + D(q_i; u_i, u_i) . dq_i) + qbar . dq_N

    where qbar is the Euclidean derivative of the endpoint cost at
    ``path.final``.  It carries m_i = A_i du_i + 2 C(q_i; u_i, dq_i).
    """
    dt = path.dt
    du = v
    dq = np.zeros_like(v)
    m = path.operators[0].block @ v  # C vanishes at dq_0 = 0
    d_energy = 0.0
    for i in range(path.n_steps):
        op, u = path.operators[i], path.velocities[i]
        cross, hess = kinetic_adjoint_covectors(op, u, dq)
        if i:
            du = sharp(op, m - 2.0 * cross)
        d_energy += dt * (inner_product(op, u, du)
                          + float(np.sum(kinetic_surface_gradient(op, u, u) * dq)))
        m = m + dt * (2.0 * kinetic_surface_gradient(op, u, du) + hess)
        dq = dq + dt * du
    return d_energy + float(np.sum(qbar * dq))
