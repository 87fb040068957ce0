"""Dimensional analysis as an exact end-to-end oracle.

Scale a shoot's surface, ``alpha`` and initial velocity by c.  Then every
velocity and immersion of the path scales by c and the kinetic energy by
c^4; a sweep from an endpoint covector scaled by c^3 gives a gradient
scaled by c.  Scale a registration's surfaces by c, ``alpha`` by c,
``sigma`` by 1/c and ``tol_grad`` by c^2.  Then the initial velocity scales
by c, every energy by c^4 and every metric gradient norm by c^2, and the
steps do not change.  With c a power of two every floating-point operation
scales exactly, so the law holds bit for bit: an absolute constant that
binds anywhere on the way (a floor, a threshold, a capped step) breaks it.
"""

import numpy as np
import pytest

from innershape import (
    Immersion,
    RegistrationConfig,
    Topology,
    assemble,
    backward_sweep,
    build_grid,
    cylinder_surface,
    register,
    shoot,
    torus_surface,
)

ALPHA = 0.6
SIGMA = 0.05
TOL_GRAD = 1e-5
N_STEPS = 4

SURFACES = {
    "cylinder": lambda: cylinder_surface(build_grid(Topology.CYLINDER, 8, 8), bend_deg=60.0),
    "torus": lambda: torus_surface(build_grid(Topology.TORUS, 8, 8), asymmetry=0.3),
}


def scaled_shot_and_sweep(q, u0, qbar, c):
    path = shoot(assemble(Immersion(q.mesh, c * q.coords), c * ALPHA), c * u0, N_STEPS)
    return path, backward_sweep(path, c**3 * qbar)


@pytest.mark.parametrize("c", [2.0, 0.5, 4.0, 2.0**-28])
@pytest.mark.parametrize("surface", sorted(SURFACES))
def test_shoot_and_sweep_scale_bitwise(surface, c):
    q = SURFACES[surface]()
    u0, qbar = 0.1 * np.random.default_rng(1).standard_normal((2, q.mesh.n_nodes, 3))
    path, grad = scaled_shot_and_sweep(q, u0, qbar, 1.0)
    path_c, grad_c = scaled_shot_and_sweep(q, u0, qbar, c)
    assert all(np.array_equal(a, c * b) for a, b in zip(path_c.velocities, path.velocities))
    assert np.array_equal(path_c.final.coords, c * path.final.coords)
    assert np.array_equal(path_c.kinetic, c**4 * path.kinetic)
    assert np.array_equal(grad_c, c * grad)


def scaled_registration(c):
    mesh = build_grid(Topology.CYLINDER, 8, 8)
    q0, qt = cylinder_surface(mesh), cylinder_surface(mesh, bend_deg=60.0)
    cfg = RegistrationConfig(sigma=SIGMA / c, n_steps=4, max_iters=200, tol_grad=c * c * TOL_GRAD)
    return register(assemble(Immersion(mesh, c * q0.coords), c * ALPHA),
                    Immersion(mesh, c * qt.coords), cfg)


@pytest.fixture(scope="module")
def unscaled():
    return scaled_registration(1.0)


@pytest.mark.parametrize("c", [2.0, 0.5, 4.0])
def test_register_scales_bitwise(unscaled, c):
    result = scaled_registration(c)
    assert result.status is unscaled.status
    assert result.iterations == unscaled.iterations == 13
    assert np.array_equal(result.u0, c * unscaled.u0)
    assert [(h.energy, h.kinetic, h.match, h.grad_norm, h.step) for h in result.history] == [
        (c**4 * h.energy, c**4 * h.kinetic, c * c * h.match, c * c * h.grad_norm, h.step)
        for h in unscaled.history
    ]
