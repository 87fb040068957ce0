"""Backward sweep and the exact gradient of the discrete shooting objective."""

import math
import sys

import numpy as np
import pytest

from innershape import (
    Immersion,
    Topology,
    backward_sweep,
    build_grid,
    cylinder_surface,
    energy,
    inner_product,
    l2_matching,
    matching_covector,
    norm,
    parameter_mass_matrix,
    path_energy,
    sharp,
    shoot,
    torus_surface,
)
from innershape import adjoint, geometry, shooting
from innershape.fixtures import rotation_matrix
from innershape.metric import assemble
from innershape.registration import RegistrationConfig

from .conftest import count_calls, random_field
from .oracles import covector_sweep, min_fd_error, tangent_shoot
from .test_shooting import smooth_field

ALPHA = 0.6
SIGMA = 1.0
TOPOLOGIES = [Topology.PLANE, Topology.CYLINDER, Topology.TORUS]


def problem(topology, size=6):
    """Random start velocity and nearby target on a ``size``² surface of ``topology``.

    The torus tube (minor radius 0.15) is thinner than the plane and the
    cylinder, so its velocity is scaled down to keep every triangle of the
    shot path well away from collapse.
    """
    mesh = build_grid(topology, size, size)
    if topology is Topology.PLANE:
        q0 = Immersion(mesh, np.column_stack([mesh.nodes, np.zeros(mesh.n_nodes)]))
    elif topology is Topology.CYLINDER:
        q0 = cylinder_surface(mesh)
    else:
        q0 = torus_surface(mesh, 0.35, 0.15)
    rng = np.random.default_rng(11)
    scale = 0.1 if topology is Topology.TORUS else 0.25
    u0 = scale * rng.standard_normal((mesh.n_nodes, 3))
    q_target = q0.displaced(0.05 * rng.standard_normal((mesh.n_nodes, 3)))
    return q0, u0, q_target


@pytest.fixture(scope="module")
def small_problem():
    return problem(Topology.CYLINDER)


class TestMatchingCovector:
    def test_is_scaled_mass_times_difference(self, small_problem):
        q0, _, q_target = small_problem
        sigma = 0.7
        cov = matching_covector(q0, q_target, sigma)
        mass = parameter_mass_matrix(q0.mesh)
        want = (mass @ (q0.coords - q_target.coords)) / sigma**2
        assert np.max(np.abs(cov - want)) <= 1e-15

    def test_fd_of_matching_half(self, small_problem, rng):
        q0, _, q_target = small_problem
        d = random_field(rng, q0.mesh)
        value = float(np.vdot(matching_covector(q0, q_target, SIGMA), d))
        h = 1e-6
        fd = (
            l2_matching(q0.displaced(h * d), q_target)
            - l2_matching(q0.displaced(-h * d), q_target)
        ) / (2.0 * h) / (2.0 * SIGMA**2)
        assert value == pytest.approx(fd, rel=1e-7)


class TestBadSigma:
    # 1e-200, 1e-160 and 1e200 are finite and > 0, but their weight
    # w = 1/(2 sigma^2) is 1/0, inf and 0 in floats; at 1e-150 w is finite
    # but w^2, which the squared gradient norm carries, is inf
    @pytest.mark.parametrize("sigma", [0.0, -1.0, math.nan, math.inf, 1e-200, 1e-160, 1e200,
                                       1e-150])
    def test_rejected_by_every_matching_term(self, small_problem, sigma):
        q0, u0, q_target = small_problem
        path = shoot(assemble(q0, ALPHA), u0, 3)
        with pytest.raises(ValueError, match="sigma"):
            matching_covector(path.final, q_target, sigma)
        with pytest.raises(ValueError, match="sigma"):
            energy(path, q_target, sigma)


class TestBackwardSweep:
    @pytest.mark.parametrize("topology", TOPOLOGIES, ids=lambda t: t.name.lower())
    def test_fd_gate_small(self, topology, rng):
        q0, u0, q_target = problem(topology)
        cfg = RegistrationConfig(sigma=SIGMA, n_steps=3)
        op0 = assemble(q0, ALPHA)
        path = shoot(op0, u0, 3)
        grad = backward_sweep(path, matching_covector(path.final, q_target, SIGMA))

        worst = 0.0
        for _ in range(5):
            d = random_field(rng, q0.mesh)
            pair = inner_product(op0, grad, d)
            best = np.inf
            for h in (1e-3, 1e-4, 1e-5, 1e-6, 1e-7):
                ep, _, _ = energy(shoot(op0, u0 + h * d, cfg.n_steps), q_target, cfg.sigma)
                em, _, _ = energy(shoot(op0, u0 - h * d, cfg.n_steps), q_target, cfg.sigma)
                fd = (ep - em) / (2.0 * h)
                best = min(best, abs(pair - fd) / max(abs(pair), abs(fd), 1e-30))
            worst = max(worst, best)
        assert worst <= 1e-5

    @pytest.mark.parametrize("topology", TOPOLOGIES, ids=lambda t: t.name.lower())
    def test_fd_gate_for_any_endpoint_covector(self, topology, rng):
        # the sweep is the gradient of path energy + <c, q_N>: it knows no
        # matching term, only the derivative c of an endpoint cost
        q0, u0, _ = problem(topology)
        op0 = assemble(q0, ALPHA)
        c = random_field(rng, q0.mesh, 0.1)
        grad = backward_sweep(shoot(op0, u0, 3), c)

        def objective(u):
            path = shoot(op0, u, 3)
            return path_energy(path) + float(np.sum(c * path.final.coords))

        worst = 0.0
        for _ in range(5):
            d = random_field(rng, q0.mesh)
            err = min_fd_error(inner_product(op0, grad, d),
                               lambda h: (objective(u0 + h * d), objective(u0 - h * d)))
            worst = max(worst, err)
        assert worst <= 1e-5

    @pytest.mark.parametrize("topology", TOPOLOGIES, ids=lambda t: t.name.lower())
    def test_is_the_adjoint_of_the_tangent_shoot(self, topology):
        # the dot-product test: <g, v> at op0 and the forward-mode dE[v] differ
        # only by rounding; over problem seeds 0-99 the largest gap read 2.3e-9
        # |g| |v| (an ill-conditioned plane path, |g| ~ 1e6) and the median 1e-14
        q0, u0, q_target = problem(topology, size=8)
        op0 = assemble(q0, ALPHA)
        path = shoot(op0, u0, 5)
        qbar = matching_covector(path.final, q_target, SIGMA)
        grad = backward_sweep(path, qbar)
        rng = np.random.default_rng(5)
        for _ in range(10):
            v = random_field(rng, q0.mesh)
            gap = abs(inner_product(op0, grad, v) - tangent_shoot(path, v, qbar))
            assert gap <= 1e-8 * norm(op0, grad) * norm(op0, v)

    def test_takes_only_an_endpoint_covector(self, small_problem):
        q0, u0, _ = small_problem
        path = shoot(assemble(q0, ALPHA), u0, 3)
        n = q0.mesh.n_nodes
        for bad in (np.zeros(3), np.zeros((n, 2)), np.zeros((n + 1, 3)), np.zeros((3, n))):
            with pytest.raises(ValueError, match="covector"):
                backward_sweep(path, bad)
        # sigma and the matching mass matrix belong to registration
        for name in ("matching_covector", "check_sigma", "parameter_mass_matrix",
                     "check_same_mesh"):
            assert not hasattr(adjoint, name)

    @pytest.mark.parametrize("n_steps", [1, 3, 5])
    @pytest.mark.parametrize("topology", TOPOLOGIES, ids=lambda t: t.name.lower())
    def test_agrees_with_the_covector_recursion(self, topology, n_steps):
        q0, u0, q_target = problem(topology)
        path = shoot(assemble(q0, ALPHA), u0, n_steps)
        want = covector_sweep(path, q_target, SIGMA)
        got = backward_sweep(path, matching_covector(path.final, q_target, SIGMA))
        assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(want))

    @pytest.mark.parametrize("n_steps", [1, 2, 3, 4, 5])
    def test_one_solve_and_one_surface_gradient_per_step(self, small_problem, monkeypatch,
                                                         n_steps):
        q0, u0, q_target = small_problem
        path = shoot(assemble(q0, ALPHA), u0, n_steps)
        calls = count_calls(monkeypatch, [(adjoint, name) for name in (
            "sharp", "kinetic_adjoint_covectors", "kinetic_surface_gradient")])
        backward_sweep(path, matching_covector(path.final, q_target, SIGMA))
        # step i = 0 forms no qbar' update, so it needs no D
        assert calls == {"sharp": n_steps, "kinetic_adjoint_covectors": n_steps,
                         "kinetic_surface_gradient": n_steps - 1}
        for name in ("flat", "kinetic_cross_gradient", "kinetic_surface_hessian"):
            assert not hasattr(adjoint, name)

    def test_zero_mismatch_gradient_first_order_in_dt(self, small_problem):
        # the exact discrete gradient of the kinetic energy alone is
        # u_0 + O(dt): the deviation must shrink linearly with the step
        q0, _, _ = small_problem
        u0 = smooth_field(q0.mesh)
        errs = {}
        for n in (8, 16):
            path = shoot(assemble(q0, ALPHA), u0, n)
            g = backward_sweep(path, matching_covector(path.final, path.final, SIGMA))
            errs[n] = np.linalg.norm(g - u0) / np.linalg.norm(u0)
        assert errs[8] <= 0.5 / 8
        assert 1.5 <= errs[8] / errs[16] <= 2.5

    @pytest.mark.parametrize("topology", TOPOLOGIES, ids=lambda t: t.name.lower())
    def test_gradient_at_rest_is_the_raised_mismatch(self, topology):
        # from u_0 = 0 the path stays at q_0, so only the matching seed is left
        q0, _, q_target = problem(topology)
        op0 = assemble(q0, ALPHA)
        sigma = 0.25
        mismatch = parameter_mass_matrix(q0.mesh) @ (q_target.coords - q0.coords)
        want = -sharp(op0, mismatch) / sigma**2
        path = shoot(op0, np.zeros_like(q0.coords), 4)
        got = backward_sweep(path, matching_covector(path.final, q_target, sigma))
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        # so steepest descent from rest moves toward the target
        assert l2_matching(q0.displaced(-1e-3 * got), q_target) < l2_matching(q0, q_target)

    def test_stationary_problem_gives_exact_zero(self, small_problem):
        q0, _, _ = small_problem
        zero = np.zeros((q0.mesh.n_nodes, 3))
        path = shoot(assemble(q0, ALPHA), zero, 4)
        assert np.array_equal(backward_sweep(path, matching_covector(path.final, q0, SIGMA)), zero)

    def test_rotation_equivariance(self, small_problem):
        q0, u0, q_target = small_problem
        rot = rotation_matrix("y", 25.0) @ rotation_matrix("z", 130.0)
        b = np.array([0.1, 0.7, -0.2])

        path = shoot(assemble(q0, ALPHA), u0, 3)
        g = backward_sweep(path, matching_covector(path.final, q_target, SIGMA))

        q0_m = Immersion(q0.mesh, q0.coords @ rot.T + b)
        qt_m = Immersion(q0.mesh, q_target.coords @ rot.T + b)
        path_m = shoot(assemble(q0_m, ALPHA), u0 @ rot.T, 3)
        g_m = backward_sweep(path_m, matching_covector(path_m.final, qt_m, SIGMA))
        assert np.max(np.abs(g_m - g @ rot.T)) <= 1e-10

    def test_variations_read_the_geometry_from_the_operators(self, small_problem, monkeypatch):
        q0, u0, q_target = small_problem
        op0 = assemble(q0, ALPHA)
        path = shoot(op0, u0, 3)
        want = backward_sweep(path, matching_covector(path.final, q_target, SIGMA))
        assembled = {op.immersion.coords.tobytes(): op for op in path.operators}

        def recomputed(q):
            raise AssertionError("triangle geometry recomputed after assembly")

        real = geometry.triangle_geometry
        for name, module in list(sys.modules.items()):
            if name.startswith("innershape") and vars(module).get("triangle_geometry") is real:
                monkeypatch.setattr(module, "triangle_geometry", recomputed)
        # replay the shoot with the operators assembled above
        monkeypatch.setattr(shooting, "assemble",
                            lambda q, alpha: assembled[q.coords.tobytes()])
        replay = shoot(op0, u0, 3)
        assert all(np.array_equal(a, b) for a, b in zip(replay.velocities, path.velocities))
        assert np.array_equal(
            backward_sweep(replay, matching_covector(replay.final, q_target, SIGMA)), want)
