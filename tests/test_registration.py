"""Energy descent registration: matching term, line search, convergence."""

import math
from dataclasses import fields

import numpy as np
import pytest

from innershape import (
    Immersion,
    RegistrationConfig,
    RegistrationStatus,
    StepFailureError,
    Topology,
    assemble,
    backward_sweep,
    build_grid,
    cylinder_surface,
    energy,
    l2_matching,
    matching_covector,
    path_energy,
    register,
    require_regular,
    shoot,
)
from innershape import adjoint, metric, registration, shooting
from innershape.fixtures import rotation_matrix

from .conftest import random_field
from .oracles import l2_quadrature
from .test_geometry import flat_immersion

ALPHA = 0.6


@pytest.fixture(scope="module")
def bend_problem():
    mesh = build_grid(Topology.CYLINDER, 6, 6)
    return cylinder_surface(mesh), cylinder_surface(mesh, bend_deg=50.0)


class TestMatchingTerm:
    def test_identical_surfaces_give_zero(self, cylinder_shape):
        assert l2_matching(cylinder_shape, cylinder_shape) == 0.0

    def test_constant_offset_gives_squared_norm(self, flat_square):
        c = np.array([0.2, -0.1, 0.5])
        shifted = flat_square.displaced(np.tile(c, (flat_square.mesh.n_nodes, 1)))
        assert l2_matching(flat_square, shifted) == pytest.approx(float(c @ c), abs=1e-14)

    def test_random_difference_matches_quadrature(self, rng, plane_mesh):
        q = flat_immersion(plane_mesh)
        target = Immersion(plane_mesh, q.coords + random_field(rng, plane_mesh, 0.3))
        want = l2_quadrature(plane_mesh, q.coords - target.coords)
        assert l2_matching(q, target) == pytest.approx(want, rel=1e-13)


class TestEnergy:
    def test_zero_velocity_energy_is_pure_matching(self, bend_problem):
        q0, qt = bend_problem
        cfg = RegistrationConfig(sigma=0.5, n_steps=4)
        zero = np.zeros((q0.mesh.n_nodes, 3))
        total, kinetic, match = energy(shoot(assemble(q0, ALPHA), zero, 4), qt, cfg.sigma)
        assert kinetic == 0.0
        assert match == pytest.approx(l2_matching(q0, qt), rel=1e-14)
        assert total == pytest.approx(match / (2.0 * 0.5**2), rel=1e-14)

    def test_shot_endpoint_as_target_zeroes_matching(self, bend_problem, rng):
        q0, _ = bend_problem
        u0 = random_field(rng, q0.mesh, 0.05)
        cfg = RegistrationConfig(sigma=1.0, n_steps=4)
        path = shoot(assemble(q0, ALPHA), u0, 4)
        total, kinetic, match = energy(path, path.final, cfg.sigma)
        assert match == 0.0
        assert total == kinetic == pytest.approx(path_energy(path), rel=1e-14)


class TestRegister:
    def test_target_equals_template_converges_immediately(self, bend_problem):
        q0, _ = bend_problem
        cfg = RegistrationConfig(sigma=1.0, n_steps=4)
        res = register(assemble(q0, ALPHA), q0, cfg)
        assert res.status is RegistrationStatus.CONVERGED
        assert res.iterations == 0
        assert res.energy == 0.0
        assert np.array_equal(res.u0, np.zeros_like(res.u0))

    def test_translation_target_on_plane_sheet(self):
        mesh = build_grid(Topology.PLANE, 8, 8)
        q0 = flat_immersion(mesh)
        c = np.array([0.03, -0.02, 0.04])
        qt = q0.displaced(np.tile(c, (mesh.n_nodes, 1)))
        m0 = l2_matching(q0, qt)
        cfg = RegistrationConfig(sigma=0.3, n_steps=5, max_iters=50,
                                 tol_grad=1e-12, tol_match=0.01 * m0)
        res = register(assemble(q0, ALPHA), qt, cfg)
        assert res.status is RegistrationStatus.CONVERGED
        assert res.history[-1].match <= 0.01 * m0
        energies = [h.energy for h in res.history]
        assert all(b < a for a, b in zip(energies, energies[1:]))

    def test_monotone_descent_history(self, bend_problem):
        q0, qt = bend_problem
        cfg = RegistrationConfig(sigma=0.5, n_steps=4, max_iters=15,
                                 tol_grad=1e-12)
        res = register(assemble(q0, ALPHA), qt, cfg)
        energies = [h.energy for h in res.history]
        assert len(energies) >= 2
        assert all(b < a for a, b in zip(energies, energies[1:]))

    def test_sigma_scaling_shifts_energy_balance(self, bend_problem):
        q0, qt = bend_problem
        results = {}
        for sigma in (0.3, 3.0):
            cfg = RegistrationConfig(sigma=sigma, n_steps=5,
                                     max_iters=120, tol_grad=2e-5)
            results[sigma] = register(assemble(q0, ALPHA), qt, cfg).history[-1]
        assert results[3.0].kinetic < results[0.3].kinetic
        assert results[3.0].match > results[0.3].match

    def test_rotation_equivariance(self, bend_problem):
        q0, qt = bend_problem
        cfg = RegistrationConfig(sigma=0.5, n_steps=4, max_iters=30, tol_grad=1e-6)
        res = register(assemble(q0, ALPHA), qt, cfg)
        rot = rotation_matrix("z", 33.0) @ rotation_matrix("x", -20.0)
        b = np.array([0.3, -0.1, 0.8])
        res_m = register(
            assemble(Immersion(q0.mesh, q0.coords @ rot.T + b), ALPHA),
            Immersion(q0.mesh, qt.coords @ rot.T + b),
            cfg,
        )
        assert np.max(np.abs(res_m.u0 - res.u0 @ rot.T)) <= 1e-8

    def test_line_search_stops_when_the_energy_no_longer_falls(self):
        # near the minimiser the Armijo margin falls below one ulp of the
        # energy; such steps must be rejected, not recorded as iterates
        mesh = build_grid(Topology.PLANE, 6, 6)
        base = flat_immersion(mesh)
        side = base.displaced(np.tile([-0.03, 0.02, 0.035], (mesh.n_nodes, 1)))
        plus = base.displaced(np.tile([0.04, -0.03, 0.05], (mesh.n_nodes, 1)))
        cfg = RegistrationConfig(sigma=0.3, n_steps=4, max_iters=400,
                                 tol_grad=1e-14)
        res = register(assemble(side, ALPHA), plus, cfg)
        energies = [h.energy for h in res.history]
        assert all(b < a for a, b in zip(energies, energies[1:]))
        assert res.status is RegistrationStatus.STEP_FAILURE
        assert res.history  # the failed iterate is still recorded

    def test_trial_whose_shoot_fails_is_rejected(self, bend_problem, monkeypatch):
        # a trial that raises StepFailureError shrinks the step like one whose
        # energy does not fall, and the search goes on
        q0, qt = bend_problem
        shot = []

        def shoot_failing_first_trial(op0, u0, n_steps):
            shot.append(u0)
            if len(shot) == 2:  # the first shoot is the rest start
                raise StepFailureError(0, "injected")
            return shooting.shoot(op0, u0, n_steps)

        monkeypatch.setattr(registration, "shoot", shoot_failing_first_trial)
        cfg = RegistrationConfig(sigma=0.5, n_steps=4, max_iters=1, tol_grad=1e-12)
        res = register(assemble(q0, ALPHA), qt, cfg)
        assert not np.any(shot[0])
        assert np.array_equal(shot[2], registration.ARMIJO_SHRINK * shot[1])
        assert res.iterations == 1
        assert res.history[1].energy < res.history[0].energy


class TestLBFGS:
    SIGMA = 0.05

    @pytest.fixture
    def op0(self, bend_problem):
        return assemble(bend_problem[0], ALPHA)

    @pytest.fixture
    def precond(self, op0):
        return registration._rest_preconditioner(op0, self.SIGMA)

    def stored_pairs(self, rng, op0, count):
        pairs = []
        for _ in range(count):
            s = random_field(rng, op0.immersion.mesh, 0.1)
            y = s + random_field(rng, op0.immersion.mesh, 0.02)
            registration._remember(op0, pairs, s, y)
        return pairs

    def test_secant_equation_for_the_newest_pair(self, rng, op0, precond):
        for count in (1, 3, registration.LBFGS_MEMORY + 2):
            pairs = self.stored_pairs(rng, op0, count)
            assert len(pairs) == min(count, registration.LBFGS_MEMORY)
            s, y, _ = pairs[-1]
            hy = registration._two_loop(op0, precond, pairs, y)
            assert metric.norm(op0, hy - s) <= 1e-12 * metric.norm(op0, s)

    def test_pair_without_positive_curvature_is_not_stored(self, rng, op0):
        pairs = self.stored_pairs(rng, op0, 2)
        kept = list(pairs)
        s = random_field(rng, op0.immersion.mesh, 0.1)
        registration._remember(op0, pairs, s, -s)
        registration._remember(op0, pairs, s, np.zeros_like(s))
        assert len(pairs) == len(kept)
        assert all(a is b for a, b in zip(pairs, kept))

    def test_quasi_newton_direction_starts_at_unit_step(self, rng, op0, precond):
        pairs = self.stored_pairs(rng, op0, 3)
        g = random_field(rng, op0.immersion.mesh, 0.1)
        d, slope = registration._search_direction(op0, precond, pairs, g)
        assert np.array_equal(d, -registration._two_loop(op0, precond, pairs, g))
        assert slope == metric.inner_product(op0, g, d) < 0

    def test_preconditioner_is_self_adjoint_and_positive(self, rng, op0, precond):
        mesh = op0.immersion.mesh
        for _ in range(3):
            u, v = random_field(rng, mesh, 0.1), random_field(rng, mesh, 0.1)
            uv = metric.inner_product(op0, precond(u), v)
            vu = metric.inner_product(op0, u, precond(v))
            assert abs(uv - vu) <= 1e-12 * abs(uv)
            assert metric.inner_product(op0, u, precond(u)) > 0

    def test_first_trial_is_the_gauss_newton_step_at_rest(self, bend_problem, op0, monkeypatch):
        # the Gauss-Newton minimiser of the objective linearised at rest,
        # -(A0 + M / sigma^2)^{-1} M (q0 - qT) / sigma^2, tried at step 1
        q0, qt = bend_problem
        shot = []

        def recording_shoot(op, u0, n_steps):
            shot.append(u0)
            return shooting.shoot(op, u0, n_steps)

        monkeypatch.setattr(registration, "shoot", recording_shoot)
        cfg = RegistrationConfig(sigma=self.SIGMA, n_steps=4, max_iters=1, tol_grad=1e-12)
        register(op0, qt, cfg)
        mass = metric.parameter_mass_matrix(q0.mesh).toarray()
        gn = op0.block.toarray() + mass / self.SIGMA**2
        want = -np.linalg.solve(gn, mass @ (q0.coords - qt.coords)) / self.SIGMA**2
        assert not np.any(shot[0])
        assert np.linalg.norm(shot[1] - want) <= 1e-12 * np.linalg.norm(want)


class TestRegularityThreshold:
    @pytest.fixture
    def checks(self, monkeypatch):
        """The eps_reg of every regularity check the metric layer makes, and
        the immersions of the operators assembled meanwhile."""
        seen = []
        assembles = []

        def spy(q, eps_reg=None):
            seen.append(eps_reg)
            return require_regular(q, eps_reg)

        def counting_assemble(q, alpha, eps_reg=None):
            assembles.append(q)
            return assemble(q, alpha, eps_reg)

        monkeypatch.setattr(metric, "require_regular", spy)
        for module in (metric, shooting):
            monkeypatch.setattr(module, "assemble", counting_assemble)
        return seen, assembles

    def test_eps_reg_reaches_every_check_of_an_iteration(self, bend_problem, checks, monkeypatch):
        q0, qt = bend_problem
        seen, assembles = checks
        shoots = []

        def counting_shoot(op0, u0, n_steps):
            shoots.append(op0)
            return shooting.shoot(op0, u0, n_steps)

        monkeypatch.setattr(registration, "shoot", counting_shoot)
        eps = 1e-9
        cfg = RegistrationConfig(sigma=0.5, n_steps=4, max_iters=1, tol_grad=1e-12)
        res = register(metric.assemble(q0, ALPHA, eps), qt, cfg)
        assert res.iterations == 1
        # the caller's operator at q0 once, then every shoot from it assembles the
        # later steps; the variations reuse each operator's geometry
        assert len(shoots) >= 2
        assert all(op is shoots[0] for op in shoots)
        assert len(assembles) == 1 + len(shoots) * (cfg.n_steps - 1)
        assert len(seen) == len(assembles)
        assert all(e == eps for e in seen)

    def test_eps_reg_reaches_the_diagnostic_sweep(self, bend_problem, checks):
        q0, qt = bend_problem
        seen, assembles = checks
        path = shoot(assemble(q0, ALPHA, eps_reg=1e-9), 0.1 * (qt.coords - q0.coords), 4)
        seen.clear()
        assembles.clear()
        backward_sweep(path, matching_covector(path.final, qt, 0.5))
        # the sweep solves with the path's operators and builds none
        assert not hasattr(adjoint, "assemble")
        assert seen == []
        assert assembles == []

    def test_one_check_per_operator_of_a_shoot_and_diagnostic_sweep(self, bend_problem, checks):
        q0, qt = bend_problem
        seen, assembles = checks
        op0 = assemble(q0, ALPHA)
        seen.clear()
        path = shoot(op0, 0.1 * (qt.coords - q0.coords), 4)
        backward_sweep(path, matching_covector(path.final, qt, 0.5))
        # operators[0] is the caller's; the shoot assembles the N - 1 others
        assert len(assembles) == path.n_steps - 1
        assert len(seen) == len(assembles)

    def test_rest_start_assembles_once_at_q0(self, bend_problem, checks):
        q0, qt = bend_problem
        _, assembles = checks
        cfg = RegistrationConfig(sigma=0.5, n_steps=4, max_iters=0)
        register(assemble(q0, ALPHA), qt, cfg)
        # the caller assembles at q0; register builds no operator there
        assert not hasattr(registration, "assemble")
        assert not any(q is q0 for q in assembles)


class TestConfigValidation:
    def test_five_settings(self):
        assert [f.name for f in fields(RegistrationConfig)] == [
            "sigma", "n_steps", "max_iters", "tol_grad", "tol_match"]

    @pytest.mark.parametrize("setting", [
        {"sigma": math.inf}, {"tol_grad": math.nan}, {"tol_match": -math.inf},
        {"tol_grad": -1.0}, {"tol_match": -1.0},
    ], ids=["sigma-inf", "tol-grad-nan", "tol-match-minus-inf",
            "tol-grad-negative", "tol-match-negative"])
    def test_non_finite_setting_rejected(self, bend_problem, setting):
        q0, qt = bend_problem
        cfg = RegistrationConfig(n_steps=4, **setting)
        with pytest.raises(ValueError, match=next(iter(setting))):
            register(assemble(q0, ALPHA), qt, cfg)
