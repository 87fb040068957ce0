"""Geodesic integration: stationarity, consistency, energies and lengths."""

import numpy as np
import pytest

from innershape import (
    GeodesicPath,
    Immersion,
    StepFailureError,
    Topology,
    assemble,
    build_grid,
    cylinder_surface,
    inner_product,
    path_energy,
    path_length,
    shoot,
    torus_surface,
)
from innershape.fixtures import rotation_matrix

from .conftest import random_field
from .test_geometry import flat_immersion

ALPHA = 0.6


def smooth_field(mesh, amplitude=0.3):
    """A deterministic low-frequency nodal field (safe to shoot with)."""
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    return amplitude * np.column_stack([
        np.sin(2.0 * np.pi * x),
        np.cos(2.0 * np.pi * x) * y,
        y * (1.0 - y),
    ])


class TestShoot:
    def test_zero_velocity_is_exactly_stationary(self, cylinder_shape):
        zero = np.zeros((cylinder_shape.mesh.n_nodes, 3))
        path = shoot(assemble(cylinder_shape, ALPHA), zero, 6)
        for q in path.immersions:
            assert np.array_equal(q.coords, cylinder_shape.coords)
        for u in path.velocities:
            assert np.array_equal(u, zero)
        assert np.all(path.kinetic == 0.0)

    def test_single_step_is_plain_displacement(self, cylinder_shape, rng):
        u0 = random_field(rng, cylinder_shape.mesh, scale=0.05)
        path = shoot(assemble(cylinder_shape, ALPHA), u0, 1)
        assert path.dt == 1.0
        assert np.array_equal(path.final.coords, cylinder_shape.coords + u0)

    def test_each_state_is_stored_once(self, cylinder_shape):
        path = shoot(assemble(cylinder_shape, ALPHA), smooth_field(cylinder_shape.mesh, 0.05), 4)
        immersions = path.immersions
        assert len(immersions) == path.n_steps + 1 == 5
        for i in range(path.n_steps):
            assert immersions[i] is path.operators[i].immersion
        assert immersions[-1] is path.final
        assert path.dt == 1 / path.n_steps

    def test_endpoint_self_convergence_first_order(self, cylinder_shape):
        u0 = smooth_field(cylinder_shape.mesh)
        ends = {n: shoot(assemble(cylinder_shape, ALPHA), u0, n).final.coords
                for n in (10, 20, 40)}
        d1 = np.linalg.norm(ends[10] - ends[20])
        d2 = np.linalg.norm(ends[20] - ends[40])
        assert 1.5 <= d1 / d2 <= 2.6

    def test_rigid_equivariance(self, cylinder_shape):
        u0 = smooth_field(cylinder_shape.mesh)
        rot = rotation_matrix("z", 40.0) @ rotation_matrix("x", 15.0)
        b = np.array([0.2, -0.5, 1.0])
        base = shoot(assemble(cylinder_shape, ALPHA), u0, 5)
        moved = shoot(
            assemble(Immersion(cylinder_shape.mesh, cylinder_shape.coords @ rot.T + b), ALPHA),
            u0 @ rot.T, 5,
        )
        worst = 0.0
        for q, qm in zip(base.immersions, moved.immersions):
            worst = max(worst, np.max(np.abs(qm.coords - (q.coords @ rot.T + b))))
        for u, um in zip(base.velocities, moved.velocities):
            worst = max(worst, np.max(np.abs(um - u @ rot.T)))
        assert worst <= 1e-10

    @pytest.mark.parametrize("topology", list(Topology), ids=lambda t: t.value)
    def test_linear_momentum_is_conserved(self, topology):
        """P_i = sum over nodes of A_i u_i stays P_0 along a shot path, since
        the momentum update D sums to zero over the nodes (the metric is
        translation-invariant).  At 8x8, N = 10 and velocities of 0.1 times a
        standard normal, seeds 0-39 gave a worst max_i |P_i - P_0| / |P_0| of
        2.6e-12 (plane), 1.9e-12 (cylinder) and 2.2e-12 (torus), with medians
        1.2e-13 to 2.6e-13; the bound 1e-11 is about four times the worst."""
        mesh = build_grid(topology, 8, 8)
        q0 = {Topology.PLANE: flat_immersion, Topology.CYLINDER: cylinder_surface,
              Topology.TORUS: lambda m: torus_surface(m, 0.35, 0.15)}[topology](mesh)
        op0 = assemble(q0, ALPHA)
        for seed in range(5):
            u0 = 0.1 * np.random.default_rng(seed).standard_normal((mesh.n_nodes, 3))
            path = shoot(op0, u0, 10)
            momenta = np.array([np.sum(op.block @ u, axis=0)
                                for op, u in zip(path.operators, path.velocities)])
            drift = np.linalg.norm(momenta - momenta[0], axis=1).max()
            assert drift <= 1e-11 * np.linalg.norm(momenta[0]), seed

    def test_starts_from_the_given_operator(self, cylinder_shape):
        op0 = assemble(cylinder_shape, ALPHA)
        path = shoot(op0, smooth_field(cylinder_shape.mesh), 3)
        assert path.operators[0] is op0
        assert all(op.alpha == ALPHA for op in path.operators)

    def test_collapse_raises_step_failure(self, flat_square):
        u0 = -flat_square.coords - [0.0, 0.0, 0.0]
        u0[:, 2] = 0.0  # drive every node straight to the origin
        with pytest.raises(StepFailureError) as err:
            shoot(assemble(flat_square, ALPHA), 2.0 * u0, 2)
        assert err.value.step == 0

    def test_collapse_by_a_huge_velocity_names_the_step_size(self):
        # 1e20 per node swamps the unit cylinder's coordinates in rounding, so
        # q + dt u flattens every triangle without any value overflowing
        mesh = build_grid(Topology.CYLINDER, 4, 4)
        u0 = np.full((mesh.n_nodes, 3), 1e20)
        with pytest.raises(StepFailureError, match=r"^step 0: triangle 0: vol=0\.000e\+00, and "
                           r"the median volume is 0 \(32 offending triangles\), after the step "
                           r"moves a node by up to \|dt u\| = 1\.732e\+19$"):
            shoot(assemble(cylinder_surface(mesh), ALPHA), u0, 10)

    def test_invalid_step_count_rejected(self, flat_square):
        zero = np.zeros((flat_square.mesh.n_nodes, 3))
        with pytest.raises(ValueError):
            shoot(assemble(flat_square, ALPHA), zero, 0)


class TestPathFunctionals:
    def test_zero_path_has_zero_energy_and_length(self, cylinder_shape):
        zero = np.zeros((cylinder_shape.mesh.n_nodes, 3))
        path = shoot(assemble(cylinder_shape, ALPHA), zero, 4)
        assert path_energy(path) == 0.0
        assert path_length(path) == 0.0

    def test_prescribed_constant_translation_energy(self, flat_square):
        # hand-built path; constant fields have zero gradient term and the
        # metric is translation-invariant, so every step costs c^2 / 2
        c = np.array([0.8, 0.0, 0.0])
        n = 4
        dt = 1.0 / n
        u = np.tile(c, (flat_square.mesh.n_nodes, 1))
        operators = [assemble(flat_square.displaced(i * dt * u), ALPHA) for i in range(n)]
        kinetic = np.array([0.5 * inner_product(op, u, u) for op in operators])
        path = GeodesicPath(operators=operators, velocities=[u] * n, kinetic=kinetic,
                            final=flat_square.displaced(n * dt * u))
        assert path_energy(path) == pytest.approx(0.5 * float(c @ c), abs=1e-13)
        # constant speed: the length-energy inequality is tight
        assert path_length(path) ** 2 == pytest.approx(2.0 * path_energy(path), abs=1e-12)

    def test_energy_matches_recorded_kinetic(self, cylinder_shape):
        u0 = smooth_field(cylinder_shape.mesh)
        path = shoot(assemble(cylinder_shape, ALPHA), u0, 5)
        recomputed = [
            0.5 * inner_product(path.operators[i], path.velocities[i], path.velocities[i])
            for i in range(path.n_steps)
        ]
        assert np.max(np.abs(np.asarray(recomputed) - path.kinetic)) <= 1e-14
        assert path_energy(path) == pytest.approx(path.dt * sum(recomputed), rel=1e-14)

    def test_recorded_kinetic_is_half_the_inner_product_bitwise(self, any_shape):
        path = shoot(assemble(any_shape, ALPHA), smooth_field(any_shape.mesh, 0.05), 5)
        for i in range(path.n_steps):
            u = path.velocities[i]
            assert path.kinetic[i] == 0.5 * inner_product(path.operators[i], u, u)

    def test_length_energy_inequality(self, cylinder_shape):
        u0 = smooth_field(cylinder_shape.mesh)
        path = shoot(assemble(cylinder_shape, ALPHA), u0, 6)
        assert path_length(path) ** 2 <= 2.0 * path_energy(path) + 1e-12
