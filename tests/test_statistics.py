"""Shape statistics: velocity angles, geodesic triangles, iterative means."""

import math
import sys
from dataclasses import replace

import numpy as np
import pytest

from innershape import (
    Immersion,
    MeanStatus,
    RegistrationConfig,
    Topology,
    ZeroVelocityError,
    assemble,
    build_grid,
    geodesic_angle,
    inner_product,
    karcher_mean,
    l2_matching,
    path_length,
    register,
    torus_surface,
    triangle_experiment,
    vase_family,
)
from innershape import metric, statistics
from innershape.errors import MeshMismatchError
from innershape.fixtures import rotation_matrix

from .conftest import random_field

ALPHA = 0.6


@pytest.fixture
def assembled(monkeypatch):
    """(immersion, alpha) of every assembly through any binding of `assemble`."""
    seen = []
    original = metric.assemble

    def spy(q, alpha):
        seen.append((q, alpha))
        return original(q, alpha)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "innershape" and getattr(module, "assemble", None) is original:
            monkeypatch.setattr(module, "assemble", spy)
    return seen


def constant_field(mesh, vec):
    return np.tile(np.asarray(vec, dtype=float), (mesh.n_nodes, 1))


class TestGeodesicAngle:
    def test_parallel_fields_give_zero(self, flat_square):
        u = constant_field(flat_square.mesh, (1.0, 0.0, 0.0))
        op = assemble(flat_square, ALPHA)
        assert geodesic_angle(op, u, u) == pytest.approx(0.0, abs=1e-5)

    def test_opposite_fields_give_straight_angle(self, flat_square):
        u = constant_field(flat_square.mesh, (1.0, 0.0, 0.0))
        op = assemble(flat_square, ALPHA)
        assert geodesic_angle(op, u, -u) == pytest.approx(180.0, abs=1e-5)

    def test_orthogonal_constant_fields_give_right_angle(self, flat_square):
        u = constant_field(flat_square.mesh, (1.0, 0.0, 0.0))
        v = constant_field(flat_square.mesh, (0.0, 0.0, 2.0))
        op = assemble(flat_square, ALPHA)
        assert geodesic_angle(op, u, v) == pytest.approx(90.0, abs=1e-12)

    def test_exact_symmetry(self, rng, cylinder_shape):
        u = random_field(rng, cylinder_shape.mesh, 0.5)
        v = random_field(rng, cylinder_shape.mesh, 0.5)
        op = assemble(cylinder_shape, ALPHA)
        assert geodesic_angle(op, u, v) == geodesic_angle(op, v, u)

    def test_positive_rescaling_invariance(self, rng, cylinder_shape):
        u = random_field(rng, cylinder_shape.mesh, 0.5)
        v = random_field(rng, cylinder_shape.mesh, 0.5)
        op = assemble(cylinder_shape, ALPHA)
        a = geodesic_angle(op, u, v)
        b = geodesic_angle(op, 2.0 * u, 0.5 * v)
        assert abs(a - b) <= 1e-12

    def test_zero_velocity_rejected(self, cylinder_shape, rng):
        u = random_field(rng, cylinder_shape.mesh, 0.5)
        zero = np.zeros_like(u)
        with pytest.raises(ZeroVelocityError):
            geodesic_angle(assemble(cylinder_shape, ALPHA), zero, u)


@pytest.fixture(scope="module")
def rotated_torus_triple():
    """Three rigid rotations of one bumpy torus: a small geodesic triangle."""
    mesh = build_grid(Topology.TORUS, 6, 6)
    base = torus_surface(mesh)
    bump_rng = np.random.default_rng(7)
    bump = Immersion(
        mesh, base.coords + 0.02 * bump_rng.standard_normal((mesh.n_nodes, 3))
    )

    def rotated(axis, deg):
        return Immersion(mesh, bump.coords @ rotation_matrix(axis, deg).T)

    return bump, rotated("z", 8.0), rotated("x", 8.0)


TRIANGLE_CFG = RegistrationConfig(sigma=0.25, n_steps=4, max_iters=150, tol_grad=1e-3)


@pytest.fixture(scope="module")
def small_triangle(rotated_torus_triple):
    """The small triangle's report and its registrations keyed "AB", "AC", ..."""
    names = {id(q): name for name, q in zip("ABC", rotated_torus_triple)}
    results = {}

    def recording_register(op0, q_target, cfg):
        result = register(op0, q_target, cfg)
        results[names[id(op0.immersion)] + names[id(q_target)]] = result
        return result

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(statistics, "register", recording_register)
        qa, qb, qc = rotated_torus_triple
        report = triangle_experiment(assemble(qa, ALPHA), qb, qc, TRIANGLE_CFG)
    return report, results


class TestTriangle:
    def test_odd_step_count_rejected(self, rotated_torus_triple):
        qa, qb, qc = rotated_torus_triple
        cfg = RegistrationConfig(n_steps=3)
        with pytest.raises(ValueError):
            triangle_experiment(assemble(qa, ALPHA), qb, qc, cfg)

    def test_mismatched_meshes_rejected(self, rotated_torus_triple, torus_mesh):
        qa, qb, _ = rotated_torus_triple
        other = torus_surface(torus_mesh)
        with pytest.raises(MeshMismatchError):
            triangle_experiment(assemble(qa, ALPHA), qb, other, TRIANGLE_CFG)

    def test_coincident_vertices_rejected(self, rotated_torus_triple):
        qa, _, qc = rotated_torus_triple
        with pytest.raises(ZeroVelocityError):
            triangle_experiment(assemble(qa, ALPHA), qa, qc, TRIANGLE_CFG)

    def test_small_triangle_report(self, small_triangle):
        report, _ = small_triangle
        assert report.converged
        assert len(report.statuses) == 6
        for angle in report.angles_deg:
            assert 0.0 < angle < 180.0
        assert 0.0 < report.angle_sum_deg < 360.0
        for length in report.side_lengths:
            assert length > 0.0
        for area in report.midpoint_areas + report.vertex_areas:
            assert area > 0.0
        # rigid rotations share the vertex area exactly up to roundoff
        areas = report.vertex_areas
        assert max(areas) - min(areas) <= 1e-12 * max(areas)

    def test_angles_use_the_operator_at_each_vertex(self, small_triangle, rotated_torus_triple):
        report, results = small_triangle
        assert len(results) == 6
        for k, (q, v, n1, n2) in enumerate(zip(rotated_torus_triple, "ABC", "BCA", "CAB")):
            op = assemble(q, ALPHA)
            expected = geodesic_angle(op, results[v + n1].u0, results[v + n2].u0)
            assert report.angles_deg[k] == expected

    def test_one_operator_per_vertex(self, rotated_torus_triple, assembled):
        qa, qb, qc = rotated_torus_triple
        triangle_experiment(metric.assemble(qa, ALPHA), qb, qc,
                            replace(TRIANGLE_CFG, max_iters=1))
        assert [sum(q is v for q, *_ in assembled) for v in rotated_torus_triple] == [1, 1, 1]

    def test_settings_reach_every_assembly(self, rotated_torus_triple, assembled):
        qa, qb, qc = rotated_torus_triple
        triangle_experiment(metric.assemble(qa, 0.45), qb, qc,
                            replace(TRIANGLE_CFG, max_iters=1))
        # the vertex operators and every shoot's later steps
        assert len(assembled) > 3
        assert all(a == 0.45 for _, a in assembled)

    def test_side_length_direction_symmetry(self, small_triangle):
        _, results = small_triangle
        la, lb = path_length(results["AB"].path), path_length(results["BA"].path)
        assert abs(la - lb) <= 0.05 * la


@pytest.fixture(scope="module")
def translated_sheets():
    """A flat sheet and its translates by +/- the same offset."""
    mesh = build_grid(Topology.PLANE, 6, 6)
    xs = mesh.nodes[:, 0]
    ys = mesh.nodes[:, 1]
    base = Immersion(mesh, np.column_stack([xs, ys, np.zeros_like(xs)]))
    offset = np.tile(np.array([0.04, -0.03, 0.05]), (mesh.n_nodes, 1))
    return base, base.displaced(offset), base.displaced(-offset)


MEAN_CFG_FACTORY = lambda m0: RegistrationConfig(  # noqa: E731
    sigma=0.15, n_steps=4, max_iters=60, tol_grad=1e-12,
    tol_match=1e-3 * m0,
)


class TestKarcherMean:
    def test_empty_collection_rejected(self, flat_square):
        with pytest.raises(ValueError):
            karcher_mean([], assemble(flat_square, ALPHA), RegistrationConfig())

    def test_zero_outer_iterations_rejected(self, flat_square):
        with pytest.raises(ValueError, match="max_outer"):
            karcher_mean([flat_square], assemble(flat_square, ALPHA), RegistrationConfig(),
                         max_outer=0)

    def test_negative_mean_tol_rejected(self, flat_square):
        with pytest.raises(ValueError, match="mean_tol"):
            karcher_mean([flat_square], assemble(flat_square, ALPHA), RegistrationConfig(),
                         mean_tol=-1.0)

    def test_non_finite_mean_tol_rejected(self, flat_square):
        with pytest.raises(ValueError, match="mean_tol"):
            karcher_mean([flat_square], assemble(flat_square, ALPHA), RegistrationConfig(),
                         mean_tol=math.nan)

    def test_single_shape_fixed_point(self, translated_sheets):
        base, plus, _ = translated_sheets
        cfg = MEAN_CFG_FACTORY(l2_matching(base, plus))
        res = karcher_mean([plus], assemble(base, ALPHA), cfg, mean_tol=1e-2, max_outer=10)
        assert res.status is MeanStatus.CONVERGED
        # one productive move, then the averaged velocity is already below tol
        assert res.iterations == 2
        assert res.velocity_norms[1] <= 1e-2 < res.velocity_norms[0]
        assert np.max(np.abs(res.mean.coords - plus.coords)) <= 5e-3

    def test_symmetric_pair_keeps_mean_at_center(self, translated_sheets):
        base, plus, minus = translated_sheets
        cfg = MEAN_CFG_FACTORY(l2_matching(base, plus))
        op = assemble(base, ALPHA)
        res = karcher_mean([plus, minus], op, cfg, mean_tol=1e-2, max_outer=10)
        assert res.status is MeanStatus.CONVERGED
        assert res.iterations == 1
        # opposite targets nearly cancel: the average is far below each part
        part = min(
            np.sqrt(inner_product(op, v, v)) for v in res.per_shape_velocities
        )
        assert res.velocity_norms[0] <= 0.1 * part
        assert np.array_equal(res.mean.coords, base.coords)
        assert np.max(np.abs(res.mean.coords - base.coords)) <= 1e-3

    def test_one_operator_per_mean_and_outer_iteration(self, assembled, monkeypatch):
        mesh = build_grid(Topology.CYLINDER, 6, 6)
        vases = vase_family(mesh)[:3]
        starts = []

        def recording_register(op0, q_target, cfg):
            starts.append(op0)
            return register(op0, q_target, cfg)

        monkeypatch.setattr(statistics, "register", recording_register)
        cfg = RegistrationConfig(sigma=0.05, n_steps=4, max_iters=3)
        res = karcher_mean(vases, metric.assemble(vases[0], ALPHA), cfg,
                           mean_tol=0.0, max_outer=3)
        assert res.iterations == 3
        # every registration of an outer iteration starts from its mean's operator
        ops = starts[:: len(vases)]
        assert len(starts) == len(ops) * len(vases)
        assert all(op is ops[k // len(vases)] for k, op in enumerate(starts))
        assert [sum(q is op.immersion for q, *_ in assembled) for op in ops] == [1, 1, 1]

    def test_settings_reach_every_assembly(self, assembled):
        mesh = build_grid(Topology.CYLINDER, 6, 6)
        vases = vase_family(mesh)[:2]
        cfg = RegistrationConfig(sigma=0.05, n_steps=4, max_iters=1)
        res = karcher_mean(vases, metric.assemble(vases[0], 0.45), cfg,
                           mean_tol=0.0, max_outer=2)
        assert res.iterations == 2
        # the start, the moved mean and every shoot's later steps
        assert len(assembled) > 2
        assert all(a == 0.45 for _, a in assembled)

    def test_vase_family_norms_decrease(self):
        mesh = build_grid(Topology.CYLINDER, 6, 6)
        vases = vase_family(mesh)[:3]
        cfg = RegistrationConfig(sigma=0.05, n_steps=4,
                                 max_iters=120, tol_grad=5e-3)
        res = karcher_mean(vases, assemble(vases[0], ALPHA), cfg, mean_tol=7e-3, max_outer=5)
        assert res.status is MeanStatus.CONVERGED
        assert len(res.statuses) == len(vases)
        norms = res.velocity_norms
        assert len(norms) >= 2
        assert all(b < a for a, b in zip(norms, norms[1:]))
