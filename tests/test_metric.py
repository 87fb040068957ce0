"""Metric operator assembly, duality maps, and their invariances."""

import dataclasses

import numpy as np
import pytest

from innershape import (
    Immersion,
    MeshMismatchError,
    SolverError,
    Topology,
    assemble,
    build_grid,
    cylinder_surface,
    inner_product,
    parameter_mass_matrix,
    sharp,
    solve,
    torus_surface,
)
from innershape import metric
from innershape.fixtures import rotation_matrix
from innershape.metric import _assemble_scalar, _dissection, _index_maps, _scatter

from .conftest import random_field
from .oracles import flat_mass_matrix, flat_stiffness_matrix, metric_inner_quadrature
from .test_geometry import flat_immersion

ALPHA = 0.6


def with_block_data(op, data):
    """The operator with other block values on the same pattern."""
    return dataclasses.replace(op, block=dataclasses.replace(op.block, data=data))


def perturbed_torus(rng, nx=4, ny=4, scale=0.02):
    mesh = build_grid(Topology.TORUS, nx, ny)
    base = torus_surface(mesh, 0.35, 0.15)
    return Immersion(mesh, base.coords + scale * rng.standard_normal((mesh.n_nodes, 3)))


class TestAssembly:
    def test_flat_reduction_to_mass_plus_stiffness(self, plane_mesh):
        q = flat_immersion(plane_mesh)
        op = assemble(q, ALPHA)
        expected = flat_mass_matrix(plane_mesh) + ALPHA**2 * flat_stiffness_matrix(plane_mesh)
        err = np.max(np.abs(op.block.toarray() - expected))
        assert err <= 1e-12

    def test_alpha_zero_is_mass_only(self, plane_mesh):
        q = flat_immersion(plane_mesh)
        op = assemble(q, 0.0)
        err = np.max(np.abs(op.block.toarray() - flat_mass_matrix(plane_mesh)))
        assert err <= 1e-12

    def test_matrix_bitwise_symmetric(self, rng):
        q = perturbed_torus(rng)
        mat = assemble(q, ALPHA).block.toarray()
        assert np.all(mat - mat.T == 0.0)

    def test_quadrature_oracle_random_instances(self, rng):
        worst = 0.0
        for _ in range(20):
            q = perturbed_torus(rng)
            u = random_field(rng, q.mesh)
            v = random_field(rng, q.mesh)
            got = inner_product(assemble(q, ALPHA), u, v)
            want = metric_inner_quadrature(q, ALPHA, u, v)
            worst = max(worst, abs(got - want) / max(abs(want), 1e-30))
        assert worst <= 1e-12

    def test_positive_definite(self, rng, cylinder_shape):
        op = assemble(cylinder_shape, ALPHA)
        for _ in range(5):
            u = random_field(rng, cylinder_shape.mesh)
            assert inner_product(op, u, u) > 0.0

    def test_alpha_monotonicity(self, rng, cylinder_shape):
        u = random_field(rng, cylinder_shape.mesh)
        values = [inner_product(assemble(cylinder_shape, a), u, u)
                  for a in (0.0, 0.3, 0.6, 1.2)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("alpha", [np.nan, np.inf, -0.1],
                             ids=["alpha-nan", "alpha-inf", "alpha-negative"])
    def test_bad_setting_rejected(self, cylinder_shape, alpha):
        with pytest.raises(ValueError, match="alpha"):
            assemble(cylinder_shape, alpha)


class TestInnerProduct:
    def test_constant_field_on_flat_square(self, flat_square):
        u = np.zeros((flat_square.mesh.n_nodes, 3))
        u[:, 0] = 1.0
        assert inner_product(assemble(flat_square, ALPHA), u, u) == pytest.approx(1.0, abs=1e-14)

    def test_linear_field_on_flat_square(self, flat_square):
        # u = (x1, 0, 0): integral of (x1)^2 is 1/3, gradient contributes alpha^2
        u = np.zeros((flat_square.mesh.n_nodes, 3))
        u[:, 0] = flat_square.mesh.nodes[:, 0]
        value = inner_product(assemble(flat_square, ALPHA), u, u)
        assert value == pytest.approx(1.0 / 3.0 + ALPHA**2, abs=1e-14)

    def test_exact_symmetry(self, rng):
        q = perturbed_torus(rng)
        op = assemble(q, ALPHA)
        for _ in range(10):
            u = random_field(rng, q.mesh)
            v = random_field(rng, q.mesh)
            assert inner_product(op, u, v) - inner_product(op, v, u) == 0.0

    def test_same_array_in_both_slots_equals_a_copy_bitwise(self, rng, any_shape):
        op = assemble(any_shape, ALPHA)
        for _ in range(5):
            u = random_field(rng, any_shape.mesh)
            assert inner_product(op, u, u) == inner_product(op, u, u.copy())

    def test_dimension_mismatch_rejected(self, flat_square, cylinder_shape):
        op = assemble(flat_square, ALPHA)
        u = np.zeros((cylinder_shape.mesh.n_nodes, 3))
        with pytest.raises((ValueError, MeshMismatchError)):
            inner_product(op, u, u)


class TestFlatSharp:
    def test_sharp_of_flat_is_identity(self, rng, cylinder_shape):
        op = assemble(cylinder_shape, ALPHA)
        u = random_field(rng, cylinder_shape.mesh)
        back = sharp(op, op.block @ u)
        rel = np.linalg.norm(back - u) / np.linalg.norm(u)
        assert rel <= 1e-10

    def test_flat_of_zero_is_zero(self, cylinder_shape):
        op = assemble(cylinder_shape, ALPHA)
        zero = np.zeros((cylinder_shape.mesh.n_nodes, 3))
        assert np.array_equal(op.block @ zero, zero)

    def test_flat_constant_field_mass_rows(self, flat_square):
        c = 1.75
        op = assemble(flat_square, 0.0)
        u = np.zeros((flat_square.mesh.n_nodes, 3))
        u[:, 0] = c
        cov = op.block @ u
        rows = flat_mass_matrix(flat_square.mesh).sum(axis=1)
        assert np.max(np.abs(cov[:, 0] - c * rows)) <= 1e-12
        assert np.max(np.abs(cov[:, 1:])) == 0.0
        ones = np.zeros_like(u)
        ones[:, 0] = 1.0
        assert float(np.vdot(cov, ones)) == pytest.approx(c, abs=1e-12)

    def test_solve_takes_any_block_on_the_pattern(self, rng, cylinder_shape):
        mass = parameter_mass_matrix(cylinder_shape.mesh)
        p = random_field(rng, cylinder_shape.mesh)
        want = np.linalg.solve(mass.toarray(), p)
        assert np.linalg.norm(solve(mass, p) - want) <= 1e-12 * np.linalg.norm(want)
        with pytest.raises(ValueError, match="field"):
            solve(mass, p[:-1])

    # sharp reads the block through the pattern assemble builds, so the
    # broken blocks below keep that pattern
    def test_sharp_of_singular_block_raises(self, cylinder_shape):
        op = assemble(cylinder_shape, ALPHA)
        with pytest.raises(SolverError, match="not positive definite: a front at dissection"):
            sharp(with_block_data(op, 0.0 * op.block.data), np.ones((op.n_nodes, 3)))

    def test_sharp_of_indefinite_block_raises(self, cylinder_shape):
        op = assemble(cylinder_shape, ALPHA)
        with pytest.raises(SolverError, match="not positive definite"):
            sharp(with_block_data(op, -op.block.data), np.ones((op.n_nodes, 3)))

    # at these scales |p|^2 overflows to inf or underflows to 0, and so does
    # the squared residual of any finite answer
    @pytest.mark.parametrize("scale", [1e160, 1e-170])
    def test_residual_check_rejects_a_wrong_solution_at_any_scale(
        self, monkeypatch, rng, cylinder_shape, scale
    ):
        op = assemble(cylinder_shape, ALPHA)
        p = scale * random_field(rng, cylinder_shape.mesh)
        solve(op.block, p)
        real = metric._multifrontal
        monkeypatch.setattr(metric, "_multifrontal", lambda *args: 1.001 * real(*args))
        with pytest.raises(SolverError, match="residual"):
            solve(op.block, p)

    @pytest.mark.parametrize("ny", [16, 17])
    @pytest.mark.parametrize("topology", list(Topology), ids=lambda t: t.value)
    def test_sharp_matches_dense_solve_at_16(self, rng, topology, ny):
        mesh = build_grid(topology, 16, ny)
        if topology is Topology.PLANE:
            xs, ys = mesh.nodes[:, 0], mesh.nodes[:, 1]
            q = Immersion(mesh, np.column_stack([xs, ys, 0.3 * np.sin(3 * xs) * ys]))
        elif topology is Topology.CYLINDER:
            q = cylinder_surface(mesh, bend_deg=40.0)
        else:
            q = torus_surface(mesh, 0.35, 0.15)
        op = assemble(q, ALPHA)
        p = random_field(rng, q.mesh)
        want = np.linalg.solve(op.block.toarray(), p)
        rel = np.linalg.norm(sharp(op, p) - want) / np.linalg.norm(want)
        assert rel <= 1e-12

    # one front for the whole mesh, then three or four depths of padded fronts,
    # among them thin strips and a torus cut across both periodic directions
    @pytest.mark.parametrize("topology, nx, ny", [
        (Topology.PLANE, 1, 1), (Topology.PLANE, 2, 2), (Topology.PLANE, 1, 3),
        (Topology.CYLINDER, 3, 1), (Topology.CYLINDER, 3, 2), (Topology.CYLINDER, 4, 3),
        (Topology.TORUS, 3, 3), (Topology.TORUS, 3, 4),
        (Topology.PLANE, 9, 7), (Topology.PLANE, 40, 2), (Topology.CYLINDER, 9, 6),
        (Topology.TORUS, 9, 7), (Topology.TORUS, 3, 40),
    ], ids=lambda v: v.value if isinstance(v, Topology) else str(v))
    def test_sharp_matches_dense_solve_on_smallest_meshes(self, rng, topology, nx, ny):
        mesh = build_grid(topology, nx, ny)
        if topology is Topology.PLANE:
            base = flat_immersion(mesh)
        elif topology is Topology.CYLINDER:
            base = cylinder_surface(mesh)
        else:
            base = torus_surface(mesh, 0.35, 0.15)
        q = Immersion(mesh, base.coords + 0.01 * rng.standard_normal((mesh.n_nodes, 3)))
        op = assemble(q, ALPHA)
        p = random_field(rng, mesh)
        want = np.linalg.solve(op.block.toarray(), p)
        rel = np.linalg.norm(sharp(op, p) - want) / np.linalg.norm(want)
        assert rel <= 1e-12


class TestInvariances:
    def test_rigid_motion_invariance(self, rng):
        q = perturbed_torus(rng)
        u = random_field(rng, q.mesh)
        v = random_field(rng, q.mesh)
        rot = rotation_matrix("y", 71.0) @ rotation_matrix("z", -12.0)
        q_m = Immersion(q.mesh, q.coords @ rot.T + [0.4, 0.1, -0.9])
        base = inner_product(assemble(q, ALPHA), u, v)
        moved = inner_product(assemble(q_m, ALPHA), u @ rot.T, v @ rot.T)
        assert abs(moved - base) / abs(base) <= 1e-12

    def test_torus_cyclic_shift_invariance(self, rng):
        q = perturbed_torus(rng, nx=5, ny=4)
        mesh = q.mesh
        u = random_field(rng, mesh)
        v = random_field(rng, mesh)
        base = inner_product(assemble(q, ALPHA), u, v)
        for dx, dy in ((1, 0), (0, 1), (2, 3)):
            perm = np.empty(mesh.n_nodes, dtype=int)
            for i in range(mesh.nx):
                for j in range(mesh.ny):
                    perm[mesh.grid_index(i, j)] = mesh.grid_index(
                        (i + dx) % mesh.nx, (j + dy) % mesh.ny
                    )
            q_s = Immersion(mesh, q.coords[perm])
            shifted = inner_product(assemble(q_s, ALPHA), u[perm], v[perm])
            assert abs(shifted - base) / abs(base) <= 1e-12


class TestParameterMassMatrix:
    def test_matches_oracle(self, cylinder_mesh):
        got = parameter_mass_matrix(cylinder_mesh).toarray()
        want = flat_mass_matrix(cylinder_mesh)
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_row_sums_give_unit_area(self, torus_mesh):
        mass = parameter_mass_matrix(torus_mesh)
        assert float(mass.data.sum()) == pytest.approx(1.0, abs=1e-12)

    def test_cached_per_mesh(self, torus_mesh):
        assert parameter_mass_matrix(torus_mesh) is parameter_mass_matrix(torus_mesh)


class TestIndexMaps:
    """The cached per-mesh index maps against dense np.add.at references."""

    TOPOLOGIES = [Topology.PLANE, Topology.CYLINDER, Topology.TORUS]

    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_pattern_assembly_matches_coo(self, topology, rng):
        mesh = build_grid(topology, 5, 4)
        tris = mesh.triangles
        n = mesh.n_nodes
        local = rng.standard_normal((mesh.n_triangles, 3, 3))
        rows = np.repeat(tris, 3, axis=1).ravel()
        cols = np.tile(tris, (1, 3)).ravel()
        want = np.zeros((n, n))
        np.add.at(want, (rows, cols), local.ravel())
        got = _assemble_scalar(mesh, local)
        assert got.data.size == np.count_nonzero(want)
        err = np.max(np.abs(got.toarray() - want))
        assert err <= 1e-14 * np.max(np.abs(want))

    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_scatter_matches_add_at(self, topology, rng):
        mesh = build_grid(topology, 5, 4)
        local = rng.standard_normal((mesh.n_triangles, 3, 3))
        want = np.zeros((mesh.n_nodes, 3))
        np.add.at(want, mesh.triangles.ravel(), local.reshape(-1, 3))
        got = _scatter(mesh, local)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_cached_per_mesh(self, torus_mesh):
        assert _index_maps(torus_mesh) is _index_maps(torus_mesh)

    @pytest.mark.parametrize("ny", [6, 7])
    @pytest.mark.parametrize("topology", TOPOLOGIES, ids=lambda t: t.value)
    def test_band_order_and_layout(self, topology, ny, rng):
        """The dissection's elimination order and the layout of its fronts."""
        mesh = build_grid(topology, 9, ny)
        maps = _index_maps(mesh)
        n = mesh.n_nodes
        # every node is eliminated once, at the depth of its front
        depth = np.full(n, -1)
        for d, fr in enumerate(maps.fronts):
            sep = fr.sep[fr.sep < n]
            assert np.all(depth[sep] == -1)
            depth[sep] = d
        assert np.all(depth >= 0)
        # a front's boundary is eliminated later, within its parent's front,
        # so every coupling of the block lies in the front of whichever end
        # is eliminated first
        front_of = {}
        for d, fr in enumerate(maps.fronts):
            for k in range(fr.sep.shape[0]):
                nodes = np.concatenate([fr.sep[k], fr.bnd[k]])
                for v in fr.sep[k][fr.sep[k] < n]:
                    front_of[v] = set(nodes[nodes < n])
                assert np.all(depth[fr.bnd[k][fr.bnd[k] < n]] < d)
        for i, j in zip(maps.rows, maps.cols):
            first, other = (i, j) if depth[i] >= depth[j] else (j, i)
            assert other in front_of[first]
        # the fronts hold exactly the block's values and the right-hand side
        # in their separator rows and the padding's unit diagonal, nothing else
        local = rng.standard_normal((mesh.n_triangles, 3, 3))
        block = _assemble_scalar(mesh, local + local.transpose(0, 2, 1))
        p = rng.standard_normal((n, 3))
        dense = np.zeros((n + 1, n + 1))
        dense[:n, :n] = block.toarray()
        rhs = np.vstack([p, np.zeros(3)])
        want = np.zeros(maps.front_size)
        for fr in maps.fronts:
            count, f, w = fr.shape
            fronts = want[fr.offset : fr.offset + fr.size].reshape(count, f, w)
            s = fr.sep.shape[1]
            for k in range(count):
                nodes = np.concatenate([fr.sep[k], fr.bnd[k]])
                fronts[k, :s, :f] = dense[np.ix_(fr.sep[k], nodes)]
                fronts[k, :s, f:] = rhs[fr.sep[k]]
                pad = np.flatnonzero(fr.sep[k] == n)
                fronts[k, pad, pad] = 1.0
        got = np.zeros(maps.front_size)
        got[maps.fill_slot] = np.concatenate((block.data, p.ravel(), [1.0]))[maps.fill_src]
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("ny", [6, 7])
    @pytest.mark.parametrize("topology", TOPOLOGIES, ids=lambda t: t.value)
    def test_update_maps(self, topology, ny):
        """Each front's Schur complement goes to its parent's rows and columns
        of the same nodes, its right-hand sides to the parent's; padding goes
        just past the fronts of the depth above."""
        mesh = build_grid(topology, 9, ny)
        maps = _index_maps(mesh)
        n = mesh.n_nodes
        tree = _dissection(mesh)
        for d in range(1, len(maps.fronts)):
            fr, up = maps.fronts[d], maps.fronts[d - 1]
            count, b = fr.bnd.shape
            _, pf, pw = up.shape
            want = np.full((count, b, b + 3), up.size)
            for k in range(count):
                parent = tree[d][k][2]
                up_nodes = list(np.concatenate([up.sep[parent], up.bnd[parent]]))
                for i, u in enumerate(fr.bnd[k]):
                    if u == n:
                        continue
                    assert up_nodes.count(u) == 1
                    row = (parent * pf + up_nodes.index(u)) * pw
                    for j, v in enumerate(fr.bnd[k]):
                        if v < n:
                            want[k, i, j] = row + up_nodes.index(v)
                    for c in range(3):
                        want[k, i, b + c] = row + pf + c
            assert np.array_equal(fr.update, want.ravel())
