"""First fundamental form, volume density and regularity checks."""

import numpy as np
import pytest

from innershape import (
    DegenerateElementError,
    Immersion,
    MeshMismatchError,
    Topology,
    build_grid,
    check_regularity,
    cylinder_surface,
    require_regular,
    surface_area,
)
from innershape.fixtures import rotation_matrix
from innershape.geometry import (
    DEFAULT_REGULARITY_FACTOR,
    check_same_mesh,
    regularity_threshold,
    triangle_geometry,
)


def flat_immersion(mesh, scale=1.0):
    return Immersion(mesh, np.column_stack([scale * mesh.nodes, np.zeros(mesh.n_nodes)]))


class TestFirstFundamentalForm:
    def test_flat_identity(self, plane_mesh):
        q = flat_immersion(plane_mesh)
        geom = triangle_geometry(q)
        eye = np.broadcast_to(np.eye(2), geom.g.shape)
        assert np.allclose(geom.g, eye, atol=1e-14)
        assert np.allclose(geom.g_inv, eye, atol=1e-14)
        assert np.allclose(geom.vol, 1.0, atol=1e-14)

    def test_scaled_flat(self, plane_mesh):
        q = flat_immersion(plane_mesh, scale=2.0)
        geom = triangle_geometry(q)
        assert np.allclose(geom.g, 4.0 * np.eye(2), atol=1e-13)
        assert np.allclose(geom.g_inv, 0.25 * np.eye(2), atol=1e-13)
        assert np.allclose(geom.vol, 4.0, atol=1e-13)

    def test_cylinder_converges_to_analytic_form(self):
        r = 0.25
        target_g = np.diag([4.0 * np.pi**2 * r**2, 1.0])
        target_vol = 2.0 * np.pi * r
        g_errs, vol_errs = [], []
        for n in (8, 16, 32):
            mesh = build_grid(Topology.CYLINDER, n, n)
            geom = triangle_geometry(cylinder_surface(mesh, radius=r))
            g_errs.append(np.max(np.abs(geom.g - target_g)))
            vol_errs.append(np.max(np.abs(geom.vol - target_vol)))
        assert g_errs[0] > g_errs[1] > g_errs[2]
        assert vol_errs[0] > vol_errs[1] > vol_errs[2]
        # secant approximation of the circle converges, and is already close
        assert vol_errs[2] < 0.01 * target_vol

    def test_rigid_motion_invariance(self, bumpy_torus):
        rot = rotation_matrix("z", 33.0) @ rotation_matrix("x", -57.0)
        moved = Immersion(bumpy_torus.mesh, bumpy_torus.coords @ rot.T + [0.3, -1.2, 2.0])
        g0 = triangle_geometry(bumpy_torus)
        g1 = triangle_geometry(moved)
        assert np.max(np.abs(g1.g - g0.g)) <= 1e-12
        assert np.max(np.abs(g1.g_inv - g0.g_inv)) <= 1e-12
        assert np.max(np.abs(g1.vol - g0.vol)) <= 1e-12

    def test_metric_inverse_consistent(self, bumpy_torus):
        geom = triangle_geometry(bumpy_torus)
        prod = np.einsum("tij,tjk->tik", geom.g_inv, geom.g)
        eye = np.broadcast_to(np.eye(2), prod.shape)
        assert np.max(np.abs(prod - eye)) <= 1e-12

    def test_flat_identity_area_is_one(self, plane_mesh):
        assert abs(surface_area(flat_immersion(plane_mesh)) - 1.0) <= 1e-12


class TestRegularity:
    def test_flat_identity_regular(self, plane_mesh):
        report = check_regularity(flat_immersion(plane_mesh))
        assert report.regular
        assert report.offenders == []

    def test_cylinder_regular_at_explicit_threshold(self):
        mesh = build_grid(Topology.CYLINDER, 16, 16)
        report = check_regularity(cylinder_surface(mesh), eps_reg=1e-8)
        assert report.regular

    def test_collapsed_node_flags_incident_triangles(self, plane_mesh):
        q = flat_immersion(plane_mesh)
        coords = q.coords.copy()
        a = plane_mesh.grid_index(1, 1)
        b = plane_mesh.grid_index(2, 1)
        coords[a] = coords[b]  # collapse one interior node onto its neighbor
        report = check_regularity(Immersion(plane_mesh, coords), eps_reg=1e-6)
        flagged = {t for t, _ in report.offenders}
        incident = {
            t for t in range(plane_mesh.n_triangles)
            if a in plane_mesh.triangles[t] and b in plane_mesh.triangles[t]
        }
        assert not report.regular
        assert flagged == incident

    def test_degenerate_element_raises(self, plane_mesh):
        q = Immersion(plane_mesh, np.zeros((plane_mesh.n_nodes, 3)))
        with pytest.raises(DegenerateElementError):
            require_regular(q, eps_reg=1e-8)


class TestRegularityThreshold:
    @pytest.fixture
    def median_calls(self, monkeypatch):
        calls = []
        real = np.median

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(np, "median", counting)
        return calls

    def test_default_median_once_per_immersion(self, cylinder_shape, median_calls):
        q = Immersion(cylinder_shape.mesh, cylinder_shape.coords)
        first = regularity_threshold(q)
        for _ in range(3):
            require_regular(q)
            check_regularity(q)
        assert regularity_threshold(q) == first
        assert len(median_calls) == 1
        regularity_threshold(q.displaced(np.full(q.coords.shape, 0.1)))
        assert len(median_calls) == 2
        assert first == DEFAULT_REGULARITY_FACTOR * float(np.median(triangle_geometry(q).vol))

    def test_explicit_eps_bypasses_cache(self, cylinder_shape, median_calls):
        q = Immersion(cylinder_shape.mesh, cylinder_shape.coords)
        assert regularity_threshold(q, 1e-3) == 1e-3
        assert median_calls == []
        assert q._default_threshold is None
        default = regularity_threshold(q)
        assert regularity_threshold(q, 1e-3) == 1e-3
        assert regularity_threshold(q) == default
        assert len(median_calls) == 1


class TestImmersionValidation:
    def test_rejects_wrong_shape(self, plane_mesh):
        with pytest.raises(ValueError):
            Immersion(plane_mesh, np.zeros((plane_mesh.n_nodes, 2)))

    def test_rejects_non_finite(self, plane_mesh):
        coords = np.zeros((plane_mesh.n_nodes, 3))
        coords[0, 0] = np.nan
        with pytest.raises(ValueError):
            Immersion(plane_mesh, coords)

    def test_mismatched_meshes_rejected(self):
        a = build_grid(Topology.PLANE, 2, 2)
        b = build_grid(Topology.PLANE, 3, 3)
        with pytest.raises(MeshMismatchError):
            check_same_mesh(a, b, "test")
