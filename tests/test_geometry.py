"""First fundamental form, volume density and regularity checks."""

import re

import numpy as np
import pytest

from innershape import (
    DegenerateElementError,
    Immersion,
    MeshMismatchError,
    Topology,
    assemble,
    build_grid,
    cylinder_surface,
    require_regular,
    surface_area,
)
from innershape.fixtures import rotation_matrix
from innershape.geometry import (
    REGULARITY_FACTOR,
    _median,
    check_same_mesh,
    triangle_geometry,
)


def flat_immersion(mesh, scale=1.0):
    return Immersion(mesh, np.column_stack([scale * mesh.nodes, np.zeros(mesh.n_nodes)]))


def collapsed_node(mesh):
    """The flat sheet with node (1, 1) moved onto its neighbour (2, 1), and the
    triangles incident to both."""
    coords = flat_immersion(mesh).coords.copy()
    a, b = mesh.grid_index(1, 1), mesh.grid_index(2, 1)
    coords[a] = coords[b]
    incident = [t for t in range(mesh.n_triangles)
                if a in mesh.triangles[t] and b in mesh.triangles[t]]
    return Immersion(mesh, coords), incident


def flagged(q):
    """(first triangle, count) that ``require_regular`` flags on q, or None."""
    try:
        require_regular(q)
    except DegenerateElementError as exc:
        found = re.fullmatch(r"triangle (\d+): .*?(?: \((\d+) offending triangles\))?", str(exc))
        return int(found[1]), int(found[2] or 1)
    return None


def first_form(geom):
    """Per-triangle first fundamental form g = dq^T dq."""
    return geom.dq.transpose(0, 2, 1) @ geom.dq


class TestFirstFundamentalForm:
    def test_flat_identity(self, plane_mesh):
        q = flat_immersion(plane_mesh)
        geom = triangle_geometry(q)
        eye = np.broadcast_to(np.eye(2), geom.g_inv.shape)
        assert np.allclose(first_form(geom), eye, atol=1e-14)
        assert np.allclose(geom.g_inv, eye, atol=1e-14)
        assert np.allclose(geom.vol, 1.0, atol=1e-14)

    def test_scaled_flat(self, plane_mesh):
        q = flat_immersion(plane_mesh, scale=2.0)
        geom = triangle_geometry(q)
        assert np.allclose(first_form(geom), 4.0 * np.eye(2), atol=1e-13)
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
            g_errs.append(np.max(np.abs(first_form(geom) - target_g)))
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
        assert np.max(np.abs(first_form(g1) - first_form(g0))) <= 1e-12
        assert np.max(np.abs(g1.g_inv - g0.g_inv)) <= 1e-12
        assert np.max(np.abs(g1.vol - g0.vol)) <= 1e-12

    def test_metric_inverse_consistent(self, bumpy_torus):
        geom = triangle_geometry(bumpy_torus)
        prod = np.einsum("tij,tjk->tik", geom.g_inv, first_form(geom))
        eye = np.broadcast_to(np.eye(2), prod.shape)
        assert np.max(np.abs(prod - eye)) <= 1e-12

    def test_flat_identity_area_is_one(self, plane_mesh):
        assert abs(surface_area(flat_immersion(plane_mesh)) - 1.0) <= 1e-12


class TestRegularity:
    def test_flat_identity_regular(self, plane_mesh):
        q = flat_immersion(plane_mesh)
        geom = require_regular(q)
        assert np.array_equal(geom.vol, triangle_geometry(q).vol)

    def test_collapsed_node_flags_incident_triangles(self, plane_mesh):
        q, incident = collapsed_node(plane_mesh)
        assert len(incident) > 1
        eps = REGULARITY_FACTOR * float(np.median(triangle_geometry(q).vol))
        with pytest.raises(
            DegenerateElementError,
            match=rf"^triangle {incident[0]}: vol=\S+ <= threshold {re.escape(f'{eps:.3e}')} "
            rf"\({len(incident)} offending triangles\)$",
        ):
            require_regular(q)

    @pytest.mark.parametrize("scale", [1e-3, 1e3])
    def test_rule_is_scale_free(self, plane_mesh, cylinder_shape, scale):
        # the threshold is relative to the median volume: it scales with the
        # surface, so c q and q flag the same triangles
        collapsed, incident = collapsed_node(plane_mesh)
        for q, want in ((collapsed, (incident[0], len(incident))), (cylinder_shape, None)):
            assert flagged(q) == want
            assert flagged(Immersion(q.mesh, scale * q.coords)) == want
        eps = scale**2 * REGULARITY_FACTOR * float(np.median(triangle_geometry(collapsed).vol))
        with pytest.raises(DegenerateElementError, match=rf"threshold {re.escape(f'{eps:.3e}')}"):
            require_regular(Immersion(plane_mesh, scale * collapsed.coords))

    def test_degenerate_element_raises(self, plane_mesh):
        # every triangle collapses, so the median volume and the threshold are 0
        q = Immersion(plane_mesh, np.zeros((plane_mesh.n_nodes, 3)))
        with pytest.raises(DegenerateElementError,
                           match=r"^triangle 0: vol=0\.000e\+00, and the median volume is 0 "
                                 rf"\({plane_mesh.n_triangles} offending triangles\)$"):
            require_regular(q)

    def test_threshold_defaults_to_a_fraction_of_the_median_volume(self, cylinder_shape):
        coords = cylinder_shape.coords.copy()
        coords[1] = coords[0]
        q = Immersion(cylinder_shape.mesh, coords)
        eps = REGULARITY_FACTOR * float(np.median(triangle_geometry(q).vol))
        with pytest.raises(DegenerateElementError, match=rf"<= threshold {eps:.3e}"):
            require_regular(q)

    def test_overflowing_geometry_raises_without_a_warning(self, plane_mesh):
        # det(g) of the triangles at a node x = 1e80 overflows to inf or NaN, and
        # NaN compares false with any threshold (the suite makes a warning an error)
        coords = flat_immersion(plane_mesh).coords.copy()
        coords[plane_mesh.grid_index(1, 1), 0] = 1e80
        q = Immersion(plane_mesh, coords)
        bad = np.nonzero(~np.isfinite(triangle_geometry(q).det_g))[0]
        assert bad.size > 1
        with pytest.raises(DegenerateElementError,
                           match=rf"^triangle {bad[0]}: geometry is not finite "
                                 rf"\({bad.size} offending triangles\)$"):
            require_regular(q)
        with pytest.raises(DegenerateElementError, match="surface area is not finite"):
            surface_area(q)

    @pytest.mark.parametrize("size", [1, 2, 3, 4, 17, 512, 2048])
    def test_median_equals_numpys(self, rng, size):
        vol = rng.random(size) * 10.0 ** rng.uniform(-6, 3)
        assert _median(vol) == float(np.median(vol))
        ties = np.round(vol, 1)
        assert _median(ties) == float(np.median(ties))

    def test_assembled_immersion_holds_only_its_data(self, cylinder_shape):
        q = Immersion(cylinder_shape.mesh, cylinder_shape.coords)
        assemble(q, 0.6)
        assert set(vars(q)) == {"mesh", "coords"}


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
