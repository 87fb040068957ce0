"""Model-domain grids, node identification and the native file formats."""

import dataclasses

import numpy as np
import pytest

import innershape.mesh
from innershape import (
    MeshFormatError,
    MeshResolutionError,
    Topology,
    build_grid,
    export_obj,
    load_mesh,
    load_velocity,
    save_mesh,
    save_velocity,
)
from innershape.cli import EXIT_IO, main

from .oracles import _corners, _triangle_frames


class TestBuildGrid:
    def test_smallest_plane_counts(self):
        mesh = build_grid(Topology.PLANE, 1, 1)
        assert mesh.n_triangles == 2
        assert mesh.n_nodes == 4

    def test_torus_30x30_counts(self):
        mesh = build_grid(Topology.TORUS, 30, 30)
        assert mesh.n_triangles == 1800
        assert mesh.n_nodes == 900

    def test_cylinder_counts(self):
        mesh = build_grid(Topology.CYLINDER, 4, 2)
        assert mesh.n_triangles == 16
        assert mesh.n_nodes == 12  # 4 * (2 + 1) identified columns

    @pytest.mark.parametrize("topology,nx,ny", [
        (Topology.CYLINDER, 2, 2),
        (Topology.TORUS, 3, 2),
        (Topology.TORUS, 2, 3),
    ])
    def test_periodic_direction_needs_three_subdivisions(self, topology, nx, ny):
        with pytest.raises(MeshResolutionError):
            build_grid(topology, nx, ny)

    @pytest.mark.parametrize("nx,ny", [(0, 4), (4, 0), (-1, 4)])
    def test_nonpositive_resolution_rejected(self, nx, ny):
        with pytest.raises(MeshResolutionError):
            build_grid(Topology.PLANE, nx, ny)

    def test_node_count_overflow_rejected(self):
        with pytest.raises(MeshResolutionError):
            build_grid(Topology.PLANE, 70000, 70000)

    @pytest.mark.parametrize("topology,nx,ny", [
        (Topology.PLANE, 1, 1),
        (Topology.PLANE, 5, 3),
        (Topology.CYLINDER, 3, 1),
        (Topology.CYLINDER, 8, 8),
        (Topology.TORUS, 3, 3),
        (Topology.TORUS, 6, 4),
    ])
    def test_parameter_areas_sum_to_one(self, topology, nx, ny):
        mesh = build_grid(topology, nx, ny)
        assert mesh.area.shape == (mesh.n_triangles,)
        assert abs(float(np.sum(mesh.area)) - 1.0) <= 1e-12

    @pytest.mark.parametrize("topology,nx,ny", [
        (Topology.PLANE, 5, 3),
        (Topology.CYLINDER, 7, 5),
        (Topology.TORUS, 6, 4),
    ])
    def test_frames_match_each_triangles_corners(self, topology, nx, ny):
        # every triangle, seam triangles included, against the oracle's frame
        # from its unwrapped corners, which wrap onto its nodes counterclockwise
        mesh = build_grid(topology, nx, ny)
        assert np.all(mesh.area > 0)
        period = [1.0 if topology.periodic_x else np.inf, 1.0 if topology.periodic_y else np.inf]
        for tri in range(mesh.n_triangles):
            np.testing.assert_array_equal(mesh.nodes[mesh.triangles[tri]],
                                          np.fmod(_corners(mesh, tri), period))
            edges, grads, area = _triangle_frames(mesh, tri)
            assert np.linalg.det(edges) > 0
            np.testing.assert_allclose(mesh.basis_grad[tri], grads, rtol=0, atol=1e-12)
            assert abs(mesh.area[tri] - area) <= 1e-12

    @pytest.mark.parametrize("topology", list(Topology))
    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_frames_bitwise_on_power_of_two_grids(self, topology, n):
        # the edge-difference formula the grid once ran on its stored corners:
        # on power-of-two grids the closed form is its result bit for bit,
        # signed zeros included
        mesh = build_grid(topology, n, n)
        p = np.array([_corners(mesh, tri) for tri in range(mesh.n_triangles)])
        e1, e2 = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
        det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
        inv_det = 1.0 / det
        g1 = np.stack([e2[:, 1], -e2[:, 0]], axis=1) * inv_det[:, None]
        g2 = np.stack([-e1[:, 1], e1[:, 0]], axis=1) * inv_det[:, None]
        grads = np.stack([-(g1 + g2), g1, g2], axis=1)
        assert mesh.basis_grad.tobytes() == grads.tobytes()
        assert mesh.area.tobytes() == (0.5 * det).tobytes()

    @pytest.mark.parametrize("topology", list(Topology))
    def test_grid_index_wraps_and_rejects_points_outside(self, topology):
        mesh = build_grid(topology, 4, 4)
        for j in range(mesh.ny + 1):
            for i in range(mesh.nx + 1):
                wrapped = (i % 4 / 4 if topology.periodic_x else i / 4,
                           j % 4 / 4 if topology.periodic_y else j / 4)
                assert tuple(mesh.nodes[mesh.grid_index(i, j)]) == wrapped
        outside = [(5, 0), (-1, 1), (0, 5), (2, -1)]
        for i, j in outside:
            if (topology.periodic_x or 0 <= i <= 4) and (topology.periodic_y or 0 <= j <= 4):
                assert mesh.grid_index(i, j) == mesh.grid_index(i % 4, j % 4)
            else:
                with pytest.raises(ValueError, match=rf"grid point \({i}, {j}\) is outside"):
                    mesh.grid_index(i, j)

    def test_meshes_compare_by_grid(self):
        mesh = build_grid(Topology.CYLINDER, 4, 3)
        assert mesh == build_grid(Topology.CYLINDER, 4, 3)
        for topology, nx, ny in [(Topology.TORUS, 4, 3), (Topology.CYLINDER, 5, 3),
                                 (Topology.CYLINDER, 4, 4)]:
            assert mesh != build_grid(topology, nx, ny)

    def test_grid_of_equal_arguments_is_one_frozen_mesh(self):
        mesh = build_grid(Topology.CYLINDER, 4, 3)
        assert build_grid(Topology.CYLINDER, np.int64(4), np.int32(3)) is mesh
        with pytest.raises(dataclasses.FrozenInstanceError):
            mesh.nx = 5

    def test_triangle_indices_in_range(self):
        mesh = build_grid(Topology.TORUS, 5, 4)
        assert mesh.triangles.min() >= 0
        assert mesh.triangles.max() < mesh.n_nodes


class TestNativeFormat:
    def test_mesh_round_trip_bit_exact(self, tmp_path, rng):
        mesh = build_grid(Topology.TORUS, 4, 4)
        coords = rng.standard_normal((mesh.n_nodes, 3))
        path = tmp_path / "t.mesh"
        save_mesh(mesh, coords, path)
        mesh2, coords2 = load_mesh(path)
        assert mesh2 == mesh
        assert np.array_equal(mesh2.triangles, mesh.triangles)
        assert np.array_equal(coords2, coords)

    def test_velocity_round_trip_bit_exact(self, tmp_path, rng):
        mesh = build_grid(Topology.CYLINDER, 4, 3)
        values = rng.standard_normal((mesh.n_nodes, 3))
        path = tmp_path / "u.vel"
        save_velocity(mesh, values, path)
        mesh2, values2 = load_velocity(path)
        assert mesh2.topology is mesh.topology
        assert np.array_equal(values2, values)

    def test_mesh_and_velocity_headers_differ(self, tmp_path):
        mesh = build_grid(Topology.PLANE, 2, 2)
        coords = np.zeros((mesh.n_nodes, 3))
        path = tmp_path / "m.mesh"
        save_mesh(mesh, coords, path)
        with pytest.raises(MeshFormatError):
            load_velocity(path)

    def test_missing_coordinate_row_reports_line(self, tmp_path, rng):
        mesh = build_grid(Topology.PLANE, 3, 3)  # 16 nodes
        coords = rng.standard_normal((mesh.n_nodes, 3))
        path = tmp_path / "short.mesh"
        save_mesh(mesh, coords, path)
        lines = path.read_text().splitlines()
        del lines[2 + 14]  # drop the 15th of 16 coordinate rows
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(MeshFormatError) as err:
            load_mesh(path)
        assert err.value.line is not None

    @pytest.mark.parametrize("load, magic", [(load_mesh, b"IMESH 2"), (load_velocity, b"IVEC 2")],
                             ids=["mesh", "velocity"])
    def test_non_utf8_file_is_malformed(self, tmp_path, capsys, load, magic):
        path = tmp_path / "bytes.txt"
        path.write_bytes(magic + b"\n\xff\n")
        with pytest.raises(MeshFormatError, match="cannot read"):
            load(path)
        assert main(["shoot", "--initial", str(path), "--velocity", str(path),
                     "--out-dir", str(tmp_path / "run")]) == EXIT_IO
        assert "error: bad input file: cannot read" in capsys.readouterr().err

    def test_version_1_file_fails_at_line_1(self, tmp_path, capsys):
        # a 1x1 plane as version 1 wrote it, with a count line and f records
        path = tmp_path / "v1.mesh"
        path.write_text("IMESH 1\nplane 1 1\n4 2\n" + "v 0.0 0.0 0.0\n" * 4
                        + "f 0 1 3\nf 0 3 2\n")
        with pytest.raises(MeshFormatError) as err:
            load_mesh(path)
        assert err.value.line == 1
        assert main(["gradcheck", "--initial", str(path),
                     "--out-dir", str(tmp_path / "run")]) == EXIT_IO
        assert capsys.readouterr().err == (
            "error: bad input file: line 1: expected header 'IMESH 2'\n")

    def test_bad_magic_reports_first_line(self, tmp_path):
        path = tmp_path / "bad.mesh"
        path.write_text("NOPE 9\nplane 1 1\n")
        with pytest.raises(MeshFormatError) as err:
            load_mesh(path)
        assert err.value.line == 1

    def test_bad_coordinate_reports_line(self, tmp_path):
        mesh = build_grid(Topology.PLANE, 1, 1)
        coords = np.zeros((4, 3))
        path = tmp_path / "coord.mesh"
        save_mesh(mesh, coords, path)
        text = path.read_text().replace("v 0.0 0.0 0.0", "v 0.0 oops 0.0", 1)
        path.write_text(text)
        with pytest.raises(MeshFormatError) as err:
            load_mesh(path)
        assert err.value.line == 3

    @pytest.mark.parametrize("save, load, word", [
        (save_mesh, load_mesh, "nan"), (save_velocity, load_velocity, "-inf"),
    ], ids=["mesh-nan", "velocity-inf"])
    def test_non_finite_value_reports_line(self, tmp_path, save, load, word):
        mesh = build_grid(Topology.PLANE, 1, 1)
        path = tmp_path / "values.txt"
        save(mesh, np.zeros((4, 3)), path)
        lines = path.read_text().splitlines()
        lines[3] = f"v 0.0 {word} 0.0"  # the second coordinate row, line 4
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(MeshFormatError) as err:
            load(path)
        assert err.value.line == 4

    @pytest.mark.parametrize("resolution", ["2 16", "0 16"])
    def test_unbuildable_header_resolution_reports_line_2(self, tmp_path, resolution, capsys):
        path = tmp_path / "res.mesh"
        path.write_text(f"IMESH 2\ncylinder {resolution}\nv 0 0 0\n")
        with pytest.raises(MeshFormatError) as err:
            load_mesh(path)
        assert err.value.line == 2
        assert main(["register", "--template", str(path), "--target", str(path),
                     "--out-dir", str(tmp_path / "run")]) == EXIT_IO
        assert "error: bad input file: line 2: " in capsys.readouterr().err

    # the 800x800 cylinder claims 640800 node records
    @pytest.mark.parametrize("second, line", [("v 0 0 1", 5), ("v 0 0", 4)],
                             ids=["records-missing", "record-malformed"])
    def test_large_header_claim_rejected_without_building_the_grid(
            self, tmp_path, monkeypatch, second, line):
        built = []
        monkeypatch.setattr(innershape.mesh, "build_grid",
                            lambda *args: built.append(args))
        path = tmp_path / "claim.mesh"
        path.write_text(f"IMESH 2\ncylinder 800 800\nv 0 0 0\n{second}\n")
        with pytest.raises(MeshFormatError) as err:
            load_mesh(path)
        assert err.value.line == line
        assert built == []

    # a 1x1 plane file: header lines 1-2, node records 3-6
    @pytest.mark.parametrize("index, record, message", [
        (3, "w 0.0 0.0 0.0", "expected 'v x y z'"),
        (4, "v 0.0 0.0", "expected 'v x y z'"),
        (6, "v 0.0 0.0 0.0 0.0", "expected 'v x y z'"),
    ], ids=["v-tag", "v-short", "v-long"])
    def test_bad_record_reports_message_and_line(self, tmp_path, index, record, message):
        path = tmp_path / "records.mesh"
        save_mesh(build_grid(Topology.PLANE, 1, 1), np.zeros((4, 3)), path)
        lines = path.read_text().splitlines()
        lines[index - 1] = record
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(MeshFormatError) as err:
            load_mesh(path)
        assert err.value.line == index
        assert str(err.value) == f"line {index}: {message}"

    @pytest.mark.parametrize("save", [save_mesh, save_velocity])
    def test_wrongly_shaped_values_rejected(self, tmp_path, save):
        path = tmp_path / "shape.mesh"
        with pytest.raises(ValueError) as err:
            save(build_grid(Topology.PLANE, 1, 1), np.zeros((3, 3)), path)
        assert str(err.value) == "expected (4, 3) values, got (3, 3)"
        assert not path.exists()

    def test_trailing_content_rejected(self, tmp_path):
        mesh = build_grid(Topology.PLANE, 1, 1)
        coords = np.zeros((4, 3))
        path = tmp_path / "extra.mesh"
        save_mesh(mesh, coords, path)
        with open(path, "a") as f:
            f.write("f 0 1 2\n")
        with pytest.raises(MeshFormatError, match="trailing content") as err:
            load_mesh(path)
        assert err.value.line == 7


class TestObjExport:
    def test_smallest_plane_obj_counts(self, tmp_path):
        mesh = build_grid(Topology.PLANE, 1, 1)
        coords = np.column_stack([mesh.nodes, np.zeros(mesh.n_nodes)])
        path = tmp_path / "m.obj"
        export_obj(mesh, coords, path)
        lines = path.read_text().splitlines()
        assert sum(1 for l in lines if l.startswith("v ")) == 4
        assert sum(1 for l in lines if l.startswith("f ")) == 2

    def test_face_indices_one_based(self, tmp_path):
        mesh = build_grid(Topology.PLANE, 1, 1)
        coords = np.column_stack([mesh.nodes, np.zeros(mesh.n_nodes)])
        path = tmp_path / "m.obj"
        export_obj(mesh, coords, path)
        faces = [l.split()[1:] for l in path.read_text().splitlines()
                 if l.startswith("f ")]
        indices = {int(i) for face in faces for i in face}
        assert min(indices) == 1
        assert max(indices) == 4

    def test_wrongly_shaped_coordinates_rejected(self, tmp_path):
        path = tmp_path / "shape.obj"
        with pytest.raises(ValueError) as err:
            export_obj(build_grid(Topology.PLANE, 1, 1), np.zeros((4, 2)), path)
        assert str(err.value) == "expected (4, 3) coordinates, got (4, 2)"
        assert not path.exists()
