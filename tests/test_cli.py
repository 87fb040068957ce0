"""Command-line driver: artifacts, determinism, exit codes."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import innershape.cli
import innershape.shooting
from innershape import (
    VASE_PRESETS,
    Immersion,
    RunConfig,
    SolverError,
    Topology,
    build_grid,
    cylinder_surface,
    load_mesh,
    save_mesh,
    save_velocity,
    torus_surface,
    torus_triangle,
    vase_family,
    vase_surface,
)
from innershape.cli import (
    _BENT_DEFAULTS, _FIXTURE_TOPOLOGY, COMMAND_KEYS, EXIT_IO, EXIT_NUMERICAL, EXIT_OK,
    EXIT_USAGE, _gradcheck_base, _load_config, build_parser, main,
)
from innershape.config import ConfigError
from innershape.errors import (
    DegenerateElementError, MeshError, MeshFormatError, MeshMismatchError, StepFailureError,
    ZeroVelocityError,
)

SRC = Path(__file__).resolve().parents[1] / "src"

#: the library surfaces each fixture shape writes, at the default config
LIBRARY_FIXTURES = {
    "cylinder": lambda m, c: [cylinder_surface(m, c.radius, c.height)],
    "bent-cylinder": lambda m, c: [cylinder_surface(m, c.radius, c.height, **_BENT_DEFAULTS)],
    "torus": lambda m, c: [torus_surface(m, c.major_radius, c.minor_radius, c.asymmetry)],
    "torus-triangle": lambda m, c: torus_triangle(m, c.major_radius, c.minor_radius,
                                                  c.asymmetry),
    "vase": lambda m, c: [vase_surface(m, c.radius, c.height, VASE_PRESETS[0])],
    "vase-family": lambda m, c: vase_family(m, c.radius, c.height),
}


#: per command: arguments it needs, and a flag of a config key it does not read
MISPLACED_FLAGS = {
    "meshgen": (["--out", "m.mesh"], ["--alpha", "0.5"]),
    "fixture": (["--shape", "cylinder", "--out", "c.mesh"], ["--sigma", "0.3"]),
    "register": (["--template", "a.mesh", "--target", "b.mesh"], ["--nx", "8"]),
    "shoot": (["--initial", "a.mesh", "--velocity", "u.vel"], ["--tol-grad", "1e-6"]),
    "triangle": (["--a", "a.mesh", "--b", "b.mesh", "--c", "c.mesh"], ["--seed", "1"]),
    "mean": (["--shapes", "a.mesh", "b.mesh"], ["--topology", "plane"]),
    "gradcheck": ([], ["--export-frames", "on"]),
}


def run(*argv):
    return main(list(argv))


def identity_registration(sheets, tmp_path):
    """Arguments of a registration of the base sheet onto itself (no descent step)."""
    return ["register", "--template", sheets["base"], "--target", sheets["base"],
            "--out-dir", str(tmp_path / "run")]


@pytest.fixture(scope="module")
def sheets(tmp_path_factory):
    """Flat 6x6 sheet plus small translates, saved as native mesh files."""
    root = tmp_path_factory.mktemp("sheets")
    mesh = build_grid(Topology.PLANE, 6, 6)
    xs, ys = mesh.nodes[:, 0], mesh.nodes[:, 1]
    base = Immersion(mesh, np.column_stack([xs, ys, np.zeros_like(xs)]))
    offsets = {
        "base": np.zeros(3),
        "plus": np.array([0.04, -0.03, 0.05]),
        "minus": np.array([-0.04, 0.03, -0.05]),
        "side": np.array([-0.03, 0.02, 0.035]),
    }
    paths = {}
    for name, off in offsets.items():
        q = base.displaced(np.tile(off, (mesh.n_nodes, 1)))
        paths[name] = str(root / f"{name}.mesh")
        save_mesh(q.mesh, q.coords, paths[name])
    return paths


def test_import_loads_no_scipy():
    """The command imports no scipy module: numpy alone raises the index."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    code = ("import sys, innershape.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_assembly_loads_no_numpy_ma():
    """Assembling an operator does not import ``numpy.ma``, which ``np.median``
    loads on numpy 2 at about 15 ms of start-up."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    code = ("import sys, innershape.cli; "
            "from innershape import Topology, assemble, build_grid, cylinder_surface; "
            "assemble(cylinder_surface(build_grid(Topology.CYLINDER, 4, 4)), 0.6); "
            "print('numpy.ma' in sys.modules)")
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_only_the_io_modules_open_files():
    """The numerical modules do no file I/O: meshes, configs and outputs do."""
    openers = {p.stem for p in (SRC / "innershape").glob("*.py")
               if re.search(r"\bopen\(", p.read_text())}
    assert "cli" in openers
    assert sorted(openers - {"mesh", "config", "cli"}) == []


def test_step_path_modules_use_no_blas_reductions():
    """The per-step modules reduce with ufunc sums, not numpy's threaded BLAS
    reductions (vdot, dot, linalg.norm)."""
    blas = {p.stem for p in (SRC / "innershape").glob("*.py")
            if re.search(r"vdot|linalg\.norm|\.dot\(", p.read_text())}
    assert sorted(blas & {"metric", "geometry", "registration", "adjoint", "shooting"}) == []


class TestMeshgen:
    def test_writes_mesh_and_obj(self, tmp_path, capsys):
        out = tmp_path / "flat.mesh"
        code = run("meshgen", "--out", str(out), "--topology", "plane",
                   "--nx", "4", "--ny", "4", "--obj")
        assert code == EXIT_OK
        assert out.exists() and out.with_suffix(".obj").exists()
        mesh, coords = load_mesh(str(out))
        assert mesh.topology is Topology.PLANE
        assert mesh.n_triangles == 32
        assert np.all(coords[:, 2] == 0.0)
        assert "25 nodes" in capsys.readouterr().out

    def test_bad_resolution_is_usage_error(self, tmp_path):
        code = run("meshgen", "--out", str(tmp_path / "x.mesh"), "--nx", "0")
        assert code == EXIT_USAGE


class TestFixture:
    def test_bent_cylinder_with_zero_knobs_equals_straight(self, tmp_path):
        a, b = tmp_path / "a.mesh", tmp_path / "b.mesh"
        assert run("fixture", "--shape", "cylinder", "--out", str(a),
                   "--nx", "6", "--ny", "6") == EXIT_OK
        assert run("fixture", "--shape", "bent-cylinder", "--out", str(b),
                   "--nx", "6", "--ny", "6", "--bend-deg", "0",
                   "--ripples", "0", "--ripple-amplitude", "0") == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_repeat_runs_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.mesh", tmp_path / "b.mesh"
        for out in (a, b):
            assert run("fixture", "--shape", "vase", "--preset", "2",
                       "--out", str(out), "--nx", "6", "--ny", "6") == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_family_writes_directory(self, tmp_path):
        out = tmp_path / "vases"
        assert run("fixture", "--shape", "vase-family", "--out", str(out),
                   "--nx", "4", "--ny", "4") == EXIT_OK
        names = sorted(p.name for p in out.iterdir())
        assert names == [f"vase_{k}.mesh" for k in range(5)]

    @pytest.mark.parametrize("shape", sorted(_FIXTURE_TOPOLOGY))
    def test_every_shape_writes_the_library_fixture(self, tmp_path, shape):
        out = tmp_path / "out"
        assert run("fixture", "--shape", shape, "--out", str(out),
                   "--nx", "6", "--ny", "6") == EXIT_OK
        mesh = build_grid(Topology.parse(_FIXTURE_TOPOLOGY[shape]), 6, 6)
        want = LIBRARY_FIXTURES[shape](mesh, RunConfig())
        written = sorted(out.glob("*.mesh")) if out.is_dir() else [out]
        assert len(written) == len(want)
        for path, q in zip(written, want):
            got_mesh, coords = load_mesh(str(path))
            assert got_mesh.topology is mesh.topology
            assert np.array_equal(coords, q.coords)

    def test_bad_vase_preset_rejected(self, tmp_path):
        code = run("fixture", "--shape", "vase", "--preset", "9",
                   "--out", str(tmp_path / "v.mesh"))
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("shape", sorted(set(_FIXTURE_TOPOLOGY) - {"vase"}))
    def test_preset_only_for_vase(self, tmp_path, shape, capsys):
        out = tmp_path / "out"
        assert run("fixture", "--shape", shape, "--preset", "0", "--out", str(out),
                   "--nx", "4", "--ny", "4") == EXIT_USAGE
        assert "--preset applies to shape 'vase' only" in capsys.readouterr().err
        assert not out.exists()

    def test_config_file_keys_it_does_not_read_are_ignored(self, tmp_path):
        # one config file may serve several commands; the fixture's topology
        # comes from --shape, and it never reads the descent settings
        cfg = tmp_path / "run.cfg"
        cfg.write_text("topology = plane\nsigma = 0.3\nnx = 4\nny = 4\n")
        a, b = tmp_path / "a.mesh", tmp_path / "b.mesh"
        assert run("fixture", "--shape", "torus", "--out", str(a), "--config", str(cfg)) == EXIT_OK
        assert run("fixture", "--shape", "torus", "--out", str(b), "--nx", "4", "--ny", "4") == EXIT_OK
        assert a.read_bytes() == b.read_bytes()


class TestRegister:
    def test_identity_registration(self, sheets, tmp_path):
        out = tmp_path / "run"
        code = run("register", "--template", sheets["base"],
                   "--target", sheets["base"], "--out-dir", str(out),
                   "--sigma", "0.3", "--n-steps", "4")
        assert code == EXIT_OK
        for name in ("registered.mesh", "registered.obj", "initial_velocity.vel",
                     "history.csv", "summary.json"):
            assert (out / name).exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["status"] == "converged"
        assert summary["iterations"] == 0
        assert summary["energy"] == 0.0
        assert summary["matching_error"] == 0.0
        assert (out / "registered.mesh").read_bytes() == Path(sheets["base"]).read_bytes()

    def test_translation_registration_converges(self, sheets, tmp_path):
        out = tmp_path / "run"
        code = run("register", "--template", sheets["base"],
                   "--target", sheets["plus"], "--out-dir", str(out),
                   "--sigma", "0.3", "--n-steps", "4", "--max-iters", "60",
                   "--tol-grad", "1e-12", "--tol-match", "5e-5",
                   "--export-frames", "true")
        assert code == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert summary["status"] == "converged"
        assert summary["matching_error"] <= 5e-5
        assert summary["path_length"] > 0.0
        frames = sorted((out / "frames").iterdir())
        assert len(frames) >= 5  # mesh + obj per step endpoint

    def test_unconverged_registration_exits_nonzero(self, sheets, tmp_path):
        out = tmp_path / "run"
        code = run("register", "--template", sheets["base"],
                   "--target", sheets["plus"], "--out-dir", str(out),
                   "--sigma", "0.3", "--n-steps", "4", "--max-iters", "1",
                   "--tol-grad", "1e-15")
        assert code == EXIT_NUMERICAL
        assert (out / "summary.json").exists()  # artifacts written regardless

    def test_missing_template_is_io_error(self, sheets, tmp_path):
        code = run("register", "--template", str(tmp_path / "absent.mesh"),
                   "--target", sheets["base"], "--out-dir", str(tmp_path / "o"))
        assert code == EXIT_IO

    def test_corrupt_template_is_io_error(self, sheets, tmp_path):
        bad = tmp_path / "bad.mesh"
        bad.write_text("not a mesh file\n")
        code = run("register", "--template", str(bad),
                   "--target", sheets["base"], "--out-dir", str(tmp_path / "o"))
        assert code == EXIT_IO

    def test_non_finite_template_is_io_error(self, sheets, tmp_path):
        bad = tmp_path / "nan.mesh"
        lines = Path(sheets["base"]).read_text().splitlines()
        lines[3] = "v nan 0.0 0.0"
        bad.write_text("\n".join(lines) + "\n")
        code = run("register", "--template", str(bad),
                   "--target", sheets["base"], "--out-dir", str(tmp_path / "o"))
        assert code == EXIT_IO


class TestShoot:
    def test_zero_velocity_keeps_all_frames_identical(self, sheets, tmp_path):
        mesh, coords = load_mesh(sheets["base"])
        vel = tmp_path / "zero.vel"
        save_velocity(mesh, np.zeros_like(coords), str(vel))
        out = tmp_path / "run"
        code = run("shoot", "--initial", sheets["base"], "--velocity", str(vel),
                   "--out-dir", str(out), "--n-steps", "3")
        assert code == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert summary["n_frames"] == 4
        assert summary["path_energy"] == 0.0
        assert summary["path_length"] == 0.0
        final = (out / "final.mesh").read_bytes()
        frame_meshes = sorted((out / "frames").glob("*.mesh"))
        assert len(frame_meshes) == 4
        assert all(p.read_bytes() == final for p in frame_meshes)

    def test_collapsed_initial_mesh_is_numerical_failure(self, sheets, tmp_path):
        mesh, coords = load_mesh(sheets["base"])
        collapsed = tmp_path / "point.mesh"
        save_mesh(mesh, np.zeros_like(coords), str(collapsed))
        vel = tmp_path / "zero.vel"
        save_velocity(mesh, np.zeros_like(coords), str(vel))
        code = run("shoot", "--initial", str(collapsed), "--velocity", str(vel),
                   "--out-dir", str(tmp_path / "o"))
        assert code == EXIT_NUMERICAL

    def test_non_finite_velocity_is_io_error(self, sheets, tmp_path):
        mesh, coords = load_mesh(sheets["base"])
        vel = tmp_path / "inf.vel"
        save_velocity(mesh, np.zeros_like(coords), str(vel))
        lines = vel.read_text().splitlines()
        lines[3] = "v inf 0.0 0.0"
        vel.write_text("\n".join(lines) + "\n")
        code = run("shoot", "--initial", sheets["base"], "--velocity", str(vel),
                   "--out-dir", str(tmp_path / "o"))
        assert code == EXIT_IO

    def test_collapsing_flow_is_step_failure(self, sheets, tmp_path, capsys):
        # u = -4 q on the flat sheet carries every node to the origin by t = 1/4
        mesh, coords = load_mesh(sheets["base"])
        vel = tmp_path / "collapse.vel"
        save_velocity(mesh, -4.0 * coords, str(vel))
        code = run("shoot", "--initial", sheets["base"], "--velocity", str(vel),
                   "--out-dir", str(tmp_path / "o"), "--n-steps", "4")
        assert code == EXIT_NUMERICAL
        assert "error: step failure" in capsys.readouterr().err

    def test_solver_failure_is_step_failure(self, sheets, tmp_path, capsys, monkeypatch):
        # the second sharp solve of the shoot, which advances step 1, breaks down
        mesh, coords = load_mesh(sheets["base"])
        vel = tmp_path / "zero.vel"
        save_velocity(mesh, np.zeros_like(coords), str(vel))
        solves = []
        real_sharp = innershape.shooting.sharp

        def failing_sharp(op, momentum):
            solves.append(op)
            if len(solves) == 2:
                raise SolverError("sharp: block is not positive definite")
            return real_sharp(op, momentum)

        monkeypatch.setattr(innershape.shooting, "sharp", failing_sharp)
        code = run("shoot", "--initial", sheets["base"], "--velocity", str(vel),
                   "--out-dir", str(tmp_path / "o"), "--n-steps", "4")
        assert code == EXIT_NUMERICAL
        assert len(solves) == 2
        assert ("error: step failure: step 1: sharp: block is not positive definite"
                in capsys.readouterr().err)

    def test_velocity_from_other_mesh_rejected(self, sheets, tmp_path):
        other = build_grid(Topology.PLANE, 4, 4)
        vel = tmp_path / "wrong.vel"
        save_velocity(other, np.zeros((other.n_nodes, 3)), str(vel))
        code = run("shoot", "--initial", sheets["base"], "--velocity", str(vel),
                   "--out-dir", str(tmp_path / "o"))
        assert code == EXIT_USAGE


class TestTriangle:
    def test_translated_sheet_triangle(self, sheets, tmp_path):
        out = tmp_path / "tri"
        code = run("triangle", "--a", sheets["base"], "--b", sheets["plus"],
                   "--c", sheets["side"], "--out-dir", str(out),
                   "--sigma", "0.3", "--n-steps", "4", "--max-iters", "80",
                   "--tol-grad", "1e-8", "--tol-match", "5e-5")
        assert code == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary["statuses"]) == {"AB", "AC", "BA", "BC", "CA", "CB"}
        assert all(v == "converged" for v in summary["statuses"].values())
        assert 0.0 < summary["angle_sum_deg"] < 360.0
        assert len(summary["angles_deg"]) == 3
        for name in ("midpoint_ab", "midpoint_bc", "midpoint_ca"):
            assert (out / f"{name}.mesh").exists()

    def test_odd_step_count_is_usage_error(self, sheets, tmp_path):
        code = run("triangle", "--a", sheets["base"], "--b", sheets["plus"],
                   "--c", sheets["side"], "--out-dir", str(tmp_path / "o"),
                   "--n-steps", "3")
        assert code == EXIT_USAGE


class TestMean:
    def test_symmetric_pair_stays_at_start(self, sheets, tmp_path):
        out = tmp_path / "mean"
        code = run("mean", "--shapes", sheets["plus"], sheets["minus"],
                   "--start", sheets["base"], "--out-dir", str(out),
                   "--sigma", "0.15", "--n-steps", "4", "--max-iters", "60",
                   "--tol-grad", "1e-12", "--tol-match", "5e-6",
                   "--mean-tol", "1e-2", "--max-outer", "5")
        assert code == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert summary["status"] == "converged"
        assert summary["outer_iterations"] == 1
        assert summary["velocity_norms"][0] <= 1e-2
        assert (out / "mean.mesh").read_bytes() == Path(sheets["base"]).read_bytes()
        norms_csv = (out / "norms.csv").read_text().strip().splitlines()
        assert len(norms_csv) == 2  # header + one outer iteration

    def test_zero_outer_iterations_is_usage_error(self, sheets, tmp_path):
        code = run("mean", "--shapes", sheets["plus"], sheets["minus"],
                   "--out-dir", str(tmp_path / "mean"), "--max-outer", "0")
        assert code == EXIT_USAGE

    def test_unconverged_mean_exits_nonzero(self, sheets, tmp_path):
        out = tmp_path / "mean"
        code = run("mean", "--shapes", sheets["plus"], sheets["minus"],
                   "--start", sheets["base"], "--out-dir", str(out),
                   "--sigma", "0.15", "--n-steps", "4", "--max-iters", "5",
                   "--mean-tol", "1e-9", "--max-outer", "1")
        assert code == EXIT_NUMERICAL


class TestGradcheck:
    def test_small_check_passes(self, tmp_path):
        out = tmp_path / "gc"
        code = run("gradcheck", "--topology", "plane", "--nx", "4", "--ny", "4",
                   "--n-steps", "3", "--directions", "3", "--seed", "1",
                   "--fd-tol", "1e-5", "--out-dir", str(out))
        assert code == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert summary["passed"] is True
        assert len(summary["min_errors"]) == 3
        assert summary["worst_error"] <= 1e-5

    @pytest.mark.parametrize("topology", ["cylinder", "torus"])
    def test_fixture_base_passes(self, tmp_path, topology):
        out = tmp_path / "gc"
        code = run("gradcheck", "--topology", topology, "--nx", "4", "--ny", "4",
                   "--n-steps", "3", "--directions", "2", "--out-dir", str(out))
        assert code == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert summary["passed"] is True
        assert len(summary["min_errors"]) == 2
        cfg = RunConfig(topology=topology, nx=4, ny=4)
        want = LIBRARY_FIXTURES[topology](build_grid(Topology.parse(topology), 4, 4), cfg)
        assert np.array_equal(_gradcheck_base(cfg).coords, want[0].coords)

    def test_zero_directions_is_usage_error(self, tmp_path):
        code = run("gradcheck", "--topology", "plane", "--nx", "4", "--ny", "4",
                   "--directions", "0", "--out-dir", str(tmp_path / "gc"))
        assert code == EXIT_USAGE


class TestUsage:
    def test_version_flag(self):
        assert run("--version") == EXIT_OK

    def test_unknown_flag(self, tmp_path):
        assert run("meshgen", "--out", str(tmp_path / "m.mesh"),
                   "--bogus", "1") == EXIT_USAGE

    def test_removed_cg_tol_flag(self, tmp_path):
        assert run("meshgen", "--out", str(tmp_path / "m.mesh"),
                   "--cg-tol", "1e-12") == EXIT_USAGE

    def test_removed_jobs_setting(self, tmp_path):
        assert run("meshgen", "--out", str(tmp_path / "m.mesh"),
                   "--jobs", "2") == EXIT_USAGE
        cfg = tmp_path / "run.cfg"
        cfg.write_text("jobs = 2\n")
        assert run("meshgen", "--out", str(tmp_path / "m.mesh"),
                   "--config", str(cfg)) == EXIT_USAGE

    def test_removed_descent_settings(self, tmp_path):
        out = str(tmp_path / "m.mesh")
        cfg = tmp_path / "run.cfg"
        for key, value in [("fixed_step", "on"), ("step_size", "0.5"), ("armijo_c", "1e-4"),
                           ("armijo_shrink", "0.5"), ("step_min", "1e-12")]:
            assert run("meshgen", "--out", out, "--" + key.replace("_", "-"), value) == EXIT_USAGE
            cfg.write_text(f"{key} = {value}\n")
            assert run("meshgen", "--out", out, "--config", str(cfg)) == EXIT_USAGE

    def test_boolean_flag_words(self, sheets, tmp_path):
        identity = identity_registration(sheets, tmp_path)
        assert run(*identity, "--export-frames", "maybe") == EXIT_USAGE
        assert run(*identity, "--export-frames", "off") == EXIT_OK
        args = build_parser().parse_args([*identity, "--export-frames", "off"])
        assert _load_config(args)[0].export_frames is False

    def test_flag_beats_config_file_value(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha = 0.9\nnx = 5\n")
        args = build_parser().parse_args(["gradcheck", "--config", str(cfg), "--alpha", "0.3"])
        config, provided = _load_config(args)
        assert (config.alpha, config.nx) == (0.3, 5)
        assert provided == {"alpha", "nx"}

    def test_flag_replaces_malformed_file_value(self, sheets, tmp_path, capsys):
        # the flag's text replaces the file's before either is converted
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha = abc\n")
        identity = identity_registration(sheets, tmp_path)
        assert run(*identity, "--config", str(cfg), "--alpha", "0.3") == EXIT_OK
        assert run(*identity, "--config", str(cfg)) == EXIT_USAGE
        assert run(*identity, "--alpha", "abc") == EXIT_USAGE
        assert "error: config: alpha: expected a number, got 'abc'" in capsys.readouterr().err

    def test_none_words(self, sheets, tmp_path):
        identity = identity_registration(sheets, tmp_path)
        assert run(*identity, "--alpha", "none") == EXIT_USAGE
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha = none\n")
        assert run(*identity, "--config", str(cfg)) == EXIT_USAGE
        # a none flag unsets an optional key the config file set
        cfg.write_text("tol_match = 0.01\n")
        args = build_parser().parse_args([*identity, "--config", str(cfg), "--tol-match", "none"])
        assert _load_config(args)[0].tol_match is None
        assert run(*identity, "--tol-match", "none") == EXIT_OK

    @pytest.mark.parametrize("flags, config", [
        (["--sigma", "inf"], ""),
        (["--sigma", "1e-200"], ""),
        (["--sigma", "1e-160"], ""),
        (["--sigma", "1e200"], ""),
        (["--eps-reg", "nan"], ""),
        (["--eps-reg", "-0.5"], ""),
        ([], "alpha = nan\n"),
        (["--tol-grad", "-1"], ""),
        ([], "tol_match = -1\n"),
    ], ids=["sigma-inf", "sigma-1e-200", "sigma-1e-160", "sigma-1e200", "eps-reg-nan",
            "eps-reg-negative", "alpha-nan-in-file", "tol-grad-negative",
            "tol-match-negative-in-file"])
    def test_non_finite_or_negative_setting(self, sheets, tmp_path, flags, config):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        code = run("register", "--template", sheets["base"], "--target", sheets["plus"],
                   "--config", str(cfg), "--out-dir", str(tmp_path / "run"),
                   "--n-steps", "4", "--max-iters", "2", *flags)
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("command", ["register", "triangle", "mean"])
    def test_mesh_mismatch_reported_before_a_collapsed_start(self, sheets, tmp_path, command):
        # a usage error (exit 2) outranks the numerical failure (exit 1) of
        # assembling the metric at a collapsed first shape
        mesh, coords = load_mesh(sheets["base"])
        collapsed = tmp_path / "point.mesh"
        save_mesh(mesh, np.zeros_like(coords), str(collapsed))
        other = tmp_path / "other.mesh"
        coarse = build_grid(Topology.PLANE, 4, 4)
        save_mesh(coarse, np.column_stack([coarse.nodes, np.zeros(coarse.n_nodes)]), str(other))
        inputs = {
            "register": ["--template", str(collapsed), "--target", str(other)],
            "triangle": ["--a", str(collapsed), "--b", sheets["plus"], "--c", str(other),
                         "--n-steps", "4"],
            "mean": ["--shapes", str(collapsed), str(other)],
        }[command]
        code = run(command, *inputs, "--out-dir", str(tmp_path / "run"))
        assert code == EXIT_USAGE

    def test_out_dir_that_is_a_file_is_io_error(self, sheets, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        code = run("register", "--template", sheets["base"], "--target", sheets["base"],
                   "--out-dir", str(taken), "--sigma", "0.3", "--n-steps", "4")
        assert code == EXIT_IO
        assert "error: i/o" in capsys.readouterr().err

    def test_unknown_config_key_in_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bogus = 1\n")
        code = run("meshgen", "--out", str(tmp_path / "m.mesh"),
                   "--config", str(cfg))
        assert code == EXIT_USAGE

    def test_config_file_drives_command(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("topology = plane\nnx = 3\nny = 3\n")
        out = tmp_path / "m.mesh"
        assert run("meshgen", "--out", str(out), "--config", str(cfg)) == EXIT_OK
        mesh, _ = load_mesh(str(out))
        assert mesh.n_triangles == 18

    @pytest.mark.parametrize("command", sorted(MISPLACED_FLAGS))
    def test_flag_of_a_key_the_command_does_not_read(self, command, capsys):
        needed, misplaced = MISPLACED_FLAGS[command]
        key = misplaced[0][2:].replace("-", "_")
        assert hasattr(RunConfig(), key) and key not in COMMAND_KEYS[command]
        build_parser().parse_args([command, *needed])  # parses without it
        assert run(command, *needed, *misplaced) == EXIT_USAGE
        assert f"unrecognized arguments: {' '.join(misplaced)}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", sorted(COMMAND_KEYS))
    def test_help_lists_exactly_the_keys_the_command_reads(self, command, capsys):
        assert run(command, "--help") == EXIT_OK
        section = capsys.readouterr().out.split("\nconfig overrides:\n", 1)[1]
        flags = re.findall(r"^  --([a-z-]+)", section, re.M)
        assert flags == [key.replace("_", "-") for key in COMMAND_KEYS[command]]

    def test_every_config_key_is_read_by_some_command(self):
        read = [key for keys in COMMAND_KEYS.values() for key in keys]
        assert sorted(set(read)) == sorted(vars(RunConfig()))
        assert all(len(set(keys)) == len(keys) for keys in COMMAND_KEYS.values())

    @pytest.mark.parametrize("command, flags, config", [
        ("mean", ["--mean-tol", "-1"], ""),
        ("gradcheck", ["--fd-tol", "-1"], ""),
        ("register", [], "mean_tol = -1\n"),
        ("register", [], "fd_tol = -1\n"),
        ("meshgen", [], "sigma = nan\n"),
    ], ids=["mean-tol-negative", "fd-tol-negative", "unread-mean-tol-negative-in-file",
            "unread-fd-tol-negative-in-file", "unread-sigma-nan-in-file"])
    def test_settings_validated_on_every_command(self, sheets, tmp_path, command, flags, config):
        # a config file's keys are all checked, also those the command does not read
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        out = str(tmp_path / "run")
        needed = {
            "mean": ["--shapes", sheets["plus"], sheets["minus"], "--out-dir", out],
            "gradcheck": ["--topology", "plane", "--nx", "4", "--ny", "4", "--out-dir", out],
            "register": identity_registration(sheets, tmp_path)[1:],
            "meshgen": ["--out", out],
        }[command]
        assert run(command, *needed, "--config", str(cfg), *flags) == EXIT_USAGE
        assert not os.path.exists(out)


#: an error a command raises, and the exit code and stderr label it gets
FAILURES = [
    (ConfigError("bad key"), EXIT_USAGE, "config"),
    (MeshMismatchError("other mesh"), EXIT_USAGE, "mesh mismatch"),
    (ValueError("bad value"), EXIT_USAGE, "invalid input"),
    (MeshFormatError("bad line", line=3), EXIT_IO, "bad input file"),
    (OSError("no disk"), EXIT_IO, "i/o"),
    (StepFailureError(2, "collapsed"), EXIT_NUMERICAL, "step failure"),
    (SolverError("not positive definite"), EXIT_NUMERICAL, "solver failure"),
    (DegenerateElementError("flat triangle"), EXIT_NUMERICAL, "numerical failure"),
    (ZeroVelocityError("no direction"), EXIT_NUMERICAL, "numerical failure"),
    (MeshError("no such grid"), EXIT_USAGE, "mesh"),
]


@pytest.mark.parametrize("error, code, label", FAILURES,
                         ids=[type(error).__name__ for error, _, _ in FAILURES])
def test_failure_exit_code_and_label(monkeypatch, capsys, error, code, label):
    def fail(args):
        raise error

    monkeypatch.setattr(innershape.cli, "cmd_meshgen", fail)
    assert run("meshgen", "--out", "unused.mesh") == code
    assert capsys.readouterr().err == f"error: {label}: {error}\n"


def test_unexpected_error_propagates(monkeypatch):
    def fail(args):
        raise RuntimeError("bug")

    monkeypatch.setattr(innershape.cli, "cmd_meshgen", fail)
    with pytest.raises(RuntimeError, match="bug"):
        run("meshgen", "--out", "unused.mesh")


def test_readme_lists_each_commands_config_keys():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    table = readme.split("\n| Command | Config keys |\n", 1)[1].split("\n\n", 1)[0]
    listed = {}
    for row in table.splitlines()[1:]:
        _, command, keys, _ = row.split("|")
        listed[command.strip(" `")] = sorted(re.findall(r"`(\w+)`", keys))
    assert listed == {command: sorted(keys) for command, keys in COMMAND_KEYS.items()}
