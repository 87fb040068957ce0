"""Command-line driver: artifacts, determinism, exit codes."""

import argparse
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
    Immersion,
    RunConfig,
    SolverError,
    Topology,
    assemble,
    build_grid,
    cylinder_surface,
    load_mesh,
    load_velocity,
    save_mesh,
    save_velocity,
    shoot,
    torus_surface,
    torus_triangle,
    vase_family,
)
from innershape.cli import (
    _FIXTURE_TOPOLOGY, COMMAND_KEYS, EXIT_IO, EXIT_NUMERICAL, EXIT_OK,
    EXIT_USAGE, _load_config, build_parser, main,
)
from innershape.config import ConfigError
from innershape.errors import (
    DegenerateElementError, MeshFormatError, MeshMismatchError, MeshResolutionError,
    StepFailureError, ZeroVelocityError,
)

SRC = Path(__file__).resolve().parents[1] / "src"

#: the library surfaces each fixture shape writes, at the default config
LIBRARY_FIXTURES = {
    "plane": lambda m, c: [Immersion(m, np.column_stack([m.nodes, np.zeros(m.n_nodes)]))],
    "cylinder": lambda m, c: [cylinder_surface(m, c.radius, c.height)],
    "torus": lambda m, c: [torus_surface(m, c.major_radius, c.minor_radius, c.asymmetry)],
    "torus-triangle": lambda m, c: torus_triangle(m, c.major_radius, c.minor_radius,
                                                  c.asymmetry),
    "vase-family": lambda m, c: vase_family(m, c.radius, c.height),
}


#: per command: arguments it needs, and a flag of a config key it does not read
MISPLACED_FLAGS = {
    "fixture": (["--shape", "cylinder", "--out", "c.mesh"], ["--sigma", "0.3"]),
    "register": (["--template", "a.mesh", "--target", "b.mesh"], ["--nx", "8"]),
    "shoot": (["--initial", "a.mesh", "--velocity", "u.vel"], ["--tol-grad", "1e-6"]),
    "triangle": (["--a", "a.mesh", "--b", "b.mesh", "--c", "c.mesh"], ["--seed", "1"]),
    "mean": (["--shapes", "a.mesh", "b.mesh"], ["--directions", "3"]),
    "gradcheck": (["--initial", "a.mesh"], ["--mean-tol", "1e-2"]),
}


def run(*argv):
    return main(list(argv))


def read_summary(out, command):
    """The ``summary.json`` in ``out``, checked to record ``command`` and the
    plain values of exactly the config keys it reads."""
    summary = json.loads((out / "summary.json").read_text())
    assert summary["command"] == command
    assert set(summary["config"]) == set(COMMAND_KEYS[command])
    for value in summary["config"].values():
        assert value is None or isinstance(value, (bool, int, float, str))
    return summary


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


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="no /proc/self/task")
@pytest.mark.parametrize("preset", [None, "2"])
def test_import_starts_no_blas_worker_threads(preset):
    """Importing the command before numpy sets ``OPENBLAS_NUM_THREADS=1``, so
    OpenBLAS starts no worker thread; a preset value wins."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    env.pop("OPENBLAS_NUM_THREADS", None)
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    code = ("import os, innershape.cli; "
            "print(len(os.listdir('/proc/self/task')), os.environ.get('OPENBLAS_NUM_THREADS'))")
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    threads, variable = out.stdout.split()
    if preset is None:
        assert (threads, variable) == ("1", "1")
    else:
        assert variable == preset


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
    """The per-step modules reduce with ufunc sums, not BLAS reductions (vdot,
    dot, linalg.norm): a caller that loads numpy before innershape keeps
    OpenBLAS's worker pool, whose threaded sums would tie the library's bits
    to the thread count."""
    blas = {p.stem for p in (SRC / "innershape").glob("*.py")
            if re.search(r"vdot|linalg\.norm|\.dot\(", p.read_text())}
    assert sorted(blas & {"metric", "geometry", "registration", "adjoint", "shooting"}) == []


class TestFixture:
    def test_plane_writes_mesh_and_obj(self, tmp_path, capsys):
        out = tmp_path / "flat.mesh"
        code = run("fixture", "--shape", "plane", "--out", str(out), "--nx", "4", "--ny", "4")
        assert code == EXIT_OK
        assert out.exists() and out.with_suffix(".obj").exists()
        mesh, coords = load_mesh(str(out))
        assert mesh.topology is Topology.PLANE
        assert mesh.n_triangles == 32
        assert np.all(coords[:, 2] == 0.0)
        assert capsys.readouterr().out == f"{out}: plane, surface area 1.000000\n"

    def test_bad_resolution_is_usage_error(self, tmp_path, capsys):
        code = run("fixture", "--shape", "plane", "--out", str(tmp_path / "x.mesh"), "--nx", "0")
        assert code == EXIT_USAGE
        assert "error: config: resolution must be at least 1x1" in capsys.readouterr().err

    def test_bend_flags_write_the_library_bent_cylinder(self, tmp_path):
        # the bent, rippled cylinder is the cylinder shape with three geometry keys
        bent = tmp_path / "bent.mesh"
        assert run("fixture", "--shape", "cylinder", "--bend-deg", "90", "--ripples", "5",
                   "--ripple-amplitude", "0.02", "--nx", "6", "--ny", "6",
                   "--out", str(bent)) == EXIT_OK
        mesh = build_grid(Topology.CYLINDER, 6, 6)
        want = tmp_path / "want.mesh"
        save_mesh(mesh, cylinder_surface(mesh, bend_deg=90.0, ripples=5,
                                         ripple_amplitude=0.02).coords, str(want))
        assert bent.read_bytes() == want.read_bytes()

    def test_repeat_runs_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run("fixture", "--shape", "vase-family",
                       "--out", str(out), "--nx", "6", "--ny", "6") == EXIT_OK
        names = sorted(p.name for p in a.iterdir())
        assert names == sorted(p.name for p in b.iterdir())
        assert all((a / n).read_bytes() == (b / n).read_bytes() for n in names)

    def test_family_writes_directory(self, tmp_path):
        out = tmp_path / "vases"
        assert run("fixture", "--shape", "vase-family", "--out", str(out),
                   "--nx", "4", "--ny", "4") == EXIT_OK
        names = sorted(p.name for p in out.iterdir())
        assert names == sorted(f"vase_{k}{ext}" for k in range(5) for ext in (".mesh", ".obj"))

    @pytest.mark.parametrize("shape", sorted(_FIXTURE_TOPOLOGY))
    def test_every_shape_writes_the_library_fixture(self, tmp_path, shape):
        out = tmp_path / "out"
        assert run("fixture", "--shape", shape, "--out", str(out),
                   "--nx", "6", "--ny", "6") == EXIT_OK
        mesh = build_grid(_FIXTURE_TOPOLOGY[shape], 6, 6)
        want = LIBRARY_FIXTURES[shape](mesh, RunConfig())
        written = sorted(out.glob("*.mesh")) if out.is_dir() else [out]
        assert len(written) == len(want)
        for path, q in zip(written, want):
            got_mesh, coords = load_mesh(str(path))
            assert got_mesh.topology is mesh.topology
            assert np.array_equal(coords, q.coords)

    @pytest.mark.parametrize("flags, config, message", [
        (["--shape", "torus", "--ny", "2"], "",
         "torus is periodic in y and needs ny >= 3, got ny=2"),
        (["--shape", "cylinder"], "nx = 2\n",
         "cylinder is periodic in x and needs nx >= 3, got nx=2"),
    ], ids=["torus-ny-2", "cylinder-nx-2-from-file"])
    def test_resolution_the_shape_cannot_build_is_config_error(self, tmp_path, capsys, flags,
                                                              config, message):
        # the config allows the grid, but the shape's own topology does not
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        out = tmp_path / "out.mesh"
        assert run("fixture", *flags, "--out", str(out), "--config", str(cfg)) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: config: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("shape, out", [("cylinder", "big/c.mesh"), ("vase-family", "big")])
    def test_area_that_overflows_leaves_no_file(self, tmp_path, capsys, shape, out):
        # every surface area is computed before the first file is written
        assert run("fixture", "--shape", shape, "--radius", "1e200",
                   "--out", str(tmp_path / out)) == EXIT_NUMERICAL
        assert capsys.readouterr().err == ("error: numerical failure: the surface area is not "
                                           "finite: its geometry overflows\n")
        assert not (tmp_path / "big").exists()

    def test_cylinder_two_cells_high_is_built(self, tmp_path):
        # only x is periodic on a cylinder, so ny = 2 gives a grid
        out = tmp_path / "out.mesh"
        assert run("fixture", "--shape", "cylinder", "--ny", "2", "--out", str(out)) == EXIT_OK
        assert load_mesh(str(out))[0].ny == 2

    def test_config_file_keys_it_does_not_read_are_ignored(self, tmp_path):
        # one config file may serve several commands; the fixture never
        # reads the metric or descent settings
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha = 0.3\nsigma = 0.3\nnx = 4\nny = 4\n")
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
        summary = read_summary(out, "register")
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
                   "--tol-grad", "1e-12", "--tol-match", "5e-5")
        assert code == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert summary["status"] == "converged"
        assert summary["matching_error"] <= 5e-5
        assert summary["path_length"] > 0.0
        assert not (out / "frames").exists()

    def test_shoot_replays_the_registration(self, sheets, tmp_path):
        # shooting the saved velocity with the same alpha and n_steps
        # retraces the registration's path: its frames are the registration's
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha = 0.4\nn_steps = 4\n")
        reg, replay = tmp_path / "reg", tmp_path / "replay"
        assert run("register", "--template", sheets["base"], "--target", sheets["plus"],
                   "--config", str(cfg), "--out-dir", str(reg), "--sigma", "0.3",
                   "--max-iters", "60", "--tol-grad", "1e-12",
                   "--tol-match", "5e-5") == EXIT_OK
        assert run("shoot", "--initial", sheets["base"], "--config", str(cfg),
                   "--velocity", str(reg / "initial_velocity.vel"),
                   "--out-dir", str(replay)) == EXIT_OK
        assert (replay / "final.mesh").read_bytes() == (reg / "registered.mesh").read_bytes()
        # the frames are surfaces only, 2(N + 1) files: a mesh and an OBJ each
        frames_dir = replay / "frames"
        names = sorted(p.name for p in frames_dir.iterdir())
        assert names == sorted(f"frame_{i}{ext}" for i in range(5) for ext in (".mesh", ".obj"))
        assert (frames_dir / "frame_0.mesh").read_bytes() == Path(sheets["base"]).read_bytes()
        frames = [load_mesh(str(frames_dir / f"frame_{i}.mesh"))[1] for i in range(5)]
        # and they hold the nodal speeds: N |q_{i+1} - q_i| = |u_i|
        op0 = assemble(Immersion(*load_mesh(sheets["base"])), 0.4)
        path = shoot(op0, load_velocity(str(reg / "initial_velocity.vel"))[1], 4)
        for q, q_next, u in zip(frames, frames[1:], path.velocities):
            speed = np.sqrt(np.sum(u * u, axis=1))
            derived = 4 * np.sqrt(np.sum((q_next - q) ** 2, axis=1))
            assert np.max(np.abs(derived - speed)) <= 1e-14 * np.max(speed)

    def test_unconverged_registration_exits_nonzero(self, sheets, tmp_path):
        out = tmp_path / "run"
        code = run("register", "--template", sheets["base"],
                   "--target", sheets["plus"], "--out-dir", str(out),
                   "--sigma", "0.3", "--n-steps", "4", "--max-iters", "1",
                   "--tol-grad", "1e-15")
        assert code == EXIT_NUMERICAL
        assert (out / "summary.json").exists()  # artifacts written regardless

    def test_smallest_accepted_sigma_runs_without_a_warning(self, tmp_path):
        """``--sigma 1e-77`` passes the config check; the descent it runs
        carries a matching weight near 5e153 and must not overflow anywhere."""
        for bend, name in (([], "a.mesh"),
                           (["--bend-deg", "90", "--ripples", "5", "--ripple-amplitude", "0.02"],
                            "b.mesh")):
            assert run("fixture", "--shape", "cylinder", *bend, "--nx", "8", "--ny", "8",
                       "--out", str(tmp_path / name)) == EXIT_OK
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "innershape.cli", "register",
             "--template", str(tmp_path / "a.mesh"), "--target", str(tmp_path / "b.mesh"),
             "--sigma", "1e-77", "--max-iters", "3", "--out-dir", str(tmp_path / "run")],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert out.returncode == EXIT_NUMERICAL, out.stderr
        assert "Warning" not in out.stderr and "Traceback" not in out.stderr
        summary = json.loads((tmp_path / "run" / "summary.json").read_text())
        assert summary["status"] == "max_iters"

    def test_alpha_far_too_large_names_the_failing_solve(self, tmp_path, capsys):
        # alpha 1e50 makes the metric block too ill-conditioned for the
        # residual check, and no iterate before the rest path's sweep exists
        straight = written_surface(tmp_path, "fixture", "--shape", "cylinder")
        bent = str(tmp_path / "bent.mesh")
        assert run("fixture", "--shape", "cylinder", "--bend-deg", "90", "--ripples", "5",
                   "--ripple-amplitude", "0.02", "--out", bent) == EXIT_OK
        capsys.readouterr()
        assert run("register", "--template", straight, "--target", bent, "--alpha", "1e50",
                   "--sigma", "0.05", "--out-dir", str(tmp_path / "run")) == EXIT_NUMERICAL
        assert re.fullmatch(r"error: solver failure: adjoint sweep of the rest path: solve "
                            r"residual \S+ exceeds 1e-10 times \|rhs\|=\S+\n",
                            capsys.readouterr().err)

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
        summary = read_summary(out, "shoot")
        assert summary["n_frames"] == 4
        assert summary["path_energy"] == 0.0
        assert summary["path_length"] == 0.0
        final = (out / "final.mesh").read_bytes()
        frame_meshes = sorted((out / "frames").glob("*.mesh"))
        assert len(frame_meshes) == 4
        assert all(p.read_bytes() == final for p in frame_meshes)

    @pytest.mark.parametrize("command, alpha", [
        ("shoot", "1e153"), ("shoot", "1e160"), ("register", "1e308"),
    ])
    def test_alpha_that_overflows_the_metric_is_usage_error(self, tmp_path, capsys, command,
                                                            alpha):
        # alpha^2 is finite at 1e153, but alpha^2 times the 16x16 stiffness is not
        cylinder = written_surface(tmp_path, "fixture", "--shape", "cylinder")
        mesh, coords = load_mesh(cylinder)
        save_velocity(mesh, np.zeros_like(coords), str(tmp_path / "zero.vel"))
        inputs = {"shoot": ["--initial", cylinder, "--velocity", str(tmp_path / "zero.vel")],
                  "register": ["--template", cylinder, "--target", cylinder]}
        assert run(command, *inputs[command], "--alpha", alpha,
                   "--out-dir", str(tmp_path / "run")) == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"error: invalid input: alpha {float(alpha):g} is too large: "
            "the element matrices overflow\n")

    def test_mesh_whose_geometry_overflows_is_numerical_failure(self, tmp_path, capsys):
        # det(g) overflows at a node x = 1e80; no RuntimeWarning comes first
        # (the suite makes one an error)
        cylinder = written_surface(tmp_path, "fixture", "--shape", "cylinder", "--nx", "4",
                                   "--ny", "4")
        mesh, coords = load_mesh(cylinder)
        bad = tmp_path / "huge.mesh"
        lines = Path(cylinder).read_text().splitlines()
        lines[3] = "v 1e80 0.0 0.0"
        bad.write_text("\n".join(lines) + "\n")
        save_velocity(mesh, np.zeros_like(coords), str(tmp_path / "zero.vel"))
        code = run("shoot", "--initial", str(bad), "--velocity", str(tmp_path / "zero.vel"),
                   "--out-dir", str(tmp_path / "o"))
        assert code == EXIT_NUMERICAL
        assert re.fullmatch(r"error: numerical failure: triangle \d+: geometry is not finite"
                            r"( \(\d+ offending triangles\))?\n", capsys.readouterr().err)

    def test_velocity_whose_kinetic_energy_overflows_is_step_failure(self, sheets, tmp_path,
                                                                      capsys):
        mesh, coords = load_mesh(sheets["base"])
        vel = tmp_path / "huge.vel"
        save_velocity(mesh, np.full_like(coords, 1e200), str(vel))
        code = run("shoot", "--initial", sheets["base"], "--velocity", str(vel),
                   "--out-dir", str(tmp_path / "o"))
        assert code == EXIT_NUMERICAL
        assert capsys.readouterr().err == ("error: step failure: step 0: velocity too large: "
                                           "its kinetic energy overflows\n")

    def test_velocity_that_collapses_the_surface_is_step_failure(self, tmp_path, capsys):
        # 1e20 at every node swamps the coordinates in rounding without
        # overflowing: the first step flattens every triangle, and the message
        # names the median volume and the step's reach rather than a 0 threshold
        cylinder = written_surface(tmp_path, "fixture", "--shape", "cylinder", "--nx", "4",
                                   "--ny", "4")
        mesh, coords = load_mesh(cylinder)
        vel = tmp_path / "collapse.vel"
        save_velocity(mesh, np.full_like(coords, 1e20), str(vel))
        code = run("shoot", "--initial", cylinder, "--velocity", str(vel), "--n-steps", "10",
                   "--out-dir", str(tmp_path / "o"))
        assert code == EXIT_NUMERICAL
        assert capsys.readouterr().err == (
            "error: step failure: step 0: triangle 0: vol=0.000e+00, and the median volume "
            "is 0 (32 offending triangles), after the step moves a node by up to "
            "|dt u| = 1.732e+19\n")

    def test_final_area_that_overflows_leaves_no_file(self, sheets, tmp_path, capsys):
        # one step moves a node to x = 1e80, whose triangles' areas overflow;
        # the final area is computed before the first frame is written
        mesh, coords = load_mesh(sheets["base"])
        u0 = np.zeros_like(coords)
        u0[mesh.grid_index(2, 2), 0] = 1e80
        vel = tmp_path / "far.vel"
        save_velocity(mesh, u0, str(vel))
        out = tmp_path / "o"
        code = run("shoot", "--initial", sheets["base"], "--velocity", str(vel),
                   "--out-dir", str(out), "--n-steps", "1")
        assert code == EXIT_NUMERICAL
        assert capsys.readouterr().err == ("error: numerical failure: the surface area is not "
                                           "finite: its geometry overflows\n")
        assert not out.exists()

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

    def test_velocity_from_other_mesh_rejected(self, sheets, tmp_path, capsys):
        other = build_grid(Topology.PLANE, 4, 4)
        vel = tmp_path / "wrong.vel"
        save_velocity(other, np.zeros((other.n_nodes, 3)), str(vel))
        code = run("shoot", "--initial", sheets["base"], "--velocity", str(vel),
                   "--out-dir", str(tmp_path / "o"))
        assert code == EXIT_USAGE
        assert ("error: mesh mismatch: shoot velocity: meshes differ"
                in capsys.readouterr().err)


class TestTriangle:
    def test_translated_sheet_triangle(self, sheets, tmp_path):
        out = tmp_path / "tri"
        code = run("triangle", "--a", sheets["base"], "--b", sheets["plus"],
                   "--c", sheets["side"], "--out-dir", str(out),
                   "--sigma", "0.3", "--n-steps", "4", "--max-iters", "80",
                   "--tol-grad", "1e-8", "--tol-match", "5e-5")
        assert code == EXIT_OK
        summary = read_summary(out, "triangle")
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
        summary = read_summary(out, "mean")
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

    def test_unconverged_registration_exits_nonzero(self, sheets, tmp_path, capsys):
        # the mean converges, but the registration onto "plus" stops at max_iters
        out = tmp_path / "mean"
        code = run("mean", "--shapes", sheets["base"], sheets["plus"],
                   "--start", sheets["base"], "--out-dir", str(out),
                   "--sigma", "0.3", "--n-steps", "4", "--max-iters", "1",
                   "--tol-grad", "1e-12", "--mean-tol", "1")
        assert code == EXIT_NUMERICAL
        summary = json.loads((out / "summary.json").read_text())
        assert summary["status"] == "converged"
        assert summary["registration_statuses"] == ["converged", "max_iters"]
        assert capsys.readouterr().err == (
            f"error: registrations did not converge: {sheets['plus']}\n")


def written_surface(tmp_path, command, *flags):
    """Path of the surface file that ``fixture`` writes with ``flags``."""
    path = str(tmp_path / "base.mesh")
    assert run(command, *flags, "--out", path) == EXIT_OK
    return path


class TestGradcheck:
    def test_small_check_passes(self, tmp_path):
        base = written_surface(tmp_path, "fixture", "--shape", "plane", "--nx", "4",
                               "--ny", "4")
        out = tmp_path / "gc"
        code = run("gradcheck", "--initial", base, "--n-steps", "3", "--directions", "3",
                   "--seed", "1", "--fd-tol", "1e-5", "--out-dir", str(out))
        assert code == EXIT_OK
        summary = read_summary(out, "gradcheck")
        # the surface comes from the file, so no grid setting is recorded
        assert not {"topology", "nx", "ny"} & set(summary["config"])
        assert summary["initial"] == base
        assert summary["passed"] is True
        assert len(summary["min_errors"]) == 3
        assert summary["worst_error"] <= 1e-5

    @pytest.mark.parametrize("shape", ["cylinder", "torus"])
    def test_fixture_base_passes(self, tmp_path, shape):
        base = written_surface(tmp_path, "fixture", "--shape", shape, "--nx", "4", "--ny", "4")
        out = tmp_path / "gc"
        code = run("gradcheck", "--initial", base, "--n-steps", "3", "--directions", "2",
                   "--out-dir", str(out))
        assert code == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert summary["passed"] is True
        assert len(summary["min_errors"]) == 2

    def test_vase_base_passes(self, tmp_path):
        # a surface that no topology names: one vase of the family
        assert run("fixture", "--shape", "vase-family", "--nx", "8", "--ny", "8",
                   "--out", str(tmp_path / "vases")) == EXIT_OK
        out = tmp_path / "gc"
        code = run("gradcheck", "--initial", str(tmp_path / "vases" / "vase_2.mesh"),
                   "--n-steps", "3", "--directions", "2", "--out-dir", str(out))
        assert code == EXIT_OK
        assert json.loads((out / "summary.json").read_text())["passed"] is True

    def test_velocity_file_is_bad_input(self, sheets, tmp_path, capsys):
        mesh, coords = load_mesh(sheets["base"])
        vel = tmp_path / "u.vel"
        save_velocity(mesh, np.zeros_like(coords), str(vel))
        out = tmp_path / "gc"
        assert run("gradcheck", "--initial", str(vel), "--out-dir", str(out)) == EXIT_IO
        assert capsys.readouterr().err == (
            "error: bad input file: line 1: expected header 'IMESH 1'\n")
        assert not out.exists()

    @pytest.mark.parametrize("flags", [
        ["--topology", "plane"], ["--nx", "4"], ["--bend-deg", "90"],
    ], ids=["topology", "nx", "bend-deg"])
    def test_surface_settings_are_no_flags(self, sheets, tmp_path, capsys, flags):
        # the base surface comes from a file: fixture takes the grid and geometry flags
        out = tmp_path / "gc"
        assert run("gradcheck", "--initial", sheets["base"], *flags,
                   "--out-dir", str(out)) == EXIT_USAGE
        assert f"unrecognized arguments: {' '.join(flags)}" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_directions_is_usage_error(self, sheets, tmp_path, capsys):
        code = run("gradcheck", "--initial", sheets["base"], "--directions", "0",
                   "--out-dir", str(tmp_path / "gc"))
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == "error: config: directions must be >= 1, got 0\n"

    def test_negative_seed_is_config_error(self, sheets, tmp_path, capsys):
        out = tmp_path / "gc"
        code = run("gradcheck", "--initial", sheets["base"], "--seed", "-1",
                   "--out-dir", str(out))
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == "error: config: seed must be >= 0, got -1\n"
        assert not out.exists()


class TestUsage:
    def test_version_flag(self):
        assert run("--version") == EXIT_OK

    def test_unknown_flag(self, tmp_path):
        assert run("fixture", "--shape", "plane", "--out", str(tmp_path / "m.mesh"),
                   "--bogus", "1") == EXIT_USAGE

    def test_removed_cg_tol_flag(self, tmp_path):
        assert run("fixture", "--shape", "plane", "--out", str(tmp_path / "m.mesh"),
                   "--cg-tol", "1e-12") == EXIT_USAGE

    def test_removed_jobs_setting(self, tmp_path):
        assert run("fixture", "--shape", "plane", "--out", str(tmp_path / "m.mesh"),
                   "--jobs", "2") == EXIT_USAGE
        cfg = tmp_path / "run.cfg"
        cfg.write_text("jobs = 2\n")
        assert run("fixture", "--shape", "plane", "--out", str(tmp_path / "m.mesh"),
                   "--config", str(cfg)) == EXIT_USAGE

    def test_removed_descent_settings(self, tmp_path, monkeypatch, capsys):
        # and the absolute regularity threshold: every command's threshold is
        # relative to the median element volume
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "run.cfg"
        for command, (inputs, _) in MISPLACED_FLAGS.items():
            for key, value in [("fixed_step", "on"), ("step_size", "0.5"),
                               ("armijo_c", "1e-4"), ("armijo_shrink", "0.5"),
                               ("step_min", "1e-12"), ("eps_reg", "1e-8")]:
                assert run(command, *inputs, "--" + key.replace("_", "-"), value) == EXIT_USAGE
                cfg.write_text(f"{key} = {value}\n")
                capsys.readouterr()
                assert run(command, *inputs, "--config", str(cfg)) == EXIT_USAGE
                assert capsys.readouterr().err == f"error: config: unknown config key {key!r}\n"
        assert os.listdir(tmp_path) == ["run.cfg"]

    @pytest.mark.parametrize("flags", [
        ["--shape", "bent-cylinder"],
        ["--shape", "vase"],
        ["--shape", "cylinder", "--preset", "0"],
        ["--shape", "cylinder", "--obj"],
    ], ids=["bent-cylinder", "vase", "preset", "obj"])
    def test_removed_fixture_spellings(self, tmp_path, flags):
        # the bent cylinder is the cylinder with bend flags; the vases are
        # vase-family's; every surface gets its OBJ
        out = tmp_path / "out"
        assert run("fixture", *flags, "--out", str(out)) == EXIT_USAGE
        assert not out.exists()

    def test_removed_export_frames_setting(self, sheets, tmp_path, capsys):
        # a registration's frames come from shooting its initial velocity
        identity = identity_registration(sheets, tmp_path)
        assert run(*identity, "--export-frames", "true") == EXIT_USAGE
        cfg = tmp_path / "run.cfg"
        cfg.write_text("export_frames = true\n")
        capsys.readouterr()
        assert run(*identity, "--config", str(cfg)) == EXIT_USAGE
        assert "error: config: unknown config key 'export_frames'" in capsys.readouterr().err

    def test_removed_meshgen_and_topology(self, tmp_path, capsys):
        # the flat sheet is fixture's plane shape, and each shape sets its topology
        out = tmp_path / "m.mesh"
        assert run("meshgen", "--out", str(out)) == EXIT_USAGE
        assert run("fixture", "--shape", "plane", "--topology", "plane",
                   "--out", str(out)) == EXIT_USAGE
        cfg = tmp_path / "run.cfg"
        cfg.write_text("topology = plane\n")
        capsys.readouterr()
        assert run("fixture", "--shape", "plane", "--out", str(out),
                   "--config", str(cfg)) == EXIT_USAGE
        assert capsys.readouterr().err == "error: config: unknown config key 'topology'\n"
        assert not out.exists()

    def test_flag_beats_config_file_value(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha = 0.9\nnx = 5\n")
        args = build_parser().parse_args(["gradcheck", "--initial", "a.mesh", "--config", str(cfg),
                                          "--alpha", "0.3"])
        config = _load_config(args)
        assert (config.alpha, config.nx) == (0.3, 5)

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
        assert _load_config(args).tol_match is None
        assert run(*identity, "--tol-match", "none") == EXIT_OK

    @pytest.mark.parametrize("flags, config", [
        (["--sigma", "inf"], ""),
        (["--sigma", "1e-200"], ""),
        (["--sigma", "1e-160"], ""),
        (["--sigma", "1e200"], ""),
        (["--sigma", "1e-150"], ""),
        ([], "alpha = nan\n"),
        (["--tol-grad", "-1"], ""),
        ([], "tol_match = -1\n"),
    ], ids=["sigma-inf", "sigma-1e-200", "sigma-1e-160", "sigma-1e200", "sigma-1e-150",
            "alpha-nan-in-file", "tol-grad-negative",
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
        mesh, _ = load_mesh(sheets["base"])
        vel = tmp_path / "zero.vel"
        save_velocity(mesh, np.zeros((mesh.n_nodes, 3)), str(vel))
        for inputs in [
            ["register", "--template", sheets["base"], "--target", sheets["base"],
             "--sigma", "0.3"],
            ["shoot", "--initial", sheets["base"], "--velocity", str(vel)],
            ["mean", "--shapes", sheets["base"], sheets["base"], "--sigma", "0.3"],
        ]:
            code = run(*inputs, "--out-dir", str(taken), "--n-steps", "4")
            assert code == EXIT_IO, inputs[0]
            assert "error: i/o" in capsys.readouterr().err

    def test_unknown_config_key_in_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bogus = 1\n")
        code = run("fixture", "--shape", "plane", "--out", str(tmp_path / "m.mesh"),
                   "--config", str(cfg))
        assert code == EXIT_USAGE

    def test_config_file_drives_command(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("nx = 3\nny = 3\n")
        out = tmp_path / "m.mesh"
        assert run("fixture", "--shape", "plane", "--out", str(out), "--config", str(cfg)) == EXIT_OK
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
        ("fixture", [], "sigma = nan\n"),
        ("register", [], "nx = -5\n"),
        ("register", [], "ny = 0\n"),
        ("register", [], "nx = 65535\nny = 65535\n"),
        ("shoot", ["--n-steps", str(10**15)], ""),
        ("shoot", [], f"n_steps = {10**30}\n"),
    ], ids=["mean-tol-negative", "fd-tol-negative", "unread-mean-tol-negative-in-file",
            "unread-fd-tol-negative-in-file", "unread-sigma-nan-in-file",
            "unread-nx-negative-in-file", "unread-ny-zero-in-file",
            "unread-grid-too-large-in-file", "n-steps-beyond-bound",
            "n-steps-beyond-bound-in-file"])
    def test_settings_validated_on_every_command(self, sheets, tmp_path, capsys, command, flags,
                                                 config):
        # a config file's keys are all checked, also those the command does not read
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        out = str(tmp_path / "run")
        needed = {
            "mean": ["--shapes", sheets["plus"], sheets["minus"], "--out-dir", out],
            "gradcheck": ["--initial", sheets["base"], "--out-dir", out],
            "register": identity_registration(sheets, tmp_path)[1:],
            "shoot": ["--initial", sheets["base"], "--velocity", "absent.vel", "--out-dir", out],
            "fixture": ["--shape", "plane", "--out", out],
        }[command]
        assert run(command, *needed, "--config", str(cfg), *flags) == EXIT_USAGE
        assert "error: config:" in capsys.readouterr().err
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
    (MeshResolutionError("needs nx >= 3"), EXIT_USAGE, "config"),
]


@pytest.mark.parametrize("error, code, label", FAILURES,
                         ids=[type(error).__name__ for error, _, _ in FAILURES])
def test_failure_exit_code_and_label(monkeypatch, capsys, error, code, label):
    def fail(args):
        raise error

    monkeypatch.setattr(innershape.cli, "cmd_fixture", fail)
    assert run("fixture", "--shape", "plane", "--out", "unused.mesh") == code
    assert capsys.readouterr().err == f"error: {label}: {error}\n"
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    exit_codes = readme.split("\nExit codes:", 1)[1].split("\n## ", 1)[0]
    assert f"`{label}`" in exit_codes.replace("\n", " ")


def readme_exit_codes():
    """Each stderr label and its exit code, from the README's sentence
    "The label is ... for exit 1; ... for exit 2; and ... for exit 3."."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    sentence = " ".join(readme.split("The label is", 1)[1].split(".", 1)[0].split())
    codes = {}
    for part in sentence.split(";"):
        code = int(re.search(r"for exit (\d)", part).group(1))
        codes.update((label, code) for label in re.findall(r"`([^`]+)`", part))
    return codes


#: what a numeric token of an input file may become in the fuzz
FUZZ_VALUES = ("nan", "inf", "-0", "1e80", "1e200", str(10**15), str(10**30))


def mutated(text, rng):
    """``text`` after one or two edits, each deleting or repeating a line or
    setting one numeric token of a line to an edge value."""
    lines = text.splitlines()
    for _ in range(rng.integers(1, 3)):
        if not lines:
            break
        k = int(rng.integers(len(lines)))
        kind = rng.integers(4)
        if kind == 0:
            del lines[k]
        elif kind == 1:
            lines.insert(k, lines[k])
        else:
            tokens = lines[k].split()
            numeric = [j for j, token in enumerate(tokens)
                       if re.fullmatch(r"[-+]?[0-9.]+(e[-+]?[0-9]+)?", token)]
            if numeric:
                tokens[numeric[rng.integers(len(numeric))]] = str(rng.choice(FUZZ_VALUES))
                lines[k] = " ".join(tokens)
    return "\n".join(lines) + "\n"


def test_seeded_input_fuzz_fails_typed(tmp_path, monkeypatch, capsys):
    """200 seeded mutations of the mesh, velocity or config file of a shoot
    on a 4x4 cylinder: each run succeeds or prints one error line whose label
    and exit code the README gives, and no RuntimeWarning (the suite makes
    one an error).  The trials of seed 0 include a mesh whose geometry
    overflows, a velocity whose kinetic energy overflows and an n_steps of
    10**15, too many to allocate."""
    monkeypatch.chdir(tmp_path)
    mesh = build_grid(Topology.CYLINDER, 4, 4)
    rng = np.random.default_rng(0)
    save_mesh(mesh, cylinder_surface(mesh).coords, "q.mesh")
    save_velocity(mesh, 0.05 * rng.standard_normal((mesh.n_nodes, 3)), "u.vel")
    Path("run.cfg").write_text("alpha = 0.6\nn_steps = 3\nout_dir = run\n")
    inputs = {name: Path(name).read_text() for name in ("q.mesh", "u.vel", "run.cfg")}
    codes = readme_exit_codes()
    for trial in range(200):
        name = str(rng.choice(sorted(inputs)))
        for other, text in inputs.items():
            Path(other).write_text(mutated(text, rng) if other == name else text)
        code = run("shoot", "--initial", "q.mesh", "--velocity", "u.vel", "--config", "run.cfg")
        err = capsys.readouterr().err
        if code == EXIT_OK:
            assert err == "", (trial, name)
            continue
        assert err.count("\n") == 1, (trial, name, err)
        label = re.match(r"error: ([^:]+): ", err)
        assert label and codes.get(label.group(1)) == code, (trial, name, err, code)


def test_unexpected_error_propagates(monkeypatch):
    def fail(args):
        raise RuntimeError("bug")

    monkeypatch.setattr(innershape.cli, "cmd_fixture", fail)
    with pytest.raises(RuntimeError, match="bug"):
        run("fixture", "--shape", "plane", "--out", "unused.mesh")


def test_readme_lists_each_commands_own_flags():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    table = readme.split("\n| Command | Purpose | Own flags |\n", 1)[1].split("\n\n", 1)[0]
    listed = {}
    for row in table.splitlines()[1:]:
        _, command, _, flags, _ = row.split("|")
        listed[command.strip(" `")] = re.findall(r"`(--[a-z-]+)`", flags)
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    shared = {"--help", "--config", "--verbose"}
    own = {}
    for command, sub in commands.choices.items():
        config_flags = {"--" + key.replace("_", "-") for key in COMMAND_KEYS[command]}
        own[command] = [flag for action in sub._actions for flag in action.option_strings
                        if flag.startswith("--") and flag not in shared | config_flags]
    assert listed == own


def test_readme_lists_each_commands_config_keys():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    table = readme.split("\n| Command | Config keys |\n", 1)[1].split("\n\n", 1)[0]
    listed = {}
    for row in table.splitlines()[1:]:
        _, command, keys, _ = row.split("|")
        listed[command.strip(" `")] = sorted(re.findall(r"`(\w+)`", keys))
    assert listed == {command: sorted(keys) for command, keys in COMMAND_KEYS.items()}
