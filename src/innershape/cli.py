"""Command-line interface for surface registration experiments.

Every command is a thin driver over the library: it reads a key-value
config file (each key the command reads overridable by a flag), runs one
operation and writes its results as native meshes, OBJ exports, CSV tables
and a summary JSON.
Outputs are a pure function of (config, input files, seed): rerunning a
command with the same inputs reproduces the files byte for byte.

Exit codes: 0 success, 1 numerical failure (solver, step or convergence),
2 usage or config error, 3 I/O error.  Commands check their inputs against
each other before they assemble a metric, so a usage error outranks the
numerical failure of a degenerate input.
"""

import argparse
import csv
import json
import logging
import os
import sys

import numpy as np

from . import __version__
from .adjoint import backward_sweep
from .config import ConfigError, RunConfig, _field_types, as_dict, build_config, parse_file
from .errors import (
    DegenerateElementError,
    MeshError,
    MeshFormatError,
    MeshMismatchError,
    SolverError,
    StepFailureError,
    ZeroVelocityError,
)
from .fixtures import (
    VASE_PRESETS,
    cylinder_surface,
    torus_surface,
    torus_triangle,
    vase_family,
    vase_surface,
)
from .geometry import Immersion, check_same_mesh, surface_area
from .mesh import (
    Topology,
    build_grid,
    compatible,
    export_obj,
    load_mesh,
    load_velocity,
    save_mesh,
    save_velocity,
)
from .metric import assemble, inner_product
from .registration import RegistrationStatus, energy, matching_covector, register
from .shooting import GeodesicPath, path_energy, path_length, shoot
from .statistics import MeanStatus, karcher_mean, triangle_experiment

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_USAGE = 2
EXIT_IO = 3

#: finite-difference step sizes swept by the gradient check
GRADCHECK_STEPS = (1e-3, 1e-4, 1e-5, 1e-6, 1e-7)

#: model-domain topology required by each fixture shape
_FIXTURE_TOPOLOGY = {
    "cylinder": "cylinder",
    "bent-cylinder": "cylinder",
    "vase": "cylinder",
    "vase-family": "cylinder",
    "torus": "torus",
    "torus-triangle": "torus",
}

#: bent-cylinder parameters used when the config does not set them
_BENT_DEFAULTS = {"bend_deg": 90.0, "ripples": 5, "ripple_amplitude": 0.02}

_METRIC_KEYS = ("alpha", "eps_reg")
_DESCENT_KEYS = ("sigma", "n_steps", "max_iters", "tol_grad", "tol_match")
_GEOMETRY_KEYS = ("radius", "height", "bend_deg", "ripples", "ripple_amplitude",
                  "major_radius", "minor_radius", "asymmetry")

#: the config keys each command reads, and so the only ones it takes as flags;
#: a config file may hold any valid key, and a command ignores those it does not read
COMMAND_KEYS = {
    "meshgen": ("topology", "nx", "ny"),
    "fixture": ("nx", "ny", *_GEOMETRY_KEYS),
    "register": (*_METRIC_KEYS, *_DESCENT_KEYS, "out_dir", "export_frames"),
    "shoot": (*_METRIC_KEYS, "n_steps", "out_dir"),
    "triangle": (*_METRIC_KEYS, *_DESCENT_KEYS, "out_dir"),
    "mean": (*_METRIC_KEYS, *_DESCENT_KEYS, "mean_tol", "max_outer", "out_dir"),
    "gradcheck": ("topology", "nx", "ny", *_GEOMETRY_KEYS, *_METRIC_KEYS, "sigma", "n_steps",
                  "directions", "fd_tol", "seed", "out_dir"),
}


def _add_config_flags(parser: argparse.ArgumentParser, command: str) -> None:
    group = parser.add_argument_group("config overrides")
    types = _field_types()
    for name in COMMAND_KEYS[command]:
        group.add_argument(
            "--" + name.replace("_", "-"),
            dest=name,
            default=argparse.SUPPRESS,
            metavar=types[name][0].__name__.upper(),
            help=f"override config key {name!r}",
        )


def _load_config(args) -> tuple[RunConfig, set]:
    """Build the run config and report which keys were set explicitly.

    A flag's text replaces the config file's text before either is converted.
    """
    values = parse_file(args.config) if args.config else {}
    values.update((name, getattr(args, name)) for name in _field_types() if hasattr(args, name))
    return build_config(values), set(values)


def _domain_mesh(cfg: RunConfig):
    return build_grid(Topology.parse(cfg.topology), cfg.nx, cfg.ny)


def _load_immersion(path: str) -> Immersion:
    mesh, coords = load_mesh(path)
    return Immersion(mesh, coords)


def _write_shape(q: Immersion, path: str, obj: bool) -> None:
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    save_mesh(q.mesh, q.coords, path)
    logger.info("wrote %s", path)
    if obj:
        obj_path = os.path.splitext(path)[0] + ".obj"
        export_obj(q.mesh, q.coords, obj_path)
        logger.info("wrote %s", obj_path)


def _write_summary(out_dir: str, payload: dict) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "summary.json")
    with open(path, "w") as f:
        json.dump(payload, f, indent=2)
        f.write("\n")
    return path


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows(rows)


def _write_frames(path: GeodesicPath, out_dir: str) -> list[str]:
    """Write every frame of a geodesic path as native mesh + OBJ, plus speed CSVs.

    Frame i gets ``frame_<i>.mesh`` and ``.obj``; for i < N a
    ``frame_<i>_speed.csv`` holds each node's velocity magnitude.
    Returns the list of written file names.
    """
    written = []
    width = len(str(path.n_steps))
    for i, q in enumerate(path.immersions):
        stem = os.path.join(out_dir, f"frame_{i:0{width}d}")
        _write_shape(q, stem + ".mesh", obj=True)
        written += [stem + ".mesh", stem + ".obj"]
        if i < path.n_steps:
            speed = np.linalg.norm(path.velocities[i], axis=1)
            _write_csv(stem + "_speed.csv", ["node", "speed"],
                       ([k, repr(float(s))] for k, s in enumerate(speed)))
            written.append(stem + "_speed.csv")
    return written


def _registration_summary(result) -> dict:
    last = result.history[-1]
    return {
        "status": result.status.value,
        "iterations": result.iterations,
        "energy": last.energy,
        "kinetic_energy": last.kinetic,
        "matching_error": last.match,
        "gradient_norm": last.grad_norm,
        "path_length": path_length(result.path),
    }


# ---------------------------------------------------------------------------
# commands


def _flat_sheet(cfg: RunConfig) -> Immersion:
    """The model domain itself, lying in the z = 0 plane."""
    mesh = _domain_mesh(cfg)
    return Immersion(mesh, np.column_stack([mesh.nodes, np.zeros(mesh.n_nodes)]))


def cmd_meshgen(args) -> int:
    cfg, _ = _load_config(args)
    sheet = _flat_sheet(cfg)
    _write_shape(sheet, args.out, args.obj)
    print(f"{args.out}: {cfg.topology} {cfg.nx}x{cfg.ny}, "
          f"{sheet.mesh.n_nodes} nodes, {sheet.mesh.n_triangles} triangles")
    return EXIT_OK


def _fixture_shapes(cfg: RunConfig, shape: str, preset: int) -> list[tuple[str, Immersion]]:
    mesh = _domain_mesh(cfg)
    if shape in ("cylinder", "bent-cylinder"):
        q = cylinder_surface(mesh, cfg.radius, cfg.height, cfg.bend_deg,
                             cfg.ripples, cfg.ripple_amplitude)
        return [(shape, q)]
    if shape == "torus":
        q = torus_surface(mesh, cfg.major_radius, cfg.minor_radius, cfg.asymmetry)
        return [(shape, q)]
    if shape == "vase":
        if not 0 <= preset < len(VASE_PRESETS):
            raise ConfigError(f"vase preset must be in [0, {len(VASE_PRESETS)}), got {preset}")
        q = vase_surface(mesh, cfg.radius, cfg.height, VASE_PRESETS[preset])
        return [(f"vase_{preset}", q)]
    if shape == "torus-triangle":
        shapes = torus_triangle(mesh, cfg.major_radius, cfg.minor_radius, cfg.asymmetry)
        return list(zip(("triangle_a", "triangle_b", "triangle_c"), shapes))
    if shape == "vase-family":
        shapes = vase_family(mesh, cfg.radius, cfg.height)
        return [(f"vase_{k}", q) for k, q in enumerate(shapes)]


def cmd_fixture(args) -> int:
    cfg, provided = _load_config(args)
    if args.preset is not None and args.shape != "vase":
        raise ConfigError(f"--preset applies to shape 'vase' only, got shape {args.shape!r}")
    cfg.topology = _FIXTURE_TOPOLOGY[args.shape]
    if args.shape == "bent-cylinder":
        for key, value in _BENT_DEFAULTS.items():
            if key not in provided:
                setattr(cfg, key, value)

    shapes = _fixture_shapes(cfg, args.shape, args.preset or 0)
    if len(shapes) == 1:
        paths = [args.out]
    else:
        os.makedirs(args.out, exist_ok=True)
        paths = [os.path.join(args.out, f"{name}.mesh") for name, _ in shapes]
    for (name, q), path in zip(shapes, paths):
        _write_shape(q, path, args.obj)
        print(f"{path}: {name}, surface area {surface_area(q):.6f}")
    return EXIT_OK


def cmd_register(args) -> int:
    cfg, _ = _load_config(args)
    template = _load_immersion(args.template)
    target = _load_immersion(args.target)
    check_same_mesh(template.mesh, target.mesh, "registration")
    result = register(assemble(template, cfg.alpha, cfg.eps_reg), target, cfg)

    out = cfg.out_dir
    os.makedirs(out, exist_ok=True)
    _write_shape(result.path.final, os.path.join(out, "registered.mesh"), obj=True)
    save_velocity(template.mesh, result.u0, os.path.join(out, "initial_velocity.vel"))
    _write_csv(os.path.join(out, "history.csv"),
               ["iteration", "energy", "kinetic", "match", "grad_norm", "step"],
               ([r.iteration, repr(r.energy), repr(r.kinetic), repr(r.match),
                 repr(r.grad_norm), repr(r.step)] for r in result.history))
    if cfg.export_frames:
        _write_frames(result.path, os.path.join(out, "frames"))
    summary = {
        "command": "register",
        "template": args.template,
        "target": args.target,
        "config": as_dict(cfg),
        **_registration_summary(result),
    }
    _write_summary(out, summary)

    last = result.history[-1]
    print(f"register: {result.status.value} after {result.iterations} iterations, "
          f"energy {last.energy:.6e}, match {last.match:.6e}")
    if result.status is not RegistrationStatus.CONVERGED:
        print(f"error: registration did not converge ({result.status.value})",
              file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_shoot(args) -> int:
    cfg, _ = _load_config(args)
    q0 = _load_immersion(args.initial)
    vmesh, u0 = load_velocity(args.velocity)
    if not compatible(q0.mesh, vmesh):
        raise MeshMismatchError("shoot: velocity file does not match the initial mesh")

    path = shoot(assemble(q0, cfg.alpha, cfg.eps_reg), u0, cfg.n_steps)
    out = cfg.out_dir
    os.makedirs(out, exist_ok=True)
    written = _write_frames(path, os.path.join(out, "frames"))
    _write_shape(path.final, os.path.join(out, "final.mesh"), obj=True)
    summary = {
        "command": "shoot",
        "initial": args.initial,
        "velocity": args.velocity,
        "config": as_dict(cfg),
        "n_frames": path.n_steps + 1,
        "path_energy": path_energy(path),
        "path_length": path_length(path),
        "final_area": surface_area(path.final),
    }
    _write_summary(out, summary)
    print(f"shoot: {path.n_steps + 1} frames, length {summary['path_length']:.6e}, "
          f"{len(written)} files")
    return EXIT_OK


def cmd_triangle(args) -> int:
    cfg, _ = _load_config(args)
    qa = _load_immersion(args.a)
    qb = _load_immersion(args.b)
    qc = _load_immersion(args.c)
    if cfg.n_steps % 2 != 0:
        raise ValueError(f"triangle midpoints need an even n_steps, got {cfg.n_steps}")
    for q in (qb, qc):
        check_same_mesh(qa.mesh, q.mesh, "triangle")
    report = triangle_experiment(assemble(qa, cfg.alpha, cfg.eps_reg), qb, qc, cfg)

    out = cfg.out_dir
    os.makedirs(out, exist_ok=True)
    for name, mid in zip(("midpoint_ab", "midpoint_bc", "midpoint_ca"), report.midpoints):
        _write_shape(mid, os.path.join(out, f"{name}.mesh"), obj=True)
    summary = {
        "command": "triangle",
        "vertices": [args.a, args.b, args.c],
        "config": as_dict(cfg),
        "angles_deg": list(report.angles_deg),
        "angle_sum_deg": report.angle_sum_deg,
        "side_lengths": list(report.side_lengths),
        "midpoint_areas": list(report.midpoint_areas),
        "vertex_areas": list(report.vertex_areas),
        "statuses": {k: s.value for k, s in sorted(report.statuses.items())},
    }
    _write_summary(out, summary)

    a1, a2, a3 = report.angles_deg
    print(f"triangle: angles {a1:.3f} + {a2:.3f} + {a3:.3f} = "
          f"{report.angle_sum_deg:.3f} deg")
    if not report.converged:
        bad = [k for k, s in sorted(report.statuses.items())
               if s is not RegistrationStatus.CONVERGED]
        print(f"error: registrations did not converge: {', '.join(bad)}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_mean(args) -> int:
    cfg, _ = _load_config(args)
    shapes = [_load_immersion(p) for p in args.shapes]
    start = _load_immersion(args.start) if args.start else shapes[0]
    for k, s in enumerate(shapes):
        check_same_mesh(start.mesh, s.mesh, f"mean shape {k}")
    result = karcher_mean(shapes, assemble(start, cfg.alpha, cfg.eps_reg), cfg,
                          mean_tol=cfg.mean_tol, max_outer=cfg.max_outer)

    out = cfg.out_dir
    os.makedirs(out, exist_ok=True)
    _write_shape(result.mean, os.path.join(out, "mean.mesh"), obj=True)
    _write_csv(os.path.join(out, "norms.csv"), ["outer_iteration", "velocity_norm"],
               ([k, repr(vn)] for k, vn in enumerate(result.velocity_norms, start=1)))
    summary = {
        "command": "mean",
        "shapes": list(args.shapes),
        "start": args.start,
        "config": as_dict(cfg),
        "status": result.status.value,
        "outer_iterations": result.iterations,
        "velocity_norms": result.velocity_norms,
        "registration_statuses": [s.value for s in result.statuses],
        "mean_area": surface_area(result.mean),
    }
    _write_summary(out, summary)

    print(f"mean: {result.status.value} after {result.iterations} outer iterations, "
          f"final velocity norm {result.velocity_norms[-1]:.6e}")
    if result.status is not MeanStatus.CONVERGED:
        print("error: mean iteration did not converge", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def _gradcheck_base(cfg: RunConfig) -> Immersion:
    """The flat sheet, or the cylinder or torus fixture of ``cfg.topology``."""
    topology = Topology.parse(cfg.topology)
    if topology is Topology.PLANE:
        return _flat_sheet(cfg)
    return _fixture_shapes(cfg, topology.value, 0)[0][1]


def cmd_gradcheck(args) -> int:
    cfg, _ = _load_config(args)
    q0 = _gradcheck_base(cfg)
    rng = np.random.default_rng(cfg.seed)
    shape = (q0.mesh.n_nodes, 3)
    q_target = q0.displaced(0.05 * rng.standard_normal(shape))
    u0 = 0.2 * rng.standard_normal(shape)

    op0 = assemble(q0, cfg.alpha, cfg.eps_reg)
    path = shoot(op0, u0, cfg.n_steps)
    grad = backward_sweep(path, matching_covector(path.final, q_target, cfg.sigma))

    header = ["dir"] + [f"h={h:g}" for h in GRADCHECK_STEPS] + ["min"]
    rows = []
    mins = []
    for k in range(cfg.directions):
        v = rng.standard_normal(shape)
        pairing = inner_product(op0, grad, v)
        errs = []
        for h in GRADCHECK_STEPS:
            e_plus, _, _ = energy(shoot(op0, u0 + h * v, cfg.n_steps), q_target, cfg.sigma)
            e_minus, _, _ = energy(shoot(op0, u0 - h * v, cfg.n_steps), q_target, cfg.sigma)
            fd = (e_plus - e_minus) / (2.0 * h)
            scale = max(abs(pairing), abs(fd), 1e-30)
            errs.append(abs(pairing - fd) / scale)
        mins.append(min(errs))
        rows.append([str(k)] + [f"{e:.3e}" for e in errs] + [f"{mins[-1]:.3e}"])

    widths = [max(len(r[i]) for r in [header] + rows) for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
    worst = max(mins)
    passed = worst <= cfg.fd_tol

    summary = {
        "command": "gradcheck",
        "config": as_dict(cfg),
        "fd_steps": list(GRADCHECK_STEPS),
        "min_errors": mins,
        "worst_error": worst,
        "tolerance": cfg.fd_tol,
        "passed": passed,
    }
    _write_summary(cfg.out_dir, summary)
    print(f"gradcheck: worst min-over-h relative error {worst:.3e} "
          f"({'<=' if passed else '>'} {cfg.fd_tol:g}) -> {'pass' if passed else 'FAIL'}")
    return EXIT_OK if passed else EXIT_NUMERICAL


# ---------------------------------------------------------------------------
# parser and dispatch


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="FILE", default=None,
                        help="key-value config file (flags override its keys)")
    common.add_argument("-v", "--verbose", action="count", default=0,
                        help="more logging (-v info, -vv debug)")

    parser = argparse.ArgumentParser(
        prog="innershape",
        description="Geodesic registration and statistics of parametrized surfaces.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("meshgen", parents=[common],
                       help="write the flat model-domain mesh as a surface file")
    p.add_argument("--out", required=True, metavar="FILE", help="output mesh file")
    p.add_argument("--obj", action="store_true", help="also write an OBJ next to it")
    p.set_defaults(func=cmd_meshgen)

    p = sub.add_parser("fixture", parents=[common], help="generate a named test surface")
    p.add_argument("--shape", required=True, choices=sorted(_FIXTURE_TOPOLOGY),
                   help="which surface family to generate")
    p.add_argument("--out", required=True, metavar="PATH",
                   help="output file (single shape) or directory (shape families)")
    p.add_argument("--preset", type=int, default=None, metavar="K",
                   help="vase preset index (shape 'vase' only; default 0)")
    p.add_argument("--obj", action="store_true", help="also write OBJ exports")
    p.set_defaults(func=cmd_fixture)

    p = sub.add_parser("register", parents=[common],
                       help="register a template surface onto a target")
    p.add_argument("--template", required=True, metavar="FILE", help="template mesh")
    p.add_argument("--target", required=True, metavar="FILE", help="target mesh")
    p.set_defaults(func=cmd_register)

    p = sub.add_parser("shoot", parents=[common],
                       help="integrate the geodesic flow from a velocity file")
    p.add_argument("--initial", required=True, metavar="FILE", help="initial mesh")
    p.add_argument("--velocity", required=True, metavar="FILE", help="velocity file")
    p.set_defaults(func=cmd_shoot)

    p = sub.add_parser("triangle", parents=[common],
                       help="geodesic triangle between three surfaces")
    p.add_argument("--a", required=True, metavar="FILE", help="vertex surface A")
    p.add_argument("--b", required=True, metavar="FILE", help="vertex surface B")
    p.add_argument("--c", required=True, metavar="FILE", help="vertex surface C")
    p.set_defaults(func=cmd_triangle)

    p = sub.add_parser("mean", parents=[common],
                       help="iterated mean of a collection of surfaces")
    p.add_argument("--shapes", required=True, nargs="+", metavar="FILE",
                   help="input surfaces")
    p.add_argument("--start", default=None, metavar="FILE",
                   help="starting guess mesh (default: first shape)")
    p.set_defaults(func=cmd_mean)

    p = sub.add_parser("gradcheck", parents=[common],
                       help="finite-difference check of the energy gradient")
    p.set_defaults(func=cmd_gradcheck)

    for command, p in sub.choices.items():
        _add_config_flags(p, command)
    return parser


#: a failing command's stderr label and exit code, from the first entry whose
#: types match (a subclass before its base); anything else propagates
_FAILURES = (
    (ConfigError, "config", EXIT_USAGE),
    (MeshMismatchError, "mesh mismatch", EXIT_USAGE),
    (ValueError, "invalid input", EXIT_USAGE),
    (MeshFormatError, "bad input file", EXIT_IO),
    (OSError, "i/o", EXIT_IO),
    (StepFailureError, "step failure", EXIT_NUMERICAL),
    (SolverError, "solver failure", EXIT_NUMERICAL),
    ((DegenerateElementError, ZeroVelocityError), "numerical failure", EXIT_NUMERICAL),
    (MeshError, "mesh", EXIT_USAGE),
)


def _setup_logging(verbosity: int) -> None:
    level = logging.WARNING
    if verbosity == 1:
        level = logging.INFO
    elif verbosity >= 2:
        level = logging.DEBUG
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    _setup_logging(args.verbose)
    try:
        return args.func(args)
    except Exception as exc:
        for types, label, code in _FAILURES:
            if isinstance(exc, types):
                print(f"error: {label}: {exc}", file=sys.stderr)
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())
