"""Command-line interface for surface registration experiments.

Every command is a thin driver over the library: it reads a key-value
config file (each key the command reads overridable by a flag), runs one
operation and writes its results as native meshes, OBJ exports, CSV tables
and a summary JSON.
`register` writes the registered endpoint and the initial velocity; `shoot`
replays that velocity to write the frames of its path.
Outputs are a pure function of (config, input files, seed): rerunning a
command with the same inputs reproduces the files byte for byte.

Exit codes: 0 success, 1 numerical failure (solver, step or convergence),
2 usage or config error, 3 I/O error.  Commands check their inputs against
each other before they assemble a metric, so a usage error outranks the
numerical failure of a degenerate input.
"""

import argparse
import atexit
import csv
import gc
import json
import logging
import os
import sys

import numpy as np

from . import __version__
from .adjoint import backward_sweep
from .config import ConfigError, RunConfig, _field_types, build_config, parse_file
from .errors import (
    DegenerateElementError,
    MeshFormatError,
    MeshMismatchError,
    MeshResolutionError,
    SolverError,
    StepFailureError,
    ZeroVelocityError,
)
from .fixtures import cylinder_surface, torus_surface, torus_triangle, vase_family
from .geometry import Immersion, check_same_mesh, surface_area
from .mesh import (
    Topology,
    build_grid,
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

# frozen at exit, the heap is skipped by the interpreter's final collection:
# numpy's and this package's import-time objects are not traversed again
atexit.register(gc.freeze)

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_USAGE = 2
EXIT_IO = 3

#: finite-difference step sizes swept by the gradient check
GRADCHECK_STEPS = (1e-3, 1e-4, 1e-5, 1e-6, 1e-7)

#: model-domain topology of each fixture shape
_FIXTURE_TOPOLOGY = {
    "plane": Topology.PLANE,
    "cylinder": Topology.CYLINDER,
    "vase-family": Topology.CYLINDER,
    "torus": Topology.TORUS,
    "torus-triangle": Topology.TORUS,
}

_DESCENT_KEYS = ("sigma", "n_steps", "max_iters", "tol_grad", "tol_match")
_GEOMETRY_KEYS = ("radius", "height", "bend_deg", "ripples", "ripple_amplitude",
                  "major_radius", "minor_radius", "asymmetry")

#: the config keys each command reads, and so the only ones it takes as flags;
#: a config file may hold any valid key, and a command ignores those it does not read
COMMAND_KEYS = {
    "fixture": ("nx", "ny", *_GEOMETRY_KEYS),
    "register": ("alpha", *_DESCENT_KEYS, "out_dir"),
    "shoot": ("alpha", "n_steps", "out_dir"),
    "triangle": ("alpha", *_DESCENT_KEYS, "out_dir"),
    "mean": ("alpha", *_DESCENT_KEYS, "mean_tol", "max_outer", "out_dir"),
    "gradcheck": ("alpha", "sigma", "n_steps", "directions", "fd_tol", "seed", "out_dir"),
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


def _load_config(args) -> RunConfig:
    """Build the run config from raw texts: the flags' replace the config
    file's before any is converted.
    """
    values = parse_file(args.config) if args.config else {}
    values.update((name, getattr(args, name)) for name in _field_types() if hasattr(args, name))
    return build_config(values)


def _load_immersion(path: str) -> Immersion:
    mesh, coords = load_mesh(path)
    return Immersion(mesh, coords)


def _write_shape(q: Immersion, path: str) -> list[str]:
    """Write a surface as a native mesh and, next to it, its OBJ export."""
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    obj_path = os.path.splitext(path)[0] + ".obj"
    save_mesh(q.mesh, q.coords, path)
    export_obj(q.mesh, q.coords, obj_path)
    logger.info("wrote %s and %s", path, obj_path)
    return [path, obj_path]


def _write_summary(cfg: RunConfig, command: str, payload: dict) -> None:
    """Write ``summary.json`` to ``out_dir``: the command, the config keys it
    reads, then the payload."""
    config = {key: getattr(cfg, key) for key in COMMAND_KEYS[command]}
    os.makedirs(cfg.out_dir, exist_ok=True)
    with open(os.path.join(cfg.out_dir, "summary.json"), "w") as f:
        json.dump({"command": command, "config": config, **payload}, f, indent=2)
        f.write("\n")


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows(rows)


def _write_frames(path: GeodesicPath, out_dir: str) -> list[str]:
    """Write frame i of a geodesic path as ``frame_<i>.mesh`` and ``.obj``;
    returns the written file names.  Node k's speed at step i is
    N |q_{i+1,k} - q_{i,k}|, since the path moves q_{i+1} = q_i + u_i / N.
    """
    written = []
    width = len(str(path.n_steps))
    for i, q in enumerate(path.immersions):
        written += _write_shape(q, os.path.join(out_dir, f"frame_{i:0{width}d}.mesh"))
    return written


# ---------------------------------------------------------------------------
# commands


def _fixture_shapes(cfg: RunConfig, shape: str) -> list[tuple[str, Immersion]]:
    mesh = build_grid(_FIXTURE_TOPOLOGY[shape], cfg.nx, cfg.ny)
    if shape == "torus-triangle":
        shapes = torus_triangle(mesh, cfg.major_radius, cfg.minor_radius, cfg.asymmetry)
        return list(zip(("triangle_a", "triangle_b", "triangle_c"), shapes))
    if shape == "vase-family":
        shapes = vase_family(mesh, cfg.radius, cfg.height)
        return [(f"vase_{k}", q) for k, q in enumerate(shapes)]
    if shape == "plane":
        # the model domain itself, lying in the z = 0 plane
        q = Immersion(mesh, np.column_stack([mesh.nodes, np.zeros(mesh.n_nodes)]))
    elif shape == "cylinder":
        q = cylinder_surface(mesh, cfg.radius, cfg.height, cfg.bend_deg,
                             cfg.ripples, cfg.ripple_amplitude)
    else:
        q = torus_surface(mesh, cfg.major_radius, cfg.minor_radius, cfg.asymmetry)
    return [(shape, q)]


def cmd_fixture(args) -> int:
    cfg = _load_config(args)
    shapes = _fixture_shapes(cfg, args.shape)
    paths = ([args.out] if len(shapes) == 1 else
             [os.path.join(args.out, f"{name}.mesh") for name, _ in shapes])
    # every area before the first write, so a failure leaves no file behind
    areas = [surface_area(q) for _, q in shapes]
    for (name, q), path, area in zip(shapes, paths, areas):
        _write_shape(q, path)
        print(f"{path}: {name}, surface area {area:.6f}")
    return EXIT_OK


def cmd_register(args) -> int:
    cfg = _load_config(args)
    template = _load_immersion(args.template)
    target = _load_immersion(args.target)
    check_same_mesh(template.mesh, target.mesh, "registration")
    result = register(assemble(template, cfg.alpha), target, cfg)

    out = cfg.out_dir
    _write_shape(result.path.final, os.path.join(out, "registered.mesh"))
    save_velocity(template.mesh, result.u0, os.path.join(out, "initial_velocity.vel"))
    _write_csv(os.path.join(out, "history.csv"),
               ["iteration", "energy", "kinetic", "match", "grad_norm", "step"],
               ([r.iteration, repr(r.energy), repr(r.kinetic), repr(r.match),
                 repr(r.grad_norm), repr(r.step)] for r in result.history))
    last = result.history[-1]
    _write_summary(cfg, "register", {
        "template": args.template,
        "target": args.target,
        "status": result.status.value,
        "iterations": result.iterations,
        "energy": last.energy,
        "kinetic_energy": last.kinetic,
        "matching_error": last.match,
        "gradient_norm": last.grad_norm,
        "path_length": path_length(result.path),
    })

    print(f"register: {result.status.value} after {result.iterations} iterations, "
          f"energy {last.energy:.6e}, match {last.match:.6e}")
    if result.status is not RegistrationStatus.CONVERGED:
        print(f"error: registration did not converge ({result.status.value})",
              file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_shoot(args) -> int:
    cfg = _load_config(args)
    q0 = _load_immersion(args.initial)
    vmesh, u0 = load_velocity(args.velocity)
    check_same_mesh(q0.mesh, vmesh, "shoot velocity")

    path = shoot(assemble(q0, cfg.alpha), u0, cfg.n_steps)
    final_area = surface_area(path.final)
    out = cfg.out_dir
    written = _write_frames(path, os.path.join(out, "frames"))
    _write_shape(path.final, os.path.join(out, "final.mesh"))
    length = path_length(path)
    _write_summary(cfg, "shoot", {
        "initial": args.initial,
        "velocity": args.velocity,
        "n_frames": path.n_steps + 1,
        "path_energy": path_energy(path),
        "path_length": length,
        "final_area": final_area,
    })
    print(f"shoot: {path.n_steps + 1} frames, length {length:.6e}, {len(written)} files")
    return EXIT_OK


def cmd_triangle(args) -> int:
    cfg = _load_config(args)
    qa = _load_immersion(args.a)
    qb = _load_immersion(args.b)
    qc = _load_immersion(args.c)
    if cfg.n_steps % 2 != 0:
        raise ValueError(f"triangle midpoints need an even n_steps, got {cfg.n_steps}")
    for q in (qb, qc):
        check_same_mesh(qa.mesh, q.mesh, "triangle")
    report = triangle_experiment(assemble(qa, cfg.alpha), qb, qc, cfg)

    out = cfg.out_dir
    for name, mid in zip(("midpoint_ab", "midpoint_bc", "midpoint_ca"), report.midpoints):
        _write_shape(mid, os.path.join(out, f"{name}.mesh"))
    _write_summary(cfg, "triangle", {
        "vertices": [args.a, args.b, args.c],
        "angles_deg": list(report.angles_deg),
        "angle_sum_deg": report.angle_sum_deg,
        "side_lengths": list(report.side_lengths),
        "midpoint_areas": list(report.midpoint_areas),
        "vertex_areas": list(report.vertex_areas),
        "statuses": {k: s.value for k, s in sorted(report.statuses.items())},
    })

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
    cfg = _load_config(args)
    shapes = [_load_immersion(p) for p in args.shapes]
    start = _load_immersion(args.start) if args.start else shapes[0]
    for k, s in enumerate(shapes):
        check_same_mesh(start.mesh, s.mesh, f"mean shape {k}")
    result = karcher_mean(shapes, assemble(start, cfg.alpha), cfg,
                          mean_tol=cfg.mean_tol, max_outer=cfg.max_outer)
    mean_area = surface_area(result.mean)

    out = cfg.out_dir
    _write_shape(result.mean, os.path.join(out, "mean.mesh"))
    _write_csv(os.path.join(out, "norms.csv"), ["outer_iteration", "velocity_norm"],
               ([k, repr(vn)] for k, vn in enumerate(result.velocity_norms, start=1)))
    _write_summary(cfg, "mean", {
        "shapes": list(args.shapes),
        "start": args.start,
        "status": result.status.value,
        "outer_iterations": result.iterations,
        "velocity_norms": result.velocity_norms,
        "registration_statuses": [s.value for s in result.statuses],
        "mean_area": mean_area,
    })

    print(f"mean: {result.status.value} after {result.iterations} outer iterations, "
          f"final velocity norm {result.velocity_norms[-1]:.6e}")
    if result.status is not MeanStatus.CONVERGED:
        print("error: mean iteration did not converge", file=sys.stderr)
    bad = [path for path, s in zip(args.shapes, result.statuses)
           if s is not RegistrationStatus.CONVERGED]
    if bad:
        print(f"error: registrations did not converge: {', '.join(bad)}", file=sys.stderr)
    return EXIT_OK if result.status is MeanStatus.CONVERGED and not bad else EXIT_NUMERICAL


def cmd_gradcheck(args) -> int:
    cfg = _load_config(args)
    q0 = _load_immersion(args.initial)
    rng = np.random.default_rng(cfg.seed)
    shape = (q0.mesh.n_nodes, 3)
    q_target = q0.displaced(0.05 * rng.standard_normal(shape))
    u0 = 0.2 * rng.standard_normal(shape)

    op0 = assemble(q0, cfg.alpha)
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

    _write_summary(cfg, "gradcheck", {
        "initial": args.initial,
        "fd_steps": list(GRADCHECK_STEPS),
        "min_errors": mins,
        "worst_error": worst,
        "tolerance": cfg.fd_tol,
        "passed": passed,
    })
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

    p = sub.add_parser("fixture", parents=[common], help="generate a named parametric surface")
    p.add_argument("--shape", required=True, choices=sorted(_FIXTURE_TOPOLOGY),
                   help="which surface family to generate")
    p.add_argument("--out", required=True, metavar="PATH",
                   help="output file (single shape) or directory (shape families)")
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
    p.add_argument("--initial", required=True, metavar="FILE", help="surface to check at")
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
    # a grid the settings describe; a file header's becomes MeshFormatError
    (MeshResolutionError, "config", EXIT_USAGE),
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
