"""The benchmark's workloads: inputs made from a seed, the commands, the checks.

Each workload writes its input files into a run directory, outside any timed
region, and returns a ``Plan``: the ``innershape`` commands of one pass and
a check for each command's outputs.  Seed 0 gives the acceptance problems
(criteria 6 and 8 of the test suite); other seeds jitter them within ranges
that still converge and keep every triangle regular.  The program receives
only the generated files.
"""

import csv
import json
import os
from dataclasses import dataclass, field

import numpy as np

from innershape import (
    VASE_PRESETS,
    Topology,
    build_grid,
    cylinder_surface,
    save_mesh,
    vase_surface,
)
from innershape.registration import l2_matching

#: bend16: bend angle jitter (degrees) and relative ripple-amplitude jitter
BEND_JITTER_DEG = 1.0
RIPPLE_JITTER = 0.02

#: vase8: the presets whose mean is taken, and the bulge-centre jitter; two
#: vases keep one command near 20 s, so a run holds two or three of them
VASE_SUBSET = (0, 4)
VASE_CENTRE_JITTER = 0.005


@dataclass
class Command:
    """One ``innershape`` invocation; ``key`` names its inputs and outputs."""

    key: str
    args: list[str]
    out_dir: str


@dataclass
class Plan:
    commands: list[Command]
    check: object  # (command, run_dir) -> list of problems
    info: dict = field(default_factory=dict)


def _read_summary(path: str) -> dict:
    with open(os.path.join(path, "summary.json")) as f:
        return json.load(f)


def _missing(path: str, names) -> list[str]:
    return [f"missing output {n}" for n in names if not os.path.isfile(os.path.join(path, n))]


# ---------------------------------------------------------------------------
# register-bend16


def bend16_inputs(seed: int) -> tuple[float, float]:
    """Bend angle and ripple amplitude of the target cylinder."""
    if seed == 0:
        return 90.0, 0.02
    rng = np.random.default_rng(seed % 2**32)
    bend = 90.0 + rng.uniform(-BEND_JITTER_DEG, BEND_JITTER_DEG)
    amplitude = 0.02 * (1.0 + rng.uniform(-RIPPLE_JITTER, RIPPLE_JITTER))
    return bend, amplitude


def register_bend16(run_dir: str, seed: int) -> Plan:
    bend, amplitude = bend16_inputs(seed)
    mesh = build_grid(Topology.CYLINDER, 16, 16)
    q0 = cylinder_surface(mesh)
    target = cylinder_surface(mesh, bend_deg=bend, ripples=5, ripple_amplitude=amplitude)
    os.makedirs(os.path.join(run_dir, "inputs"))
    save_mesh(mesh, q0.coords, os.path.join(run_dir, "inputs", "straight.mesh"))
    save_mesh(mesh, target.coords, os.path.join(run_dir, "inputs", "bent.mesh"))
    initial = l2_matching(q0, target)
    command = Command("register", [
        "register", "--template", "inputs/straight.mesh", "--target", "inputs/bent.mesh",
        "--alpha", "0.6", "--sigma", "0.05", "--n-steps", "10", "--max-iters", "250",
        "--tol-grad", "1e-9", "--tol-match", repr(0.0015 * initial),
        "--out-dir", "out/register",
    ], "out/register")

    def check(cmd: Command, run_dir: str) -> list[str]:
        out = os.path.join(run_dir, cmd.out_dir)
        problems = _missing(out, ("registered.mesh", "registered.obj",
                                  "initial_velocity.vel", "history.csv", "summary.json"))
        if problems:
            return problems
        summary = _read_summary(out)
        if summary["status"] != "converged":
            problems.append(f"status {summary['status']}")
        if not summary["matching_error"] <= 0.05 * initial:
            problems.append(f"final match {summary['matching_error']!r} > 5% of {initial!r}")
        with open(os.path.join(out, "history.csv")) as f:
            energies = [float(row["energy"]) for row in csv.DictReader(f)]
        if any(b > a for a, b in zip(energies, energies[1:])):
            problems.append("history energies increase")
        if len(energies) != summary["iterations"] + 1:
            problems.append("history rows do not match the iteration count")
        return problems

    return Plan([command], check, {"bend_deg": bend, "ripple_amplitude": amplitude,
                                   "initial_match": initial})


# ---------------------------------------------------------------------------
# mean-vase8


def vase8_bulges(seed: int) -> list[tuple]:
    """Bulge profiles of the vases whose mean is taken."""
    presets = [VASE_PRESETS[k] for k in VASE_SUBSET]
    if seed == 0:
        return presets
    rng = np.random.default_rng(seed % 2**32)
    return [
        tuple((a, c + rng.uniform(-VASE_CENTRE_JITTER, VASE_CENTRE_JITTER), w)
              for a, c, w in bulges)
        for bulges in presets
    ]


def mean_vase8(run_dir: str, seed: int) -> Plan:
    mesh = build_grid(Topology.CYLINDER, 8, 8)
    os.makedirs(os.path.join(run_dir, "inputs"))
    bulges = vase8_bulges(seed)
    names = []
    for k, profile in enumerate(bulges):
        names.append(f"inputs/vase_{k}.mesh")
        save_mesh(mesh, vase_surface(mesh, 0.25, 1.0, profile).coords,
                  os.path.join(run_dir, names[-1]))
    command = Command("mean", [
        "mean", "--shapes", *names,
        "--alpha", "0.6", "--sigma", "0.05", "--n-steps", "4", "--max-iters", "200",
        "--tol-grad", "4e-3", "--mean-tol", "1e-2", "--max-outer", "6",
        "--out-dir", "out/mean",
    ], "out/mean")

    def check(cmd: Command, run_dir: str) -> list[str]:
        out = os.path.join(run_dir, cmd.out_dir)
        problems = _missing(out, ("mean.mesh", "mean.obj", "norms.csv", "summary.json"))
        if problems:
            return problems
        summary = _read_summary(out)
        with open(os.path.join(out, "norms.csv")) as f:
            norms = [float(row["velocity_norm"]) for row in csv.DictReader(f)]
        if summary["status"] != "converged":
            problems.append(f"status {summary['status']}")
        if norms != summary["velocity_norms"]:
            problems.append("norms.csv disagrees with summary.json")
        if not all(b < a for a, b in zip(norms, norms[1:])):
            problems.append(f"velocity norms not strictly decreasing: {norms}")
        if not norms[-1] < 0.05 * norms[0]:
            problems.append(f"last norm {norms[-1]!r} not below 5% of {norms[0]!r}")
        bad = [s for s in summary["registration_statuses"] if s != "converged"]
        if bad:
            problems.append(f"registrations not converged: {bad}")
        return problems

    return Plan([command], check, {"bulges": bulges})


WORKLOADS = {
    "register-bend16": register_bend16,
    "mean-vase8": mean_vase8,
}
