"""Benchmark of the ``innershape`` command line, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the commands use the ``src`` tree
there.  Workloads (see ``workloads.py``):

``register-bend16``  ``innershape register`` of the straight 16x16 cylinder
                     onto the bent, rippled one (acceptance criterion 6).
``mean-vase8``       ``innershape mean`` of two 8x8 vases.

Every command is a fresh process (``launch.py``), one at a time.  The seed
fixes the inputs, which are written before any timing starts.

``--trace 0`` times passes over the workload's commands with tracing off
until ``--seconds`` is used up, and reports medians over the passes: wall
time, child CPU time, peak RSS and set-up time (launch to the first call
into ``registration``, ``statistics`` or ``shooting``, median over probe
launches and the commands).  ``--trace 1`` runs one untraced pass and one
traced pass and reports per-layer calls and self times.

Every command's outputs are checked, and outputs of equal inputs must be
byte-identical: between the passes of a run, between the traced and the
untraced pass, and between runs of the same source tree (digests are kept
in ``perfbench/.work/cache.json``, keyed by a hash of ``src``).  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it give the samples, the
machine and the counts.
"""

import argparse
import glob
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

START = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
LAUNCH = os.path.join(HERE, "launch.py")
WORK = os.path.join(HERE, ".work")
CACHE = os.path.join(WORK, "cache.json")
REFERENCE = os.path.join(HERE, "reference.json")

#: untimed set-up-only launches per run, besides the commands themselves
SETUP_PROBES = 4
#: commands still running this long after the benchmark started are killed
#: and count as failed, so that a run always ends within three minutes
RUN_DEADLINE_S = 170.0
#: the layers a trace reports on, as in ``tracer.LAYERS``
LAYERS = ("cli", "mesh", "geometry", "metric", "shooting", "adjoint",
          "registration", "statistics")
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                         "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


# ---------------------------------------------------------------------------
# environment


def _read(path: str) -> str | None:
    try:
        with open(path) as f:
            return f.read().strip()
    except OSError:
        return None


def source_hash() -> str:
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True)):
        digest.update(os.path.relpath(path, SRC).encode())
        with open(path, "rb") as f:
            digest.update(hashlib.sha256(f.read()).digest())
    return digest.hexdigest()


def git_commit() -> str | None:
    head = _read(os.path.join(ROOT, ".git", "HEAD"))
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[5:]
    commit = _read(os.path.join(ROOT, ".git", ref))
    if commit is None:
        for line in (_read(os.path.join(ROOT, ".git", "packed-refs")) or "").splitlines():
            if line.endswith(" " + ref):
                commit = line.split()[0]
    return commit


def _cpu_caches() -> dict:
    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level, kind = _read(index + "/level"), _read(index + "/type")
        if level and kind:
            caches[f"L{level} {kind}"] = _read(index + "/size")
    return caches


def _openblas() -> dict:
    import ctypes

    import numpy as np

    info = {"numpy_blas": np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")}
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "*openblas*"))
    try:
        lib = ctypes.CDLL(libs[0])
        lib.scipy_openblas_get_config64_.restype = ctypes.c_char_p
        info["config"] = lib.scipy_openblas_get_config64_().decode()
        info["threads"] = lib.scipy_openblas_get_num_threads64_()
    except (IndexError, OSError, AttributeError):
        info["threads"] = None
    return info


def environment() -> dict:
    import numpy
    import scipy

    model = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "cpu_caches": _cpu_caches(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas(),
        "blas_thread_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARIABLES},
        "git_commit": git_commit(),
        "source_sha256": source_hash(),
    }


# ---------------------------------------------------------------------------
# running commands


@dataclass
class CommandRun:
    """Outcome of one launched command."""

    key: str
    code: int
    wall: float
    cpu: float
    rss_mb: float
    setup: float | None
    problems: list[str]
    digest: str | None

    @property
    def failed(self) -> bool:
        return self.code != 0 or bool(self.problems)


def launch(mode: str, args: list[str], run_dir: str, record: str):
    """Run ``launch.py`` in ``run_dir``; returns (exit code, wall s, rusage, launch time)."""
    log = open(os.path.join(run_dir, "command.log"), "a")
    t_launch = time.time()
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, LAUNCH, mode, record, "--", *args],
                            cwd=run_dir, stdout=log, stderr=log)
    timer = threading.Timer(max(START + RUN_DEADLINE_S - start, 0.0), proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        log.close()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage, t_launch


def output_digest(out: str) -> str:
    digest = hashlib.sha256()
    for dirpath, dirs, files in os.walk(out):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, out).encode())
            with open(path, "rb") as f:
                digest.update(hashlib.sha256(f.read()).digest())
    return digest.hexdigest()


def run_command(plan, cmd, run_dir: str, mode: str) -> CommandRun:
    out = os.path.join(run_dir, cmd.out_dir)
    shutil.rmtree(out, ignore_errors=True)
    record = os.path.join(run_dir, f"{cmd.key}.{'npz' if mode == 'trace' else 'json'}")
    if os.path.exists(record):
        os.remove(record)
    code, wall, usage, t_launch = launch(mode, cmd.args, run_dir, record)
    setup = None
    if mode == "plain" and os.path.exists(record):
        with open(record) as f:
            setup = json.load(f)["first_call"] - t_launch
    try:
        problems = [f"exit code {code}"] if code != 0 else plan.check(cmd, run_dir)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        problems = [f"unreadable outputs: {exc!r}"]
    digest = output_digest(out) if os.path.isdir(out) else None
    return CommandRun(cmd.key, code, wall, usage.ru_utime + usage.ru_stime,
                      usage.ru_maxrss / 1024.0, setup, problems, digest)


def probe_setup(cmd, run_dir: str) -> float | None:
    """Seconds from launch to the command's first call into the work layers."""
    record = os.path.join(run_dir, "probe.json")
    if os.path.exists(record):
        os.remove(record)
    code, _, _, t_launch = launch("probe", cmd.args, run_dir, record)
    if code != 0 or not os.path.exists(record):
        return None
    with open(record) as f:
        return json.load(f)["first_call"] - t_launch


# ---------------------------------------------------------------------------
# bookkeeping across runs of one source tree


def load_cache() -> dict:
    try:
        with open(CACHE) as f:
            return json.load(f)
    except (OSError, ValueError):
        return {}


def save_cache(cache: dict) -> None:
    tmp = CACHE + ".tmp"
    with open(tmp, "w") as f:
        json.dump(cache, f, indent=1, sort_keys=True)
    os.replace(tmp, CACHE)


def remember(cache: dict, key: str, value, problems: list[str], what: str) -> None:
    """Store ``value`` under ``key``, or report a mismatch with an earlier run."""
    if key in cache and cache[key] != value:
        problems.append(f"{what}: not identical to an earlier run of the same source tree")
    cache.setdefault(key, value)


# ---------------------------------------------------------------------------
# trace reduction


def merge_traces(paths) -> dict:
    import tracer

    functions, nested = {}, {}
    for path in paths:
        traced = tracer.analyse(path)
        for name, entry in traced["functions"].items():
            acc = functions.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0,
                                              "extra": []})
            for k in ("calls", "self_s", "total_s"):
                acc[k] += entry[k]
            acc["extra"] += entry["extra"]
        for pair, count in traced["nested"].items():
            nested[pair] = nested.get(pair, 0) + count
    return {"functions": functions, "nested": nested}


def layer_metrics(trace: dict) -> tuple[dict, dict]:
    """Per-layer metrics and the exact counts of a traced pass."""
    fn = trace["functions"]
    empty = {"calls": 0, "self_s": 0.0, "total_s": 0.0, "extra": []}

    def get(name):
        return fn.get(name, empty)

    def calls(*names):
        return sum(get(n)["calls"] for n in names)

    def self_s(*names):
        return sum(get(n)["self_s"] for n in names)

    m = {}
    for name in ("metric.sharp", "metric.kinetic_surface_gradient",
                 "metric.kinetic_surface_hessian", "metric.kinetic_cross_gradient",
                 "metric.assemble", "metric.flat", "geometry.require_regular",
                 "shooting.shoot", "adjoint.backward_sweep"):
        m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.self_s"] = (self_s(name), "s")
    for name in ("shooting.shoot", "adjoint.backward_sweep"):
        m[f"{name}.total_s"] = (get(name)["total_s"], "s")
    assembles = calls("metric.assemble")
    m["metric.sharp.per_assemble"] = (calls("metric.sharp") / assembles if assembles else 0.0,
                                      "ratio")
    m["metric.sharp.rel_residual_max"] = (max(get("metric.sharp")["extra"], default=0.0),
                                          "ratio")

    registrations = calls("registration.register")
    iterations = int(sum(get("registration.register")["extra"]))
    trials = trace["nested"].get(("registration.register", "shooting.shoot"), 0) - registrations
    m["registration.iterations"] = (iterations, "count")
    m["registration.trials_rejected"] = (trials - iterations, "count")
    m["registration.accept_ratio"] = (iterations / trials if trials else 0.0, "ratio")
    m["statistics.karcher_mean.outer_iterations"] = (
        int(sum(get("statistics.karcher_mean")["extra"])), "count")
    m["statistics.karcher_mean.self_s"] = (self_s("statistics.karcher_mean"), "s")

    loads = ("mesh.load_mesh", "mesh.load_velocity")
    saves = ("mesh.save_mesh", "mesh.save_velocity", "mesh.export_obj")
    m["mesh.load.calls"] = (calls(*loads), "count")
    m["mesh.load.self_s"] = (self_s(*loads), "s")
    m["mesh.save.calls"] = (calls(*saves), "count")
    m["mesh.save.self_s"] = (self_s(*saves), "s")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (sum(e["self_s"] for n, e in fn.items()
                                    if n.startswith(layer + ".")), "s")

    sweeps = trace["nested"].get(("registration.register", "adjoint.backward_sweep"), 0)
    if sweeps != iterations + registrations:
        raise ValueError(f"{sweeps} sweeps in registrations do not match "
                         f"{iterations} iterations of {registrations} registrations")
    counts = {name: e["calls"] for name, e in sorted(fn.items())
              if e["calls"] and name != "trace.residual"}
    counts["registration.iterations"] = iterations
    counts["registration.trials_rejected"] = trials - iterations
    counts["statistics.karcher_mean.outer_iterations"] = \
        m["statistics.karcher_mean.outer_iterations"][0]
    return m, counts


def bytes_written(plan, run_dir: str) -> int:
    total = 0
    for cmd in plan.commands:
        for dirpath, _, files in os.walk(os.path.join(run_dir, cmd.out_dir)):
            total += sum(os.path.getsize(os.path.join(dirpath, n)) for n in files)
    return total


# ---------------------------------------------------------------------------
# the two kinds of run


def run_pass(plan, run_dir: str, mode: str) -> list[CommandRun]:
    return [run_command(plan, cmd, run_dir, mode) for cmd in plan.commands]


def check_repeats(runs: list[CommandRun], problems: list[str]) -> None:
    seen = {}
    for r in runs:
        if r.digest is None:
            continue
        if seen.setdefault(r.key, r.digest) != r.digest:
            problems.append(f"{r.key}: outputs differ between passes of one run")


def timed_run(plan, run_dir: str, seconds: float, problems: list[str]):
    setups = []
    for k in range(SETUP_PROBES):
        setup = probe_setup(plan.commands[k % len(plan.commands)], run_dir)
        if setup is None:
            problems.append("a set-up probe failed")
        else:
            setups.append(setup)
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(plan, run_dir, "plain"))
        elapsed = time.perf_counter() - start
        # start another pass only if it is expected to end within the budget
        if elapsed + elapsed / len(passes) > seconds:
            break
    runs = [r for done in passes for r in done]
    check_repeats(runs, problems)
    setups += [r.setup for r in runs if r.setup is not None]
    walls = [sum(r.wall for r in done) for done in passes]
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setups or [0.0]), "s"),
        "cpu_s": (statistics.median([sum(r.cpu for r in done) for done in passes]), "s"),
        "peak_rss_mb": (statistics.median([max(r.rss_mb for r in done) for done in passes]),
                        "MB"),
    }
    samples = {"passes": len(passes), "wall_s": walls, "setup_s": setups}
    return metrics, runs, samples


def traced_run(plan, run_dir: str, problems: list[str]):
    untraced = run_pass(plan, run_dir, "plain")
    traced = run_pass(plan, run_dir, "trace")
    written = bytes_written(plan, run_dir)
    for a, b in zip(untraced, traced):
        if a.digest != b.digest:
            problems.append(f"{a.key}: traced outputs differ from untraced outputs")
    npz = [os.path.join(run_dir, f"{cmd.key}.npz") for cmd in plan.commands]
    if not all(os.path.exists(p) for p in npz):
        problems.append("a traced command wrote no trace")
        return {}, untraced + traced, {}, {}
    try:
        metrics, counts = layer_metrics(merge_traces(npz))
    except ValueError as exc:
        problems.append(f"inconsistent trace: {exc}")
        return {}, untraced + traced, {}, {}
    metrics["mesh.bytes_written"] = (written, "B")
    metrics["trace_overhead_s"] = (sum(r.wall for r in traced) - sum(r.wall for r in untraced),
                                   "s")
    samples = {"untraced_wall_s": sum(r.wall for r in untraced),
               "traced_wall_s": sum(r.wall for r in traced)}
    return metrics, untraced + traced, samples, counts


# ---------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "innershape", "cli.py")):
        print(f"error: no innershape source tree at {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    with open(REFERENCE) as f:
        reference = json.load(f)

    run_dir = os.path.join(WORK, f"{args.workload}-{args.seed}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    plan = workloads.WORKLOADS[args.workload](run_dir, args.seed)
    env = environment()
    # warm the byte-code and file caches before anything is timed
    probe_setup(plan.commands[0], run_dir)

    problems: list[str] = []
    counts = {}
    if args.trace:
        metrics, runs, samples, counts = traced_run(plan, run_dir, problems)
    else:
        metrics, runs, samples = timed_run(plan, run_dir, args.seconds, problems)

    cache = load_cache()
    stem = f"{env['source_sha256']}|{args.workload}|{args.seed}"
    for r in runs:
        if r.digest is not None and not r.failed:
            remember(cache, f"{stem}|{r.key}|digest", r.digest, problems, f"{r.key} outputs")
    if counts:
        remember(cache, f"{stem}|counts", counts, problems, "the traced counts")
    save_cache(cache)
    for r in runs:
        problems += [f"{r.key}: {p}" for p in r.problems]

    seed_counts = reference["counts"].get(args.workload, {}).get(str(args.seed))
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "inputs": plan.info, "samples": samples, "counts": counts,
        "counts_equal_seed_commit": (counts == seed_counts) if counts and seed_counts else None,
        "problems": problems, "environment": env,
    }
    print("report " + json.dumps(report, default=repr))
    for name, (value, unit) in metrics.items():
        print(f"{name:45s} {value!r} {unit}")
    failed = sum(r.failed for r in runs)
    print(f"{'failed_frac':45s} {failed / max(len(runs), 1)!r} ratio")
    result = {
        "correct": not problems and failed == 0 and bool(metrics),
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    shutil.rmtree(run_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
