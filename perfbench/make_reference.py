"""Recompute ``reference.json``: the traced counts of each workload at seed 0.

    python3 perfbench/make_reference.py

Run it from the root of a checkout of the commit the counts describe.  It
runs the benchmark itself with tracing on.  The counts are reported against,
not enforced: a change to the optimizer may change them.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402


def seed_counts(name: str) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
         "--seed", "0", "--seconds", "1", "--trace", "1"],
        check=True, capture_output=True, text=True).stdout.splitlines()
    report = json.loads(next(line for line in out if line.startswith("report "))[7:])
    if not json.loads(out[-1])["correct"]:
        raise SystemExit(f"{name}: the traced run failed its checks: {report['problems']}")
    return report["counts"]


def main() -> None:
    reference = {"counts": {}}
    for name in workloads.WORKLOADS:
        reference["counts"][name] = {"0": seed_counts(name)}
        print(f"{name}: counts recorded", flush=True)
    with open(os.path.join(HERE, "reference.json"), "w") as f:
        json.dump(reference, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
