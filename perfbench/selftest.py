"""Self-test of the benchmark's exact counters.

    python3 perfbench/selftest.py [workload ...]

For each workload (default: all), makes two traced runs with one seed, each
in a fresh interpreter, and checks that every machine-independent counter
(ops, merges, emission adds, token slots, states, DAWG nodes and arcs)
repeats exactly, that every 1-best decoder's ops equal the predicted work
N * p * T, and that no operation failed.  Exit code 0 on success, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")
SEED = 7
EXACT_SUFFIXES = (
    ".ops", ".merges", ".emission_adds", ".token_slots", ".ops_per_predicted",
    "_ratio", "_nodes", "_arcs", ".states", ".mean_preds",
)
ONE_BEST = ("tabular", "flipflop", "inplace")


def traced_run(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, check=False, cwd=os.path.dirname(HERE),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload}: exit {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(workload: str) -> list[str]:
    first, second = traced_run(workload), traced_run(workload)
    problems = []
    for run in (first, second):
        if not run["correct"] or run["failed"]:
            problems.append(f"{run['failed']} of {run['attempted']} operations failed")
    exact = {k: v["value"] for k, v in first["metrics"].items() if k.endswith(EXACT_SUFFIXES)}
    for name, value in exact.items():
        again = second["metrics"][name]["value"]
        if again != value:
            problems.append(f"{name}: {value} then {again}")
    for v in ONE_BEST:
        ratio = exact[f"decode.{v}.ops_per_predicted"]
        if ratio != 1.0:
            problems.append(f"decode.{v}.ops_per_predicted is {ratio}, not 1.0")
    return problems


def main(argv: list) -> int:
    sys.path.insert(0, HERE)
    from inputs import WORKLOADS

    failed = False
    for workload in argv or list(WORKLOADS):
        problems = check(workload)
        failed = failed or bool(problems)
        print(f"{'FAIL' if problems else 'PASS'} {workload}", *problems, sep="\n  ")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
