"""flcva benchmark: one workload per run, end to end or traced.

    python3 perfbench/run.py --workload suffix10k --seed 1 --seconds 50 --trace 0

Run from the root of a checkout.  The program is imported from the
checkout's own src/.  Inputs are generated from --seed and written under
.perfbench/ in the checkout, which the run removes when it ends.

--trace 0 drives the CLI (build, then one decode per variant) and reports
the end-to-end metrics; --trace 1 calls each module directly with a span
around each call and reports the per-layer metrics.  The last line of
standard output is the result: {"correct", "attempted", "failed",
"metrics"}; the line before it describes the run (environment, inputs,
word accuracy, error rate).  --workload all runs every workload, each in a
fresh interpreter, one after another.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")

sys.path.insert(0, HERE)
from checks import BenchError  # noqa: E402
from inputs import WORKLOADS, generate  # noqa: E402


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "commit": _git_commit(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        # a later numpy backend must say which backend ran
        "numpy_importable": importlib.util.find_spec("numpy") is not None,
    }


def run_all(args) -> int:
    """Every workload in turn, each in a fresh interpreter, so peak RSS and
    set-up time never inherit an earlier workload's heap."""
    worst = 0
    for name in WORKLOADS:
        cmd = [
            sys.executable, os.path.abspath(__file__), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        print(f"== {name}", flush=True)
        worst = max(worst, subprocess.run(cmd, cwd=ROOT, check=False).returncode)
    return worst


def run_one(args) -> int:
    if not os.path.isfile(os.path.join(SRC, "flcva", "cli.py")):
        print(f"error: no flcva sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import flcva

    if os.path.dirname(os.path.abspath(flcva.__file__)) != os.path.join(SRC, "flcva"):
        print(f"error: imported flcva from {flcva.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import e2e
    import traced

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        inputs = generate(WORKLOADS[args.workload], args.seed, workdir)
        if args.trace:
            spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
            run = traced.run(inputs, args.seconds, workdir, spans_path)
        else:
            run = e2e.run(inputs, args.seconds, workdir)
        described = inputs.describe()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    gate = run.pop("gate")
    metrics = run.pop("metrics")
    word_acc = run.pop("word_acc", None)
    if not args.trace:
        # ru_maxrss is in KiB on Linux
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics["peak_rss_mb"] = (peak, "MB")
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(),
        "inputs": described,
        **run,
        "error_rate": {"value": gate.failed / gate.attempted, "unit": "ratio"},
        "failures": gate.reasons,
    }
    if word_acc is not None:
        detail["word_acc"] = {"value": word_acc, "unit": "ratio"}
    print(json.dumps(detail))
    print(json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
