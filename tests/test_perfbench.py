"""The committed benchmark drives the program through its public API:
`expand`, `LexiconHMM.preds`, the `DecodeResult` counters and
`parse_automaton`'s three-tuple.  A short traced run keeps that API and the
benchmark's own output checks working."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_short_traced_benchmark_run_is_correct():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "suffix10k",
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
