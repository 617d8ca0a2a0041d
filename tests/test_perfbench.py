"""The committed benchmark drives the program through its public API:
`expand`, `LexiconHMM.preds`, the `DecodeResult` counters and
`parse_automaton`'s three-tuple.  Short runs keep that API and the
benchmark's own output checks working: the traced run calls the layers
directly, and only the untraced run reads the automaton file that the CLI
wrote with the benchmark's own reader."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _short_run(trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "suffix10k",
         "--seed", "1", "--seconds", "1", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0


def test_short_traced_benchmark_run_is_correct():
    _short_run("1")


def test_short_untraced_benchmark_run_is_correct():
    _short_run("0")
