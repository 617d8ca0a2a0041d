"""End-to-end run: the user-facing CLI path, timed, with every output checked.

`flcva build --dawg` and one `flcva decode` per variant are called through an
in-process `flcva.cli.main`, one call after another (a closed loop with one
client).  An untimed warm-up pass fixes the reference rankings; timed rounds
then repeat every decode, and the build, until the run's time is spent, and
each output is compared with the reference.

The reference machine is a few cores of a shared host, whose co-tenants make
a process up to twice as slow, for seconds or for a whole run.  So a fixed
pure-Python kernel is timed between every two calls, and each call's wall
time is scaled by the kernel's reference time over the mean of the kernel
times on either side of it: the time the call would have taken at the
reference speed.  Metrics are medians of these scaled times.
"""

from __future__ import annotations

import gc
import io
import os
import statistics
import time
from contextlib import redirect_stderr, redirect_stdout

from flcva.cli import main as cli_main

from checks import BenchError, Gate, check_automaton_text, parse_blocks, rows_valid
from inputs import canonical_order

ONE_BEST = ("tabular", "flipflop", "inplace")
# metric stem -> (CLI variant, n)
NBEST = {
    "nbest_naive_n2": ("nbest-naive", 2),
    "nbest_improved_n2": ("nbest-improved", 2),
    "nbest_naive_n10": ("nbest-naive", 10),
    "nbest_improved_n10": ("nbest-improved", 10),
}


# A build costs up to half a decode round (suffix100k); capping the builds'
# share of the run leaves more rounds, hence more samples, for every decode.
BUILD_SHARE = 0.2
# calibrate()'s wall time on an idle reference machine (2-vCPU Xeon VM,
# CPython 3.11); scaled times are in seconds at this speed.
CALIBRATION_REF_S = 0.0033


def calibrate() -> float:
    """Wall seconds of a fixed kernel that does what a Viterbi relaxation
    does in the interpreter (list reads, float multiply-adds, compares) and
    nothing of the program's.  It creates no container, so it never runs the
    cyclic collector, whose cost would depend on the heap a call left."""
    values = [float(i) for i in range(300)]
    best = 0.0
    start = time.perf_counter()
    for _ in range(250):
        for i in range(1, 300):
            x = values[i - 1] * 0.5 + values[i]
            if x > best:
                best = x
    return time.perf_counter() - start


class Clock:
    """Scales each call's wall time to the reference speed by the kernel
    times just before and just after it."""

    def __init__(self):
        self.kernel = [calibrate()]

    def call(self, argv: list) -> tuple[int, str, float, float]:
        """(exit code, stdout, wall seconds, scaled seconds) of one call."""
        code, text, wall = call_cli(argv)
        self.kernel.append(calibrate())
        kernel_s = (self.kernel[-2] + self.kernel[-1]) / 2
        return code, text, wall, wall * CALIBRATION_REF_S / kernel_s


def call_cli(argv: list) -> tuple[int, str, float]:
    """Run `flcva <argv>` in process: (exit code, stdout, wall seconds).
    An uncaught exception is a non-zero exit, as it would be from a shell."""
    out = io.StringIO()
    gc.collect()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        try:
            code = cli_main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a traceback is a failed operation
            code = 1
        wall = time.perf_counter() - start
    return code, out.getvalue(), wall


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _score(gate: Gate, what: str, code: int, text: str, expected: list) -> None:
    """Count one operation per expected sequence; a sequence passes when the
    call exited 0 and printed exactly the expected rows for it."""
    blocks = parse_blocks(text)
    if code != 0 or len(blocks) != len(expected):
        gate.add(False, f"{what}: exit {code}, {len(blocks)} blocks", len(expected))
        return
    for got, want in zip(blocks, expected):
        gate.add(want is not None and got == want, what)


def _blocks(code: int, text: str, count: int) -> list:
    """One entry per sequence of a call: its rows, or None when the call
    failed or printed the wrong number of blocks."""
    got = parse_blocks(text) if code == 0 else []
    return got if len(got) == count else [None] * count


def _references(blocks: dict, rank_of: dict) -> dict:
    """Expected rows per variant and sequence from the warm-up outputs.

    tabular is the 1-best reference.  An n-best sequence has a reference only
    when naive and improved agree, rank 1 is the 1-best row, and the n=2 rows
    are the first two of the n=10 rows; otherwise every variant fails on it.
    """
    one = [
        rows if rows and len(rows) == 1 and rows_valid(rows, rank_of, 1) else None
        for rows in blocks["tabular"]
    ]
    refs = {name: one for name in ONE_BEST}
    by_n = {}
    for n in (2, 10):
        naive, improved = blocks[f"nbest_naive_n{n}"], blocks[f"nbest_improved_n{n}"]
        by_n[n] = [
            a if a and a == b and rows_valid(a, rank_of, n) and one[i] and a[0] == one[i][0] else None
            for i, (a, b) in enumerate(zip(naive, improved))
        ]
    for i in range(len(by_n[2])):
        if by_n[2][i] is None or by_n[10][i] is None or by_n[10][i][:2] != by_n[2][i]:
            by_n[2][i] = by_n[10][i] = None
    for name, (_, n) in NBEST.items():
        refs[name] = by_n[n]
    return refs


def run(inputs, seconds: float, workdir: str) -> dict:
    paths = inputs.paths
    canonical = canonical_order(inputs.words)
    rank_of = {w: i for i, w in enumerate(canonical)}
    auto_path = os.path.join(workdir, "lexicon.auto")
    build_argv = ["build", paths["wordlist"], auto_path, "--dawg"]
    decode = ["decode", auto_path, paths["config"]]
    # name -> its calls: (argv, first sequence, sequence count), one per part
    calls = {
        name: [(decode + [path, "--variant", name], first, count) for path, first, count in inputs.parts]
        for name in ONE_BEST
    }
    for name, (variant, n) in NBEST.items():
        calls[name] = [
            (decode + [path, "--variant", variant, "--nbest", str(n)], first, count)
            for path, first, count in inputs.nbest_parts
        ]
    frames_per_call = {name: len(inputs.sequences[0][0]) * calls[name][0][2] for name in calls}
    gate = Gate()

    # Warm-up pass, untimed: check the build, fix the reference rankings.
    code, _, _ = call_cli(build_argv)
    reason = f"exit {code}" if code != 0 else check_automaton_text(_read(auto_path), canonical)
    if reason is not None:
        raise BenchError(f"flcva build --dawg is wrong: {reason}")
    gate.add(True, "build")
    built = _read(auto_path)
    outputs = {name: [call_cli(argv)[:2] for argv, _, _ in todo] for name, todo in calls.items()}
    blocks = {
        name: [rows for (code, text), (_, _, count) in zip(outputs[name], calls[name])
               for rows in _blocks(code, text, count)]
        for name in calls
    }
    refs = _references(blocks, rank_of)
    for name, todo in calls.items():
        for (code, text), (_, first, count) in zip(outputs[name], todo):
            _score(gate, name, code, text, refs[name][first : first + count])
    hits = sum(
        1 for rows, (_, word) in zip(blocks["inplace"], inputs.sequences)
        if rows and rows[0].split()[1:2] == [word]
    )

    # Timed rounds: every call once, preceded by a build while builds have
    # taken at most BUILD_SHARE of the time, until the time is spent.
    # wall and scaled seconds per call, under "setup" for the builds
    walls: dict = {name: [] for name in ("setup", *calls)}
    scaled: dict = {name: [] for name in walls}
    wall0, cpu0 = time.perf_counter(), time.process_time()
    clock = Clock()
    deadline = wall0 + seconds
    last = 0.0  # the previous round's time; no round may end past the deadline
    while not walls["setup"] or time.perf_counter() + last < deadline:
        start = time.perf_counter()
        if sum(walls["setup"]) <= BUILD_SHARE * (start - wall0):
            code, _, wall, scaled_s = clock.call(build_argv)
            gate.add(code == 0 and _read(auto_path) == built, "build")
            walls["setup"].append(wall)
            scaled["setup"].append(scaled_s)
        for name, todo in calls.items():
            for argv, first, count in todo:
                code, text, wall, scaled_s = clock.call(argv)
                _score(gate, name, code, text, refs[name][first : first + count])
                walls[name].append(wall)
                scaled[name].append(scaled_s)
        last = time.perf_counter() - start
    wait_ms = ((time.perf_counter() - wall0) - (time.process_time() - cpu0)) * 1000.0

    metrics = {"setup_s": (statistics.median(scaled["setup"]), "s")}
    raw = {"setup_s": statistics.median(walls["setup"])}
    for name in calls:
        metrics[f"{name}_frames_per_s"] = (frames_per_call[name] / statistics.median(scaled[name]), "frames/s")
        raw[f"{name}_frames_per_s"] = frames_per_call[name] / statistics.median(walls[name])
    return {
        "gate": gate,
        "metrics": metrics,
        "unscaled": raw,
        "rounds": len(walls["tabular"]) // len(calls["tabular"]),
        "builds": len(walls["setup"]),
        "frames_per_call": frames_per_call,
        "calibration_ms": {
            "median": statistics.median(clock.kernel) * 1000.0,
            "min": min(clock.kernel) * 1000.0,
        },
        "samples_s": walls,
        "scaled_s": scaled,
        "word_acc": hits / len(inputs.sequences),
        "run_wait_ms": wait_ms,
    }
