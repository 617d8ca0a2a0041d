"""Traced run: each layer's public functions called directly, one span each.

The layers are the flcva modules automaton, pph, hmm, lexhmm and decode;
oracle is used only to check.  A span records its name, start, end, parent
span and sequence id.  Spans stay in memory and are written out when the run
ends.  Traced and untraced passes of the same pipeline alternate; the
difference of their median pass times is the tracing overhead.
"""

from __future__ import annotations

import gc
import json
import os
import statistics
import time
from dataclasses import dataclass

from flcva.automaton import (
    Lexicon,
    build_trie,
    minimize,
    parse_automaton,
    read_wordlist,
    serialize_automaton,
)
from flcva.decode import (
    nbest_improved,
    nbest_naive,
    viterbi_flipflop,
    viterbi_inplace,
    viterbi_tabular,
)
from flcva.hmm import make_letter_hmms, parse_config, read_observations
from flcva.lexhmm import expand
from flcva.oracle import nbest_exhaustive
from flcva.pph import annotate_increments, compute_suff, decode_pph

from checks import BenchError, Gate, ranking_valid
from inputs import canonical_order

ONE_BEST = {"tabular": viterbi_tabular, "flipflop": viterbi_flipflop, "inplace": viterbi_inplace}
NBEST = {
    "nbest_naive.n2": (nbest_naive, 2),
    "nbest_improved.n2": (nbest_improved, 2),
    "nbest_naive.n10": (nbest_naive, 10),
    "nbest_improved.n10": (nbest_improved, 10),
}
# The oracle scores every word of the lexicon on its own (about 0.5 ms a word
# on suffix100k), so it checks one sequence per run, outside the timing.
ORACLE_SEQUENCES = 1
MIN_PASSES = 4  # two traced, two untraced
# spans of one call per pass; each gives the metric <span name>_ms
SINGLE_CALLS = (
    "automaton.read_wordlist",
    "automaton.build_trie",
    "automaton.minimize",
    "automaton.serialize",
    "automaton.parse",
    "lexhmm.expand",
    "hmm.read_observations",
    "pph.compute_suff",
    "pph.annotate_increments",
)


class Tracer:
    """In-memory spans [name, start_ns, end_ns, parent index, sequence id].
    A disabled tracer only makes the call."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list = []
        self._open: list = []

    def call(self, name: str, fn, *args, seq=None):
        if not self.enabled:
            return fn(*args)
        span = [name, 0, 0, self._open[-1] if self._open else None, seq]
        self._open.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter_ns()
        try:
            return fn(*args)
        finally:
            span[2] = time.perf_counter_ns()
            self._open.pop()

    def write(self, path: str) -> None:
        keys = ("name", "start_ns", "end_ns", "parent", "seq")
        with open(path, "w", encoding="utf-8") as fh:
            for i, span in enumerate(self.spans):
                fh.write(json.dumps({"id": i, **dict(zip(keys, span))}) + "\n")


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


@dataclass
class PassOut:
    trie_nodes: int
    automaton: object
    lexhmm: object
    results: dict   # variant -> DecodeResult per sequence
    harvested: int  # path indices given to decode_pph
    misread: int    # of those, decoded to another word than the ranking's


def _build(tr, paths, auto_path):
    lexicon = tr.call("automaton.read_wordlist", lambda: read_wordlist(_read(paths["wordlist"])))
    trie = tr.call("automaton.build_trie", build_trie, lexicon)
    dawg = tr.call("automaton.minimize", minimize, trie)
    suff = tr.call("pph.compute_suff", compute_suff, dawg)
    incs = tr.call("pph.annotate_increments", annotate_increments, dawg, suff)
    tr.call("automaton.serialize", lambda: _write(auto_path, serialize_automaton(dawg, suff, incs)))
    return trie.node_count


def _expand(auto, incs, config_path):
    config = parse_config(_read(config_path))
    letters = {lab for lab in auto.labels if lab is not None}
    return expand(auto, incs, make_letter_hmms(letters, config), config)


def _load(tr, paths, auto_path):
    auto, suff, incs = tr.call("automaton.parse", lambda: parse_automaton(_read(auto_path)))
    lexhmm = tr.call("lexhmm.expand", _expand, auto, incs, paths["config"])
    entries = tr.call("hmm.read_observations", lambda: read_observations(_read(paths["obs"])))
    return auto, suff, lexhmm, entries


def _decode_all(tr, fn, lexhmm, entries, extra):
    name = f"decode.{fn.__name__}"
    return [tr.call(name, fn, lexhmm, obs, *extra, seq=i) for i, (obs, _) in enumerate(entries)]


def _harvest(tr, auto, suff, results):
    """decode_pph on every path index the decoders ranked: (calls, misreads)."""
    calls = misread = 0
    for per_seq in results.values():
        for i, res in enumerate(per_seq):
            for word, pph, _ in res.ranking:
                calls += 1
                misread += tr.call("pph.decode_pph", decode_pph, auto, suff, pph, seq=i) != word
    return calls, misread


def _pipeline(tr, inputs, auto_path) -> PassOut:
    trie_nodes = tr.call("build", _build, tr, inputs.paths, auto_path)
    auto, suff, lexhmm, entries = tr.call("load", _load, tr, inputs.paths, auto_path)
    results = {}
    for name, fn in ONE_BEST.items():
        results[name] = tr.call(f"decode.{name}", _decode_all, tr, fn, lexhmm, entries, ())
    sample = entries[: inputs.nbest_count]
    for name, (fn, n) in NBEST.items():
        results[name] = tr.call(f"decode.{name}", _decode_all, tr, fn, lexhmm, sample, (n,))
    harvested, misread = tr.call("harvest", _harvest, tr, auto, suff, results)
    return PassOut(trie_nodes, auto, lexhmm, results, harvested, misread)


def run_pass(tr: Tracer, inputs, auto_path: str) -> PassOut:
    return tr.call("pass", _pipeline, tr, inputs, auto_path)


def check_pass(gate: Gate, out: PassOut, rank_of: dict, nbest_count: int) -> None:
    """1-best variants must equal tabular; naive and improved n-best must
    agree, start with the 1-best row, and n=2 must prefix n=10."""
    res = out.results
    ref_ok = []
    for i, tab in enumerate(res["tabular"]):
        ok = len(tab.ranking) == 1 and ranking_valid(tab.ranking, rank_of, 1)
        ref_ok.append(ok)
        for name in ONE_BEST:
            gate.add(ok and res[name][i].ranking == tab.ranking, f"decode.{name}")
    for i in range(nbest_count):
        n2, n10 = res["nbest_naive.n2"][i].ranking, res["nbest_naive.n10"][i].ranking
        ok = (
            ref_ok[i]
            and n2 == res["nbest_improved.n2"][i].ranking
            and n10 == res["nbest_improved.n10"][i].ranking
            and ranking_valid(n10, rank_of, 10)
            and n10[:2] == n2
            and n10[0] == res["tabular"][i].ranking[0]
        )
        for name in NBEST:
            gate.add(ok, f"decode.{name}")
    gate.add(True, "pph.decode_pph", out.harvested - out.misread)
    gate.add(False, "pph.decode_pph", out.misread)


def exact_counters(out: PassOut, frames: int) -> dict:
    """Machine-independent counts of one pass; they must repeat exactly."""
    lexhmm = out.lexhmm
    preds = sum(len(p) for p in lexhmm.preds)
    c = {
        "automaton.trie_nodes": out.trie_nodes,
        "automaton.dawg_nodes": out.automaton.node_count,
        "automaton.dawg_arcs": out.automaton.arc_count,
        "lexhmm.states": lexhmm.n_states,
        "lexhmm.mean_preds": preds / lexhmm.n_states,
    }
    for name, per_seq in out.results.items():
        key = f"decode.{name}"
        c[f"{key}.ops"] = sum(r.ops for r in per_seq)
        c[f"{key}.token_slots"] = max(r.token_slots for r in per_seq)
        if name in ONE_BEST:
            # predicted work N * p * T is exactly the predecessor count times T
            c[f"{key}.ops_per_predicted"] = c[f"{key}.ops"] / (preds * frames)
        else:
            c[f"{key}.merges"] = sum(r.merges for r in per_seq)
            c[f"{key}.emission_adds"] = sum(r.emission_adds for r in per_seq)
    for n in ("n2", "n10"):
        naive, improved = f"decode.nbest_naive.{n}", f"decode.nbest_improved.{n}"
        c[f"{improved}.merge_ratio"] = c[f"{improved}.merges"] / c[f"{naive}.merges"]
        c[f"{improved}.ops_ratio"] = c[f"{improved}.ops"] / c[f"{naive}.ops"]
    return c


COUNTER_UNITS = {
    "mean_preds": "preds/state",
    "ops_per_predicted": "ratio",
    "merge_ratio": "ratio",
    "ops_ratio": "ratio",
}


def tail(samples: list) -> tuple[float, float, int]:
    """(value, percentile, sample count) of the highest percentile with at
    least ten samples beyond it; the maximum when there are fewer than 11."""
    xs = sorted(samples)
    k = len(xs)
    if k < 11:
        return xs[-1], 100.0, k
    return xs[k - 11], 100.0 * (k - 10) / k, k


def layer_metrics(spans: list, counters: dict) -> dict:
    """Per-layer timings from the spans of the traced passes, plus counters."""
    by_name: dict = {}
    children: dict = {}
    for i, (name, start, end, parent, _) in enumerate(spans):
        by_name.setdefault(name, []).append(i)
        children.setdefault(parent, []).append(i)

    def ms(i):
        return (spans[i][2] - spans[i][1]) / 1e6

    m = {}
    for name in SINGLE_CALLS:
        m[f"{name}_ms"] = (statistics.median(ms(i) for i in by_name[name]), "ms")
    m["pph.decode_pph_us"] = (
        statistics.median(ms(i) * 1000.0 for i in by_name["pph.decode_pph"]), "us"
    )
    for name in (*ONE_BEST, *NBEST):
        key = f"decode.{name}"
        per_pass = [[ms(c) for c in children.get(g, [])] for g in by_name[key]]
        samples = [x for xs in per_pass for x in xs]
        value, pct, count = tail(samples)
        m[f"{key}.ms_p50"] = (statistics.median(samples), "ms")
        m[f"{key}.ms_tail"] = (value, "ms")
        m[f"{key}.ms_tail_pct"] = (pct, "%")
        m[f"{key}.samples"] = (count, "count")
        m[f"{key}.ns_per_op"] = (
            statistics.median(sum(xs) * 1e6 / counters[f"{key}.ops"] for xs in per_pass), "ns"
        )
    for name, value in counters.items():
        m[name] = (value, COUNTER_UNITS.get(name.rsplit(".", 1)[1], "count"))
    return m


def oracle_check(gate: Gate, warm: PassOut, inputs) -> int:
    """Compare the n=10 and 1-best rankings of the first sample sequences
    with oracle.nbest_exhaustive.  Returns the sequences checked."""
    config = parse_config(_read(inputs.paths["config"]))
    letter_hmms = make_letter_hmms({ch for w in inputs.words for ch in w}, config)
    lexicon = Lexicon.from_words(inputs.words)
    count = min(ORACLE_SEQUENCES, inputs.nbest_count)
    for i in range(count):
        want = nbest_exhaustive(lexicon, letter_hmms, config, inputs.sequences[i][0], 10)
        got = warm.results["nbest_naive.n10"][i].ranking
        gate.add(got == want and warm.results["tabular"][i].ranking == want[:1], "oracle")
    return count


def run(inputs, seconds: float, workdir: str, spans_path: str) -> dict:
    rank_of = {w: i for i, w in enumerate(canonical_order(inputs.words))}
    auto_path = os.path.join(workdir, "lexicon.auto")
    gate = Gate()
    try:
        warm = run_pass(Tracer(False), inputs, auto_path)
    except Exception as exc:  # the pipeline cannot run at all
        raise BenchError(f"untraced pass failed: {exc!r}") from exc
    check_pass(gate, warm, rank_of, inputs.nbest_count)
    counters = exact_counters(warm, inputs.frames)
    # The oracle check counts against the run's time (it takes about a
    # minute on suffix100k), so that the run stays well inside its limit.
    deadline = time.perf_counter() + seconds
    oracle_checked = oracle_check(gate, warm, inputs)

    tracer = Tracer(True)
    walls: dict = {True: [], False: []}
    wall0, cpu0 = time.perf_counter(), time.process_time()
    i = 0
    last = 0.0  # the previous pass's time; no pass may end past the deadline
    while i < MIN_PASSES or time.perf_counter() + last < deadline:
        traced = i % 4 in (0, 3)  # T U U T ...: each side goes first in turn
        gc.collect()
        start = time.perf_counter()
        try:
            out = run_pass(tracer if traced else Tracer(False), inputs, auto_path)
        except Exception as exc:  # a raising layer fails the pass, not the run
            gate.add(False, f"pass raised {type(exc).__name__}")
        else:
            last = time.perf_counter() - start
            walls[traced].append(last)
            check_pass(gate, out, rank_of, inputs.nbest_count)
            gate.add(exact_counters(out, inputs.frames) == counters, "counters repeat")
        i += 1
    wait_ms = ((time.perf_counter() - wall0) - (time.process_time() - cpu0)) * 1000.0
    if not walls[True] or not walls[False]:
        raise BenchError("no traced or no untraced pass completed")

    tracer.write(spans_path)
    metrics = layer_metrics(tracer.spans, counters)
    metrics["run.wait_ms"] = (wait_ms, "ms")
    overhead = statistics.median(walls[True]) / statistics.median(walls[False]) - 1.0
    metrics["trace.overhead_pct"] = (overhead * 100.0, "%")
    return {
        "gate": gate,
        "metrics": metrics,
        "passes": {"traced": len(walls[True]), "untraced": len(walls[False])},
        "oracle_sequences": oracle_checked,
        "spans": len(tracer.spans),
        "run_wait_ms": wait_ms,
    }
