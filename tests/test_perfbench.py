"""The committed benchmark drives the program through its public API:
`expand`, `LexiconHMM.preds`, the `DecodeResult` counters and
`parse_automaton`'s three-tuple.  Short runs keep that API and the
benchmark's own output checks working: the traced run calls the layers
directly, and the untraced run reads the DAWG file that the CLI wrote with
the benchmark's own reader.  That reader also checks the trie files that
`build --trie` writes, which the benchmark never reads."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from flcva.cli import main
from flcva.synth import synthetic_lexicon

from conftest import TOY_WORDS

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
    return result


def test_short_traced_benchmark_run_is_correct():
    metrics = {k: v["value"] for k, v in _short_run("1")["metrics"].items()}
    # the checks of perfbench/selftest.py that one run can show: every
    # 1-best decoder does exactly the predicted work, and the seed-1
    # suffix10k automata have their known sizes
    for variant in ("tabular", "flipflop", "inplace"):
        assert metrics[f"decode.{variant}.ops_per_predicted"] == 1.0
    assert (metrics["automaton.dawg_nodes"], metrics["automaton.dawg_arcs"],
            metrics["automaton.trie_nodes"]) == (315, 603, 30076)


def test_short_untraced_benchmark_run_is_correct():
    _short_run("0")


@pytest.mark.parametrize("words", [TOY_WORDS, synthetic_lexicon(120, 90, seed=7).words],
                         ids=["toy", "120x90"])
def test_trie_file_passes_the_benchmark_reader(words, tmp_path, monkeypatch):
    # the benchmark reads only DAWG files; its reader is the one written
    # apart from flcva.automaton
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from checks import check_automaton_text
    from inputs import canonical_order

    wordlist, auto = tmp_path / "words.txt", tmp_path / "trie.auto"
    wordlist.write_text("\n".join(words) + "\n")
    assert main(["build", str(wordlist), str(auto), "--trie"]) == 0
    assert check_automaton_text(auto.read_text(), canonical_order(words)) is None
