from collections import defaultdict

import pytest

from flcva import Lexicon, build_trie, minimize, nbest_improved
from flcva.bench import generate_sequences
from flcva.decode import VARIANTS, viterbi_tabular
from flcva.oracle import nbest_exhaustive
from flcva.pph import annotate_increments, compute_suff
from flcva.verify import _check_bijection, run_verify

from conftest import TOY_WORDS, uniform_config


def test_toy_suite_passes(toy_lexicon):
    report = run_verify(toy_lexicon, uniform_config(), instances=50, seed=0)
    assert report.passed, report.failure
    assert report.instances == 50
    assert report.warning is None


def test_corrupted_increment_detected(toy_lexicon):
    auto = minimize(build_trie(toy_lexicon))
    suff = compute_suff(auto)
    increments = [list(row) for row in annotate_increments(auto, suff)]
    assert _check_bijection(auto, suff, increments) is None
    # damage the last increment of the first multi-successor node
    row = next(row for row in increments if len(row) > 1)
    row[-1] += 1
    assert _check_bijection(auto, suff, increments) is not None


def test_zero_instances_pass_with_warning(toy_lexicon):
    report = run_verify(toy_lexicon, uniform_config(), instances=0, seed=0)
    assert report.passed
    assert report.warning is not None


def test_nbest_n_is_drawn_apart_from_the_word(toy_lexicon, monkeypatch):
    # n must not follow from the word, or each word is checked at one n only
    checked = []

    def spy(lexicon, letter_hmms, config, obs, n):
        checked.append(n)
        return nbest_exhaustive(lexicon, letter_hmms, config, obs, n)

    monkeypatch.setattr("flcva.verify.nbest_exhaustive", spy)
    cfg = uniform_config()
    ns_by_word = defaultdict(set)
    for seed in range(200):
        checked.clear()
        assert run_verify(toy_lexicon, cfg, instances=1, seed=seed).passed
        [(_, word)] = generate_sequences(toy_lexicon, cfg, 1, seed)
        ns_by_word[word].update(checked)
    assert all(len(ns) >= 2 for ns in ns_by_word.values()), dict(ns_by_word)


def _edited(fn, edit):
    """fn with edit applied to every DecodeResult it returns."""
    def wrapped(*args):
        result = fn(*args)
        edit(result)
        return result
    return wrapped


def _misspell(result):
    # the first row names another word but keeps its path index and score
    if result.ranking:
        word, pph, score = result.ranking[0]
        result.ranking[0] = ("c" if word != "c" else "ab", pph, score)


def _drop_first_row(result):
    result.ranking = result.ranking[1:]


def _more_merges(result):
    result.merges += 10**6


def _more_ops(result):
    result.ops += 10**6


# (edits of 1-best variants by name, "reference" naming the full-relaxation
#  tabular decoder, edit of improved n-best, number of the failing check,
#  text of the failure); check 1 is the bijection
FAILURES = [
    ({"inplace": _drop_first_row}, None, 2, "1-best mismatch: tabular="),
    (dict.fromkeys([*VARIANTS, "reference"], _misspell), None, 3, "token path index "),
    ({}, _drop_first_row, 4, "-best mismatch: naive="),
    ({}, _more_merges, 5, "improved merges "),
    ({}, _more_ops, 6, "improved ops "),
    # a fault shared by every windowed variant differs from the reference
    (dict.fromkeys(VARIANTS, _misspell), None, 2, "full-relaxation tabular="),
]


@pytest.mark.parametrize("variant_edits, improved_edit, checks, text", FAILURES)
def test_each_failure_kind_is_reported(toy_lexicon, monkeypatch, variant_edits, improved_edit,
                                       checks, text):
    for name, edit in variant_edits.items():
        if name == "reference":
            monkeypatch.setattr("flcva.verify.viterbi_tabular", _edited(viterbi_tabular, edit))
        else:
            monkeypatch.setitem(VARIANTS, name, _edited(VARIANTS[name], edit))
    if improved_edit is not None:
        monkeypatch.setattr("flcva.verify.nbest_improved",
                            _edited(nbest_improved, improved_edit))
    report = run_verify(toy_lexicon, uniform_config(), instances=5, seed=0)
    assert not report.passed
    assert (report.instances, report.checks) == (0, checks)
    assert text in report.failure
    assert report.failure.endswith(")") and "(instance 0: word=" in report.failure
