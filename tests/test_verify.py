from collections import defaultdict

from flcva import Lexicon, build_trie, minimize
from flcva.bench import generate_sequences
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
