import pytest

from flcva import (
    PphError,
    annotate_increments,
    build_trie,
    compute_suff,
    decode_pph,
    encode_word,
    enumerate_paths_dfs,
    minimize,
)
from flcva.synth import random_lexicon

from conftest import TOY_PPH


def _node_with_label(auto, parent, letter):
    for s in auto.succs[parent]:
        if s != auto.sink and auto.labels[s] == letter:
            return s
    raise AssertionError(f"no {letter!r} child under node {parent}")


def test_suff_golden_values(toy_dawg):
    suff = compute_suff(toy_dawg)
    assert suff[toy_dawg.root] == 6
    assert suff[toy_dawg.sink] == 1
    b = _node_with_label(toy_dawg, toy_dawg.root, "b")
    assert suff[b] == 4
    c_after_b = _node_with_label(toy_dawg, b, "c")
    assert suff[c_after_b] == 2


def test_increment_golden_values(toy_annotated):
    dawg, _suff, inc = toy_annotated
    assert inc[dawg.root] == (0, 1, 5)
    b = _node_with_label(dawg, dawg.root, "b")
    c_after_b = _node_with_label(dawg, b, "c")
    # arcs of c-after-b: letter 'd' first, sink last
    assert inc[c_after_b] == (0, 1)
    for node in range(dawg.node_count):
        if inc[node]:
            assert inc[node][0] == 0
            assert list(inc[node]) == sorted(set(inc[node]))


def test_table3_word_values(toy_annotated):
    dawg, _suff, inc = toy_annotated
    for word, expected in TOY_PPH.items():
        assert encode_word(dawg, inc, word) == expected


def test_encode_rejects_bad_paths(toy_annotated):
    dawg, _suff, inc = toy_annotated
    with pytest.raises(PphError):
        encode_word(dawg, inc, "zz")
    with pytest.raises(PphError):
        encode_word(dawg, inc, "b")  # prefix, not a word


def test_decode_golden(toy_annotated):
    dawg, suff, _inc = toy_annotated
    assert decode_pph(dawg, suff, 3) == "bcd"
    assert decode_pph(dawg, suff, 0) == "ab"


def test_decode_range_errors(toy_annotated):
    dawg, suff, _inc = toy_annotated
    with pytest.raises(PphError):
        decode_pph(dawg, suff, -1)
    with pytest.raises(PphError):
        decode_pph(dawg, suff, 6)


def test_round_trip_toy(toy_annotated):
    dawg, suff, inc = toy_annotated
    for value in range(6):
        assert encode_word(dawg, inc, decode_pph(dawg, suff, value)) == value


def test_bijection_random_lexicons():
    for seed in range(20):
        lex = random_lexicon(
            5 + seed * 25, alphabet="abcdef", min_len=1, max_len=8, seed=seed
        )
        dawg = minimize(build_trie(lex))
        suff = compute_suff(dawg)
        inc = annotate_increments(dawg, suff)
        words = enumerate_paths_dfs(dawg)
        assert len(words) == lex.word_count
        values = [encode_word(dawg, inc, w) for w in words]
        assert values == list(range(lex.word_count))
        for value, word in zip(values, words):
            assert decode_pph(dawg, suff, value) == word
