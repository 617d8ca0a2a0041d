import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flcva import (
    AutomatonError,
    Lexicon,
    build_dawg,
    build_trie,
    minimize,
    parse_automaton,
    read_wordlist,
    serialize_automaton,
)
from flcva.oracle import enumerate_paths_dfs
from flcva.pph import annotate_increments, compute_suff, encode_word
from flcva.synth import random_lexicon, synthetic_lexicon

from conftest import ISOLATED_NODE_FILE, TOY_WORDS


def test_toy_trie_has_ten_nodes(toy_trie):
    assert toy_trie.node_count == 10


def test_toy_dawg_has_nine_nodes(toy_dawg):
    assert toy_dawg.node_count == 9
    assert toy_dawg.arc_count == 13


def test_single_word_trie():
    auto = build_trie(Lexicon.from_words(["a"]))
    assert auto.node_count == 3
    assert auto.arc_count == 2
    assert minimize(auto).node_count == 3


def test_toy_language_round_trip(toy_trie, toy_dawg):
    assert set(enumerate_paths_dfs(toy_trie)) == set(TOY_WORDS)
    assert enumerate_paths_dfs(toy_dawg) == ["ab", "ba", "bb", "bcd", "bc", "c"]


def test_stats(toy_trie, toy_dawg):
    assert toy_trie.node_count == 10
    assert toy_dawg.node_count == 9
    assert toy_dawg.arc_count == 13
    assert toy_dawg.arc_count / toy_dawg.node_count == pytest.approx(13 / 9)
    tiny = build_trie(Lexicon.from_words(["a"]))
    assert (tiny.node_count, tiny.arc_count, tiny.arc_count / tiny.node_count) == (3, 2, 2 / 3)


def test_topological_index_valid(toy_dawg):
    topo = toy_dawg.topo_index
    assert topo[toy_dawg.root] == min(topo)
    assert topo[toy_dawg.sink] == max(topo)
    for src, dst in toy_dawg.arcs():
        assert topo[src] < topo[dst]
    assert len(list(toy_dawg.arcs())) == 13


def test_topological_index_chain():
    auto = build_trie(Lexicon.from_words(["abc"]))
    topo = auto.topo_index
    # root -> a -> b -> c -> sink is strictly increasing
    node = auto.root
    while node != auto.sink:
        nxt = auto.succs[node][0]
        assert topo[node] < topo[nxt]
        node = nxt


def test_empty_lexicon_rejected():
    with pytest.raises(AutomatonError):
        build_trie(Lexicon.from_words([]))
    with pytest.raises(AutomatonError):
        build_dawg(Lexicon.from_words([]))


NOT_STRICTLY_ASCENDING = pytest.mark.parametrize(
    "words", [("ab", "ab", "b"), ("b", "ab"), ("", "a")],
    ids=["duplicate", "unsorted", "empty-word"])


@NOT_STRICTLY_ASCENDING
def test_build_dawg_rejects_words_not_strictly_ascending(words):
    # Lexicon(...) bypasses from_words; a duplicate made word_count=3 for an
    # automaton that accepts 2 words
    with pytest.raises(AutomatonError, match="strictly ascending"):
        build_dawg(Lexicon(words))


@NOT_STRICTLY_ASCENDING
def test_build_trie_rejects_words_not_strictly_ascending(words):
    with pytest.raises(AutomatonError, match="strictly ascending"):
        build_trie(Lexicon(words))


def test_empty_word_rejected():
    with pytest.raises(AutomatonError):
        Lexicon.from_words(["a", ""])


def test_duplicates_deduplicated():
    lex = Lexicon.from_words(["b", "a", "b"])
    assert lex.words == ("a", "b")


def test_build_is_order_independent():
    a = build_trie(Lexicon.from_words(TOY_WORDS))
    b = build_trie(Lexicon.from_words(reversed(TOY_WORDS)))
    assert a == b
    assert minimize(a) == minimize(b)


def _right_languages(auto):
    memo = {auto.sink: frozenset({""})}

    def rec(node):
        if node not in memo:
            out = set()
            for s in auto.succs[node]:
                prefix = "" if s == auto.sink else auto.labels[s]
                out.update(prefix + suffix for suffix in rec(s))
            memo[node] = frozenset(out)
        return memo[node]

    rec(auto.root)
    return memo


def test_minimality_at_desk_scale():
    for seed in range(5):
        lex = random_lexicon(12, alphabet="abc", min_len=1, max_len=5, seed=seed)
        dawg = minimize(build_trie(lex))
        rights = _right_languages(dawg)
        sigs = [
            (dawg.labels[n], rights[n])
            for n in range(dawg.node_count)
            if n not in (dawg.root, dawg.sink)
        ]
        assert len(sigs) == len(set(sigs)), f"mergeable nodes left (seed {seed})"


def test_compaction_on_shared_suffixes():
    lex = random_lexicon(1000, alphabet="abcd", min_len=3, max_len=8, seed=3)
    trie = build_trie(lex)
    dawg = minimize(trie)
    assert dawg.node_count < trie.node_count
    assert enumerate_paths_dfs(dawg) == enumerate_paths_dfs(trie)


@settings(max_examples=40, deadline=None)
@given(
    st.sets(st.text(alphabet="abc", min_size=1, max_size=6), min_size=1, max_size=15)
)
def test_language_preserved_property(words):
    lex = Lexicon.from_words(words)
    dawg = minimize(build_trie(lex))
    assert sorted(enumerate_paths_dfs(dawg)) == list(lex.words)
    for src, dst in dawg.arcs():
        assert dawg.topo_index[src] < dawg.topo_index[dst]


def _annotated_text(auto):
    suff = compute_suff(auto)
    return serialize_automaton(auto, suff, annotate_increments(auto, suff))


@settings(max_examples=300, deadline=None)
@given(
    st.sets(st.text(alphabet="abc", min_size=1, max_size=6), min_size=1, max_size=40)
)
def test_build_dawg_equals_minimized_trie_property(words):
    # short words over three letters: many are prefixes of others
    lex = Lexicon.from_words(words)
    assert _annotated_text(build_dawg(lex)) == _annotated_text(minimize(build_trie(lex)))


@pytest.mark.parametrize("lex", [
    Lexicon.from_words(TOY_WORDS),
    synthetic_lexicon(120, 90, seed=7),
], ids=["toy", "120x90"])
def test_build_dawg_equals_minimized_trie(lex):
    assert _annotated_text(build_dawg(lex)) == _annotated_text(minimize(build_trie(lex)))


def test_read_wordlist_ignores_blank_lines():
    lex = read_wordlist("ab\n\n  \nc\nab\n")
    assert lex.words == ("ab", "c")


def test_annotated_serialization_round_trip(toy_annotated):
    dawg, suff, inc = toy_annotated
    text = serialize_automaton(dawg, suff, inc)
    auto2, suff2, inc2 = parse_automaton(text)
    assert serialize_automaton(auto2, suff2, inc2) == text
    assert suff2 == suff
    assert inc2 == inc
    assert enumerate_paths_dfs(auto2) == enumerate_paths_dfs(dawg)


def test_parse_rejects_garbage():
    with pytest.raises(AutomatonError):
        parse_automaton("not an automaton\n")
    with pytest.raises(AutomatonError):
        parse_automaton("flcva-automaton-v1\nNODES 1 ARCS 0\n")
    # a label is written back as read, so the line comparison cannot catch this
    two_letters = "\n".join(TOY_DAWG_LINES).replace("node 1 a ", "node 1 ab ")
    with pytest.raises(AutomatonError, match="not one letter"):
        parse_automaton(two_letters)


# ROOT -a-> 1 -> SINK, and ROOT -b-> 2, which has no arc out.
DEAD_END_NODE_FILE = """flcva-automaton-v1
NODES 4 ARCS 3 WORDS 1
node 0 ROOT 0 1
node 1 a 2 1
node 2 b 1 0
node 3 SINK 3 1
arc 0 1 0
arc 0 2 1
arc 1 3 0
"""


@pytest.mark.parametrize(
    "text", [ISOLATED_NODE_FILE, DEAD_END_NODE_FILE], ids=["isolated", "dead-end"]
)
def test_parse_rejects_node_off_every_word_path(text):
    with pytest.raises(AutomatonError):
        parse_automaton(text)


def test_word_with_whitespace_rejected():
    with pytest.raises(AutomatonError, match="whitespace"):
        read_wordlist("ab\na b\nc\n")
    with pytest.raises(AutomatonError, match="whitespace"):
        Lexicon.from_words(["a", " b"])


TOY_DAWG_LINES = _annotated_text(minimize(build_trie(Lexicon.from_words(TOY_WORDS)))).splitlines()


@st.composite
def _mutated_toy_dawg(draw):
    """The annotated toy DAWG file with one line deleted, duplicated or
    swapped with another, or one field of a line replaced."""
    lines = list(TOY_DAWG_LINES)
    i = draw(st.integers(0, len(lines) - 1))
    kind = draw(st.sampled_from(["delete", "duplicate", "swap", "field"]))
    if kind == "delete":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(i, lines[i])
    elif kind == "swap":
        j = draw(st.integers(0, len(lines) - 1))
        lines[i], lines[j] = lines[j], lines[i]
    else:
        fields = lines[i].split()
        k = draw(st.integers(0, len(fields) - 1))
        fields[k] = draw(st.one_of(
            st.integers(-1, 14).map(str),
            st.sampled_from(["a", "b", "c", "d", "ab", "ROOT", "SINK", "arc", "node", ""]),
        ))
        lines[i] = " ".join(fields)
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None)
@given(_mutated_toy_dawg())
def test_mutated_automaton_is_rejected_or_consistent(text):
    try:
        auto, suff, inc = parse_automaton(text)
    except AutomatonError:
        return
    assert text.splitlines() == serialize_automaton(auto, suff, inc).splitlines()
    assert 0 not in suff
    for rank, word in enumerate(enumerate_paths_dfs(auto)):
        assert encode_word(auto, inc, word) == rank
