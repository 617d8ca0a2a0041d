import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flcva import (
    AutomatonError,
    Lexicon,
    build_dawg,
    build_trie,
    expand,
    make_letter_hmms,
    minimize,
    parse_automaton,
    read_wordlist,
    serialize_automaton,
)
from flcva.decode import NBEST_VARIANTS, VARIANTS, format_result
from flcva.oracle import enumerate_paths_dfs
from flcva.pph import annotate_increments, compute_suff, encode_word
from flcva.synth import random_lexicon, synthetic_lexicon

from conftest import ISOLATED_NODE_FILE, TOY_WORDS, uniform_config


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


def _assert_ids_topological(auto):
    """Root 0 and the sink last, both unlabeled; every arc to a higher id."""
    assert auto.labels[0] is None and auto.labels[-1] is None
    assert (auto.root, auto.sink) == (0, auto.node_count - 1)
    assert auto.succs[-1] == ()
    for src, dst in auto.arcs():
        assert src < dst


BUILDERS = {
    "build_trie": build_trie,
    "build_dawg": build_dawg,
    "minimize": lambda lex: minimize(build_trie(lex)),
}


def test_topological_index_valid(toy_lexicon):
    for name, build in BUILDERS.items():
        auto = build(toy_lexicon)
        _assert_ids_topological(auto)
        assert len(list(auto.arcs())) == (14 if name == "build_trie" else 13)


def test_topological_index_chain():
    lex = Lexicon.from_words(["abc"])
    for build in BUILDERS.values():
        auto = build(lex)
        # root -> a -> b -> c -> sink walks the ids in order
        chain = [auto.root]
        while chain[-1] != auto.sink:
            chain.append(auto.succs[chain[-1]][0])
        assert chain == [0, 1, 2, 3, 4]


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
    for build in BUILDERS.values():
        auto = build(lex)
        assert sorted(enumerate_paths_dfs(auto)) == list(lex.words)
        _assert_ids_topological(auto)


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


@settings(max_examples=100, deadline=None)
@given(
    st.sets(st.text(alphabet="abc", min_size=1, max_size=6), min_size=1, max_size=40)
)
def test_minimize_leaves_a_dawg_as_it_is_property(words):
    lex = Lexicon.from_words(words)
    assert _annotated_text(minimize(build_dawg(lex))) == _annotated_text(build_dawg(lex))


@settings(max_examples=100, deadline=None)
@given(
    st.sets(st.text(alphabet="abc", min_size=1, max_size=6), min_size=1, max_size=40)
)
def test_trie_has_one_node_per_prefix_property(words):
    prefixes = {w[:k] for w in words for k in range(1, len(w) + 1)}
    # plus the root (the empty prefix) and the sink
    assert build_trie(Lexicon.from_words(words)).node_count == len(prefixes) + 2


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


# Node ids are topological: ROOT first, then the letter nodes in reverse
# order of their completion in a DFS over canonical arcs, SINK last.
TOY_DAWG_FILE = """flcva-automaton-v1
NODES 9 ARCS 13 WORDS 6
node 0 ROOT 0 6
node 1 c 1 1
node 2 b 2 4
node 3 c 3 2
node 4 d 4 1
node 5 a 5 1
node 6 a 6 1
node 7 b 7 1
node 8 SINK 8 1
arc 0 6 0
arc 0 2 1
arc 0 1 5
arc 1 8 0
arc 2 5 0
arc 2 7 1
arc 2 3 2
arc 3 4 0
arc 3 8 1
arc 4 8 0
arc 5 8 0
arc 6 7 0
arc 7 8 0
"""


def test_toy_dawg_file_is_golden(toy_lexicon):
    assert _annotated_text(build_dawg(toy_lexicon)) == TOY_DAWG_FILE
    assert parse_automaton(TOY_DAWG_FILE)[0] == build_dawg(toy_lexicon)


# Trie ids are in reverse freeze order: a node is frozen once the sorted
# words leave it, after its successors, and gets the next id down.
TOY_TRIE_FILE = """flcva-automaton-v1
NODES 10 ARCS 14 WORDS 6
node 0 ROOT 0 6
node 1 c 1 1
node 2 b 2 4
node 3 c 3 2
node 4 d 4 1
node 5 b 5 1
node 6 a 6 1
node 7 a 7 1
node 8 b 8 1
node 9 SINK 9 1
arc 0 7 0
arc 0 2 1
arc 0 1 5
arc 1 9 0
arc 2 6 0
arc 2 5 1
arc 2 3 2
arc 3 4 0
arc 3 9 1
arc 4 9 0
arc 5 9 0
arc 6 9 0
arc 7 8 0
arc 8 9 0
"""


def test_toy_trie_file_is_golden(toy_lexicon):
    assert _annotated_text(build_trie(toy_lexicon)) == TOY_TRIE_FILE
    assert parse_automaton(TOY_TRIE_FILE)[0] == build_trie(toy_lexicon)


# The toy trie as build_trie once numbered it, in preorder (a node before
# its children, siblings by ascending letter): topological as well.
PREORDER_TOY_TRIE_FILE = """flcva-automaton-v1
NODES 10 ARCS 14 WORDS 6
node 0 ROOT 0 6
node 1 a 1 1
node 2 b 2 1
node 3 b 3 4
node 4 a 4 1
node 5 b 5 1
node 6 c 6 2
node 7 d 7 1
node 8 c 8 1
node 9 SINK 9 1
arc 0 1 0
arc 0 3 1
arc 0 8 5
arc 1 2 0
arc 2 9 0
arc 3 4 0
arc 3 5 1
arc 3 6 2
arc 4 9 0
arc 5 9 0
arc 6 7 0
arc 6 9 1
arc 7 9 0
arc 8 9 0
"""


def test_minimize_of_a_preorder_trie(toy_dawg):
    # ids that are topological but not build_trie's freeze order
    dawg = minimize(parse_automaton(PREORDER_TOY_TRIE_FILE)[0])
    assert dawg.node_count == 9
    assert enumerate_paths_dfs(dawg) == enumerate_paths_dfs(toy_dawg)
    _assert_ids_topological(dawg)


def test_preorder_trie_file_decodes_like_a_new_trie(toy_lexicon):
    cfg = uniform_config()  # every emission ties, so the tie-break decides
    hmms = make_letter_hmms("abcd", cfg)
    obs = ["b", "c", "a"]

    def outputs(auto, incs):
        lexhmm = expand(auto, incs, hmms, cfg)
        out = [format_result(fn(lexhmm, obs)) for fn in VARIANTS.values()]
        for n in (1, 2, 6):
            out += [format_result(fn(lexhmm, obs, n)) for fn in NBEST_VARIANTS.values()]
        return out

    trie = build_trie(toy_lexicon)
    old = parse_automaton(PREORDER_TOY_TRIE_FILE)
    assert outputs(old[0], old[2]) == outputs(trie, annotate_increments(trie, compute_suff(trie)))


# ROOT -a-> 1 -b-> 2 -> SINK, and 2 -a-> 1 closes a cycle.
CYCLE_FILE = """flcva-automaton-v1
NODES 4 ARCS 4 WORDS 1
node 0 ROOT 0 1
node 1 a 1 1
node 2 b 2 1
node 3 SINK 3 1
arc 0 1 0
arc 1 2 0
arc 2 1 0
arc 2 3 0
"""

# The toy DAWG numbered in preorder, as builds once wrote it (column 4 held
# today's ids): node 3's arc to node 2 goes back, although no cycle exists.
PREORDER_TOY_DAWG_FILE = """flcva-automaton-v1
NODES 9 ARCS 13 WORDS 6
node 0 ROOT 0 6
node 1 a 6 1
node 2 b 7 1
node 3 b 2 4
node 4 a 5 1
node 5 c 3 2
node 6 d 4 1
node 7 c 1 1
node 8 SINK 8 1
arc 0 1 0
arc 0 3 1
arc 0 7 5
arc 1 2 0
arc 2 8 0
arc 3 4 0
arc 3 2 1
arc 3 5 2
arc 4 8 0
arc 5 6 0
arc 5 8 1
arc 6 8 0
arc 7 8 0
"""


@pytest.mark.parametrize(
    "text", [CYCLE_FILE, PREORDER_TOY_DAWG_FILE], ids=["cycle", "preorder-ids"])
def test_parse_rejects_arc_to_lower_id(text):
    with pytest.raises(AutomatonError, match="does not go to a higher node id"):
        parse_automaton(text)


def test_parse_rejects_garbage():
    with pytest.raises(AutomatonError):
        parse_automaton("not an automaton\n")
    with pytest.raises(AutomatonError):
        parse_automaton("flcva-automaton-v1\nNODES 1 ARCS 0\n")
    # a label is written back as read, so the line comparison cannot catch this
    two_letters = "\n".join(TOY_DAWG_LINES).replace("node 6 a ", "node 6 ab ")
    with pytest.raises(AutomatonError, match="not one letter"):
        parse_automaton(two_letters)


# ROOT -a-> 1 -> SINK, and ROOT -b-> 2, which has no arc out.
DEAD_END_NODE_FILE = """flcva-automaton-v1
NODES 4 ARCS 3 WORDS 1
node 0 ROOT 0 1
node 1 a 1 1
node 2 b 2 0
node 3 SINK 3 1
arc 0 1 0
arc 0 2 1
arc 1 3 0
"""


@pytest.mark.parametrize("text, error", [
    (ISOLATED_NODE_FILE, "node 2 is unreachable from the root"),
    (DEAD_END_NODE_FILE, "node 2 cannot reach SINK"),
], ids=["isolated", "dead-end"])
def test_parse_rejects_node_off_every_word_path(text, error):
    with pytest.raises(AutomatonError, match=error):
        parse_automaton(text)


def test_word_with_whitespace_rejected():
    with pytest.raises(AutomatonError, match="whitespace"):
        read_wordlist("ab\na b\nc\n")
    with pytest.raises(AutomatonError, match="whitespace"):
        Lexicon.from_words(["a", " b"])
    # only "\n" ends a line; a form feed or U+2028 inside a word is whitespace
    for sep in "\x0c\u2028":
        with pytest.raises(AutomatonError, match="whitespace"):
            read_wordlist(f"ab{sep}cd\nba\n")
    assert read_wordlist("ab\r\nba\r\n").words == ("ab", "ba")


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
