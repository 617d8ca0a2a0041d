from hypothesis import given, settings
from hypothesis import strategies as st

from flcva import (
    NEG_INF,
    HmmConfig,
    Lexicon,
    build_trie,
    enumerate_paths_dfs,
    make_letter_hmms,
    minimize,
    nbest_exhaustive,
    score_word,
    viterbi_tabular,
)
from flcva.oracle import canonical_word_order, word_rank_map
from flcva.pph import annotate_increments, compute_suff, encode_word
from flcva.synth import random_lexicon

from conftest import one_word_lexhmm, onehot_config, uniform_config


def test_toy_dfs_order(toy_dawg):
    words = enumerate_paths_dfs(toy_dawg)
    assert words == ["ab", "ba", "bb", "bcd", "bc", "c"]
    assert words.index("bcd") == 3


def test_dfs_order_matches_encode_on_random_automata():
    for seed in range(8):
        lex = random_lexicon(seed * 70 + 10, alphabet="abcd", min_len=1,
                             max_len=7, seed=seed)
        dawg = minimize(build_trie(lex))
        inc = annotate_increments(dawg, compute_suff(dawg))
        for rank, word in enumerate(enumerate_paths_dfs(dawg)):
            assert encode_word(dawg, inc, word) == rank


def test_dfs_order_on_a_word_deeper_than_the_recursion_limit():
    word = "ab" * 1000
    dawg = minimize(build_trie(Lexicon.from_words([word, "b", word[:3]])))
    assert enumerate_paths_dfs(dawg) == [word, "aba", "b"]


def test_canonical_word_order_puts_prefix_after_extension():
    assert canonical_word_order(["bc", "bcd", "b"]) == ["bcd", "bc", "b"]
    ranks = word_rank_map(Lexicon.from_words(["ab", "ba", "bb", "bc", "bcd", "c"]))
    assert ranks == {"ab": 0, "ba": 1, "bb": 2, "bcd": 3, "bc": 4, "c": 5}


def test_score_word_golden():
    cfg = onehot_config()
    hmms = make_letter_hmms("abcd", cfg)
    assert score_word("bcd", hmms, cfg, list("bcd")) == -1.386294361203909
    assert score_word("ab", hmms, cfg, list("bcd")) == NEG_INF


def test_score_word_representation_independent():
    cfg = uniform_config()
    hmms = make_letter_hmms("abcd", cfg)
    obs = ["a", "b", "c"]
    assert score_word("abc", hmms, cfg, obs) == score_word("abc", hmms, cfg, obs)


@settings(max_examples=300, deadline=None)
@given(
    st.text(alphabet="abcd", min_size=1, max_size=6),
    st.integers(1, 3),
    st.sampled_from([0.0, 0.3, 0.5]),
    st.sampled_from([1.0, 0.25, 0.7]),
    st.data(),
)
def test_score_word_matches_the_decoded_one_word_trie(word, states, self_loop, peak, data):
    cfg = HmmConfig(alphabet=tuple("abcd"), states_per_letter=states,
                    self_loop_prob=self_loop, emission_peak=peak)
    hmms = make_letter_hmms(word, cfg)
    frames = data.draw(st.integers(0, 2 * states * len(word)))
    obs = data.draw(st.lists(st.sampled_from("abcd"), min_size=frames, max_size=frames))
    ranking = viterbi_tabular(one_word_lexhmm(word, hmms, cfg), obs).ranking
    assert score_word(word, hmms, cfg, obs) == (ranking[0][2] if ranking else NEG_INF)


def test_exhaustive_nbest_onehot(toy_lexicon):
    cfg = onehot_config()
    hmms = make_letter_hmms("abcd", cfg)
    for n in (1, 3, 10):
        rows = nbest_exhaustive(toy_lexicon, hmms, cfg, list("bcd"), n)
        assert [(w, p) for w, p, _s in rows] == [("bcd", 3)]


def test_exhaustive_nbest_caps_at_word_count(toy_lexicon):
    cfg = uniform_config()
    hmms = make_letter_hmms("abcd", cfg)
    rows = nbest_exhaustive(toy_lexicon, hmms, cfg, ["a"] * 3, 100)
    assert len(rows) <= toy_lexicon.word_count
    assert len(rows) == 6  # all toy words fit a 3-frame sequence


def test_exhaustive_nbest_order_is_input_order_independent():
    cfg = uniform_config()
    hmms = make_letter_hmms("abcd", cfg)
    a = nbest_exhaustive(
        Lexicon.from_words(["ab", "ba", "bb", "bc", "bcd", "c"]),
        hmms, cfg, ["a", "a"], 6,
    )
    b = nbest_exhaustive(
        Lexicon.from_words(["c", "bcd", "bc", "bb", "ba", "ab"]),
        hmms, cfg, ["a", "a"], 6,
    )
    assert a == b
