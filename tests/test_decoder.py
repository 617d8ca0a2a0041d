import math
import random

import pytest

from flcva import (
    DecodeError,
    HmmConfig,
    decode_pph,
    expand,
    format_result,
    make_letter_hmms,
    minimize,
    build_trie,
    nbest_exhaustive,
    nbest_improved,
    nbest_naive,
    viterbi_flipflop,
    viterbi_inplace,
    viterbi_tabular,
)
from flcva.hmm import quantize_log
from flcva.pph import annotate_increments, compute_suff
from flcva.synth import random_lexicon

from conftest import onehot_config, uniform_config


def _instance(seed):
    """Random (lexicon, lexhmm, letter models, config, obs) tuple."""
    rng = random.Random(seed)
    lex = random_lexicon(
        rng.randint(5, 30), alphabet="abcde", min_len=1, max_len=6, seed=seed
    )
    cfg = HmmConfig(
        alphabet=tuple("abcde"),
        states_per_letter=rng.choice([1, 2]),
        self_loop_prob=rng.choice([0.3, 0.5]),
        emission_peak=rng.choice([0.2, 0.6, 0.9]),
    )
    dawg = minimize(build_trie(lex))
    suff = compute_suff(dawg)
    inc = annotate_increments(dawg, suff)
    hmms = make_letter_hmms("abcde", cfg)
    lexhmm = expand(dawg, inc, hmms, cfg)
    from flcva import sample_observations

    word = rng.choice(lex.words)
    obs = sample_observations(word, cfg, rng.randrange(2**31))
    return lex, lexhmm, hmms, cfg, obs


def test_onehot_bcd(toy_lexhmm_onehot):
    lexhmm, _cfg, _hmms = toy_lexhmm_onehot
    for fn in (viterbi_tabular, viterbi_flipflop, viterbi_inplace):
        result = fn(lexhmm, list("bcd"))
        word, pph, score = result.ranking[0]
        assert (word, pph) == ("bcd", 3)
        assert score == 2 * quantize_log(math.log(0.5))


def test_onehot_single_c(toy_lexhmm_onehot):
    lexhmm, _cfg, _hmms = toy_lexhmm_onehot
    result = viterbi_flipflop(lexhmm, ["c"])
    assert result.ranking[0][:2] == ("c", 5)


def test_unmatchable_symbol_gives_empty_ranking(toy_annotated):
    # 'z' is a legal observation symbol that no letter can emit one-hot.
    dawg, _suff, inc = toy_annotated
    cfg = onehot_config(alphabet="abcdz")
    hmms = make_letter_hmms("abcd", cfg)
    lexhmm = expand(dawg, inc, hmms, cfg)
    for fn in (viterbi_tabular, viterbi_flipflop, viterbi_inplace):
        assert fn(lexhmm, ["z"]).ranking == []


def test_unknown_symbol_raises(toy_lexhmm_onehot):
    lexhmm, _cfg, _hmms = toy_lexhmm_onehot
    with pytest.raises(DecodeError):
        viterbi_inplace(lexhmm, ["?"])


def test_empty_observation_sequence(toy_lexhmm_onehot):
    lexhmm, _cfg, _hmms = toy_lexhmm_onehot
    for fn in (viterbi_tabular, viterbi_flipflop, viterbi_inplace):
        result = fn(lexhmm, [])
        assert result.ranking == []
        assert result.ops == 0


def test_uniform_tie_breaks_to_smallest_pph(toy_lexhmm_uniform):
    lexhmm, _cfg, _hmms = toy_lexhmm_uniform
    result = viterbi_inplace(lexhmm, ["a", "a"])
    assert result.ranking[0][:2] == ("ab", 0)


def test_token_slot_counters(toy_lexhmm_onehot):
    lexhmm, _cfg, _hmms = toy_lexhmm_onehot
    n = lexhmm.n_states
    obs = list("bcd")
    assert viterbi_inplace(lexhmm, obs).token_slots == n
    assert viterbi_flipflop(lexhmm, obs).token_slots == 2 * n
    assert viterbi_tabular(lexhmm, obs).token_slots == n * len(obs)


def test_ops_counter_is_pred_visits(toy_lexhmm_onehot):
    lexhmm, _cfg, _hmms = toy_lexhmm_onehot
    total_preds = sum(len(p) for p in lexhmm.preds)
    for fn in (viterbi_tabular, viterbi_flipflop, viterbi_inplace):
        assert fn(lexhmm, list("bcd")).ops == 3 * total_preds


def test_decoders_agree_on_random_instances():
    for seed in range(40):
        _lex, lexhmm, _hmms, _cfg, obs = _instance(seed)
        tab = viterbi_tabular(lexhmm, obs)
        flip = viterbi_flipflop(lexhmm, obs)
        inpl = viterbi_inplace(lexhmm, obs)
        assert tab.ranking == flip.ranking == inpl.ranking, f"seed {seed}"
        if tab.ranking:
            word, pph, _ = tab.ranking[0]
            assert decode_pph(lexhmm.automaton, lexhmm.suff, pph) == word


def test_bellman_consistency():
    # rank-1 token at every state and time equals the tabular lattice value.
    _lex, lexhmm, _hmms, _cfg, obs = _instance(99)
    from flcva.hmm import NEG_INF
    from flcva.lexhmm import START

    n = lexhmm.n_states
    lat = [[NEG_INF] * n for _ in range(len(obs))]
    # rebuild the lattice with the tabular recurrence
    for t, sym in enumerate(obs):
        si = lexhmm.symbol_index[sym]
        for j in range(n):
            best = NEG_INF
            for i, la, _dp in lexhmm.preds[j]:
                s0 = (0.0 if t == 0 else NEG_INF) if i == START else (
                    lat[t - 1][i] if t > 0 else NEG_INF
                )
                if s0 == NEG_INF or la == NEG_INF:
                    continue
                best = max(best, s0 + la)
            if best != NEG_INF:
                lat[t][j] = best + lexhmm.emit_rows[j][si]

    # track naive n-best token heads per state across time
    prev = [[] for _ in range(n)]
    from flcva.decode import _merge_token

    start_list = [(0.0, 0)]
    for t, sym in enumerate(obs):
        si = lexhmm.symbol_index[sym]
        cur = []
        for j in range(n):
            lst = []
            b = lexhmm.emit_rows[j][si]
            for i, la, dp in lexhmm.preds[j]:
                src = (start_list if t == 0 else ()) if i == START else prev[i]
                for s0, p0 in src:
                    if la == NEG_INF:
                        continue
                    s = (s0 + la) + b
                    if s == NEG_INF:
                        continue
                    _merge_token(lst, s, p0 + dp, 3)
            cur.append(lst)
        prev = cur
        for j in range(n):
            head = prev[j][0][0] if prev[j] else NEG_INF
            assert head == lat[t][j]


def test_nbest_single_word_onehot(toy_lexhmm_onehot):
    lexhmm, _cfg, _hmms = toy_lexhmm_onehot
    for fn in (nbest_naive, nbest_improved):
        result = fn(lexhmm, list("bcd"), 3)
        assert [(w, p) for w, p, _s in result.ranking] == [("bcd", 3)]


def test_nbest_rank1_matches_1best():
    for seed in range(15):
        _lex, lexhmm, _hmms, _cfg, obs = _instance(seed + 1000)
        one = viterbi_inplace(lexhmm, obs)
        for fn in (nbest_naive, nbest_improved):
            nb = fn(lexhmm, obs, 1)
            assert nb.ranking == one.ranking, f"seed {seed}"


def test_nbest_uniform_toy(toy_lexhmm_uniform):
    lexhmm, _cfg, _hmms = toy_lexhmm_uniform
    result = nbest_naive(lexhmm, ["a", "a"], 4)
    assert [w for w, _p, _s in result.ranking] == ["ab", "ba", "bb", "bc"]


def test_nbest_full_range_toy(toy_lexhmm_uniform):
    lexhmm, _cfg, _hmms = toy_lexhmm_uniform
    result = nbest_improved(lexhmm, ["a"] * 3, 6)
    assert {p for _w, p, _s in result.ranking} == set(range(6))


def test_nbest_variants_agree_and_merge_counts():
    for seed in range(30):
        lex, lexhmm, hmms, cfg, obs = _instance(seed + 2000)
        n = (seed % 5) + 1
        naive = nbest_naive(lexhmm, obs, n)
        improved = nbest_improved(lexhmm, obs, n)
        assert naive.ranking == improved.ranking, f"seed {seed}"
        assert improved.merges <= naive.merges
        assert improved.emission_adds <= naive.emission_adds
        exact = nbest_exhaustive(lex, hmms, cfg, obs, n)
        assert naive.ranking == exact, f"seed {seed}"


def test_nbest_returns_fewer_when_fewer_possible(toy_lexhmm_onehot):
    lexhmm, _cfg, _hmms = toy_lexhmm_onehot
    result = nbest_improved(lexhmm, list("bcd"), 6)
    assert len(result.ranking) == 1  # only 'bcd' is possible one-hot


def test_nbest_rejects_bad_n(toy_lexhmm_onehot):
    lexhmm, _cfg, _hmms = toy_lexhmm_onehot
    with pytest.raises(DecodeError):
        nbest_naive(lexhmm, ["a"], 0)
    with pytest.raises(DecodeError):
        nbest_improved(lexhmm, ["a"], 0)


def test_format_result(toy_lexhmm_onehot):
    lexhmm, _cfg, _hmms = toy_lexhmm_onehot
    text = format_result(viterbi_inplace(lexhmm, list("bcd")))
    lines = text.splitlines()
    assert lines[0].startswith("1 bcd 3 ")
    assert lines[-1].startswith("# ops=")
    assert "token_slots=" in lines[-1]
    assert lines[-1].endswith(" emission_adds=0")  # counted by n-best only
    result = nbest_improved(lexhmm, list("bcd"), 2)
    assert result.emission_adds > 0
    trailer = format_result(result).splitlines()[-1]
    assert trailer.endswith(f" emission_adds={result.emission_adds}")
