import math
import random
from bisect import bisect_right

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from flcva import (
    DecodeError,
    DecodeResult,
    HmmConfig,
    Lexicon,
    build_dawg,
    decode_pph,
    expand,
    format_result,
    make_letter_hmms,
    minimize,
    build_trie,
    nbest_exhaustive,
    nbest_improved,
    nbest_naive,
    sample_observations,
    viterbi_flipflop,
    viterbi_inplace,
    viterbi_tabular,
)
from flcva.decode import (
    VARIANTS, _best_final, _columns, _completions, _merge_improved, _merge_naive, _merge_ranks,
    _nbest, _ranking, _relaxed, _step, _tokens, _top_n, _unpack,
)
from flcva.hmm import LOG_QUANTUM, NEG_INF
from flcva.lexhmm import reach_tables
from flcva.pph import annotate_increments, compute_suff
from flcva.synth import random_lexicon, synthetic_lexicon

from conftest import onehot_config, unpack, unpacked_preds, uniform_config


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
    word = rng.choice(lex.words)
    obs = sample_observations(word, cfg, rng.randrange(2**31))
    return lex, lexhmm, hmms, cfg, obs


def test_onehot_bcd(toy_lexhmm_onehot):
    lexhmm, _cfg, _hmms = toy_lexhmm_onehot
    for fn in (viterbi_tabular, viterbi_flipflop, viterbi_inplace):
        result = fn(lexhmm, list("bcd"))
        word, pph, score = result.ranking[0]
        assert (word, pph) == ("bcd", 3)
        assert score == -1.386294361203909


def test_onehot_single_c(toy_lexhmm_onehot):
    lexhmm, _cfg, _hmms = toy_lexhmm_onehot
    result = viterbi_flipflop(lexhmm, ["c"])
    assert result.ranking[0][:2] == ("c", 5)


def test_unmatchable_symbol_gives_empty_ranking(toy_annotated):
    # 'z' is a legal observation symbol that no letter can emit one-hot, and
    # at two states per letter one frame is shorter than every word, 'c' too.
    dawg, _suff, inc = toy_annotated
    for states, obs in ((1, ["z"]), (2, ["c"])):
        cfg = onehot_config(states=states, alphabet="abcdz")
        lexhmm = expand(dawg, inc, make_letter_hmms("abcd", cfg), cfg)
        for fn in (viterbi_tabular, viterbi_flipflop, viterbi_inplace):
            assert fn(lexhmm, obs).ranking == []
        for fn in (nbest_naive, nbest_improved):
            for n in (1, dawg.word_count):
                assert fn(lexhmm, obs, n).ranking == []


def test_unknown_symbol_raises(toy_lexhmm_onehot):
    # Every decoder rejects the sequence, whether the unknown symbol comes
    # first or after valid frames.
    lexhmm, _cfg, _hmms = toy_lexhmm_onehot
    error = "observation symbol '\\?' not in alphabet"
    for obs in (["?"], ["b", "c", "?"]):
        for fn in (viterbi_tabular, viterbi_flipflop, viterbi_inplace):
            with pytest.raises(DecodeError, match=error):
                fn(lexhmm, obs)
        for fn in (nbest_naive, nbest_improved):
            for n in (2, lexhmm.automaton.word_count):
                with pytest.raises(DecodeError, match=error):
                    fn(lexhmm, obs, n)


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


def _insert_capped(lst, tok, n):
    """Reference merge, one comparison at a time: insert a (cost, pph) token
    into a rank-ordered list of distinct pphs capped at n.  A held pph is
    replaced only by a strictly better token."""
    for idx, held in enumerate(lst):
        if held[1] == tok[1]:
            if tok >= held:
                return
            del lst[idx]
            break
    pos = 0
    while pos < len(lst) and lst[pos] <= tok:
        pos += 1
    lst.insert(pos, tok)
    del lst[n:]


def test_bellman_consistency():
    # rank-1 token at every state and time equals the tabular lattice value.
    _lex, lexhmm, _hmms, _cfg, obs = _instance(99)
    from flcva.lexhmm import START

    n = lexhmm.n_states
    preds = unpacked_preds(lexhmm)
    lat = [[NEG_INF] * n for _ in range(len(obs))]
    # rebuild the lattice with the tabular recurrence
    for t, sym in enumerate(obs):
        for j in range(n):
            best = NEG_INF
            for i, la, _dp in preds[j]:
                s0 = (0.0 if t == 0 else NEG_INF) if i == START else (
                    lat[t - 1][i] if t > 0 else NEG_INF
                )
                if s0 == NEG_INF or la == NEG_INF:
                    continue
                best = max(best, s0 + la)
            if best != NEG_INF:
                lat[t][j] = best + unpack(lexhmm, lexhmm.emissions[sym][j])[0]

    # track naive n-best (cost, pph) token heads per state across time
    prev = [[] for _ in range(n)]
    start_list = [(0.0, 0)]
    for t, sym in enumerate(obs):
        cur = []
        for j in range(n):
            lst = []
            b = unpack(lexhmm, lexhmm.emissions[sym][j])[0]
            for i, la, dp in preds[j]:
                src = (start_list if t == 0 else ()) if i == START else prev[i]
                for c0, p0 in src:
                    if la == NEG_INF:
                        continue
                    c = (c0 - la) - b
                    if c == math.inf:
                        continue
                    _insert_capped(lst, (c, p0 + dp), 3)
            cur.append(lst)
        prev = cur
        for j in range(n):
            head = 0.0 - prev[j][0][0] if prev[j] else NEG_INF
            assert head == lat[t][j]


# Costs on the 2^-32 log grid; the small range forces exact ties.
_grid_costs = st.one_of(st.integers(0, 3), st.integers(-2**40, 2**40)).map(
    lambda k: k * 2.0**-32
)

# The hand-built tokens below have pphs up to 5 and increments up to 3, so
# every pph they reach fits in 4 bits.
_BITS = 4
_MASK = (1 << _BITS) - 1


def _pack(tok):
    """The decoder's int token for a (cost, pph) reference token."""
    cost, pph = tok
    return int(cost / LOG_QUANTUM) << _BITS | pph


def _cost_pph(k):
    """The (cost, pph) reference token of a decoder token."""
    return (k >> _BITS) * LOG_QUANTUM, k & _MASK


def _weight(log_p, dpph=0):
    """The decoder's packed transition or emission for a log score."""
    return math.inf if log_p == NEG_INF else _pack((0.0 - log_p, dpph))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_grid_costs, st.integers(0, 5)), max_size=30), st.data())
def test_top_n_equals_sequential_capped_insert(cands, data):
    n = data.draw(st.integers(1, len(cands) + 1))
    expected = []
    for tok in cands:
        _insert_capped(expected, tok, n)
    assert _top_n([_pack(t) for t in cands], n, _MASK) == [_pack(t) for t in expected]


def _merge_every_rank(prev, preds_j, b, n, res):
    """Reference improved merge: every predecessor at every rank, held pphs
    found by a linear scan.  ops counts n visits per predecessor."""
    lst = []
    merges = 0
    for k in range(n):
        for i, log_a, dpph in preds_j:
            src = prev[i]
            if k >= len(src) or log_a == NEG_INF:
                continue
            c0, p0 = src[k]
            c = c0 - log_a
            if len(lst) == n:
                lc, lp = lst[-1]
                if c > lc or (c == lc and p0 + dpph >= lp):
                    continue
            merges += 1
            p = p0 + dpph
            held = False
            for idx, (hc, hp) in enumerate(lst):
                if hp == p:
                    if c < hc:
                        del lst[idx]
                    else:
                        held = True
                    break
            if held:
                continue
            pos = bisect_right(lst, (c, p), k)
            if pos < n:
                lst.insert(pos, (c, p))
                del lst[n:]
    res.ops += n * len(preds_j)
    res.merges += merges
    if b == NEG_INF:
        return []
    res.emission_adds += len(lst)
    return [(c - b, p) for c, p in lst]


_log_probs = st.one_of(st.just(NEG_INF), _grid_costs)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(  # one predecessor: its candidate tokens, log_a and dpph
            st.lists(st.tuples(_grid_costs, st.integers(0, 5)), max_size=8),
            _log_probs,
            st.integers(0, 3),
        ),
        max_size=6,
    ),
    _log_probs,
    st.data(),
)
def test_merge_improved_equals_every_rank_merge(preds, b, data):
    # Each predecessor's list is sorted with one token per pph, as the
    # decoder holds it; small pphs and dpphs make p0 + dpph collide.
    # The reference merges (cost, pph) tokens; the decoder's merges get them
    # packed.
    packed_prev = [_top_n([_pack(t) for t in toks], len(toks), _MASK) for toks, _a, _d in preds]
    prev = [[_cost_pph(k) for k in lst] for lst in packed_prev]
    preds_j = [(i, log_a, dpph) for i, (_toks, log_a, dpph) in enumerate(preds)]
    n = data.draw(st.integers(1, sum(map(len, prev)) + 1))
    ref, improved, naive = DecodeResult(), DecodeResult(), DecodeResult()
    expected = [_pack(t) for t in _merge_every_rank(prev, preds_j, b, n, ref)]
    packed_preds = [(i, _weight(log_a, dpph)) for i, log_a, dpph in preds_j]
    e = _weight(b)
    assert _merge_improved(packed_prev, packed_preds, e, n, _MASK, improved) == expected
    assert (improved.merges, improved.emission_adds) == (ref.merges, ref.emission_adds)
    assert improved.ops <= ref.ops
    assert _merge_naive(packed_prev, packed_preds, e, n, _MASK, naive) == expected
    assert improved.ops <= naive.ops
    # The rank loop itself, which the merge skips when every token fits,
    # gives the same list and counts.
    live = [(packed_prev[i], w) for i, w in packed_preds if packed_prev[i] and w != math.inf]
    lst, reads, merges = _merge_ranks(live, n, _MASK) if live else ([], 0, 0)
    assert (reads, merges) == (improved.ops, improved.merges)
    assert ([c + e for c in lst] if e != math.inf else []) == expected


def test_merge_improved_readmits_a_pph_it_pushed_out():
    # n = 1: (3, pph 1) is pushed out by (1, pph 2), then pph 1 comes back
    # from a third predecessor at cost 0 and must take the list.
    g = 2.0**-32
    prev = [[_pack((3 * g, 1))], [_pack((1 * g, 2))], [_pack((0.0, 1))]]
    preds_j = [(i, _weight(0.0)) for i in range(3)]
    res = DecodeResult()
    assert _merge_improved(prev, preds_j, _weight(0.0), 1, _MASK, res) == [_pack((0.0, 1))]
    assert (res.ops, res.merges) == (3, 3)


@pytest.mark.parametrize("merge", [_merge_naive, _merge_improved], ids=["naive", "improved"])
def test_all_words_tokens_held_bounded_by_trie_states(merge):
    # At n = W each token held at a DAWG state has its own pph prefix, and
    # each such prefix is one trie state: a frame holds at most
    # states_per_letter tokens per trie letter node.  The last frame merges
    # only the exit states, which hold one token per word.
    lex = synthetic_lexicon(6, 5, prefix_len=3, suffix_len=3, seed=4)
    cfg = HmmConfig(alphabet=tuple("abcdefghij"), states_per_letter=2,
                    self_loop_prob=0.3, emission_peak=0.6)
    dawg = build_dawg(lex)
    suff = compute_suff(dawg)
    lexhmm = expand(dawg, annotate_increments(dawg, suff),
                    make_letter_hmms("abcdefghij", cfg), cfg)
    bound = cfg.states_per_letter * (build_trie(lex).node_count - 2)
    held = []  # tokens held after each frame
    frame_prev = None

    def counting(prev, preds_j, e, n, mask, res):
        nonlocal frame_prev
        if prev is not frame_prev:  # every merge of a frame reads one prev
            frame_prev = prev
            held.append(0)
        lst = merge(prev, preds_j, e, n, mask, res)
        held[-1] += len(lst)
        return lst

    obs = list("abcdefghijabcdef")
    result = _nbest(lexhmm, obs, lex.word_count, counting)
    assert len(held) == len(obs)
    # token_slots: the peak over frames of the previous and new frame's tokens
    assert result.token_slots == max(a + b for a, b in zip([0] + held, held))
    assert max(held) <= bound
    assert held[-1] == lex.word_count
    assert len(result.ranking) == lex.word_count


@pytest.mark.parametrize("states", [1, 2, 3])
def test_reach_is_exact_on_the_toy_dawg(toy_annotated, states):
    # Per letter node of the toy DAWG (ab ba bb bc bcd c): the fewest
    # letters before it on a path from the root, and after it to a word end.
    dawg, _suff, inc = toy_annotated
    letters = {1: (0, 0), 2: (0, 1), 3: (1, 0), 4: (2, 0), 5: (1, 0), 6: (0, 1), 7: (1, 0)}
    cfg = onehot_config(states=states)
    lexhmm = expand(dawg, inc, make_letter_hmms("abcd", cfg), cfg)
    first = {}
    d, e, succ = reach_tables(lexhmm)
    for j, node in enumerate(lexhmm.state_node):
        k = j - first.setdefault(node, j)  # the state's place in its letter
        before, after = letters[node]
        assert (d[j], e[j]) == (states * before + k, states * after + states - 1 - k)
    # succ inverts preds, START's slot last as in the token lists.
    arcs = sorted((i % len(succ), j) for j, p in enumerate(lexhmm.preds) for i, _w in p)
    assert arcs == sorted((i, j) for i, s in enumerate(succ) for j in s)


def _full_nbest(lexhmm, obs, n, merge_state):
    """_nbest with every state merged at every frame: the reference the
    time window must match."""
    res = DecodeResult()
    mask = (1 << lexhmm.pph_bits) - 1
    prev = [[] for _ in lexhmm.preds] + [[0]]
    held = 0
    for symbol in obs:
        col = lexhmm.emissions[symbol]
        prev = [merge_state(prev, p, e, n, mask, res) for p, e in zip(lexhmm.preds, col)]
        now = sum(map(len, prev))
        res.token_slots = max(res.token_slots, held + now)
        held = now
        prev.append([])
    res.ranking = _ranking(lexhmm, _top_n(
        [k + dpph for f, dpph in lexhmm.finals for k in prev[f]], n, mask))
    return res


def _windowed_nbest(lexhmm, obs, n, merge_state):
    """_nbest with every state in the time window merged at every frame,
    holding a token or not, and the bound applied only after the merges:
    the reference the live set must match, counters included at n = W."""
    res = DecodeResult()
    mask = (1 << lexhmm.pph_bits) - 1
    cols = _columns(lexhmm, obs)
    frames = [states for states, _visits in lexhmm.windows(len(cols))]
    bounded = n < lexhmm.automaton.word_count
    back = _completions(lexhmm, cols) if bounded else [None] * len(cols)
    top = []
    prev = [()] * len(lexhmm.preds) + [[0]]
    held = 0
    for col, frame, after in zip(cols, frames, back):
        cur = [()] * len(prev)
        for j, p in frame:
            cur[j] = merge_state(prev, p, col[j], n, mask, res)
        if bounded:
            top = _top_n(top + [cur[j][0] + after[j] for j, _p in frame
                                if cur[j] and after[j] != math.inf], n, mask)
            if len(top) == n:
                for j, _p in frame:
                    if cur[j]:
                        del cur[j][bisect_right(cur[j], top[-1] - after[j]):]
        prev = cur
        now = sum(len(cur[j]) for j, _p in frame)
        res.token_slots = max(res.token_slots, held + now)
        held = now
    res.ranking = _ranking(lexhmm, _top_n(
        [k + dpph for f, dpph in lexhmm.finals for k in prev[f]], n, mask))
    return res


_COUNTERS = ("ops", "merges", "token_slots", "emission_adds")


def _lexhmm(auto, hmms, cfg):
    return expand(auto, annotate_increments(auto, compute_suff(auto)), hmms, cfg)


@st.composite
def _small_lexicon_cases(draw, self_loops=(0.3, 0.5), peaks=(0.4, 0.7, 1.0)):
    """(lexicon, letter models, config, obs) over 'abc', with T from 0 to
    two frames past the longest word's."""
    words = draw(st.lists(st.text(alphabet="abc", min_size=1, max_size=5),
                          min_size=2, max_size=12, unique=True))
    cfg = HmmConfig(alphabet=tuple("abc"), states_per_letter=draw(st.integers(1, 3)),
                    self_loop_prob=draw(st.sampled_from(self_loops)),
                    emission_peak=draw(st.sampled_from(peaks)))
    frames = cfg.states_per_letter * max(map(len, words)) + 2
    obs = draw(st.lists(st.sampled_from("abc"), max_size=frames))
    return Lexicon.from_words(words), make_letter_hmms("abc", cfg), cfg, obs


def _window_work(lexhmm, n_frames):
    """The predecessor entries a relaxation of the time window visits over
    n_frames frames, in closed form: sum over j of |preds_j| *
    max(0, T - d_j - e_j)."""
    d, e, _succ = reach_tables(lexhmm)
    return sum(len(p) * max(0, n_frames - dj - ej) for p, dj, ej in zip(lexhmm.preds, d, e))


@settings(max_examples=150, deadline=None)
@given(_small_lexicon_cases(), st.data())
def test_time_window_keeps_1best_rankings_and_visits_the_closed_form(case, data):
    # T runs from 0 to two frames past the longest word, below, at and
    # above the shortest word's frame count included.  Windowed and full
    # relaxations give the same rankings, tabular's backtracked word
    # included; the windowed visits are the closed form's.  n-best at n = 1
    # is the CLI's in-place kernel, counters included.
    lex, hmms, cfg, obs = case
    spl = cfg.states_per_letter
    shortest, longest = (spl * f(map(len, lex.words)) for f in (min, max))
    seq = data.draw(st.lists(st.sampled_from("abc"), min_size=longest + 2, max_size=longest + 2))
    seqs = [obs, *(seq[:t] for t in (0, shortest - 1, shortest, shortest + 1, longest + 2))]
    for auto in (build_trie(lex), build_dawg(lex)):
        lexhmm = _lexhmm(auto, hmms, cfg)
        for o in seqs:
            for fn in (viterbi_tabular, viterbi_flipflop, viterbi_inplace):
                full, windowed = fn(lexhmm, o), fn(lexhmm, o, window=True)
                assert windowed.ranking == full.ranking, fn.__name__
                assert full.ops == len(o) * lexhmm.n_arcs
                assert windowed.ops == _window_work(lexhmm, len(o))
                assert windowed.token_slots == full.token_slots
            one = VARIANTS["inplace"](lexhmm, o)
            assert one == viterbi_inplace(lexhmm, o, window=True)
            assert nbest_naive(lexhmm, o, 1) == nbest_improved(lexhmm, o, 1) == one


@settings(max_examples=50, deadline=None)
@given(_small_lexicon_cases())
def test_window_lists_are_the_time_window_in_reverse_state_order(case):
    # Frame t of T lists (j, preds[j]) for d(j) <= t <= T - 1 - e(j), last
    # state first, with its predecessor entries' count.  The lists of the
    # last T asked for are kept, and frames between the largest d and the
    # last max-e frames share one list, so a long sequence holds no more
    # lists than a short one.
    lex, hmms, cfg, _obs = case
    for auto in (build_trie(lex), build_dawg(lex)):
        lexhmm = _lexhmm(auto, hmms, cfg)
        d, e, _succ = reach_tables(lexhmm)
        top = max(d) + max(e)
        for n_frames in range(top + 4):
            windows = lexhmm.windows(n_frames)
            assert lexhmm.windows(n_frames) is windows
            expected = []
            for t in range(n_frames):
                states = [(j, lexhmm.preds[j]) for j in reversed(range(lexhmm.n_states))
                          if d[j] <= t <= n_frames - 1 - e[j]]
                expected.append((states, sum(len(p) for _j, p in states)))
            assert windows == expected
            assert sum(visits for _states, visits in windows) == _window_work(lexhmm, n_frames)
        long = lexhmm.windows(10_000)
        assert len(long) == 10_000
        assert len({id(states) for states, _visits in long}) <= top + 1


@settings(max_examples=150, deadline=None)
@given(_small_lexicon_cases(), st.data())
def test_time_window_keeps_rankings_and_cuts_work(case, data):
    lex, hmms, cfg, obs = case
    n = data.draw(st.integers(2, lex.word_count + 1))
    exact = nbest_exhaustive(lex, hmms, cfg, obs, n)
    for auto in (build_trie(lex), build_dawg(lex)):
        lexhmm = _lexhmm(auto, hmms, cfg)
        for merge in (_merge_naive, _merge_improved):
            windowed = _nbest(lexhmm, obs, n, merge)
            full = _full_nbest(lexhmm, obs, n, merge)
            assert windowed.ranking == full.ranking == exact
            for name in _COUNTERS:
                assert getattr(windowed, name) <= getattr(full, name), name


@settings(max_examples=200, deadline=None)
@given(_small_lexicon_cases(self_loops=(0.0, 0.3, 0.5), peaks=(1 / 3, 0.7, 1.0)), st.data())
def test_completion_bound_keeps_rankings_and_cuts_work(case, data):
    # Below n = W the bound cuts tokens.  Near-uniform emissions (1/3) and
    # one-hot ones (1.0, which also kill every off-letter emission) make
    # score ties, so the tie-break on pph decides which tokens the bound
    # keeps; self-loop 0 fixes each word's frame count.
    lex, hmms, cfg, obs = case
    w = lex.word_count
    assume(w > 2)
    n = data.draw(st.sampled_from(sorted({2, 3, 5, w - 1} & set(range(2, w)))))
    exact = nbest_exhaustive(lex, hmms, cfg, obs, n)
    for auto in (build_trie(lex), build_dawg(lex)):
        lexhmm = _lexhmm(auto, hmms, cfg)
        for merge in (_merge_naive, _merge_improved):
            bounded = _nbest(lexhmm, obs, n, merge)
            full = _full_nbest(lexhmm, obs, n, merge)
            assert bounded.ranking == full.ranking == exact
            for name in _COUNTERS:
                assert getattr(bounded, name) <= getattr(full, name), name


@settings(max_examples=200, deadline=None)
@given(_small_lexicon_cases(self_loops=(0.0, 0.3, 0.5), peaks=(1 / 3, 0.7, 1.0)), st.data())
def test_live_set_does_the_work_of_the_whole_window(case, data):
    # A windowed state outside the live set either has no predecessor
    # holding a token, so merging it would read nothing, or (below n = W)
    # every token a predecessor could pass it already fails the bound of
    # the frame before, which only falls, so the cut would empty its list.
    # At n = W the live set gives the same ranking and exactly the same
    # counters; below it the same ranking and token_slots for at most the
    # work.  Improved reads and merges at most the tokens naive does.
    lex, hmms, cfg, obs = case
    w = lex.word_count
    ns = [w] + ([data.draw(st.integers(2, w - 1))] if w > 2 else [])
    for auto in (build_trie(lex), build_dawg(lex)):
        lexhmm = _lexhmm(auto, hmms, cfg)
        for n in ns:
            naive, improved = (_nbest(lexhmm, obs, n, merge) for merge in (_merge_naive, _merge_improved))
            for merge, live in ((_merge_naive, naive), (_merge_improved, improved)):
                whole = _windowed_nbest(lexhmm, obs, n, merge)
                if n == w:
                    assert live == whole
                    continue
                assert live.ranking == whole.ranking
                assert live.token_slots == whole.token_slots
                for name in ("ops", "merges", "emission_adds"):
                    assert getattr(live, name) <= getattr(whole, name), name
            assert improved.ops <= naive.ops
            assert improved.merges <= naive.merges


def test_live_set_bound_reads_each_holders_best_token():
    # A holder's best token is the least any successor can take from it.
    # Testing its worst token instead would leave out a state whose best
    # token survives the cut: here the DAWG at n = 4 would hold 16 tokens at
    # its peak, not 17.
    lex = Lexicon.from_words(["ab", "babb", "bba", "bcb", "cb"])
    cfg = HmmConfig(alphabet=tuple("abc"), states_per_letter=1,
                    self_loop_prob=0.3, emission_peak=0.7)
    lexhmm = _lexhmm(build_dawg(lex), make_letter_hmms("abc", cfg), cfg)
    obs = list("bccabbbabbbbca")
    for merge in (_merge_naive, _merge_improved):
        live, whole = _nbest(lexhmm, obs, 4, merge), _windowed_nbest(lexhmm, obs, 4, merge)
        assert live.ranking == whole.ranking
        assert live.token_slots == whole.token_slots == 17
        assert live.ops < whole.ops


@pytest.mark.parametrize("merge", [_merge_naive, _merge_improved], ids=["naive", "improved"])
def test_tokens_dead_mid_sequence_leave_later_frames_empty(toy_lexhmm_onehot, merge):
    # One-hot emissions and no toy word has 'cb', so every token dies at
    # frame 2 of 'bcbab' (naive still counts the candidates a dead emission
    # kills).  No state is live after it: frames 3 and 4 merge nothing and
    # the ranking is empty.
    lexhmm, _cfg, _hmms = toy_lexhmm_onehot
    trailer = {_merge_naive: "# ops=9 merges=9 token_slots=2 emission_adds=9\n",
               _merge_improved: "# ops=9 merges=9 token_slots=2 emission_adds=2\n"}[merge]
    for n in (2, lexhmm.automaton.word_count):
        frames = []  # the prev list each frame's merges read

        def counting(prev, preds_j, e, size, mask, res):
            if not frames or prev is not frames[-1]:
                frames.append(prev)
            return merge(prev, preds_j, e, size, mask, res)

        result = _nbest(lexhmm, list("bcbab"), n, counting)
        assert len(frames) == 3
        assert format_result(result) == trailer
        empty = _nbest(lexhmm, [], n, merge)
        assert format_result(empty) == "# ops=0 merges=0 token_slots=0 emission_adds=0\n"


def test_forward_and_backward_passes_meet_at_the_best_final_token():
    # A token k at state j after frame t plus back[t][j] is the best final
    # token of the paths through k.  Every complete path holds one windowed
    # state at each frame, so at every frame the least such sum over the
    # window is the 1-best final token, pph included.
    for seed in range(30):
        _lex, lexhmm, _hmms, _cfg, obs = _instance(seed + 3000)
        cols = _columns(lexhmm, obs)
        back = _completions(lexhmm, cols)
        tokens = _tokens(lexhmm.n_states)
        met = []
        full = _relaxed(lexhmm, len(cols), window=False)
        for col, every, (frame, _visits), after in zip(cols, full, lexhmm.windows(len(cols)), back):
            _step(every, col, tokens, tokens)
            met.append(min((tokens[j] + after[j] for j, _p in frame), default=math.inf))
        best = [k for k, _f in _best_final(lexhmm, tokens)] or [math.inf]
        assert met == best * len(obs), f"seed {seed}"


def test_reach_tables_are_computed_once_per_lexicon_hmm(monkeypatch):
    # Only decodes that read the time window read the tables: n-best and the
    # windowed 1-best.  Every one after the first reads the tables the first
    # computed, and none changes them.
    calls = []
    monkeypatch.setattr(
        "flcva.lexhmm.reach_tables", lambda lexhmm: calls.append(1) or reach_tables(lexhmm)
    )
    _lex, lexhmm, hmms, cfg, _obs = _instance(4)
    seqs = [_instance(seed)[4] for seed in (4, 5, 6)]
    for decode in (viterbi_tabular, viterbi_flipflop, viterbi_inplace):
        for obs in seqs:
            decode(lexhmm, obs)
    assert not calls
    for obs in seqs:
        for decode in (nbest_naive, nbest_improved):
            for n in (2, lexhmm.automaton.word_count):
                decode(lexhmm, obs, n)
        for decode in VARIANTS.values():
            decode(lexhmm, obs)
    assert len(calls) == 1
    assert lexhmm.reach == reach_tables(lexhmm)
    # The tables are no field: an HMM that holds them equals one that does not.
    assert lexhmm == _lexhmm(lexhmm.automaton, hmms, cfg)


@settings(max_examples=100, deadline=None)
@given(_small_lexicon_cases(), st.data())
def test_shared_reach_tables_decode_like_fresh_ones(case, data):
    lex, hmms, cfg, obs = case
    frames = cfg.states_per_letter * max(map(len, lex.words)) + 2
    seqs = [obs, *data.draw(st.lists(st.lists(st.sampled_from("abc"), max_size=frames), max_size=3))]
    w = lex.word_count
    n = data.draw(st.sampled_from(sorted({2, w - 1, w} & set(range(2, w + 1)))))
    for auto in (build_trie(lex), build_dawg(lex)):
        shared = _lexhmm(auto, hmms, cfg)
        for decode in (nbest_naive, nbest_improved):
            for seq in seqs:
                assert decode(shared, seq, n) == decode(_lexhmm(auto, hmms, cfg), seq, n)


@settings(max_examples=150, deadline=None)
@given(_small_lexicon_cases())
def test_all_words_trie_and_dawg_do_the_same_work(case):
    # At n = W no token is dropped, and a DAWG state holds one token per
    # prefix that reaches it, which is one trie state: both structures hold
    # and extend the same tokens, and naive reads and merges the same ones.
    # Improved's quick reject fires only in a full list, which a DAWG state
    # gathering several trie states' tokens can fill, so its ops and merges
    # may differ (below), but never exceed naive's.
    lex, hmms, cfg, obs = case
    trie, dawg = (_lexhmm(b(lex), hmms, cfg) for b in (build_trie, build_dawg))
    w = lex.word_count
    naive = nbest_naive(trie, obs, w), nbest_naive(dawg, obs, w)
    improved = nbest_improved(trie, obs, w), nbest_improved(dawg, obs, w)
    assert naive[0].ranking == naive[1].ranking == improved[0].ranking == improved[1].ranking
    for name in _COUNTERS:
        assert getattr(naive[0], name) == getattr(naive[1], name), name
    for name in ("token_slots", "emission_adds"):
        assert getattr(improved[0], name) == getattr(improved[1], name), name
    for naive_one, improved_one in zip(naive, improved):
        assert improved_one.ops <= naive_one.ops


def test_all_words_improved_merges_differ_between_trie_and_dawg():
    # The improved merge's rank loop counts a token merged only when it
    # passes the quick reject, which fires only in a full list; a state whose
    # candidates fit in n counts them all.  The DAWG's shared last 'c' gathers
    # the tokens of both words' last letters and fills its list of n = W = 2,
    # where each of the trie's two last-letter states fits in n.
    lex = Lexicon.from_words(["bac", "cacacc"])
    cfg = HmmConfig(alphabet=tuple("abc"), states_per_letter=1,
                    self_loop_prob=0.3, emission_peak=0.7)
    hmms = make_letter_hmms("abc", cfg)
    obs = list("cbbacabcbbbbccca")
    trie, dawg = (nbest_improved(_lexhmm(b(lex), hmms, cfg), obs, 2)
                  for b in (build_trie, build_dawg))
    assert trie.ranking == dawg.ranking
    assert [getattr(trie, name) for name in _COUNTERS] == [184, 184, 18, 108]
    assert [getattr(dawg, name) for name in _COUNTERS] == [184, 179, 18, 108]


def test_all_words_improved_ops_differ_between_trie_and_dawg():
    # The DAWG's shared suffix 'aa' gathers both words' tokens and fills
    # lists of n = W = 2, where the quick reject skips a token; a trie state
    # holds one prefix's token, so no trie list fills.  Naive reads every
    # token on both.
    lex = Lexicon.from_words(["aaaaa", "aacaa"])
    cfg = HmmConfig(alphabet=tuple("abc"), states_per_letter=1,
                    self_loop_prob=0.3, emission_peak=0.4)
    hmms = make_letter_hmms("abc", cfg)
    obs = list("aaacaa")
    trie, dawg = (_lexhmm(b(lex), hmms, cfg) for b in (build_trie, build_dawg))
    naive = nbest_naive(trie, obs, 2), nbest_naive(dawg, obs, 2)
    improved = nbest_improved(trie, obs, 2), nbest_improved(dawg, obs, 2)
    assert naive[0].ranking == naive[1].ranking == improved[0].ranking == improved[1].ranking
    assert [[getattr(r, name) for name in _COUNTERS] for r in naive] == [[23, 23, 8, 23]] * 2
    assert [getattr(improved[0], name) for name in _COUNTERS] == [23, 23, 8, 16]
    assert [getattr(improved[1], name) for name in _COUNTERS] == [22, 19, 8, 16]


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


# Lexicon sizes at the edges of the packed token layout: W = 1 has no pph
# bits, and W = 2^k puts pph W - 1 in the top bit.
_EDGE_SIZES = (1, 2, 8, 9, 16, 17)


def _edge_instance(w, cfg=None):
    """(lexicon, lexhmm, letter models, config) of a random W-word lexicon."""
    lex = random_lexicon(w, alphabet="abc", min_len=1, max_len=4, seed=w)
    cfg = cfg or HmmConfig(alphabet=tuple("abc"), states_per_letter=1,
                           self_loop_prob=0.5, emission_peak=0.6)
    dawg = build_dawg(lex)
    hmms = make_letter_hmms("abc", cfg)
    return lex, expand(dawg, annotate_increments(dawg, compute_suff(dawg)), hmms, cfg), hmms, cfg


_EDGE_LEXHMMS = {w: _edge_instance(w)[1] for w in _EDGE_SIZES}


@pytest.mark.parametrize("w", _EDGE_SIZES)
def test_pph_bits_are_the_fewest_that_hold_every_path_index(w):
    bits = _EDGE_LEXHMMS[w].pph_bits
    assert w <= 1 << bits
    assert bits == 0 or w > 1 << (bits - 1)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_EDGE_SIZES), st.data())
def test_packed_tokens_order_and_add_like_cost_pph_pairs(w, data):
    lexhmm = _EDGE_LEXHMMS[w]
    bits = lexhmm.pph_bits
    costs = st.one_of(st.integers(0, 3), st.integers(0, 2**45))
    (c1, p1), (c2, p2) = (data.draw(st.tuples(costs, st.integers(0, w - 1))) for _ in "12")
    k1, k2 = c1 << bits | p1, c2 << bits | p2
    assert (k1 < k2) == ((c1, p1) < (c2, p2))
    assert (k1 == k2) == ((c1, p1) == (c2, p2))
    assert _unpack(lexhmm, k1) == (p1, 0.0 - c1 * LOG_QUANTUM)
    # A live arc of the graph added to a token whose pph leaves room for
    # the arc's increment: costs and pphs add separately, with no carry.
    arcs = [w_ for preds in lexhmm.preds for _i, w_ in preds if w_ != math.inf]
    arc = data.draw(st.sampled_from(arcs))
    log_a, dpph = unpack(lexhmm, arc)
    c = data.draw(costs)
    p = data.draw(st.integers(0, w - 1 - dpph))
    assert unpack(lexhmm, (c << bits | p) + arc) == (log_a - c * LOG_QUANTUM, p + dpph)


@pytest.mark.parametrize("w", _EDGE_SIZES)
def test_edge_sizes_decode_every_word_like_the_oracle(w):
    # Uniform emissions make score ties, so the pph tie-break decides ranks
    # up to pph W - 1; n = W ranks every word the sequence allows.
    for cfg in (None, uniform_config(alphabet="abc")):
        lex, lexhmm, hmms, cfg = _edge_instance(w, cfg)
        rng = random.Random(w)
        for _ in range(4):
            obs = sample_observations(rng.choice(lex.words), cfg, rng.randrange(2**31))
            exact = nbest_exhaustive(lex, hmms, cfg, obs, w)
            for fn in (viterbi_tabular, viterbi_flipflop, viterbi_inplace):
                assert fn(lexhmm, obs).ranking == exact[:1], f"W={w} {fn.__name__}"
            for fn in (nbest_naive, nbest_improved):
                assert fn(lexhmm, obs, w).ranking == exact, f"W={w} {fn.__name__}"
