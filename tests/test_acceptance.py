"""Acceptance gate: one test per criterion, each printing a pass line with
its measured runtime.  Run with `pytest -s tests/test_acceptance.py`.
"""

import random
import statistics
import time

from flcva import (
    HmmConfig,
    Lexicon,
    build_trie,
    decode_pph,
    enumerate_paths_dfs,
    expand,
    make_letter_hmms,
    minimize,
    nbest_exhaustive,
    nbest_improved,
    nbest_naive,
    sample_observations,
    viterbi_flipflop,
    viterbi_inplace,
    viterbi_tabular,
)
from flcva.bench import generate_sequences, run_bench
from flcva.decode import VARIANTS
from flcva.pph import annotate_increments, compute_suff, encode_word
from flcva.synth import random_lexicon, synthetic_lexicon

from conftest import TOY_PPH, TOY_WORDS, onehot_config, uniform_config


def _report(name, elapsed, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"PASS {name}: {elapsed:.2f}s{suffix}")


def _annotated_dawg(lexicon):
    dawg = minimize(build_trie(lexicon))
    suff = compute_suff(dawg)
    return dawg, suff, annotate_increments(dawg, suff)


def _lexhmm_for(lexicon, config):
    dawg, _suff, inc = _annotated_dawg(lexicon)
    hmms = make_letter_hmms({ch for w in lexicon.words for ch in w}, config)
    return expand(dawg, inc, hmms, config), hmms


def test_criterion_1_toy_golden():
    start = time.perf_counter()
    lex = Lexicon.from_words(TOY_WORDS)
    trie = build_trie(lex)
    assert trie.node_count == 10
    dawg = minimize(trie)
    assert dawg.node_count == 9
    suff = compute_suff(dawg)
    inc = annotate_increments(dawg, suff)
    for word, expected in TOY_PPH.items():
        assert encode_word(dawg, inc, word) == expected
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report("criterion 1 (toy golden values)", elapsed)


def test_criterion_2_pph_bijection():
    start = time.perf_counter()
    rng = random.Random(20)
    checked = 0
    for trial in range(200):
        k = rng.randint(2, 26)
        alphabet = "abcdefghijklmnopqrstuvwxyz"[:k]
        max_len = 12 if k < 4 else 8
        w = rng.randint(5, 500)
        lex = random_lexicon(w, alphabet=alphabet, min_len=1,
                             max_len=max_len, seed=trial)
        dawg, suff, inc = _annotated_dawg(lex)
        words = enumerate_paths_dfs(dawg)
        values = [encode_word(dawg, inc, word) for word in words]
        assert sorted(values) == list(range(lex.word_count))
        assert values == list(range(lex.word_count))  # DFS-rank agreement
        for value, word in zip(values, words):
            assert decode_pph(dawg, suff, value) == word
        checked += lex.word_count
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report("criterion 2 (PPH bijection)", elapsed, f"{checked} paths")


def _random_instance(seed):
    rng = random.Random(seed)
    lex = random_lexicon(rng.randint(5, 30), alphabet="abcde",
                         min_len=1, max_len=6, seed=seed)
    cfg = HmmConfig(
        alphabet=tuple("abcde"),
        states_per_letter=rng.choice([1, 2]),
        self_loop_prob=rng.choice([0.3, 0.5]),
        emission_peak=rng.choice([0.2, 0.6, 0.9]),
    )
    lexhmm, hmms = _lexhmm_for(lex, cfg)
    word = rng.choice(lex.words)
    obs = sample_observations(word, cfg, rng.randrange(2**31))
    return lex, cfg, lexhmm, hmms, obs


def test_criterion_3_decoder_equivalence():
    start = time.perf_counter()
    for seed in range(200):
        _lex, _cfg, lexhmm, _hmms, obs = _random_instance(seed)
        tab = viterbi_tabular(lexhmm, obs)
        flip = viterbi_flipflop(lexhmm, obs)
        inpl = viterbi_inplace(lexhmm, obs)
        assert tab.ranking == flip.ranking == inpl.ranking, f"seed {seed}"
        # the CLI's kernels relax only the time window, against the full ones
        for name, fn in VARIANTS.items():
            assert fn(lexhmm, obs).ranking == tab.ranking, f"seed {seed} windowed {name}"
        if tab.ranking:
            word, pph, _score = tab.ranking[0]
            assert decode_pph(lexhmm.automaton, lexhmm.suff, pph) == word
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report("criterion 3 (decoder equivalence)", elapsed, "200 instances")


def test_criterion_4_memory_halving():
    start = time.perf_counter()
    for seed in (0, 1, 2):
        _lex, _cfg, lexhmm, _hmms, obs = _random_instance(seed + 4000)
        n = lexhmm.n_states
        assert viterbi_inplace(lexhmm, obs).token_slots == n
        assert viterbi_flipflop(lexhmm, obs).token_slots == 2 * n
        assert viterbi_tabular(lexhmm, obs).token_slots == n * len(obs)
    _report("criterion 4 (memory halving)", time.perf_counter() - start)


def test_criterion_5_nbest_correctness():
    start = time.perf_counter()
    # toy lexicon, n = 1..6, and all five decoders against the oracle.  With
    # no self-loops a letter takes exactly its states' frames, so every other
    # path is behind an impossible (infinite-cost) transition; one-hot
    # emissions make every mismatching emission impossible too.
    lex = Lexicon.from_words(TOY_WORDS)
    for cfg, obs in (
        (uniform_config(), ["a"] * 3),
        (uniform_config(states=2, self_loop=0.0), list("abab")),
        (onehot_config(states=2, self_loop=0.0), list("bbccdd")),
    ):
        lexhmm, hmms = _lexhmm_for(lex, cfg)
        best = nbest_exhaustive(lex, hmms, cfg, obs, 1)
        # the full relaxation, then the CLI's windowed kernels
        for fn in (viterbi_tabular, viterbi_flipflop, viterbi_inplace, *VARIANTS.values()):
            assert fn(lexhmm, obs).ranking == best, f"toy {cfg} {fn}"
        for n in range(1, 7):
            naive = nbest_naive(lexhmm, obs, n)
            improved = nbest_improved(lexhmm, obs, n)
            exact = nbest_exhaustive(lex, hmms, cfg, obs, n)
            assert naive.ranking == improved.ranking == exact, f"toy {cfg} n={n}"
            assert improved.merges <= naive.merges
            assert improved.ops <= naive.ops
    # randomized instances, n = 1..5, then all words: n = W
    for seed in range(100):
        lex, cfg, lexhmm, hmms, obs = _random_instance(seed + 5000)
        for n in ((seed % 5) + 1, lex.word_count):
            naive = nbest_naive(lexhmm, obs, n)
            improved = nbest_improved(lexhmm, obs, n)
            exact = nbest_exhaustive(lex, hmms, cfg, obs, n)
            assert naive.ranking == improved.ranking == exact, f"seed {seed} n={n}"
            assert improved.merges <= naive.merges, f"seed {seed} n={n}"
            assert improved.ops <= naive.ops, f"seed {seed} n={n}"
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _report("criterion 5 (n-best correctness)", elapsed, "toy + 100 instances at n and W")


def test_criterion_5_nbest_n1_is_1best():
    # n = 1 is the CLI's in-place 1-best kernel, which relaxes the time
    # window: same ranking and every counter.
    instances = [(["a"] * 3, _lexhmm_for(Lexicon.from_words(TOY_WORDS), uniform_config())[0])]
    for seed in range(100):
        _lex, _cfg, lexhmm, _hmms, obs = _random_instance(seed + 5000)
        instances.append((obs, lexhmm))
    for obs, lexhmm in instances:
        one = VARIANTS["inplace"](lexhmm, obs)
        assert nbest_naive(lexhmm, obs, 1) == one
        assert nbest_improved(lexhmm, obs, 1) == one


def test_criterion_6_work_scaling():
    start = time.perf_counter()
    cfg = HmmConfig(alphabet=tuple("abcdefghij"), states_per_letter=1,
                    self_loop_prob=0.3, emission_peak=0.9)
    rng = random.Random(6)

    # ops affine in T for a fixed lexicon
    lex = synthetic_lexicon(20, 10, seed=1)
    lexhmm, _hmms = _lexhmm_for(lex, cfg)
    t_values = [10, 50, 200, 1000]
    ops_values = []
    for t_len in t_values:
        obs = [rng.choice(cfg.alphabet) for _ in range(t_len)]
        ops_values.append(viterbi_inplace(lexhmm, obs).ops)
    slope, intercept = statistics.linear_regression(t_values, ops_values)
    mean_ops = statistics.fmean(ops_values)
    ss_res = sum(
        (o - (slope * t + intercept)) ** 2 for t, o in zip(t_values, ops_values)
    )
    ss_tot = sum((o - mean_ops) ** 2 for o in ops_values)
    r2 = 1.0 - ss_res / ss_tot
    assert r2 >= 0.999

    # ops proportional to total predecessor count at fixed T
    t_len = 10
    ratios = []
    for pools in ((10, 10), (25, 40), (100, 100)):  # 100, 1000, 10000 words
        lex = synthetic_lexicon(*pools, seed=2)
        lexhmm, _hmms = _lexhmm_for(lex, cfg)
        total_preds = sum(len(p) for p in lexhmm.preds)
        obs = [rng.choice(cfg.alphabet) for _ in range(t_len)]
        ops = viterbi_inplace(lexhmm, obs).ops
        ratios.append(ops / (t_len * total_preds))
    assert max(ratios) / min(ratios) <= 1.01
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    _report("criterion 6 (work scaling)", elapsed,
            f"R^2={r2:.6f}, ratio spread {max(ratios) / min(ratios):.4f}")


def test_criterion_7_trie_vs_dawg_speedup():
    start = time.perf_counter()
    lex = synthetic_lexicon(120, 90, seed=7)  # 10800 suffix-rich words
    assert lex.word_count >= 10000
    cfg = HmmConfig(alphabet=tuple("abcdefghij"), states_per_letter=1,
                    self_loop_prob=0.3, emission_peak=0.9)
    rows = run_bench(lex, cfg, sequences=2, seed=7)
    by_key = {(r.structure, r.variant): r for r in rows}
    trie = by_key[("trie", "inplace")]
    dawg = by_key[("dawg", "inplace")]
    assert dawg.ops < trie.ops
    wall_ratio = trie.wall_ms / dawg.wall_ms
    assert wall_ratio >= 2.0
    ops_ratio = trie.ops / dawg.ops
    predicted = (trie.n_states * trie.mean_preds) / (dawg.n_states * dawg.mean_preds)
    assert abs(ops_ratio - predicted) / predicted <= 0.20
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    _report("criterion 7 (trie vs DAWG speedup)", elapsed,
            f"wall ratio {wall_ratio:.1f}, ops ratio {ops_ratio:.1f}")


def test_criterion_8_recognition_sanity():
    start = time.perf_counter()
    lex = random_lexicon(100, alphabet="abcdefgh", min_len=3, max_len=8, seed=8)
    cfg = HmmConfig(alphabet=tuple("abcdefgh"), states_per_letter=1,
                    self_loop_prob=0.3, emission_peak=0.95)
    lexhmm, _hmms = _lexhmm_for(lex, cfg)
    sequences = generate_sequences(lex, cfg, count=500, seed=8)
    correct = 0
    for obs, truth in sequences:
        result = viterbi_inplace(lexhmm, obs)
        if result.ranking and result.ranking[0][0] == truth:
            correct += 1
    accuracy = correct / len(sequences)
    assert accuracy >= 0.95
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report("criterion 8 (recognition sanity)", elapsed,
            f"accuracy {accuracy:.3f}")
