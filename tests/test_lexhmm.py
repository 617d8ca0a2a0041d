import math

import pytest

from flcva import (
    START,
    ExpansionError,
    Lexicon,
    build_dawg,
    expand,
    make_letter_hmms,
)
from flcva.hmm import grid_score
from flcva.pph import annotate_increments, compute_suff

from conftest import one_word_lexhmm, onehot_config, unpack, unpacked_preds


def test_toy_expansion_counts(toy_lexhmm_onehot):
    lexhmm, _cfg, _hmms = toy_lexhmm_onehot
    assert lexhmm.n_states == 7  # seven emitting letter nodes, S=1
    start_arcs = [
        p for preds in lexhmm.preds for p in preds if p[0] == START
    ]
    assert len(start_arcs) == 3  # root fans out to 'a', 'b', 'c'


def test_single_word_chain():
    cfg = onehot_config(states=3)
    hmms = make_letter_hmms("a", cfg)
    lexhmm = one_word_lexhmm("a", hmms, cfg)
    assert lexhmm.n_states == 3
    assert lexhmm.finals == ((2, 0),)  # exit state of the chain, increment 0


def test_states_scale_with_config(toy_annotated):
    dawg, _suff, inc = toy_annotated
    cfg = onehot_config(states=2)
    hmms = make_letter_hmms("abcd", cfg)
    lexhmm = expand(dawg, inc, hmms, cfg)
    assert lexhmm.n_states == 2 * 7


@pytest.mark.parametrize("model_states, config_states", [(2, 3), (3, 2)])
def test_states_per_node_come_from_the_letter_models(model_states, config_states):
    dawg = build_dawg(Lexicon.from_words(["ab", "b"]))  # letter nodes a and b
    inc = annotate_increments(dawg, compute_suff(dawg))
    hmms = make_letter_hmms("ab", onehot_config(states=model_states))
    lexhmm = expand(dawg, inc, hmms, onehot_config(states=config_states))
    assert lexhmm.n_states == 2 * model_states
    assert lexhmm == expand(dawg, inc, hmms, onehot_config(states=model_states))


def test_cross_node_transition_carries_increment(toy_lexhmm_onehot):
    lexhmm, _cfg, _hmms = toy_lexhmm_onehot
    # The b -> c-after-b transition carries increment suff(a.)+suff(b.) = 2.
    dawg = lexhmm.automaton
    b = next(
        s for s in dawg.succs[dawg.root]
        if s != dawg.sink and dawg.labels[s] == "b" and len(dawg.succs[s]) == 3
    )
    c_after_b = dawg.succs[b][2]
    entry = lexhmm.state_node.index(c_after_b)
    b_exit = max(j for j, n in enumerate(lexhmm.state_node) if n == b)
    increments = [dp for src, _a, dp in unpacked_preds(lexhmm)[entry] if src == b_exit]
    assert increments == [2]


def test_intra_node_transitions_carry_zero(toy_annotated):
    dawg, _suff, inc = toy_annotated
    cfg = onehot_config(states=3)
    hmms = make_letter_hmms("abcd", cfg)
    lexhmm = expand(dawg, inc, hmms, cfg)
    for j, preds in enumerate(unpacked_preds(lexhmm)):
        for src, _a, dp in preds:
            if src != START and lexhmm.state_node[src] == lexhmm.state_node[j]:
                assert dp == 0


def test_decode_order_is_topological(toy_annotated):
    dawg, _suff, inc = toy_annotated
    cfg = onehot_config(states=2)
    hmms = make_letter_hmms("abcd", cfg)
    lexhmm = expand(dawg, inc, hmms, cfg)
    for j, preds in enumerate(lexhmm.preds):
        for src, _w in preds:
            if src != START and src != j:
                assert src < j


def test_decode_stats(toy_lexhmm_onehot):
    lexhmm, _cfg, _hmms = toy_lexhmm_onehot
    assert lexhmm.n_states == 7
    total = sum(len(p) for p in lexhmm.preds)
    assert total == 15
    assert total / lexhmm.n_states >= 1.0


def test_chain_mean_preds():
    cfg = onehot_config(states=10, alphabet="ab")
    hmms = make_letter_hmms("a", cfg)
    lexhmm = one_word_lexhmm("a", hmms, cfg)
    # k-state chain: self-loops everywhere, forward into all but the first,
    # one START arc: (2k - 1 + 1)/k = 2.
    assert sum(len(p) for p in lexhmm.preds) / lexhmm.n_states == pytest.approx(2.0)


def test_missing_letter_model_rejected(toy_annotated):
    dawg, _suff, inc = toy_annotated
    cfg = onehot_config()
    hmms = make_letter_hmms("abc", cfg)  # no model for 'd'
    with pytest.raises(ExpansionError):
        expand(dawg, inc, hmms, cfg)


def test_unannotated_automaton_rejected(toy_dawg):
    cfg = onehot_config()
    hmms = make_letter_hmms("abcd", cfg)
    with pytest.raises(ExpansionError):
        expand(toy_dawg, (), hmms, cfg)


def test_transition_scores_come_from_the_letter_models(toy_annotated):
    dawg, _suff, inc = toy_annotated
    hmms = make_letter_hmms("abcd", onehot_config(states=2, self_loop=0.3))
    lexhmm = expand(dawg, inc, hmms, onehot_config(states=2, self_loop=0.5))
    log_self, log_forward = grid_score(hmms["a"].self_cost), grid_score(hmms["a"].forward_cost)
    assert log_self != log_forward
    for j, preds in enumerate(unpacked_preds(lexhmm)):
        for src, log_a, _dp in preds:
            if src == START:
                assert log_a == 0.0
            else:
                assert log_a == (log_self if src == j else log_forward)
    # emissions holds one column per alphabet symbol, one entry per state.
    alphabet = onehot_config().alphabet
    assert set(lexhmm.emissions) == set(alphabet)
    assert all(len(col) == lexhmm.n_states for col in lexhmm.emissions.values())
    for j in range(lexhmm.n_states):
        letter = dawg.labels[lexhmm.state_node[j]]
        row = [lexhmm.emissions[s][j] for s in alphabet]
        assert [unpack(lexhmm, e) for e in row] == [(grid_score(c), 0) for c in hmms[letter].emission_costs[0]]
    # A symbol no letter uses still gets a column, impossible at every state.
    cfg = onehot_config(alphabet="abcdz")
    lexhmm = expand(dawg, inc, make_letter_hmms("abcd", cfg), cfg)
    assert set(lexhmm.emissions) == set(cfg.alphabet)
    assert lexhmm.emissions["z"] == (math.inf,) * lexhmm.n_states
