"""Lexicon-HMM expansion: flatten a node-automaton plus letter models into one
global state graph with predecessor lists and path-index increments on
cross-node transitions, its states numbered in topological order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from .automaton import NodeAutomaton, build_trie, Lexicon
from .hmm import NEG_INF, HmmConfig, LetterHMM, quantize_log
from .pph import annotate_increments, compute_suff

START = -1  # virtual start state, active only at time 0


class ExpansionError(ValueError):
    """Missing letter models or unannotated automaton."""


@dataclass
class LexiconHMM:
    """Flat lexicon HMM; immutable after expansion.

    States are numbered in topological order: automaton nodes laid out in
    topological order, letter-HMM states left-to-right within each node, so
    every non-self transition goes from a lower to a higher index.
    preds[j] holds (source state or START, log transition, pph increment).
    finals holds (exit state, exit log weight, sink-arc pph increment).
    """

    automaton: NodeAutomaton
    suff: tuple[int, ...]
    state_node: tuple[int, ...]
    state_letter: tuple[str, ...]
    preds: tuple
    emit_rows: tuple
    symbols: tuple[str, ...]
    finals: tuple
    symbol_index: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.symbol_index:
            self.symbol_index = {s: i for i, s in enumerate(self.symbols)}

    @property
    def n_states(self) -> int:
        return len(self.state_node)


@dataclass(frozen=True)
class DecodeStats:
    n_states: int
    mean_preds: float  # (1/N) sum |pred(j)|, self-loops included
    obs_len: int


def expand(
    automaton: NodeAutomaton,
    increments: Sequence[Sequence[int]],
    letter_hmms: dict[str, LetterHMM],
    config: HmmConfig,
    routing: str = "none",
) -> LexiconHMM:
    """Instantiate each emitting automaton node as its letter's HMM states.

    Root and sink are collapsed: root arcs become START-fed entries, sink
    arcs mark final states.  Cross-node transitions carry the arc's
    path-index increment; routing="stochastic" adds -log(out-degree) on
    them, the default adds nothing (pure lexical constraint).
    """
    if len(increments) != automaton.node_count:
        raise ExpansionError("automaton is not annotated with increments")
    if routing not in ("none", "stochastic"):
        raise ExpansionError(f"unknown routing mode {routing!r}")
    s_per = config.states_per_letter
    log_self = (
        quantize_log(math.log(config.self_loop_prob))
        if config.self_loop_prob > 0
        else NEG_INF
    )
    log_fwd = quantize_log(math.log(1.0 - config.self_loop_prob))

    def route_w(node: int) -> float:
        if routing == "stochastic":
            return quantize_log(-math.log(len(automaton.succs[node])))
        return 0.0

    emitting = sorted(
        (n for n in range(automaton.node_count)
         if n not in (automaton.root, automaton.sink)),
        key=lambda n: automaton.topo_index[n],
    )
    base = {node: i * s_per for i, node in enumerate(emitting)}

    state_node: list[int] = []
    state_letter: list[str] = []
    emit_rows: list = []
    for node in emitting:
        letter = automaton.labels[node]
        hmm = letter_hmms.get(letter)
        if hmm is None:
            raise ExpansionError(f"no letter model for {letter!r}")
        for k in range(s_per):
            state_node.append(node)
            state_letter.append(letter)
            emit_rows.append(hmm.log_emissions[k])

    # Incoming cross-node transitions, collected in topological arc order.
    entry_preds: dict[int, list] = {node: [] for node in emitting}
    finals: list = []
    for x in sorted(range(automaton.node_count), key=lambda n: automaton.topo_index[n]):
        if x == automaton.sink:
            continue
        cross_w = route_w(x) if x == automaton.root else log_fwd + route_w(x)
        src_state = START if x == automaton.root else base[x] + s_per - 1
        for pos, y in enumerate(automaton.succs[x]):
            dpph = increments[x][pos]
            if y == automaton.sink:
                # harvest weight excludes the forward-release factor: it is
                # the same constant for every word, and keeping the final
                # score equal to the token score makes the tie-break order
                # identical at every comparison point regardless of rounding
                finals.append((src_state, route_w(x), dpph))
            else:
                entry_preds[y].append((src_state, cross_w, dpph))

    preds: list = []
    for node in emitting:
        for k in range(s_per):
            j = base[node] + k
            lst: list = []
            if k == 0:
                lst.extend(entry_preds[node])
            else:
                lst.append((j - 1, log_fwd, 0))
            lst.append((j, log_self, 0))
            preds.append(tuple(lst))

    suff = compute_suff(automaton)
    return LexiconHMM(
        automaton=automaton,
        suff=suff,
        state_node=tuple(state_node),
        state_letter=tuple(state_letter),
        preds=tuple(preds),
        emit_rows=tuple(emit_rows),
        symbols=config.alphabet,
        finals=tuple(finals),
    )


def word_linear_hmm(
    word: str,
    letter_hmms: dict[str, LetterHMM],
    config: HmmConfig,
    routing: str = "none",
) -> LexiconHMM:
    """Lexicon HMM of the single-word lexicon {word}; all increments are 0."""
    if not word:
        raise ExpansionError("word must be non-empty")
    auto = build_trie(Lexicon.from_words([word]))
    increments = annotate_increments(auto, compute_suff(auto))
    return expand(auto, increments, letter_hmms, config, routing=routing)


def decode_stats(lexhmm: LexiconHMM, obs_len: int) -> DecodeStats:
    n = lexhmm.n_states
    total = sum(len(p) for p in lexhmm.preds)
    return DecodeStats(n_states=n, mean_preds=total / n, obs_len=obs_len)


def dump_states(lexhmm: LexiconHMM) -> str:
    """Debug listing: one state per line (index, node id, letter, pred count)."""
    lines = [
        f"{j} {lexhmm.state_node[j]} {lexhmm.state_letter[j]} {len(lexhmm.preds[j])}"
        for j in range(lexhmm.n_states)
    ]
    return "\n".join(lines) + ("\n" if lines else "")
