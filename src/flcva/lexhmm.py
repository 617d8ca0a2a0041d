"""Lexicon-HMM expansion: flatten a node-automaton plus letter models into one
global state graph with predecessor lists and path-index increments on
cross-node transitions, its states numbered in topological order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .automaton import NodeAutomaton, build_trie, Lexicon
from .hmm import HmmConfig, LetterHMM
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
    finals holds (exit state, sink-arc pph increment).
    """

    automaton: NodeAutomaton
    suff: tuple[int, ...]
    state_node: tuple[int, ...]
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


def expand(
    automaton: NodeAutomaton,
    increments: Sequence[Sequence[int]],
    letter_hmms: dict[str, LetterHMM],
    config: HmmConfig,
) -> LexiconHMM:
    """Instantiate each emitting automaton node as its letter's HMM states.

    Root and sink are collapsed: root arcs become START-fed entries scoring
    0.0, sink arcs mark final states.  Every transition score is read from
    the letter models; a cross-node transition scores its source letter's
    forward step and carries the arc's path-index increment.
    """
    if len(increments) != automaton.node_count:
        raise ExpansionError("automaton is not annotated with increments")
    s_per = config.states_per_letter
    emitting = sorted(
        (n for n in range(automaton.node_count)
         if n not in (automaton.root, automaton.sink)),
        key=lambda n: automaton.topo_index[n],
    )
    for node in emitting:
        if automaton.labels[node] not in letter_hmms:
            raise ExpansionError(f"no letter model for {automaton.labels[node]!r}")
    base = {node: i * s_per for i, node in enumerate(emitting)}

    # Incoming cross-node transitions, collected in topological arc order.
    entry_preds: dict[int, list] = {node: [] for node in emitting}
    finals: list = []
    for x in sorted(range(automaton.node_count), key=lambda n: automaton.topo_index[n]):
        if x == automaton.sink:
            continue
        if x == automaton.root:
            src_state, cross_w = START, 0.0
        else:
            src_state = base[x] + s_per - 1
            cross_w = letter_hmms[automaton.labels[x]].log_forward
        for pos, y in enumerate(automaton.succs[x]):
            dpph = increments[x][pos]
            if y == automaton.sink:
                # no forward-release score on exit: letter models built from
                # one config give every word the same one, and keeping the
                # final score equal to the token score makes the tie-break
                # order identical at every comparison point regardless of
                # rounding
                finals.append((src_state, dpph))
            else:
                entry_preds[y].append((src_state, cross_w, dpph))

    state_node: list[int] = []
    emit_rows: list = []
    preds: list = []
    for node in emitting:
        hmm = letter_hmms[automaton.labels[node]]
        for k in range(s_per):
            j = base[node] + k
            state_node.append(node)
            emit_rows.append(hmm.log_emissions[k])
            lst: list = []
            if k == 0:
                lst.extend(entry_preds[node])
            else:
                lst.append((j - 1, hmm.log_forward, 0))
            lst.append((j, hmm.log_self, 0))
            preds.append(tuple(lst))

    suff = compute_suff(automaton)
    return LexiconHMM(
        automaton=automaton,
        suff=suff,
        state_node=tuple(state_node),
        preds=tuple(preds),
        emit_rows=tuple(emit_rows),
        symbols=config.alphabet,
        finals=tuple(finals),
    )


def word_linear_hmm(
    word: str,
    letter_hmms: dict[str, LetterHMM],
    config: HmmConfig,
) -> LexiconHMM:
    """Lexicon HMM of the single-word lexicon {word}; all increments are 0."""
    if not word:
        raise ExpansionError("word must be non-empty")
    auto = build_trie(Lexicon.from_words([word]))
    increments = annotate_increments(auto, compute_suff(auto))
    return expand(auto, increments, letter_hmms, config)
