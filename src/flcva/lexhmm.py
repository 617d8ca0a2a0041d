"""Lexicon-HMM expansion: flatten a node-automaton plus letter models into one
global state graph with predecessor lists and path-index increments on
cross-node transitions, its states numbered in topological order.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    finals: tuple
    symbol_index: dict

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

    One walk in topological order lays out the states: every predecessor
    of a node comes before it, so the node's entry list is complete when
    the walk reaches it.
    """
    if len(increments) != automaton.node_count:
        raise ExpansionError("automaton is not annotated with increments")
    s_per = config.states_per_letter
    labels = automaton.labels
    entries: list = [[] for _ in labels]  # incoming cross-node transitions
    finals: list = []
    state_node: list[int] = []
    emit_rows: list = []
    preds: list = []
    for x in sorted(range(automaton.node_count), key=automaton.topo_index.__getitem__):
        if x == automaton.sink:
            continue
        if x == automaton.root:
            exit_state, cross_w = START, 0.0
        else:
            hmm = letter_hmms.get(labels[x])
            if hmm is None:
                raise ExpansionError(f"no letter model for {labels[x]!r}")
            first = len(preds)
            for k in range(s_per):
                state_node.append(x)
                emit_rows.append(hmm.log_emissions[k])
                lst = entries[x] if k == 0 else [(first + k - 1, hmm.log_forward, 0)]
                lst.append((first + k, hmm.log_self, 0))
                preds.append(tuple(lst))
            exit_state, cross_w = len(preds) - 1, hmm.log_forward
        for y, dpph in zip(automaton.succs[x], increments[x]):
            if y == automaton.sink:
                # no forward-release score on exit: letter models built from
                # one config give every word the same one, and keeping the
                # final score equal to the token score makes the tie-break
                # order identical at every comparison point regardless of
                # rounding
                finals.append((exit_state, dpph))
            else:
                entries[y].append((exit_state, cross_w, dpph))

    return LexiconHMM(
        automaton=automaton,
        suff=compute_suff(automaton),
        state_node=tuple(state_node),
        preds=tuple(preds),
        emit_rows=tuple(emit_rows),
        finals=tuple(finals),
        symbol_index={s: i for i, s in enumerate(config.alphabet)},
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
