"""Lexicon-HMM expansion: flatten a node-automaton plus letter models into one
global state graph with predecessor lists and path-index increments on
cross-node transitions, its states numbered in topological order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .automaton import NodeAutomaton, build_trie, Lexicon
from .hmm import HmmConfig, LetterHMM, grid_cost
from .pph import annotate_increments, compute_suff

START = -1  # virtual start state, active only at time 0


class ExpansionError(ValueError):
    """Missing letter models or unannotated automaton."""


@dataclass
class LexiconHMM:
    """Flat lexicon HMM; immutable after expansion.

    States are numbered in topological order: automaton nodes laid out by
    id, which is topological, letter-HMM states left-to-right within each
    node, so every non-self transition goes from a lower to a higher index.

    Scores are packed into plain ints, `cost << pph_bits | pph`, where cost
    is the grid_cost of a log score (its negation in 2^-32 grid units) and
    pph a path index in [0, W), held in pph_bits = (W - 1).bit_length() bits.
    Int order is then rank order (lower cost first, ties to the smaller
    pph), and adding two packed values adds costs and pphs separately,
    since no path prefix has a pph above W - 1.  math.inf packs an
    impossible score.  preds[j] holds (source state or START, packed
    transition: its cost and the arc's pph increment); emit_rows[j] holds
    the packed emission costs (pph 0) of state j's letter model, one per
    symbol; finals holds (exit state, sink-arc pph increment).
    n_arcs is the total length of the preds lists.
    """

    automaton: NodeAutomaton
    suff: tuple[int, ...]
    state_node: tuple[int, ...]
    preds: tuple
    emit_rows: tuple
    finals: tuple
    symbol_index: dict
    pph_bits: int
    n_arcs: int

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
    forward step and carries the arc's path-index increment.  The
    increments must be the automaton's own annotation, which keeps every
    pph prefix below W.

    One walk over the node ids, which are topological, lays out the states:
    every predecessor of a node comes before it, so the node's entry list is
    complete when the walk reaches it.  Each letter model's scores are
    packed once.
    """
    if len(increments) != automaton.node_count:
        raise ExpansionError("automaton is not annotated with increments")
    labels, sink = automaton.labels, automaton.sink
    bits = (automaton.word_count - 1).bit_length()

    packed_scores: dict = {}  # log score -> packed cost; models share few values

    def pack(log_p: float):
        w = packed_scores.get(log_p)
        if w is None:
            cost = grid_cost(log_p)
            w = packed_scores[log_p] = cost if cost == math.inf else cost << bits
        return w

    packed: dict = {}  # letter -> (self weight, forward weight, emission rows)
    entries: list = [[] for _ in labels]  # incoming cross-node transitions
    finals: list = []
    state_node: list[int] = []
    emit_rows: list = []
    preds: list = []
    for x in range(sink):
        if x == automaton.root:
            exit_state, cross_w = START, 0
        else:
            model = packed.get(labels[x])
            if model is None:
                hmm = letter_hmms.get(labels[x])
                if hmm is None:
                    raise ExpansionError(f"no letter model for {labels[x]!r}")
                model = packed[labels[x]] = (
                    pack(hmm.log_self), pack(hmm.log_forward),
                    tuple(tuple(map(pack, row)) for row in hmm.log_emissions))
            w_self, cross_w, rows = model
            first = len(preds)
            for k, row in enumerate(rows):
                state_node.append(x)
                emit_rows.append(row)
                lst = entries[x] if k == 0 else [(first + k - 1, cross_w)]
                lst.append((first + k, w_self))
                preds.append(tuple(lst))
            exit_state = len(preds) - 1
        for y, dpph in zip(automaton.succs[x], increments[x]):
            if y == sink:
                # no forward-release score on exit: letter models built from
                # one config give every word the same one, and keeping the
                # final score equal to the token score makes the tie-break
                # order identical at every comparison point regardless of
                # rounding
                finals.append((exit_state, dpph))
            else:
                entries[y].append((exit_state, cross_w + dpph))  # inf stays inf

    return LexiconHMM(
        automaton=automaton,
        suff=compute_suff(automaton),
        state_node=tuple(state_node),
        preds=tuple(preds),
        emit_rows=tuple(emit_rows),
        finals=tuple(finals),
        symbol_index={s: i for i, s in enumerate(config.alphabet)},
        pph_bits=bits,
        n_arcs=sum(map(len, preds)),
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
