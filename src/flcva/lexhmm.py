"""Lexicon-HMM expansion: flatten a node-automaton plus letter models into one
global state graph with predecessor lists and path-index increments on
cross-node transitions, its states numbered in topological order.  The
graph's time window (reach tables and per-frame window lists), which the
decoders read, is computed here too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate
from typing import Sequence

from .automaton import NodeAutomaton
from .hmm import HmmConfig, LetterHMM
from .pph import compute_suff

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
    is a letter model's grid cost (a negated log score in 2^-32 grid units)
    and pph a path index in [0, W), held in pph_bits = (W - 1).bit_length()
    bits.  Int order is then rank order (lower cost first, ties to the smaller
    pph), and adding two packed values adds costs and pphs separately,
    since no path prefix has a pph above W - 1.  math.inf packs an
    impossible score.  preds[j] holds (source state or START, packed
    transition: its cost and the arc's pph increment); emissions[s][j] is
    state j's packed emission cost (pph 0) for symbol s, so a frame reads
    one column emissions[s]; finals holds (exit state, sink-arc pph
    increment).  expand appends a state's self-loop last, so preds[j][-1] is
    (j, its packed self-loop weight) and no earlier entry of preds[j] names
    j.
    n_arcs is the total length of the preds lists.  reach, the time window's
    tables, relax, the relaxation entries (j, self-loop weight,
    preds[j][:-1]) of every state, and the lane decoder's emission_rows and
    largest_costs are computed on first use and are not fields; windows and
    lane_table keep their last results in fields left out of ==, so ==
    compares the expansion only.
    """

    automaton: NodeAutomaton
    suff: tuple[int, ...]
    state_node: tuple[int, ...]
    preds: tuple
    emissions: dict
    finals: tuple
    pph_bits: int
    n_arcs: int
    _windows: tuple = field(default=(), init=False, repr=False, compare=False)
    _lane_table: tuple = field(default=(), init=False, repr=False, compare=False)

    @property
    def n_states(self) -> int:
        return len(self.state_node)

    @cached_property
    def reach(self) -> tuple[list, list, list]:
        """reach_tables(self), computed once per HMM, by the first decode
        that reads a time window, and shared read-only by every later one."""
        return reach_tables(self)

    @cached_property
    def relax(self) -> tuple:
        """Each state's relaxation entry (j, self-loop weight, its other
        predecessors preds[j][:-1]), by state; built once per HMM, so a
        kernel starts state j from its own token plus its self-loop and
        scans the other predecessors only."""
        return tuple((j, preds_j[-1][1], preds_j[:-1]) for j, preds_j in enumerate(self.preds))

    @cached_property
    def emission_rows(self) -> tuple[tuple, tuple]:
        """(row, rows): rows holds the distinct emission rows, each a dict
        from symbol to packed emission, and row[j] is the index of state j's
        in rows.  A letter model's states share few rows, so a frame's
        emissions take one value per row, not one per state."""
        index: dict = {}
        row = tuple(index.setdefault(r, len(index)) for r in zip(*self.emissions.values()))
        return row, tuple(dict(zip(self.emissions, r)) for r in index)

    @cached_property
    def largest_costs(self) -> tuple[int, int]:
        """(the largest finite packed transition, the largest finite packed
        emission), 0 for none."""
        inf = math.inf
        return (max((w for preds_j in self.preds for _i, w in preds_j if w != inf), default=0),
                max((e for col in self.emissions.values() for e in col if e != inf), default=0))

    def lane_table(self, ones: int, dead: int) -> list:
        """Each state's relaxation entry with every weight spread over
        lanes, as (emission row, self-loop weight, ((i, weight), ...)), by
        state: a packed weight w becomes w * ones and math.inf becomes
        dead * ones (see decode.decode_lanes).  Kept for the last (ones,
        dead) asked for, like windows; weights repeat, so each distinct one
        is multiplied once."""
        if not self._lane_table or self._lane_table[0] != (ones, dead):
            spread: dict = {}

            def lanes(w):
                k = spread.get(w)
                if k is None:
                    k = spread[w] = (dead if w == math.inf else w) * ones
                return k

            table = [(r, lanes(loop), tuple((i, lanes(w)) for i, w in others))
                     for r, (_j, loop, others) in zip(self.emission_rows[0], self.relax)]
            self._lane_table = ((ones, dead), table)
        return self._lane_table[1]

    def windows(self, n_frames: int) -> list:
        """window_lists(self, n_frames), kept for the last n_frames asked
        for: the sequences of a file of one length share one set of lists,
        and no more than one set is held."""
        if not self._windows or self._windows[0] != n_frames:
            self._windows = (n_frames, window_lists(self, n_frames))
        return self._windows[1]


def reach_tables(lexhmm: LexiconHMM) -> tuple[list, list, list]:
    """(d, e, succ): d[j] is the first frame (from 0) at which state j can
    hold a token, e[j] the fewest frames from j to an exit state, math.inf
    for none, and succ[i] the states whose preds name i; all three follow
    the graph's arcs, whatever their scores, math.inf ones and self-loops
    included.

    One forward and one backward pass over the states, which are numbered
    in topological order.  Each list is built with a trailing START slot,
    as tokens have: d's holds -1, so a START-fed state gets d = 0, and e's
    takes the backward pass's writes to START; d and e are returned without
    theirs, and succ's lists the START-fed states.  The tables depend on the
    graph only, so decoders read them once per HMM, as LexiconHMM.reach, and
    never change them.
    """
    preds = lexhmm.preds
    d = [math.inf] * len(preds) + [-1]
    for j, preds_j in enumerate(preds):
        first = math.inf
        for i, _w in preds_j:
            if i != j and d[i] < first:
                first = d[i]
        d[j] = first + 1
    e = [math.inf] * (len(preds) + 1)
    for f, _dpph in lexhmm.finals:
        e[f] = 0
    succ: list = [[] for _ in range(len(preds) + 1)]
    for j in range(len(preds) - 1, -1, -1):
        step = e[j] + 1
        for i, _w in preds[j]:
            succ[i].append(j)
            if i != j and step < e[i]:
                e[i] = step
    return d[:-1], e[:-1], succ


def window_lists(lexhmm: LexiconHMM, n_frames: int) -> list:
    """Each of n_frames frames' time window as (states, visits): states
    lists the relaxation entry (j, self-loop weight, preds[j][:-1]) (see
    LexiconHMM.relax) of every state j with d(j) <= t <= T - 1 - e(j) at
    frame t of T = n_frames (see reach_tables), in reverse state order, and
    visits is the total length of those states' preds lists, self-loops
    included.

    Outside its window a state holds no token yet (t < d(j)) or feeds only
    states past their own windows (t > T - 1 - e(j)), so a relaxation of
    the windows alone gives every windowed state the token a full
    relaxation would.  The frames from D to T - 1 - E, D the largest d and
    E the largest e, hold every state: they share one list, so the lists
    take memory for at most D + E + 1 frames, however long the sequence.
    """
    d, e, _succ = lexhmm.reach
    top_d, top_e = max(d, default=0), max(e, default=0)  # math.inf: no sharing
    span = top_d + top_e + 1
    if n_frames > span:
        # Frames top_d .. n_frames - 1 - top_e share one list; the others are
        # those of a span-frame sequence.
        short = window_lists(lexhmm, span)
        return short[:top_d] + short[top_d:top_d + 1] * (n_frames - span + 1) + short[top_d + 1:]
    lists: list = [[] for _ in range(n_frames)]
    change = [0] * (n_frames + 1)  # visits by differences: + from d(j), - past T - 1 - e(j)
    for entry, dj, ej in zip(reversed(lexhmm.relax), reversed(d), reversed(e)):
        if dj + ej < n_frames:  # else no path through j fits in T, or none exists
            for t in range(dj, n_frames - ej):
                lists[t].append(entry)
            visits = len(entry[2]) + 1  # the self-loop is a visit too
            change[dj] += visits
            change[n_frames - ej] -= visits
    return list(zip(lists, accumulate(change)))


def expand(
    automaton: NodeAutomaton,
    increments: Sequence[Sequence[int]],
    letter_hmms: dict[str, LetterHMM],
    config: HmmConfig,
) -> LexiconHMM:
    """Instantiate each emitting automaton node as its letter's HMM states.

    Root and sink are collapsed: root arcs become START-fed entries costing
    0, sink arcs mark final states.  Every transition score is read from
    the letter models; a cross-node transition scores its source letter's
    forward step and carries the arc's path-index increment.  The
    increments must be the automaton's own annotation, which keeps every
    pph prefix below W.

    One walk over the node ids, which are topological, lays out the states:
    every predecessor of a node comes before it, so the node's entry list is
    complete when the walk reaches it.  Each letter model's costs are
    packed once.
    """
    if len(increments) != automaton.node_count:
        raise ExpansionError("automaton is not annotated with increments")
    labels, sink = automaton.labels, automaton.sink
    bits = (automaton.word_count - 1).bit_length()

    def pack(cost):
        return cost if cost == math.inf else cost << bits

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
                    pack(hmm.self_cost), pack(hmm.forward_cost),
                    tuple(tuple(map(pack, row)) for row in hmm.emission_costs))
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
        emissions=dict(zip(config.alphabet, zip(*emit_rows))),
        finals=tuple(finals),
        pph_bits=bits,
        n_arcs=sum(map(len, preds)),
    )
