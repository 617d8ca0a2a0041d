"""Perfect Path History coding: suff counts, per-arc increments, encode/decode.

Full root-to-sink paths map bijectively onto integers in [0, W-1], in DFS
completion order under the canonical successor ordering.  A path's index is
the sum of the per-arc increments it crosses, where the increment of a node's
i-th arc is the sum of suff over the earlier siblings.
"""

from __future__ import annotations

from typing import Sequence

from .automaton import AutomatonError, NodeAutomaton


class PphError(ValueError):
    """A word outside the automaton, or an invalid path-index value."""


def compute_suff(automaton: NodeAutomaton) -> tuple[int, ...]:
    """Number of distinct node-to-sink paths, per node.

    One pass over the ids in decreasing order, which is reverse topological;
    suff(sink) = 1, suff(root) = W.
    """
    succs = automaton.succs
    suff = [0] * len(succs)
    suff[-1] = 1
    for node in range(len(succs) - 2, -1, -1):
        total = 0
        for s in succs[node]:
            total += suff[s]
        suff[node] = total
    if suff[0] != automaton.word_count:
        raise AutomatonError(
            f"suff(root)={suff[0]} does not match word count "
            f"{automaton.word_count}"
        )
    return tuple(suff)


def annotate_increments(
    automaton: NodeAutomaton, suff: Sequence[int]
) -> tuple[tuple[int, ...], ...]:
    """Per-arc path-index increments, cached parallel to the successor lists."""
    out = []
    for node in range(automaton.node_count):
        acc = 0
        row = []
        for s in automaton.succs[node]:
            row.append(acc)
            acc += suff[s]
        out.append(tuple(row))
    return tuple(out)


def encode_word(
    automaton: NodeAutomaton,
    increments: Sequence[Sequence[int]],
    word: str,
) -> int:
    """Path index of a lexicon word (its full path, sink arc included)."""
    node, sink = automaton.root, automaton.sink
    value = 0
    for ch in word:
        for pos, s in enumerate(automaton.succs[node]):
            if s != sink and automaton.labels[s] == ch:
                value += increments[node][pos]
                node = s
                break
        else:
            raise PphError(f"word {word!r} is not in the automaton")
    try:
        pos = automaton.succs[node].index(sink)
    except ValueError:
        raise PphError(f"word {word!r} is not in the automaton") from None
    return value + increments[node][pos]


def decode_pph(
    automaton: NodeAutomaton, suff: Sequence[int], value: int
) -> str:
    """Reconstruct the unique word whose full-path index equals value.

    At each node, pick the last successor whose cumulative offset is <= the
    remaining value; cost is linear in the path length.
    """
    w = automaton.word_count
    if not 0 <= value < w:
        raise PphError(f"path index {value} outside [0, {w - 1}]")
    node, sink = automaton.root, automaton.sink
    letters: list[str] = []
    remaining = value
    while node != sink:
        acc = 0
        for s in automaton.succs[node]:
            if remaining < acc + suff[s]:
                remaining -= acc
                node = s
                if node != sink:
                    letters.append(automaton.labels[node])
                break
            acc += suff[s]
        else:  # pragma: no cover - impossible for consistent suff
            raise PphError("inconsistent suff counts during decode")
    return "".join(letters)
