"""Lexicon node-automata: trie and incremental DAWG construction, DAWG
minimization (the reference), serialization.

Nodes carry letter labels; the root and the shared sink are unlabeled and
structural.  Successor lists are kept in canonical order: letter arcs
ascending by letter, the arc to the sink last.  This ordering is what makes
path indexing (see pph.py) deterministic.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from itertools import count
from typing import Iterable, Iterator

ROOT_LABEL = "ROOT"
SINK_LABEL = "SINK"

FORMAT_VERSION = "flcva-automaton-v1"


class AutomatonError(ValueError):
    """Invalid lexicon input or malformed automaton structure."""


@dataclass(frozen=True)
class Lexicon:
    """Deduplicated, sorted word list."""

    words: tuple[str, ...]

    @classmethod
    def from_words(cls, words: Iterable[str]) -> "Lexicon":
        seen = set(words)
        if "" in seen:
            raise AutomatonError("empty word is not allowed in a lexicon")
        # The automaton file is whitespace-delimited; one split of all the
        # words joined finds any whitespace without a per-word loop.
        joined = "".join(seen)
        if seen and joined.split() != [joined]:
            bad = min(w for w in seen if w.split() != [w])
            raise AutomatonError(f"word {bad!r} contains whitespace")
        return cls(tuple(sorted(seen)))

    @property
    def word_count(self) -> int:
        return len(self.words)


@dataclass(frozen=True)
class NodeAutomaton:
    """Rooted DAG of letter-labeled nodes with a common sink.

    Node ids are a topological order: the root is node 0, the sink the last
    node, and every arc goes from a lower to a higher id.
    labels[i] is the letter of node i, or None for root/sink.
    succs[i] is the canonical-order successor id tuple of node i.
    """

    labels: tuple
    succs: tuple
    word_count: int

    root = 0

    @property
    def sink(self) -> int:
        return len(self.labels) - 1

    @property
    def node_count(self) -> int:
        return len(self.labels)

    @property
    def arc_count(self) -> int:
        return sum(len(s) for s in self.succs)

    def arcs(self) -> Iterator[tuple[int, int]]:
        """All arcs as (src, dst), grouped by src, in canonical succ order."""
        for src, lst in enumerate(self.succs):
            for dst in lst:
                yield src, dst


def read_wordlist(text: str) -> Lexicon:
    """Parse a UTF-8 word list: one word per line, blank lines ignored."""
    # only "\n" ends a line: str.splitlines would also break a word at a
    # form feed or another Unicode line boundary, which is whitespace inside it
    words = [line.strip() for line in text.split("\n")]
    return Lexicon.from_words(w for w in words if w)


def _finalize(labels, succs, word_count) -> NodeAutomaton:
    """The automaton with these nodes, whose ids must be topological.

    Every arc must go to a higher id, which rules out cycles, and every node
    but the root 0 must have an arc in, so the root reaches every node.
    """
    entered = [False] * len(labels)
    for src, lst in enumerate(succs):
        for dst in lst:
            if dst <= src:
                raise AutomatonError(f"arc {src} -> {dst} does not go to a higher node id")
            entered[dst] = True
    if False in entered[1:]:
        raise AutomatonError(f"node {entered.index(False, 1)} is unreachable from the root")
    return NodeAutomaton(
        labels=tuple(labels),
        succs=tuple(tuple(s) for s in succs),
        word_count=word_count,
    )


def _freeze_words(lexicon: Lexicon, intern) -> None:
    """Freeze each node of the words' trie through intern, successors first.

    Daciuk, Mihov, Watson and Watson (Computational Linguistics 26(1), 2000):
    only the previous word's path is open; when the next word leaves it, the
    nodes past the common prefix are frozen deepest first.  A frozen node's
    id is intern((label, successor ids)); the sink is 0, and the root, the
    only unlabeled key, is interned last.  The words must be strictly
    ascending, as Lexicon.from_words keeps them.
    """
    if lexicon.word_count == 0:
        raise AutomatonError("cannot build an automaton from an empty lexicon")
    # The open path: [label, successor ids, ends a word] per prefix, root first.
    path: list = [[None, [], False]]

    def freeze(depth: int) -> None:
        for _ in range(len(path) - depth):
            label, children, final = path.pop()
            if final:
                children.append(0)  # the sink, after every letter arc
            path[-1][1].append(intern((label, tuple(children))))

    prev = ""
    for w in lexicon.words:
        if w <= prev:
            raise AutomatonError(
                f"lexicon words must be non-empty and strictly ascending: {w!r} after {prev!r}"
            )
        k = 0
        for a, b in zip(prev, w):
            if a != b:
                break
            k += 1
        freeze(k + 1)
        path.extend([ch, [], False] for ch in w[k:])
        path[-1][2] = True
        prev = w
    freeze(1)
    intern((None, tuple(path[0][1])))


def _numbered(interned, word_count: int) -> NodeAutomaton:
    """The automaton of the interned (label, successor ids) keys, their ids
    counting up from 1 in interning order and the sink 0.  Each node is
    interned after its successors, so reverse interning order is topological.
    """
    last = len(interned)
    nodes = [*reversed(interned), (None, ())]
    return _finalize([label for label, _ in nodes],
                     [[last - c for c in kids] for _, kids in nodes], word_count)


def build_trie(lexicon: Lexicon) -> NodeAutomaton:
    """Build the trie node-automaton with a single shared sink.

    One node per distinct word prefix; every word end routes to the sink.
    Every frozen node is a new node, so ids are in reverse freeze order.
    """
    nodes: list = []

    def new_node(key) -> int:
        nodes.append(key)
        return len(nodes)

    _freeze_words(lexicon, new_node)
    return _numbered(nodes, lexicon.word_count)


def build_dawg(lexicon: Lexicon) -> NodeAutomaton:
    """Build the minimal node-automaton (DAWG) straight from the sorted words.

    The walk of build_trie, but a frozen node equal to one in the register
    (same label, same successors) is replaced by it, so the trie is never
    built.  The result equals minimize(build_trie(lexicon)).
    """
    register = defaultdict(count(1).__next__)  # (label, successor ids) -> id
    _freeze_words(lexicon, register.__getitem__)
    return _numbered(register, lexicon.word_count)


def minimize(trie: NodeAutomaton) -> NodeAutomaton:
    """Merge nodes with equal letter label and equal right language.

    Hash-conses each node on (label, successor representative ids) into
    build_dawg's register, in decreasing id order, which is reverse
    topological; a trie's decreasing ids are its freeze order, so the result
    equals build_dawg's.  This is the reference that build_dawg must match,
    and the benchmark's traced trie-then-minimize set-up.
    """
    register = defaultdict(count(1).__next__)
    rep = [0] * trie.node_count  # the sink stands for itself
    for node in reversed(range(trie.sink)):
        rep[node] = register[(trie.labels[node], tuple([rep[s] for s in trie.succs[node]]))]
    return _numbered(register, trie.word_count)


def serialize_automaton(
    automaton: NodeAutomaton, suff: tuple[int, ...], increments: tuple
) -> str:
    """Versioned structured-text serialization; byte-exact round trip.

    Node lines carry the node's topological rank, which is its id, and
    suff; arc lines the delta-PPH increment (see pph.py).
    """
    lines = [
        FORMAT_VERSION,
        f"NODES {automaton.node_count} ARCS {automaton.arc_count} "
        f"WORDS {automaton.word_count}",
    ]
    names = (ROOT_LABEL, *automaton.labels[1:-1], SINK_LABEL)
    for i, (label, paths) in enumerate(zip(names, suff)):
        lines.append(f"node {i} {label} {i} {paths}")
    for src in range(automaton.node_count):
        for dst, inc in zip(automaton.succs[src], increments[src]):
            lines.append(f"arc {src} {dst} {inc}")
    return "\n".join(lines) + "\n"


def parse_automaton(text: str):
    """Inverse of serialize_automaton; returns (automaton, suff, increments).

    Only the structure is read: each node's label, by the position of its
    line, and each arc's two ends.  ROOT must be the first node and SINK the
    last.  The automaton goes through the same constructor as build_trie and
    build_dawg, so an arc to a lower or equal id (every cycle has one) and a
    node unreachable from ROOT are rejected; so is a node that cannot reach
    SINK.  Each node's arcs must be in canonical order (letters strictly
    ascending, then at most one sink arc), or path indices would stop being
    lexicographic ranks.  The file then loads only if its lines equal those
    serialize_automaton writes for the rebuilt automaton, so a stored id,
    suff or increment that does not match, a reordered line, a reformatted
    field or trailing text fails here instead of decoding to a wrong word.
    Line endings and a missing final newline do not matter.
    """
    lines = text.splitlines()
    if not lines or lines[0] != FORMAT_VERSION:
        raise AutomatonError("unrecognized automaton format version")
    header = lines[1].split() if len(lines) > 1 else []
    if len(header) != 6 or header[::2] != ["NODES", "ARCS", "WORDS"]:
        raise AutomatonError("malformed automaton header")
    try:
        n, n_arcs, w = map(int, header[1::2])
    except ValueError:
        raise AutomatonError(f"automaton header counts are not integers: {lines[1]!r}") from None
    if n < 2 or n_arcs < 0:
        raise AutomatonError("automaton header needs NODES >= 2 and ARCS >= 0")
    node_lines = lines[2 : 2 + n]
    arc_lines = lines[2 + n : 2 + n + n_arcs]
    if len(node_lines) != n or len(arc_lines) != n_arcs:
        raise AutomatonError("truncated automaton file")

    labels: list = []
    for line in node_lines:
        parts = line.split()
        if len(parts) != 5 or parts[0] != "node":
            raise AutomatonError(f"malformed node line: {line!r}")
        labels.append(parts[2])
    if labels[0] != ROOT_LABEL or labels[-1] != SINK_LABEL:
        raise AutomatonError("automaton file needs ROOT as its first node and SINK as its last")
    labels[0] = labels[-1] = None
    for i in range(1, n - 1):
        if len(labels[i]) != 1:
            raise AutomatonError(f"node {i} label {labels[i]!r} is not one letter")
    root, sink = 0, n - 1
    succs: list = [[] for _ in range(n)]
    for line in arc_lines:
        parts = line.split()
        if len(parts) != 4 or parts[0] != "arc":
            raise AutomatonError(f"malformed arc line: {line!r}")
        try:
            src, dst = int(parts[1]), int(parts[2])
        except ValueError:
            raise AutomatonError(f"arc ends are not integers: {line!r}") from None
        if not (0 <= src < n and 0 <= dst < n):
            raise AutomatonError(f"arc {src} -> {dst} leaves node ids [0, {n - 1}]")
        if dst == root or src == sink:
            raise AutomatonError(f"arc {src} -> {dst} enters ROOT or leaves SINK")
        if src == root and dst == sink:
            raise AutomatonError("arc ROOT -> SINK spells the empty word")
        lst = succs[src]
        if lst and (lst[-1] == sink or dst != sink and labels[dst] <= labels[lst[-1]]):
            raise AutomatonError(f"arcs of node {src} are not in canonical order")
        lst.append(dst)
    auto = _finalize(labels, succs, w)
    from .pph import annotate_increments, compute_suff  # pph imports this module

    suff = compute_suff(auto)
    if 0 in suff:
        raise AutomatonError(f"node {suff.index(0)} cannot reach SINK")
    incs = annotate_increments(auto, suff)
    expected = serialize_automaton(auto, suff, incs).splitlines()
    if lines != expected:
        k = next((k for k, (a, b) in enumerate(zip(lines, expected)) if a != b), len(expected))
        want = repr(expected[k]) if k < len(expected) else "the end of the file"
        raise AutomatonError(f"line {k + 1} is {lines[k]!r}; the rebuilt automaton has {want}")
    return auto, suff, incs
