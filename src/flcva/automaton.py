"""Lexicon node-automata: trie and incremental DAWG construction, DAWG
minimization (the reference), serialization.

Nodes carry letter labels; the root and the shared sink are unlabeled and
structural.  Successor lists are kept in canonical order: letter arcs
ascending by letter, the arc to the sink last.  This ordering is what makes
path indexing (see pph.py) deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
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

    labels[i] is the letter of node i, or None for root/sink.
    succs[i] is the canonical-order successor id tuple of node i.
    topo_index is a topological numbering: index(src) < index(dst) on arcs.
    """

    labels: tuple
    succs: tuple
    root: int
    sink: int
    topo_index: tuple
    word_count: int

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
    words = [line.strip() for line in text.splitlines()]
    return Lexicon.from_words(w for w in words if w)


def _topo_order(succs, root: int, n: int) -> list[int]:
    """Reverse-postorder topological index; deterministic under canonical
    successor order.  Raises on cycles or nodes unreachable from the root."""
    state = [0] * n  # 0 unvisited, 1 on stack, 2 done
    post: list[int] = []
    stack = [(root, iter(succs[root]))]
    state[root] = 1
    while stack:
        node, it = stack[-1]
        nxt = next(it, None)
        if nxt is None:
            stack.pop()
            state[node] = 2
            post.append(node)
        elif state[nxt] == 1:
            raise AutomatonError("cycle detected in automaton")
        elif state[nxt] == 0:
            state[nxt] = 1
            stack.append((nxt, iter(succs[nxt])))
    if any(s != 2 for s in state):
        raise AutomatonError("node unreachable from root")
    index = [0] * n
    for rank, node in enumerate(post):
        index[node] = n - 1 - rank
    return index


def topological_index(automaton: NodeAutomaton) -> tuple[int, ...]:
    """Recompute the topological numbering of an automaton."""
    return tuple(_topo_order(automaton.succs, automaton.root, automaton.node_count))


def _finalize(labels, succs, root, sink, word_count) -> NodeAutomaton:
    topo = _topo_order(succs, root, len(labels))
    return NodeAutomaton(
        labels=tuple(labels),
        succs=tuple(tuple(s) for s in succs),
        root=root,
        sink=sink,
        topo_index=tuple(topo),
        word_count=word_count,
    )


def build_trie(lexicon: Lexicon) -> NodeAutomaton:
    """Build the trie node-automaton with a single shared sink.

    One node per distinct word prefix; every word end routes to the sink.
    """
    if lexicon.word_count == 0:
        raise AutomatonError("cannot build an automaton from an empty lexicon")
    for w in lexicon.words:
        if w == "":
            raise AutomatonError("empty word is not allowed in a lexicon")

    # In sorted word order, each word's new prefixes come up in preorder (a
    # node before its children, siblings by ascending letter), so one pass
    # numbers the trie nodes without recursion.
    labels: list = [None]
    succs: list = [[]]
    terminal: list[int] = []
    path = [0]  # node ids of the previous word's prefixes
    prev = ""
    for w in sorted(set(lexicon.words)):
        k = 0
        while k < len(prev) and k < len(w) and prev[k] == w[k]:
            k += 1
        del path[k + 1 :]
        for ch in w[k:]:
            cid = len(labels)
            labels.append(ch)
            succs.append([])
            succs[path[-1]].append(cid)
            path.append(cid)
        terminal.append(path[-1])
        prev = w
    sink = len(labels)
    labels.append(None)
    succs.append([])
    for node in terminal:
        succs[node].append(sink)  # after every letter arc
    return _finalize(labels, succs, 0, sink, lexicon.word_count)


def build_dawg(lexicon: Lexicon) -> NodeAutomaton:
    """Build the minimal node-automaton (DAWG) straight from the sorted words.

    Daciuk, Mihov, Watson and Watson's incremental construction
    (Computational Linguistics 26(1), 2000): only the previous word's path is
    open; when the next word leaves it, the nodes past the common prefix are
    frozen deepest first, each replaced by an equal node (same label, same
    successors) already in the register, or registered itself.  The trie is
    never built, so memory stays proportional to the DAWG.  The result equals
    minimize(build_trie(lexicon)).
    """
    if lexicon.word_count == 0:
        raise AutomatonError("cannot build an automaton from an empty lexicon")
    sink = 0
    # (label, successor ids) -> node id; frozen nodes are numbered from 1 in
    # insertion order, after the sink.
    register: dict = {}
    # The open path: [label, successor ids, ends a word] per prefix, root first.
    path: list = [[None, [], False]]

    def freeze(depth: int) -> None:
        for _ in range(len(path) - depth):
            label, children, final = path.pop()
            if final:
                children.append(sink)  # after every letter arc
            key = (label, tuple(children))
            path[-1][1].append(register.setdefault(key, len(register) + 1))

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
    # Node ids: the sink, then the register in insertion order, then the root.
    labels, succs = zip((None, ()), *register, (None, path[0][1]))
    return _renumbered(labels, succs, len(labels) - 1, sink, lexicon.word_count)


def minimize(trie: NodeAutomaton) -> NodeAutomaton:
    """Merge nodes with equal letter label and equal right language.

    Bottom-up hash-consing on (label, successor representative ids); processes
    nodes in decreasing topological index so successors are resolved first.
    Preserves the language and the canonical successor ordering.  This is the
    reference that build_dawg must match, and the benchmark's traced
    trie-then-minimize set-up; the CLI builds DAWGs with build_dawg.
    """
    order = sorted(range(trie.node_count), key=lambda x: trie.topo_index[x], reverse=True)
    rep = {trie.sink: trie.sink}
    register: dict = {}
    succs: list = [()] * trie.node_count
    for node in order:
        if node == trie.sink:
            continue
        succs[node] = tuple(rep[s] for s in trie.succs[node])
        if node == trie.root:
            rep[node] = node
        else:
            rep[node] = register.setdefault((trie.labels[node], succs[node]), node)
    return _renumbered(trie.labels, succs, trie.root, trie.sink, trie.word_count)


def _renumbered(labels, succs, root: int, sink: int, word_count: int) -> NodeAutomaton:
    """The part of a graph reachable from root, numbered in preorder from
    root (successors in canonical order), with the sink last.

    labels and succs are indexed by the graph's own node ids; nodes that
    root cannot reach are dropped.
    """
    new_id = {root: 0, sink: -1}  # the sink's id is known only at the end
    out_labels: list = [None]
    out_succs: list = [[]]
    stack = [(root, iter(succs[root]))]
    while stack:
        old, it = stack[-1]
        x = next(it, None)
        if x is None:
            stack.pop()
            continue
        if x not in new_id:
            new_id[x] = len(out_labels)
            out_labels.append(labels[x])
            out_succs.append([])
            stack.append((x, iter(succs[x])))
        out_succs[new_id[old]].append(new_id[x])
    new_sink = len(out_labels)
    out_labels.append(None)
    out_succs = [[new_sink if d == -1 else d for d in lst] for lst in out_succs]
    out_succs.append([])
    return _finalize(out_labels, out_succs, 0, new_sink, word_count)


def serialize_automaton(
    automaton: NodeAutomaton, suff: tuple[int, ...], increments: tuple
) -> str:
    """Versioned structured-text serialization; byte-exact round trip.

    Node lines carry suff, arc lines the delta-PPH increment (see pph.py).
    """
    lines = [
        FORMAT_VERSION,
        f"NODES {automaton.node_count} ARCS {automaton.arc_count} "
        f"WORDS {automaton.word_count}",
    ]
    for i in range(automaton.node_count):
        if i == automaton.root:
            label = ROOT_LABEL
        elif i == automaton.sink:
            label = SINK_LABEL
        else:
            label = automaton.labels[i]
        lines.append(f"node {i} {label} {automaton.topo_index[i]} {suff[i]}")
    for src in range(automaton.node_count):
        for dst, inc in zip(automaton.succs[src], increments[src]):
            lines.append(f"arc {src} {dst} {inc}")
    return "\n".join(lines) + "\n"


def _int(field: str, what: str) -> int:
    try:
        return int(field)
    except ValueError:
        raise AutomatonError(f"{what} is not an integer: {field!r}") from None


def _node_id(field: str, n: int) -> int:
    i = _int(field, "node id")
    if not 0 <= i < n:
        raise AutomatonError(f"node id {i} outside [0, {n - 1}]")
    return i


def parse_automaton(text: str):
    """Inverse of serialize_automaton; returns (automaton, suff, increments).

    The automaton goes through the same constructor as build_trie and
    minimize, so cycles and nodes unreachable from ROOT are rejected; so is a
    node that cannot reach SINK.  Each node's arcs must be in canonical order
    (letters strictly ascending, then at most one sink arc), or path indices
    would stop being lexicographic ranks.  The stored topological index, suff
    and increments are recomputed from the structure and rejected on any
    mismatch, so a damaged file fails here instead of decoding to a wrong
    word.
    """
    lines = text.splitlines()
    if not lines or lines[0] != FORMAT_VERSION:
        raise AutomatonError("unrecognized automaton format version")
    header = lines[1].split() if len(lines) > 1 else []
    if len(header) != 6 or header[0] != "NODES" or header[2] != "ARCS" or header[4] != "WORDS":
        raise AutomatonError("malformed automaton header")
    n, n_arcs, w = (_int(header[k], header[k - 1]) for k in (1, 3, 5))
    if n < 2 or n_arcs < 0:
        raise AutomatonError("automaton header needs NODES >= 2 and ARCS >= 0")
    node_lines = lines[2 : 2 + n]
    arc_lines = lines[2 + n : 2 + n + n_arcs]
    if len(node_lines) != n or len(arc_lines) != n_arcs:
        raise AutomatonError("truncated automaton file")

    labels: list = [None] * n
    topo: list = [0] * n
    suff: list = [0] * n
    succs: list = [[] for _ in range(n)]
    incs: list = [[] for _ in range(n)]
    seen: set[int] = set()
    roots: list[int] = []
    sinks: list[int] = []
    for line in node_lines:
        parts = line.split()
        if len(parts) != 5 or parts[0] != "node":
            raise AutomatonError(f"malformed node line: {line!r}")
        i = _node_id(parts[1], n)
        if i in seen:
            raise AutomatonError(f"duplicate node id {i}")
        seen.add(i)
        if parts[2] == ROOT_LABEL:
            roots.append(i)
        elif parts[2] == SINK_LABEL:
            sinks.append(i)
        elif len(parts[2]) == 1:
            labels[i] = parts[2]
        else:
            raise AutomatonError(f"node {i} label {parts[2]!r} is not one letter")
        topo[i] = _int(parts[3], "topological index")
        suff[i] = _int(parts[4], "suff")
    if len(roots) != 1 or len(sinks) != 1:
        raise AutomatonError("automaton file needs exactly one ROOT and one SINK node")
    root, sink = roots[0], sinks[0]
    for line in arc_lines:
        parts = line.split()
        if len(parts) != 4 or parts[0] != "arc":
            raise AutomatonError(f"malformed arc line: {line!r}")
        src, dst = _node_id(parts[1], n), _node_id(parts[2], n)
        if dst == root or src == sink:
            raise AutomatonError(f"arc {src} -> {dst} enters ROOT or leaves SINK")
        if src == root and dst == sink:
            raise AutomatonError("arc ROOT -> SINK spells the empty word")
        succs[src].append(dst)
        incs[src].append(_int(parts[3], "increment"))
    for src, lst in enumerate(succs):
        letters = [labels[dst] for dst in lst if dst != sink]
        if sink in lst[:-1] or any(a >= b for a, b in zip(letters, letters[1:])):
            raise AutomatonError(f"arcs of node {src} are not in canonical order")
    auto = _finalize(labels, succs, root, sink, w)
    if auto.topo_index != tuple(topo):
        raise AutomatonError("stored topological index does not match the automaton")
    from .pph import annotate_increments, compute_suff  # pph imports this module

    real_suff = compute_suff(auto)
    if 0 in real_suff:
        raise AutomatonError(f"node {real_suff.index(0)} cannot reach SINK")
    real_incs = annotate_increments(auto, real_suff)
    if tuple(suff) != real_suff or tuple(tuple(i) for i in incs) != real_incs:
        raise AutomatonError("stored path-index annotations do not match the automaton")
    return auto, real_suff, real_incs
