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
from itertools import chain, compress, count, islice
from operator import ne
from typing import Iterable

ROOT_LABEL = "ROOT"
SINK_LABEL = "SINK"

FORMAT_VERSION = "flcva-automaton-v1"


class AutomatonError(ValueError):
    """Invalid lexicon input or malformed automaton structure."""


class UnsortedWords(AutomatonError):
    """A builder's word is not above the one before it (or is empty)."""


@dataclass(frozen=True)
class Lexicon:
    """Deduplicated, sorted word list, held whole.

    The builders read any strictly ascending iterable of words once, so a
    sorted, duplicate-free file can be streamed into them; a Lexicon is for
    words that are not, and iterates over its words in order.  from_words
    sorts the words once, as a list: Timsort takes linear time on a list
    that is already sorted.  Equal words are then adjacent, so duplicates
    are dropped by comparing each word with the one before it; no hash set
    of the words is built.
    """

    words: tuple[str, ...]

    def __iter__(self):
        return iter(self.words)

    @classmethod
    def from_words(cls, words: Iterable[str]) -> "Lexicon":
        words = sorted(words)
        if words and not words[0]:
            raise AutomatonError("empty word is not allowed in a lexicon")
        # keep the first word and each word unequal to the one before it
        unique = words[:1]
        unique += compress(islice(words, 1, None), map(ne, islice(words, 1, None), words))
        # The automaton file is whitespace-delimited; one split of all the
        # words joined finds any whitespace without a per-word loop.
        joined = "".join(unique)
        if unique and joined.split() != [joined]:
            bad = next(w for w in unique if w.split() != [w])
            raise AutomatonError(f"word {bad!r} contains whitespace")
        return cls(tuple(unique))

    @property
    def word_count(self) -> int:
        return len(self.words)


@dataclass(frozen=True)
class NodeAutomaton:
    """Rooted DAG of letter-labeled nodes with a common sink.

    Node ids are a topological order: the root is node 0, the sink the last
    node, and every arc goes from a lower to a higher id.  The builders give
    such ids by construction; parse_automaton checks them in a file.
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

    @property
    def letters(self) -> set:
        """The letters of the letter nodes, those between root and sink."""
        return set(self.labels[1:-1])


def read_wordlist(text: str) -> Lexicon:
    """Parse a UTF-8 word list: one word per line, blank lines ignored."""
    # only "\n" ends a line: str.splitlines would also break a word at a
    # form feed or another Unicode line boundary, which is whitespace inside it
    return Lexicon.from_words(filter(None, map(str.strip, text.split("\n"))))


class _End(str):
    """The empty word that closes the walk; only its identity tells it from
    an empty word in the input."""


_END = _End()


def _freeze_words(words: Iterable[str], intern) -> int:
    """Freeze each node of the words' trie through intern, successors first;
    return the number of words.

    Daciuk, Mihov, Watson and Watson (Computational Linguistics 26(1), 2000):
    only the previous word's path is open; when the next word leaves it, the
    nodes past the common prefix are frozen deepest first.  A frozen node's
    id is intern((label, *successor ids)); the sink is 0, and the root, the
    only key with label None, is interned last.  The words are read once,
    as they come, so no list of them is held: a stream must be strictly
    ascending, and UnsortedWords is raised at the first word that is not
    above the one before it.
    """
    # The open path holds the previous word's nodes, root first, each as
    # [label, successor ids...].  A node that ends a word holds the sink, 0,
    # as its last successor, after every letter arc.
    path: list = [[None]]
    prev = ""
    # the empty word at the end shares no prefix, so it freezes all but the root
    for n, w in enumerate(chain(words, (_END,))):
        if w <= prev and w is not _END:
            raise UnsortedWords(
                f"lexicon words must be non-empty and strictly ascending: {w!r} after {prev!r}"
            )
        k = 0
        for a, b in zip(prev, w):
            if a != b:
                break
            k += 1
        for _ in range(len(path) - 1 - k):
            node = intern(tuple(path.pop()))
            parent = path[-1]
            if parent[-1] == 0:  # parent ends a word (frozen ids start at 1)
                parent.insert(-1, node)
            else:
                parent.append(node)
        if w is not _END:
            path += map(list, w[k:])
            path[-1].append(0)
        prev = w
    if not n:
        raise AutomatonError("cannot build an automaton from an empty lexicon")
    intern(tuple(path[0]))
    return n


def _numbered(interned, word_count: int) -> NodeAutomaton:
    """The automaton of the interned (label, *successor ids) keys, their ids
    counting up from 1 in interning order and the sink 0.  Each node is
    interned after its successors, so reverse interning order is topological.
    """
    last = len(interned)
    nodes = [*reversed(interned), (None,)]
    succs = tuple([tuple([last - c for c in key[1:]]) for key in nodes])
    return NodeAutomaton(tuple([key[0] for key in nodes]), succs, word_count)


def build_trie(words: Iterable[str]) -> NodeAutomaton:
    """Build the trie node-automaton of strictly ascending words (a Lexicon,
    or a stream read once) with a single shared sink.

    One node per distinct word prefix; every word end routes to the sink.
    Every frozen node is a new node, so ids are in reverse freeze order.
    """
    nodes: list = []

    def new_node(key) -> int:
        nodes.append(key)
        return len(nodes)

    word_count = _freeze_words(words, new_node)
    return _numbered(nodes, word_count)


def build_dawg(words: Iterable[str]) -> NodeAutomaton:
    """Build the minimal node-automaton (DAWG) straight from strictly
    ascending words (a Lexicon, or a stream read once).

    The walk of build_trie, but a frozen node equal to one in the register
    (same label, same successors) is replaced by it, so the trie is never
    built and memory follows the DAWG.  The result equals
    minimize(build_trie(words)).
    """
    register = defaultdict(count(1).__next__)  # (label, *successor ids) -> id
    word_count = _freeze_words(words, register.__getitem__)
    return _numbered(register, word_count)


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
        rep[node] = register[(trie.labels[node], *[rep[s] for s in trie.succs[node]])]
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
    last.  This is the only place that checks an automaton's structure: an
    arc must go to a higher id (which rules out cycles, arcs into ROOT and
    arcs out of SINK), every node but ROOT must have an arc in, so ROOT
    reaches it, and every node must reach SINK.  Each node's arcs must be in
    canonical order (letters strictly ascending, then at most one sink arc),
    or path indices would stop being lexicographic ranks.  The file then
    loads only if its lines equal those serialize_automaton writes for the
    rebuilt automaton, so a stored id, suff or increment that does not
    match, a reordered line, a reformatted field or trailing text fails here
    instead of decoding to a wrong word.  Line endings and a missing final
    newline do not matter.
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
    sink = n - 1
    succs: list = [[] for _ in range(n)]
    entered = [False] * n
    for line in arc_lines:
        parts = line.split()
        if len(parts) != 4 or parts[0] != "arc":
            raise AutomatonError(f"malformed arc line: {line!r}")
        try:
            src, dst = int(parts[1]), int(parts[2])
        except ValueError:
            raise AutomatonError(f"arc ends are not integers: {line!r}") from None
        if not 0 <= src < dst < n:
            raise AutomatonError(
                f"arc {src} -> {dst} does not go to a higher node id in [0, {sink}]")
        if src == 0 and dst == sink:
            raise AutomatonError("arc ROOT -> SINK spells the empty word")
        lst = succs[src]
        if lst and (lst[-1] == sink or dst != sink and labels[dst] <= labels[lst[-1]]):
            raise AutomatonError(f"arcs of node {src} are not in canonical order")
        lst.append(dst)
        entered[dst] = True
    if False in entered[1:]:
        raise AutomatonError(f"node {entered.index(False, 1)} is unreachable from the root")
    auto = NodeAutomaton(tuple(labels), tuple(map(tuple, succs)), w)
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
