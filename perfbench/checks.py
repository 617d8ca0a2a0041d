"""Output checks shared by the end-to-end and traced runs.

The checks read the program's outputs with the benchmark's own code: the
automaton file format and the decode output format are parsed here, and
path indices are checked against the canonical word order of inputs.py.
"""

from __future__ import annotations

import math


class BenchError(RuntimeError):
    """The pipeline could not be run at all, so no result is printed."""


class Gate:
    """Attempted and failed operation counts; a wrong output is a failure,
    never an abort."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: dict[str, int] = {}

    def add(self, ok: bool, what: str, count: int = 1) -> None:
        self.attempted += count
        if not ok and count:
            self.failed += count
            self.reasons[what] = self.reasons.get(what, 0) + count


def parse_blocks(text: str) -> list:
    """Split decode output into one entry per sequence: its ranking rows, or
    None for a `# error` line.  A block ends at the `# ops=` trailer."""
    blocks: list = []
    rows: list = []
    for line in text.splitlines():
        if line.startswith("# error"):
            blocks.append(None)
            rows = []
        elif line.startswith("#"):
            blocks.append(tuple(rows))
            rows = []
        elif line.strip():
            rows.append(line)
    return blocks


def rows_valid(rows, rank_of: dict, n: int) -> bool:
    """Printed rows `rank word pph score` with ranks 1..k form a valid
    ranking (see ranking_valid)."""
    ranking = []
    for i, row in enumerate(rows, 1):
        parts = row.split()
        if len(parts) != 4 or parts[0] != str(i):
            return False
        try:
            ranking.append((parts[1], int(parts[2]), float(parts[3])))
        except ValueError:
            return False
    return ranking_valid(ranking, rank_of, n)


def ranking_valid(ranking, rank_of: dict, n: int) -> bool:
    """1 to n distinct lexicon words, each with its canonical rank as path
    index and a finite score."""
    if not ranking or len(ranking) > n or len({w for w, _, _ in ranking}) != len(ranking):
        return False
    return all(rank_of.get(w) == p and math.isfinite(s) for w, p, s in ranking)


def check_automaton_text(text: str, canonical: list) -> str | None:
    """None if the annotated automaton file accepts exactly the lexicon and
    the increments along each word's path sum to the word's canonical rank;
    otherwise the reason."""
    try:
        lines = text.splitlines()
        head = lines[1].split()
        n_nodes, n_arcs, n_words = int(head[1]), int(head[3]), int(head[5])
        if n_words != len(canonical) or len(lines) != 2 + n_nodes + n_arcs:
            return "header does not match the lexicon"
        labels: list = [None] * n_nodes
        root = sink = None
        for line in lines[2 : 2 + n_nodes]:
            _, i, label, _topo, _suff = line.split()
            i = int(i)
            if label == "ROOT":
                root = i
            elif label == "SINK":
                sink = i
            else:
                labels[i] = label
        succs: list = [[] for _ in range(n_nodes)]
        for line in lines[2 + n_nodes :]:
            _, src, dst, inc = line.split()
            succs[int(src)].append((int(dst), int(inc)))
    except (IndexError, ValueError):
        return "malformed automaton file"
    if root is None or sink is None:
        return "no ROOT or SINK node"

    # Depth-first walk in stored arc order yields words in path-index order.
    longest = max(map(len, canonical))
    rank = 0
    stack = [(root, "", 0, iter(succs[root]))]
    while stack:
        node, prefix, value, arcs = stack[-1]
        arc = next(arcs, None)
        if arc is None:
            stack.pop()
            continue
        dst, inc = arc
        if dst == sink:
            if rank >= len(canonical) or canonical[rank] != prefix or value + inc != rank:
                return f"path {rank} is {prefix!r} with index {value + inc}"
            rank += 1
        elif len(stack) > longest or not 0 <= dst < n_nodes or labels[dst] is None:
            return f"bad arc to node {dst} after {prefix!r}"
        else:
            stack.append((dst, prefix + labels[dst], value + inc, iter(succs[dst])))
    if rank != len(canonical):
        return f"automaton accepts {rank} words, lexicon has {len(canonical)}"
    return None
