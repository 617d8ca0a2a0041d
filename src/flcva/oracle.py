"""Brute-force references: per-word chain Viterbi scoring, exhaustive n-best,
and DFS path enumeration as the ground truth for path indexing.

Kept deliberately independent of the fast paths: path ranks come from an
explicit DFS (or a direct word sort), not from the cached increments, and
word scores come from each word's own letter chain, scored directly from
the letter models, not from the expanded lexicon HMM or its decoders.
"""

from __future__ import annotations

import math
import sys

from .automaton import Lexicon, NodeAutomaton
from .hmm import NEG_INF, HmmConfig, LetterHMM, grid_score


def enumerate_paths_dfs(automaton: NodeAutomaton) -> list[str]:
    """Full root-to-sink paths (as words) in DFS completion order.

    The position of a path in this list is its ground-truth path index.
    """
    words: list[str] = []
    stack = [(iter(automaton.succs[automaton.root]), "")]
    while stack:
        succs, prefix = stack[-1]
        s = next(succs, None)
        if s is None:
            stack.pop()
        elif s == automaton.sink:
            words.append(prefix)
        else:
            stack.append((iter(automaton.succs[s]), prefix + automaton.labels[s]))
    return words


def canonical_word_order(words) -> list[str]:
    """Words in DFS completion order: letter-by-letter ascending, with a
    word sorting after every word it is a proper prefix of."""
    terminator = sys.maxunicode + 1
    return sorted(words, key=lambda w: tuple(ord(c) for c in w) + (terminator,))


def word_rank_map(lexicon: Lexicon) -> dict[str, int]:
    return {w: i for i, w in enumerate(canonical_word_order(lexicon.words))}


def score_word(
    word: str,
    letter_hmms: dict[str, LetterHMM],
    config: HmmConfig,
    obs,
) -> float:
    """Best log score of the word's own letter chain for obs; -inf if the
    word cannot account for the sequence.

    A direct Viterbi over the chain's states in grid costs.  The first state
    is entered free at the first frame only.  At each frame every state
    keeps the cheaper of staying (its letter's self cost) and arriving from
    the state before it (that state's forward cost), then pays its emission.
    The score is the last state's cost: there is no exit cost.
    """
    index = {s: i for i, s in enumerate(config.alphabet)}
    chain = [(hmm.self_cost, hmm.forward_cost, row)
             for hmm in (letter_hmms[ch] for ch in word)
             for row in hmm.emission_costs]
    costs = [math.inf] * len(chain)
    for t, symbol in enumerate(obs):
        si = index[symbol]
        arrive = 0 if t == 0 else math.inf  # the first state's entry
        # state i cannot be reached before frame i: the rest stay math.inf
        for i, (self_cost, forward_cost, row) in enumerate(chain[:t + 1]):
            old = costs[i]
            stay = old + self_cost
            costs[i] = (stay if stay < arrive else arrive) + row[si]  # not min(): 1.5x slower
            arrive = old + forward_cost
    return grid_score(costs[-1])


def nbest_exhaustive(
    lexicon: Lexicon,
    letter_hmms: dict[str, LetterHMM],
    config: HmmConfig,
    obs,
    n: int,
) -> list[tuple[str, int, float]]:
    """Score every word independently; sort by (score desc, path index asc);
    drop impossible words; truncate to n."""
    ranks = word_rank_map(lexicon)
    rows = []
    for word in lexicon.words:
        s = score_word(word, letter_hmms, config, obs)
        if s == NEG_INF:
            continue
        rows.append((word, ranks[word], s))
    rows.sort(key=lambda r: (-r[2], r[1]))
    return rows[:n]
