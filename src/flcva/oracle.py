"""Brute-force references: per-word linear-HMM scoring, exhaustive n-best,
and DFS path enumeration as the ground truth for path indexing.

Kept deliberately independent of the fast paths: path ranks come from an
explicit DFS (or a direct word sort), not from the cached increments, and
word scores come from single-word chains, not the shared lexicon HMM.
"""

from __future__ import annotations

import sys

from .automaton import Lexicon, NodeAutomaton
from .hmm import NEG_INF, HmmConfig, LetterHMM
from .lexhmm import word_linear_hmm
from .decode import viterbi_tabular


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
    """Best log score of the word's own linear HMM for obs; -inf if the word
    cannot account for the sequence."""
    lexhmm = word_linear_hmm(word, letter_hmms, config)
    result = viterbi_tabular(lexhmm, obs)
    if not result.ranking:
        return NEG_INF
    return result.ranking[0][2]


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
