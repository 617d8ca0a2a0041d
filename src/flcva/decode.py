"""Token-passing Viterbi decoders over a lexicon HMM.

Variants: tabular (full lattice + backtracking, the reference), flip-flop
(two token arrays), in-place (single array, reverse topological scan), and
n-best with naive and improved merging.  Tokens carry a log score and an
integer path-history index; ties on score are broken toward the smaller
path index everywhere, so all variants and the oracle are bit-comparable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby

from .hmm import NEG_INF
from .lexhmm import START, LexiconHMM
from .pph import decode_pph


class DecodeError(ValueError):
    """Invalid decode input (unknown symbol, bad n)."""


@dataclass
class DecodeResult:
    """Ranked (word, path index, log score) rows plus instrumentation."""

    ranking: list = field(default_factory=list)
    ops: int = 0            # predecessor visits in the inner loop
    merges: int = 0         # token-list merge operations
    token_slots: int = 0    # peak token storage
    emission_adds: int = 0  # emission log-prob additions


def format_result(result: DecodeResult) -> str:
    """One line per rank plus an instrumentation trailer."""
    lines = [
        f"{rank} {word} {pph} {score:.12g}"
        for rank, (word, pph, score) in enumerate(result.ranking, 1)
    ]
    lines.append(
        f"# ops={result.ops} merges={result.merges} "
        f"token_slots={result.token_slots} emission_adds={result.emission_adds}"
    )
    return "\n".join(lines) + "\n"


def _better(score: float, pph: int, ref_score: float, ref_pph: int) -> bool:
    return score > ref_score or (score == ref_score and pph < ref_pph)


def _symbol_index(lexhmm: LexiconHMM, symbol: str) -> int:
    try:
        return lexhmm.symbol_index[symbol]
    except KeyError:
        raise DecodeError(f"observation symbol {symbol!r} not in alphabet") from None


def _tokens(n_states: int, start: bool = False) -> tuple[list, list]:
    """Score and pph arrays for n_states tokens plus a trailing START slot.

    START is -1, so preds entries naming START read the trailing slot and
    the relaxation needs no special case for it.  The START token scores
    0.0 before the first frame and -inf afterwards.
    """
    scores = [NEG_INF] * (n_states + 1)
    if start:
        scores[START] = 0.0
    return scores, [0] * (n_states + 1)


def _step(lexhmm: LexiconHMM, symbol: str, order, src, dst, back=None) -> int:
    """One frame of max-plus relaxation; returns the predecessor visits.

    For each state j in order, the best source token over preds[j] (score
    plus log transition, ties to the smaller pph) gets the arc's pph
    increment and j's emission, and is written to dst; back[j] records the
    winning predecessor.  src and dst may be the same arrays when order
    visits every state after all of its successors, so that no token is
    overwritten before it has been read.
    A -inf candidate never wins: it is not above the initial -inf, and no
    pph is below the initial 0, so a dead state keeps pph 0 and START.
    """
    si = _symbol_index(lexhmm, symbol)
    preds = lexhmm.preds
    emit_rows = lexhmm.emit_rows
    src_s, src_p = src
    dst_s, dst_p = dst
    ops = 0
    for j in order:
        best_s = NEG_INF
        best_p = 0
        best_i = START
        ops += len(preds[j])
        for i, log_a, dpph in preds[j]:
            cand_s = src_s[i] + log_a
            if cand_s > best_s or (cand_s == best_s and src_p[i] + dpph < best_p):
                best_s = cand_s
                best_p = src_p[i] + dpph
                best_i = i
        dst_s[j] = best_s + emit_rows[j][si]
        dst_p[j] = best_p
        if back is not None:
            back[j] = best_i
    src_s[START] = NEG_INF  # START feeds the first frame only
    return ops


def _harvest_best(lexhmm: LexiconHMM, tokens) -> tuple:
    """Best (final state, score, pph) after the sink arcs; the state is None
    when no final state holds a live token."""
    score, pph = tokens
    best = (None, NEG_INF, 0)
    for f, dpph in lexhmm.finals:
        s, p = score[f], pph[f] + dpph
        if _better(s, p, best[1], best[2]):
            best = (f, s, p)
    return best


def _pph_ranking(lexhmm: LexiconHMM, tokens) -> list:
    """The best final token as a one-row ranking, its word read from the pph."""
    f, score, pph = _harvest_best(lexhmm, tokens)
    if f is None:
        return []
    return [(decode_pph(lexhmm.automaton, lexhmm.suff, pph), pph, score)]


def viterbi_flipflop(lexhmm: LexiconHMM, obs) -> DecodeResult:
    """1-best token passing with two flip-flop arrays (2N token slots)."""
    n_states = lexhmm.n_states
    res = DecodeResult(token_slots=2 * n_states)
    src, dst = _tokens(n_states, start=True), _tokens(n_states)
    for symbol in obs:
        res.ops += _step(lexhmm, symbol, range(n_states), src, dst)
        src, dst = dst, src
    res.ranking = _pph_ranking(lexhmm, src)
    return res


def viterbi_inplace(lexhmm: LexiconHMM, obs) -> DecodeResult:
    """1-best with a single token array (N slots), scanned in reverse
    topological order so each predecessor is read before being overwritten."""
    n_states = lexhmm.n_states
    res = DecodeResult(token_slots=n_states)
    tokens = _tokens(n_states, start=True)
    for symbol in obs:
        res.ops += _step(lexhmm, symbol, range(n_states - 1, -1, -1), tokens, tokens)
    res.ranking = _pph_ranking(lexhmm, tokens)
    return res


def viterbi_tabular(lexhmm: LexiconHMM, obs) -> DecodeResult:
    """Reference 1-best: full T x N lattice with maximizing predecessors,
    winner recovered by backtracking (N*T token slots)."""
    n_states = lexhmm.n_states
    res = DecodeResult(token_slots=n_states * len(obs))
    # lattice[t] holds the tokens after t frames; lattice[0] is the start.
    lattice = [_tokens(n_states, start=True)] + [_tokens(n_states) for _ in obs]
    back = [[START] * n_states for _ in obs]
    for t, symbol in enumerate(obs):
        res.ops += _step(lexhmm, symbol, range(n_states), lattice[t], lattice[t + 1], back[t])
    j, score, pph = _harvest_best(lexhmm, lattice[-1])
    if j is None:
        return res
    # Backtrack the state path and spell the word from its node visits.
    nodes = []
    for row in reversed(back):
        nodes.append(lexhmm.state_node[j])
        j = row[j]
    word = "".join(lexhmm.automaton.labels[node] for node, _ in groupby(reversed(nodes)))
    res.ranking = [(word, pph, score)]
    return res


# --- n-best ----------------------------------------------------------------


def _merge_token(lst: list, score: float, pph: int, n: int, from_pos: int = 0) -> bool:
    """Insert (score, pph) into a sorted distinct-pph token list capped at n.

    A candidate whose pph already exists replaces the entry only if strictly
    better.  Insertion position search starts at from_pos (the improved
    variant merges only from the k-th element to the end).
    """
    for idx, (es, ep) in enumerate(lst):
        if ep == pph:
            if _better(score, pph, es, ep):
                del lst[idx]
                break
            return False
    pos = from_pos
    while pos < len(lst) and not _better(score, pph, lst[pos][0], lst[pos][1]):
        pos += 1
    if pos >= n:
        return False
    lst.insert(pos, (score, pph))
    del lst[n:]
    return True


def _harvest_nbest(lexhmm: LexiconHMM, lists, n: int) -> list:
    merged: list = []
    for f, dpph in lexhmm.finals:
        for s, p in lists[f]:
            _merge_token(merged, s, p + dpph, n)
    return [
        (decode_pph(lexhmm.automaton, lexhmm.suff, p), p, s) for s, p in merged
    ]


def nbest_naive(lexhmm: LexiconHMM, obs, n: int) -> DecodeResult:
    """n-best with naive merging: every (predecessor, rank) candidate is
    built, given its emission term, and merged systematically."""
    if n < 1:
        raise DecodeError("n must be >= 1")
    n_states = lexhmm.n_states
    preds = lexhmm.preds
    emit_rows = lexhmm.emit_rows
    res = DecodeResult(token_slots=2 * n_states * n)
    # START (-1) reads the trailing list: one token for the first frame only.
    prev: list = [[] for _ in range(n_states)] + [[(0.0, 0)]]
    for symbol in obs:
        si = _symbol_index(lexhmm, symbol)
        cur: list = []
        for j in range(n_states):
            lst: list = []
            b = emit_rows[j][si]
            for i, log_a, dpph in preds[j]:
                for s0, p0 in prev[i]:
                    res.ops += 1
                    res.merges += 1
                    if log_a == NEG_INF:
                        continue
                    s = (s0 + log_a) + b
                    res.emission_adds += 1
                    if s == NEG_INF:
                        continue
                    _merge_token(lst, s, p0 + dpph, n)
            cur.append(lst)
        cur.append([])
        prev = cur
    res.ranking = _harvest_nbest(lexhmm, prev, n)
    return res


def nbest_improved(lexhmm: LexiconHMM, obs, n: int) -> DecodeResult:
    """n-best with improved merging: rank-outer/predecessor-inner loop order,
    merge window restricted to the k-th element onward, path-index update
    only on merged tokens, emission added once per surviving token."""
    if n < 1:
        raise DecodeError("n must be >= 1")
    n_states = lexhmm.n_states
    preds = lexhmm.preds
    emit_rows = lexhmm.emit_rows
    res = DecodeResult(token_slots=2 * n_states * n)
    # START (-1) reads the trailing list: one token for the first frame only.
    prev: list = [[] for _ in range(n_states)] + [[(0.0, 0)]]
    for symbol in obs:
        si = _symbol_index(lexhmm, symbol)
        cur: list = []
        for j in range(n_states):
            lst: list = []
            for k in range(n):
                for i, log_a, dpph in preds[j]:
                    res.ops += 1
                    src = prev[i]
                    if k >= len(src):
                        continue
                    s0, p0 = src[k]
                    if log_a == NEG_INF:
                        continue
                    s = s0 + log_a
                    if len(lst) == n:
                        # Quick reject against the current worst token; the
                        # path index is computed only when it can matter.
                        ls, lp = lst[-1]
                        if s < ls or (s == ls and p0 + dpph >= lp):
                            continue
                    res.merges += 1
                    _merge_token(lst, s, p0 + dpph, n, from_pos=k)
            b = emit_rows[j][si]
            if b == NEG_INF:
                lst = []
            else:
                res.emission_adds += len(lst)
                lst = [(s + b, p) for s, p in lst]
            cur.append(lst)
        cur.append([])
        prev = cur
    res.ranking = _harvest_nbest(lexhmm, prev, n)
    return res


VARIANTS = {
    "tabular": viterbi_tabular,
    "flipflop": viterbi_flipflop,
    "inplace": viterbi_inplace,
}
