"""Token-passing Viterbi decoders over a lexicon HMM.

Variants: tabular (full lattice + backtracking, the reference), flip-flop
(two token arrays), in-place (single array, reverse topological scan), and
n-best with naive and improved merging.  Tokens carry a log score (n-best
tokens its negation, the cost) and an integer path-history index; ties on
score are broken toward the smaller path index everywhere, so all variants
and the oracle are bit-comparable.
"""

from __future__ import annotations

from bisect import bisect_left, insort
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
    ops: int = 0            # 1-best: predecessor visits; n-best: candidate tokens read
    merges: int = 0         # token-list merge operations
    token_slots: int = 0    # peak token storage (n-best: tokens alive)
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


def _top_n(cands: list, n: int) -> list:
    """The n best (cost, pph, ...) tokens of cands, one per pph, in rank order.

    Tuple order is rank order (lower cost first, ties to the smaller pph),
    so one sort ranks every candidate and the first token seen of each pph
    is that path's best.  Sorts cands in place.
    """
    cands.sort()
    kept: list = []
    seen: set = set()
    for tok in cands:
        if tok[1] not in seen:
            seen.add(tok[1])
            kept.append(tok)
            if len(kept) == n:
                break
    return kept


def _best_final(lexhmm: LexiconHMM, tokens) -> list:
    """The best live token after the sink arcs as [(cost, pph, exit state)],
    ranked like the n-best tokens; [] when no final state holds one."""
    score, pph = tokens
    return _top_n([(0.0 - score[f], pph[f] + dpph, f)
                   for f, dpph in lexhmm.finals if score[f] != NEG_INF], 1)


def _ranking(lexhmm: LexiconHMM, top: list) -> list:
    """(word, pph, score) rows of rank-ordered final tokens, each word read
    from its pph.  0.0 - cost, not -cost: a zero cost scores 0.0, never -0.0."""
    return [(decode_pph(lexhmm.automaton, lexhmm.suff, p), p, 0.0 - c) for c, p, *_ in top]


def viterbi_flipflop(lexhmm: LexiconHMM, obs) -> DecodeResult:
    """1-best token passing with two flip-flop arrays (2N token slots)."""
    n_states = lexhmm.n_states
    res = DecodeResult(token_slots=2 * n_states)
    src, dst = _tokens(n_states, start=True), _tokens(n_states)
    for symbol in obs:
        res.ops += _step(lexhmm, symbol, range(n_states), src, dst)
        src, dst = dst, src
    res.ranking = _ranking(lexhmm, _best_final(lexhmm, src))
    return res


def viterbi_inplace(lexhmm: LexiconHMM, obs) -> DecodeResult:
    """1-best with a single token array (N slots), scanned in reverse
    topological order so each predecessor is read before being overwritten."""
    n_states = lexhmm.n_states
    res = DecodeResult(token_slots=n_states)
    tokens = _tokens(n_states, start=True)
    for symbol in obs:
        res.ops += _step(lexhmm, symbol, range(n_states - 1, -1, -1), tokens, tokens)
    res.ranking = _ranking(lexhmm, _best_final(lexhmm, tokens))
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
    top = _best_final(lexhmm, lattice[-1])
    if not top:
        return res
    cost, pph, j = top[0]
    # Backtrack the state path and spell the word from its node visits.
    nodes = []
    for row in reversed(back):
        nodes.append(lexhmm.state_node[j])
        j = row[j]
    word = "".join(lexhmm.automaton.labels[node] for node, _ in groupby(reversed(nodes)))
    res.ranking = [(word, pph, 0.0 - cost)]
    return res


# --- n-best ----------------------------------------------------------------


def _nbest(lexhmm: LexiconHMM, obs, n: int, merge_state) -> DecodeResult:
    """n-best token passing.  Each frame, merge_state(prev, preds[j], b, n,
    res) builds state j's sorted token list, emission b added, from its
    predecessors' lists in prev, and adds its work to res's counters.

    Tokens are (cost, pph) with cost = -score, so plain tuple order is rank
    order.  Negation is exact, so every score equals its max-plus value.
    n = 1 runs the 1-best kernel instead, counters and all: both break score
    ties toward the smaller pph, so its one token is the rank-1 token.
    """
    if n < 1:
        raise DecodeError("n must be >= 1")
    if n == 1:
        return viterbi_inplace(lexhmm, obs)
    res = DecodeResult()
    # START (-1) reads the trailing list: one token for the first frame only.
    prev: list = [[] for _ in lexhmm.preds] + [[(0.0, 0)]]
    held = 0  # tokens in prev, START's left out
    for symbol in obs:
        si = _symbol_index(lexhmm, symbol)
        prev = [merge_state(prev, p, row[si], n, res)
                for p, row in zip(lexhmm.preds, lexhmm.emit_rows)]
        now = sum(map(len, prev))
        res.token_slots = max(res.token_slots, held + now)  # both frames alive
        held = now
        prev.append([])
    res.ranking = _ranking(lexhmm, _top_n(
        [(c, p + dpph) for f, dpph in lexhmm.finals for c, p in prev[f]], n))
    return res


def _merge_naive(prev: list, preds_j, b: float, n: int, res: DecodeResult) -> list:
    cands: list = []
    append = cands.append
    visits = adds = 0
    live = b != NEG_INF  # a -inf emission kills every candidate, still counted
    for i, log_a, dpph in preds_j:
        src = prev[i]
        visits += len(src)
        if log_a == NEG_INF:
            continue
        adds += len(src)
        if live:
            for c0, p0 in src:
                append(((c0 - log_a) - b, p0 + dpph))
    res.ops += visits
    res.merges += visits
    res.emission_adds += adds
    return _top_n(cands, n)


def _merge_improved(prev: list, preds_j, b: float, n: int, res: DecodeResult) -> list:
    # The predecessors with a token left to read: (token list, log_a, dpph).
    live = []
    for i, log_a, dpph in preds_j:
        src = prev[i]
        if src and log_a != NEG_INF:
            live.append((src, log_a, dpph))
    if not live:
        return []
    lst: list = []
    held: dict = {}  # pph -> cost of the token lst holds for it
    reads = merges = 0
    for k in range(n):
        reads += len(live)
        kept = []
        for entry in live:
            src, log_a, dpph = entry
            c0, p0 = src[k]
            c = c0 - log_a
            if len(lst) == n:
                # Quick reject against the current worst token; the path
                # index is computed only when it can matter.  src is in
                # rank order and a full lst's worst token never gets worse,
                # so src's deeper tokens would be rejected too: drop it.
                lc, lp = lst[-1]
                if c > lc or (c == lc and p0 + dpph >= lp):
                    continue
            if k + 1 < len(src):
                kept.append(entry)
            merges += 1
            p = p0 + dpph
            # A token whose pph is already held replaces it only if better;
            # lst is sorted, so the held token is found by bisection.
            hc = held.get(p)
            if hc is not None:
                if c >= hc:
                    continue
                del lst[bisect_left(lst, (hc, p))]
            # The merge window starts at rank k: earlier ranks are final.
            # Past the quick reject the token always lands within the n best.
            insort(lst, (c, p), k)
            held[p] = c
            if len(lst) > n:
                del held[lst.pop()[1]]
        live = kept
        if not live:
            break
    res.ops += reads
    res.merges += merges
    if b == NEG_INF:
        return []
    res.emission_adds += len(lst)
    return [(c - b, p) for c, p in lst]


def nbest_naive(lexhmm: LexiconHMM, obs, n: int) -> DecodeResult:
    """n-best with naive merging: every (predecessor, rank) candidate is
    built, given its emission term, and merged systematically."""
    return _nbest(lexhmm, obs, n, _merge_naive)


def nbest_improved(lexhmm: LexiconHMM, obs, n: int) -> DecodeResult:
    """n-best with improved merging: rank-outer/predecessor-inner loop order,
    merge window restricted to the k-th element onward, path-index update
    only on merged tokens, emission added once per surviving token.  A
    predecessor leaves the loop once its tokens run out or one of them fails
    the quick reject, so each state reads at most the tokens naive reads."""
    return _nbest(lexhmm, obs, n, _merge_improved)


VARIANTS = {
    "tabular": viterbi_tabular,
    "flipflop": viterbi_flipflop,
    "inplace": viterbi_inplace,
}

NBEST_VARIANTS = {"nbest-naive": nbest_naive, "nbest-improved": nbest_improved}
