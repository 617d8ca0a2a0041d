"""Token-passing Viterbi decoders over a lexicon HMM.

Variants: tabular (full lattice + backtracking, the reference), flip-flop
(two token arrays), in-place (one token array), and n-best with naive and
improved merging.  Every 1-best variant runs the same frame step, which
scans a frame's states in reverse topological order; in-place differs only
in reading and writing one array.  With window=True, as the CLI runs them
(VARIANTS), the 1-best kernels relax at frame t of T only the states with
d(j) <= t <= T - 1 - e(j), the time window (LexiconHMM.windows).  A state
outside its window keeps a stale token, but only states outside their own
windows read it, so rankings and tabular's backtrack are those of the full
relaxation, and ops counts the window's predecessor visits.  Called
directly, they relax every state by default: ops is then T times the
predecessor count, the work the work-scaling checks predict.  The n-best
loop merges only live states: the successors of the previous frame's
token holders that can still reach a word end by the last frame.  Below
n = W the loop cuts every token whose best completion, from one backward
pass over the same windows, cannot reach the top n, and leaves out a
successor whose every token that cut would remove.
Each frame reads one emission column, LexiconHMM.emissions[symbol], and a
sequence's columns are looked up before its first frame runs.

A token is one int, `cost << pph_bits | pph`: cost is the path's negated
log score in 2^-32 grid units and pph its path-history index (see
LexiconHMM).  Int order is rank order, ties on score broken toward the
smaller path index, so every variant picks its winners with plain int
compares and sorts, and all variants and the oracle are bit-comparable.
Adding a packed transition or emission to a token adds costs and pphs
separately; math.inf is the dead token, and stays dead under every
addition.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, field
from functools import partial
from itertools import groupby

from .hmm import grid_score
from .lexhmm import START, LexiconHMM
from .pph import decode_pph

INF = math.inf


class DecodeError(ValueError):
    """Invalid decode input (unknown symbol, bad n)."""


@dataclass
class DecodeResult:
    """Ranked (word, path index, log score) rows plus instrumentation."""

    ranking: list = field(default_factory=list)
    # 1-best counts the states it relaxes: those in the time window with
    # window=True (the CLI's), else every state at every frame; n-best only
    # the live states it merges (not those its completion bound would cut
    # empty), reading the tokens the bound left, and not its backward pass
    # (see _nbest).
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


def _columns(lexhmm: LexiconHMM, obs) -> list:
    """Each frame's emission column, looked up before any frame runs."""
    try:
        return [lexhmm.emissions[symbol] for symbol in obs]
    except KeyError as exc:
        raise DecodeError(f"observation symbol {exc.args[0]!r} not in alphabet") from None


def _tokens(n_states: int) -> list:
    """Dead tokens for n_states states plus a trailing START slot holding 0
    (score 0.0, pph 0).

    START is -1, so preds entries naming START read the trailing slot and
    the relaxation needs no special case for it.  _step kills the START
    token of every array it writes, so START feeds the first frame only.
    """
    return [INF] * n_states + [0]


def _step(window, col, src, dst) -> int:
    """One frame of min-plus relaxation over window, a (states, visits)
    pair (see lexhmm.window_lists), emissions read from the frame's column
    col; returns visits, the predecessor entries read.

    For each (j, preds[j]) in states, the least source token plus
    transition over preds[j] (the best score, ties to the smaller pph) gets
    col[j] and is written to dst; a strict compare keeps the first such
    predecessor.  States come in reverse topological order, each after all
    of its successors, so src may be dst: no token is overwritten before it
    has been read.
    """
    states, visits = window
    for j, preds_j in states:
        best = INF
        for i, w in preds_j:
            c = src[i] + w
            if c < best:
                best = c
        dst[j] = best + col[j]
    dst[START] = INF  # START feeds the first frame only
    return visits


def _relaxed(lexhmm: LexiconHMM, n_frames: int, window: bool) -> list:
    """Each frame's (states, visits) for _step: the time window's
    (LexiconHMM.windows), or else every state at every frame."""
    if window:
        return lexhmm.windows(n_frames)
    every = list(zip(range(lexhmm.n_states - 1, -1, -1), reversed(lexhmm.preds)))
    return [(every, lexhmm.n_arcs)] * n_frames


def _top_n(cands: list, n: int, mask: int) -> list:
    """The n best tokens of cands, one per pph (k & mask), in rank order.

    Int order is rank order, so one sort ranks every candidate and the
    first token seen of each pph is that path's best.  Sorts cands in place.
    """
    cands.sort()
    kept: list = []
    seen: set = set()
    for k in cands:
        p = k & mask
        if p not in seen:
            seen.add(p)
            kept.append(k)
            if len(kept) == n:
                break
    return kept


def _best_final(lexhmm: LexiconHMM, tokens) -> list:
    """The best live token after the sink arcs as [(token, exit state)],
    equal tokens to the smaller exit state; [] when no final state holds one."""
    live = [(tokens[f] + dpph, f) for f, dpph in lexhmm.finals if tokens[f] != INF]
    return [min(live)] if live else []


def _unpack(lexhmm: LexiconHMM, token: int) -> tuple[int, float]:
    """(pph, log score) of a live token."""
    return token & ((1 << lexhmm.pph_bits) - 1), grid_score(token >> lexhmm.pph_bits)


def _ranking(lexhmm: LexiconHMM, top) -> list:
    """(word, pph, score) rows of rank-ordered final tokens, each word read
    from its pph."""
    rows = []
    for token in top:
        pph, score = _unpack(lexhmm, token)
        rows.append((decode_pph(lexhmm.automaton, lexhmm.suff, pph), pph, score))
    return rows


def viterbi_flipflop(lexhmm: LexiconHMM, obs, window: bool = False) -> DecodeResult:
    """1-best token passing with two flip-flop arrays (2N token slots)."""
    n_states = lexhmm.n_states
    res = DecodeResult(token_slots=2 * n_states)
    src, dst = _tokens(n_states), _tokens(n_states)
    cols = _columns(lexhmm, obs)
    for col, frame in zip(cols, _relaxed(lexhmm, len(cols), window)):
        res.ops += _step(frame, col, src, dst)
        src, dst = dst, src
    res.ranking = _ranking(lexhmm, [k for k, _f in _best_final(lexhmm, src)])
    return res


def viterbi_inplace(lexhmm: LexiconHMM, obs, window: bool = False) -> DecodeResult:
    """1-best with a single token array (N slots), scanned in reverse
    topological order so each predecessor is read before being overwritten."""
    n_states = lexhmm.n_states
    res = DecodeResult(token_slots=n_states)
    tokens = _tokens(n_states)
    cols = _columns(lexhmm, obs)
    for col, frame in zip(cols, _relaxed(lexhmm, len(cols), window)):
        res.ops += _step(frame, col, tokens, tokens)
    res.ranking = _ranking(lexhmm, [k for k, _f in _best_final(lexhmm, tokens)])
    return res


def viterbi_tabular(lexhmm: LexiconHMM, obs, window: bool = False) -> DecodeResult:
    """Reference 1-best: full T x N lattice, winner recovered by
    backtracking (N*T token slots)."""
    n_states = lexhmm.n_states
    res = DecodeResult(token_slots=n_states * len(obs))
    cols = _columns(lexhmm, obs)
    # lattice[t] holds the tokens after t frames; lattice[0] is the start.
    lattice = [_tokens(n_states) for _ in range(len(obs) + 1)]
    for t, frame in enumerate(_relaxed(lexhmm, len(cols), window)):
        res.ops += _step(frame, cols[t], lattice[t], lattice[t + 1])
    top = _best_final(lexhmm, lattice[-1])
    if not top:
        return res
    token, j = top[0]
    # Backtrack the state path and spell the word from its node visits.  A
    # frame's winning predecessor is the first whose token plus transition
    # gives the token before emission: the one _step kept.  The first
    # frame's predecessor is START, which spells nothing.
    nodes = [lexhmm.state_node[j]]
    for t in range(len(obs) - 1, 0, -1):
        before = lattice[t + 1][j] - cols[t][j]
        src = lattice[t]
        j = next(i for i, w in lexhmm.preds[j] if src[i] + w == before)
        nodes.append(lexhmm.state_node[j])
    word = "".join(lexhmm.automaton.labels[node] for node, _ in groupby(reversed(nodes)))
    res.ranking = [(word, *_unpack(lexhmm, token))]
    return res


# --- n-best ----------------------------------------------------------------


def _completions(lexhmm: LexiconHMM, cols: list) -> list:
    """back[t][j]: the best completion of a token held at state j after
    frame t, math.inf for none.

    A completion is the packed cost and pph increments of the rest of a
    path: transitions and emissions of frames t + 1 .. T - 1, then the sink
    arc's increment.  One backward min-plus pass over the frames' windows
    (LexiconHMM.windows): at the last frame an exit state holds its
    sink-arc increment, and each earlier frame relaxes every predecessor of
    the next frame's windowed states.  back[t][j] is exact for every state
    j in frame t's window.
    """
    if not cols:
        return []
    windows = lexhmm.windows(len(cols))
    after = [INF] * (len(lexhmm.preds) + 1)
    for f, dpph in lexhmm.finals:
        after[f] = dpph
    back = [after]
    for t in range(len(cols) - 1, 0, -1):
        col = cols[t]
        cur = [INF] * len(after)
        # State order: the lists' reverse order made the pass about 5 %
        # slower on the suffix100k benchmark lexicon.
        for j, preds_j in reversed(windows[t][0]):
            rest = col[j] + after[j]
            if rest != INF:
                for i, w in preds_j:
                    c = w + rest
                    if c < cur[i]:
                        cur[i] = c
        back.append(cur)
        after = cur
    back.reverse()
    return back


def _nbest(lexhmm: LexiconHMM, obs, n: int, merge_state) -> DecodeResult:
    """n-best token passing.  Each frame, merge_state(prev, preds[j], e, n,
    mask, res) builds state j's sorted token list, emission e added, from
    its predecessors' lists in prev, keeping one token per pph (token &
    mask), and adds its work to res's counters.

    Only the live states are merged.  At frame t of T these are the
    successors of the states that hold a token after frame t - 1 (START at
    frame 0) that can still reach an exit state by the last frame,
    e(j) <= T - 1 - t (see lexhmm.reach_tables); every other state gets an
    empty list.
    A state past T - 1 - e(j) feeds only states past theirs, so each live
    state reads the lists a full relaxation would give it.  At n >= W a
    state left out would merge only empty lists, which counts nothing, so
    the counters are those of merging every state with
    d(j) <= t <= T - 1 - e(j).

    Below n = W the merged lists are then cut by an exact completion
    bound.  A backward pass first gives B = back[t][j], the best completion
    of a token at state j after frame t (see _completions).  k + B is the
    final token of a real path, the best one through k, so the bound U, the
    n-th best token of distinct pph among the completions lst[0] + B of
    every state merged so far, is at least the n-th best final token.  A
    token k with k + B > U lies on the best path of no top-n word, so it is
    cut; cutting a token only takes a competitor out of later lists, and
    every token left is still a real path of its pph.  U takes in a whole
    frame before that frame's lists are cut, so the cuts do not depend on
    the order in which a frame's states are merged.
    The bound also narrows the live set: a successor j of holder i is
    merged only if prev[i][0] + col[j] + B <= U, with U as the previous
    frame left it (math.inf until n completions are seen).  Transitions and
    pph increments never lower a token, so every token j can take from i is
    at least prev[i][0] + col[j], and U only falls: when no holder passes,
    the frame's cut would empty j's list.  So rankings, the kept lists and
    token_slots are those of merging every windowed state, and the
    counters count the merges' work, without the merges the bound rules
    out and without the backward pass.  At n >= W, U forms only once every
    word has a completion, so the pass and the bound are skipped: the
    all-words work stays the same on a trie and a DAWG.

    n = 1 runs the windowed in-place 1-best kernel instead, counters and
    all: both break score ties toward the smaller pph, so its one token is
    the rank-1 token.
    """
    if n < 1:
        raise DecodeError("n must be >= 1")
    if n == 1:
        return viterbi_inplace(lexhmm, obs, window=True)
    res = DecodeResult()
    mask = (1 << lexhmm.pph_bits) - 1
    preds = lexhmm.preds
    cols = _columns(lexhmm, obs)
    _d, e, succ = lexhmm.reach
    bounded = n < lexhmm.automaton.word_count
    if bounded:
        back = _completions(lexhmm, cols)
    else:
        back = [None] * len(cols)
    top: list = []  # the n best completions seen, one per pph
    bound = INF  # U: top's n-th token once top is full
    # START (-1) reads the trailing list: one token for the first frame only.
    prev: list = [()] * len(preds) + [[0]]
    holders = [START]  # the states whose lists feed the next frame
    held = 0  # tokens in prev, START's left out
    for left, col, after in zip(range(len(cols) - 1, -1, -1), cols, back):
        if bounded:
            # r: the most col[j] + B may add to holder i's best token within U
            live = {j for i in holders for r in (bound - prev[i][0],) for j in succ[i]
                    if e[j] <= left and col[j] + after[j] <= r}
        else:
            live = {j for i in holders for j in succ[i] if e[j] <= left}
        cur: list = [()] * len(prev)
        for j in live:
            cur[j] = merge_state(prev, preds[j], col[j], n, mask, res)
        if bounded:
            top = _top_n(top + [cur[j][0] + after[j] for j in live
                                if cur[j] and after[j] != INF], n, mask)
            if len(top) == n:
                bound = top[-1]
                for j in live:
                    if cur[j]:
                        del cur[j][bisect_right(cur[j], bound - after[j]):]
        holders = [j for j in live if cur[j]]
        prev = cur
        now = sum(len(cur[j]) for j in holders)
        res.token_slots = max(res.token_slots, held + now)  # both frames alive
        held = now
    res.ranking = _ranking(lexhmm, _top_n(
        [k + dpph for f, dpph in lexhmm.finals for k in prev[f]], n, mask))
    return res


def _merge_naive(prev: list, preds_j, e, n: int, mask: int, res: DecodeResult) -> list:
    cands: list = []
    append = cands.append
    visits = adds = 0
    live = e != INF  # a dead emission kills every candidate, still counted
    for i, w in preds_j:
        src = prev[i]
        if src:
            visits += len(src)
            if w != INF:
                adds += len(src)
                if live:
                    we = w + e
                    for k in src:
                        append(k + we)
    if not visits:
        return cands
    res.ops += visits
    res.merges += visits
    res.emission_adds += adds
    return _top_n(cands, n, mask) if len(cands) > 1 else cands


def _merge_improved(prev: list, preds_j, e, n: int, mask: int, res: DecodeResult) -> list:
    # The predecessors with a token left to read: (token list, transition).
    live = []
    total = 0
    for i, w in preds_j:
        src = prev[i]
        if src and w != INF:
            live.append((src, w))
            total += len(src)
    if not live:
        return []
    if total <= n:
        # Every token fits, so the list never fills and no quick reject
        # fires: the rank loop would read and merge every token, and one
        # sort gives the same list.
        lst = [k + w for src, w in live for k in src]
        if total > 1:
            lst = _top_n(lst, n, mask)
        reads = merges = total
    else:
        lst, reads, merges = _merge_ranks(live, n, mask)
    res.ops += reads
    res.merges += merges
    if e == INF:
        return []
    res.emission_adds += len(lst)
    return [c + e for c in lst]


def _merge_ranks(live: list, n: int, mask: int) -> tuple[list, int, int]:
    """The improved merge's rank loop over the live (token list, transition)
    predecessors: (merged list, tokens read, tokens merged)."""
    lst: list = []
    held: dict = {}  # pph -> the token lst holds for it
    reads = merges = 0
    for k in range(n):
        reads += len(live)
        kept = []
        for entry in live:
            src, w = entry
            c = src[k] + w
            # Quick reject against the current worst token.  src is in rank
            # order and a full lst's worst token never gets worse, so src's
            # deeper tokens would be rejected too: drop it.
            if len(lst) == n and c >= lst[-1]:
                continue
            if k + 1 < len(src):
                kept.append(entry)
            merges += 1
            p = c & mask
            # A token whose pph is already held replaces it only if better;
            # lst is sorted, so the held token is found by bisection.
            hc = held.get(p)
            if hc is not None:
                if c >= hc:
                    continue
                del lst[bisect_left(lst, hc)]
            # The merge window starts at rank k: earlier ranks are final.
            # Past the quick reject the token always lands within the n best.
            insort(lst, c, k)
            held[p] = c
            if len(lst) > n:
                del held[lst.pop() & mask]
        live = kept
        if not live:
            break
    return lst, reads, merges


def nbest_naive(lexhmm: LexiconHMM, obs, n: int) -> DecodeResult:
    """n-best with naive merging: every (predecessor, rank) candidate is
    built, given its emission term, and merged systematically."""
    return _nbest(lexhmm, obs, n, _merge_naive)


def nbest_improved(lexhmm: LexiconHMM, obs, n: int) -> DecodeResult:
    """n-best with improved merging: rank-outer/predecessor-inner loop order,
    merge window restricted to the k-th element onward, path-index update
    only on merged tokens, emission added once per surviving token.  A
    predecessor leaves the loop once its tokens run out or one of them fails
    the quick reject, so each state reads at most the tokens naive reads.
    A state whose candidates all fit in n tokens skips the loop for one
    sort, with the same list and counters."""
    return _nbest(lexhmm, obs, n, _merge_improved)


# The CLI's 1-best variants relax only the time window; called directly,
# the kernels keep the full relaxation unless asked.
VARIANTS = {
    "tabular": partial(viterbi_tabular, window=True),
    "flipflop": partial(viterbi_flipflop, window=True),
    "inplace": partial(viterbi_inplace, window=True),
}

NBEST_VARIANTS = {"nbest-naive": nbest_naive, "nbest-improved": nbest_improved}
