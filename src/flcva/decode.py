"""Token-passing Viterbi decoders over a lexicon HMM.

Variants: tabular (full lattice + backtracking, the reference), flip-flop
(two token arrays), in-place (one token array), and n-best with naive and
improved merging.  Every 1-best variant runs the same frame step, which
scans a frame's states in reverse topological order, each state starting
from its own token plus its self-loop (LexiconHMM.relax); in-place differs
only in reading and writing one array.  With window=True, as the CLI runs
them (VARIANTS), the 1-best kernels relax at frame t of T only the states
with d(j) <= t <= T - 1 - e(j), the time window (LexiconHMM.windows).  A
state outside its window keeps a stale token, but only states outside
their own windows read it, so rankings and tabular's backtrack are those
of the full relaxation, and ops counts the window's predecessor visits,
self-loops included.  Called directly, they relax every state by default:
ops is then T times the predecessor count, the work the work-scaling
checks predict.  The n-best loop merges only live states: the successors
of the previous frame's token holders that can still reach a word end by
the last frame.  Below n = W the loop cuts every token whose best
completion, from one backward pass over the same windows, cannot reach
the top n, and leaves out a successor whose every token that cut would
remove.
Each frame reads one emission column, LexiconHMM.emissions[symbol], and a
sequence's columns are looked up before its first frame runs.
The CLI decodes a file in one process through decode_file, which runs
the 1-best variants in lanes (LANE_VARIANTS): the file's sequences of one
length, in chunks of LANE_MIN to LANE_CAP, decode together, each state's
tokens one int of K lanes (decode_lanes, SWAR), with every lane's result
bit-identical to the scalar kernel's; tabular keeps every frame's lane
array and backtracks each lane through the helper viterbi_tabular uses
(_backtrack).  Every other sequence runs the scalar kernel.

A token is one int, `cost << pph_bits | pph`: cost is the path's negated
log score in 2^-32 grid units and pph its path-history index (see
LexiconHMM).  Int order is rank order, ties on score broken toward the
smaller path index, so every variant picks its winners with plain int
compares and sorts, and all variants and the oracle are bit-comparable.
Adding a packed transition or emission to a token adds costs and pphs
separately; math.inf is the dead token, and stays dead under every
addition.  A lane cannot hold math.inf, so decode_lanes uses a finite
dead token instead.
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
    col; returns visits, the predecessor entries read, self-loops included.

    For each relaxation entry (j, loop, others) in states (see
    LexiconHMM.relax), the least source token plus transition over preds[j]
    (the best score, ties to the smaller pph) gets col[j] and is written to
    dst.  The scan starts from src[j] + loop, j's own token over its
    self-loop, and reads the others after it; equal sums are equal tokens,
    so which predecessor gives the least does not matter.  States come in
    reverse topological order, each after all of its successors, so src may
    be dst: no token is overwritten before it has been read.
    """
    states, visits = window
    for j, loop, others in states:
        best = src[j] + loop
        for i, w in others:
            c = src[i] + w
            if c < best:
                best = c
        dst[j] = best + col[j]
    dst[START] = INF  # START feeds the first frame only
    return visits


def _lane_step(states, table, col, src, dst, high: int, shift: int, gone: int) -> None:
    """_step over lanes (see decode_lanes): one frame of the window states,
    every token an int of K lanes.  table[j] (LexiconHMM.lane_table) holds
    state j's emission row, self-loop and other predecessors with their
    weights spread over the lanes; col[r] is emission row r's lanes for the
    frame.  The lane-wise min of best and c: d = (best | high) - c holds
    2^(w-1) + best - c in each lane, so its guard bit (high) is set where
    best >= c, and subtracting d's low bits there, best - c, leaves c;
    no lane borrows from the next.  Equal lanes are equal tokens, as in
    _step.  gone, every lane dead, is written to START.
    """
    for j, _loop, _others in states:
        r, best, others = table[j]
        best += src[j]
        for i, w in others:
            d = (best | high) - (src[i] + w)
            g = d & high
            best -= d & (g - (g >> shift))
        dst[j] = best + col[r]
    dst[START] = gone


def _relaxed(lexhmm: LexiconHMM, n_frames: int, window: bool) -> list:
    """Each frame's (states, visits) for _step: the time window's
    (LexiconHMM.windows), or else every state's relaxation entry
    (LexiconHMM.relax) at every frame, last state first."""
    if window:
        return lexhmm.windows(n_frames)
    return [(lexhmm.relax[::-1], lexhmm.n_arcs)] * n_frames


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
    res.ranking = [_backtrack(lexhmm, lattice, cols, *top) for top in _best_final(lexhmm, lattice[-1])]
    return res


def _backtrack(lexhmm: LexiconHMM, lattice: list, cols: list, token: int, j: int,
               read=lambda x: x) -> tuple:
    """The ranking row of tabular's final token, which exit state j holds
    after the last frame: its word is spelled from the state path's node
    visits, backtracked through lattice (lattice[t]: the tokens after t
    frames) with the frames' emission columns cols.  read(x) is the token a
    lattice entry x holds: x itself, or one lane of it (decode_lanes).

    A frame's winning predecessor is the first whose token plus transition
    gives the token before emission: the one _step kept.  The first frame's
    predecessor is START, which spells nothing.
    """
    nodes = [lexhmm.state_node[j]]
    for t in range(len(cols) - 1, 0, -1):
        before = read(lattice[t + 1][j]) - cols[t][j]
        src = lattice[t]
        j = next(i for i, w in lexhmm.preds[j] if read(src[i]) + w == before)
        nodes.append(lexhmm.state_node[j])
    word = "".join(lexhmm.automaton.labels[node] for node, _ in groupby(reversed(nodes)))
    return (word, *_unpack(lexhmm, token))


# --- lanes -----------------------------------------------------------------

# Token arrays per state of the CLI variants that decode in lanes; 0 is
# one a frame and the start, tabular's lattice.
LANE_VARIANTS = {"tabular": 0, "flipflop": 2, "inplace": 1}
LANE_MIN = 5  # the fewest sequences that decode together
LANE_CAP = 64  # the most
# The most lane bits the token arrays of one lane decode may hold, 32 MiB:
# a large trie's groups, and long ones for tabular, get fewer lanes, or
# none, rather than many times a scalar decode's arrays.
LANE_BITS = 1 << 28


def _lane_shape(lexhmm: LexiconHMM, n_frames: int) -> tuple[int, int]:
    """(D, lane width in bytes) of an n_frames-frame lane decode (see
    decode_lanes)."""
    top_w, top_e = lexhmm.largest_costs
    dead = 1 << ((n_frames + 1) * (top_w + top_e) + (2 << lexhmm.pph_bits)).bit_length()
    return dead, (((n_frames + 2) * 2 * dead).bit_length() + 8) // 8  # the guard bit included


def lane_chunks(lexhmm: LexiconHMM, sequences, arrays: int = 1) -> list:
    """The sequences that decode together with arrays token arrays (a
    LANE_VARIANTS value), as lists of indices into sequences.  A group
    holds the sequences of one length T >= 1 with no symbol outside the
    alphabet, in order.  Its cap is LANE_CAP lanes, or fewer where the
    decode's token arrays, N lanes of its width each, would pass LANE_BITS;
    a group longer than its cap is cut into the fewest chunks within it,
    their sizes a sequence apart, so each holds at least half the cap.
    Chunks of fewer than LANE_MIN are left out."""
    groups: dict = {}
    emissions = lexhmm.emissions
    for k, symbols in enumerate(sequences):
        if symbols and all(s in emissions for s in symbols):
            groups.setdefault(len(symbols), []).append(k)
    chunks = []
    for n_frames, group in groups.items():
        if len(group) < LANE_MIN:
            continue  # and the shape, which reads every weight once per HMM, is not needed
        lane_bits = 8 * _lane_shape(lexhmm, n_frames)[1] * lexhmm.n_states * (arrays or n_frames + 1)
        cap = min(LANE_CAP, LANE_BITS // lane_bits)
        if cap < LANE_MIN:
            continue
        parts = -(-len(group) // cap)
        cuts = [len(group) * p // parts for p in range(parts + 1)]
        chunks += [group[a:b] for a, b in zip(cuts, cuts[1:]) if b - a >= LANE_MIN]
    return chunks


def decode_lanes(lexhmm: LexiconHMM, group: list, arrays: int = 1) -> list:
    """Windowed 1-best results of K equal-length sequences decoded
    together, one lane each, with arrays token arrays (1: in-place, 2:
    flip-flop, 0: tabular's lattice, one a frame and the start); each
    equals its sequence's VARIANTS result, counters included.

    A state's K tokens are one int of K lanes of w bits, lane k holding
    sequence k's token.  A lane cannot hold math.inf, so the dead token is
    D, a power of two above (T + 1) x (the largest finite transition + the
    largest finite emission) + 2^(pph_bits + 1), which no live token or
    final token reaches; an inf weight adds D, so a lane holding at least D
    is dead.  A frame adds at most 2D, so a lane stays below
    (T + 2) x 2D, and w is that bound's bit length plus a guard bit,
    rounded up to whole bytes: no add or lane-wise min carries into the
    next lane.  A frame's emissions are one int per distinct emission row,
    joined from each lane's bytes for its symbol.  Tabular backtracks each
    live lane k through the lattice (_backtrack), reading an entry x as
    (x >> k·w) & mask; a dead lane holds at least D, so it plus a
    transition never equals a live token.
    """
    n_frames, n_states, k_lanes = len(group[0]), lexhmm.n_states, len(group)
    dead, width = _lane_shape(lexhmm, n_frames)
    shift = 8 * width - 1
    ones = int.from_bytes((b"\1" + bytes(width - 1)) * k_lanes, "little")
    high, gone = ones << shift, dead * ones
    table = lexhmm.lane_table(ones, dead)
    emit = [{s: (dead if e == INF else e).to_bytes(width, "little") for s, e in row.items()}
            for row in lexhmm.emission_rows[1]]
    # START (-1) holds 0 in every lane; frame t reads tokens[t] and writes
    # tokens[t + 1], modulo their count.
    tokens = [[gone] * n_states + [0] for _ in range(arrays or n_frames + 1)]
    visits = 0
    for t, (symbols, (states, frame_visits)) in enumerate(zip(zip(*group), lexhmm.windows(n_frames))):
        col = [int.from_bytes(b"".join([row[s] for s in symbols]), "little") for row in emit]
        _lane_step(states, table, col, tokens[t % len(tokens)], tokens[(t + 1) % len(tokens)],
                   high, shift, gone)
        visits += frame_visits
    last = tokens[n_frames % len(tokens)]
    best = gone
    for f, dpph in lexhmm.finals:  # the lane-wise min of _lane_step
        d = (best | high) - (last[f] + dpph * ones)
        g = d & high
        best -= d & (g - (g >> shift))
    lanes = best.to_bytes(k_lanes * width, "little")
    mask = (1 << 8 * width) - 1
    results = []
    for k in range(k_lanes):
        token = int.from_bytes(lanes[k * width:(k + 1) * width], "little")
        if token >= dead:
            ranking = []
        elif arrays:
            ranking = _ranking(lexhmm, [token])
        else:
            def read(x, at=8 * width * k):
                return (x >> at) & mask

            j = next(f for f, dpph in lexhmm.finals if read(last[f]) + dpph == token)
            ranking = [_backtrack(lexhmm, tokens, _columns(lexhmm, group[k]), token, j, read)]
        results.append(DecodeResult(ranking=ranking, ops=visits, token_slots=(arrays or n_frames) * n_states))
    return results


def decode_file(lexhmm: LexiconHMM, sequences: list, decode, arrays: int | None = None):
    """Each sequence's result, or the DecodeError it raised, in order.
    Unless arrays is None, the sequences of each lane chunk
    (lane_chunks(lexhmm, sequences, arrays)) decode together
    (decode_lanes), once the first of them is reached; decode(symbols)
    decodes every other sequence."""
    chunks = {} if arrays is None else {chunk[0]: chunk for chunk in lane_chunks(lexhmm, sequences, arrays)}
    done: dict = {}
    for k, symbols in enumerate(sequences):
        chunk = chunks.get(k)
        if chunk:
            done.update(zip(chunk, decode_lanes(lexhmm, [sequences[i] for i in chunk], arrays)))
        result = done.pop(k, None)
        if result is None:
            try:
                result = decode(symbols)
            except DecodeError as exc:
                result = exc
        yield result


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

    A frame walks its window in state order.  Each state j first writes
    cur[j] from its own self-loop, then pushes its rest to its other
    predecessors, all of lower index; the states that push to j come after
    it, so nothing has written cur[j] before.  A dead rest pushes math.inf,
    which lowers nothing, so no state is tested for one.
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
        # State order, which the unconditional self-loop write needs.
        for j, loop, others in reversed(windows[t][0]):
            rest = col[j] + after[j]
            cur[j] = loop + rest
            for i, w in others:
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
