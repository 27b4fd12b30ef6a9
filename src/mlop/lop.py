"""Classical Linear Ordering Problem solvers over an arbitrary real benefit
matrix.  Used standalone (single-group solves) and as the inner engine of the
alternating heuristic's ranking-update step, where benefits may be negative.

The exact solver covers n <= LOP_DP_MAX_N with a subset dynamic program
(the Held-Karp-style recursion over item subsets), which is always optimal
and proven.  It first splits the items into the chain of strongly connected
blocks of the graph in which r may come before s unless b[s, r] exceeds
b[r, s] by more than a small tolerance; every optimum keeps that chain, so
one DP per block gives the same answer as one DP over all n.  A block of
k <= _DP_ONE_PART_MAX_N items fills the DP's whole table, O(2^k k) time.  A
larger one runs the same recursion over only the subsets whose upper bound
still reaches the value of an insertion-search order (DP with bounding,
Puchinger and Stuckey, PEPM 2008), so its cost follows the subsets kept; it
fills the whole table instead where the bound keeps too many.  Both give
the same order bit for bit.  The answer depends on the matrix alone, so the
answers for the last _DP_MEMO_SIZE distinct matrices are memoized by their
bytes, and a repeated solve (the alternating heuristic makes many) costs
one hash instead of a DP.  Above that size it runs a best-first branch and
bound assigning rank positions from the front, with an admissible node
bound (value fixed so far plus the sum of max(b_rs, b_sr) over undecided
pairs), capped at DEFAULT_NODE_BUDGET explored nodes unless the caller sets
a cap.  Effort is bounded by n or counted in nodes, never in wall time, so
runs are machine-independent and reproducible.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import InvalidInput, LinearOrder, PreferenceMatrix, pair_rows_cols

# Margin below the incumbent at which subtrees are pruned.  Keeping
# bound == incumbent nodes alive is what makes the first complete order
# popped the lex-smallest optimum, up to float noise in the node bounds.
_PRUNE_TOL = 1e-12

_IMPROVE_TOL = 1e-12

# largest n the subset DP solves; its value table holds 2^n float64 (8 MiB
# at n = 20) and its cached index tables stay under 256 KiB
LOP_DP_MAX_N = 20
# branch-and-bound node cap above LOP_DP_MAX_N when the caller sets none
DEFAULT_NODE_BUDGET = 50_000
# rebuilding the DP's order, items whose best values differ by at most this
# count as tied and the smaller one is placed first
_TIE_TOL = 1e-12
# up to this n the DP's table has no low part (h = 0): a popcount layer is
# then one set of numpy calls, which halves a solve at n <= 8 and is faster
# through n = 11 (n // 2 low bits win from n = 12)
_DP_ONE_PART_MAX_N = 11
# float64 values per temporary array of the DP (1 MiB)
_DP_CHUNK = 1 << 17
# the bounded DP hands a block of k items to the whole-table DP before a
# popcount layer would grow more than 2^k / this many candidate subsets
_BOUNDED_LAYER_DIV = 16
# a pair counts as ordered, tying the blocks of its items into the chain,
# when its two benefits differ by more than this times max(1, max |b|)
_BLOCK_TOL = 1e-9
# distinct benefit matrices whose DP answers are kept (200 KiB of keys at
# n = 20); the heuristic's repeats come within a few solves of the original
_DP_MEMO_SIZE = 64


@dataclass(frozen=True)
class BenefitMatrix:
    """Full n x n matrix of real benefits of placing r before s.

    No normalization is required (entries may be negative); the diagonal is
    ignored and forced to zero on construction.
    """

    b: np.ndarray

    def __post_init__(self):
        arr = np.array(self.b, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
            raise InvalidInput(f"benefit matrix must be square, got {arr.shape}")
        np.fill_diagonal(arr, 0.0)  # diagonal carries no information
        if not np.all(np.isfinite(arr)):
            raise InvalidInput("benefit entries must be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "b", arr)

    @property
    def n(self) -> int:
        return self.b.shape[0]

    @classmethod
    def from_preferences(cls, C: PreferenceMatrix) -> "BenefitMatrix":
        return cls(C.full())


def order_value(perm, b: np.ndarray) -> float:
    """Sum of b[u, v] over all pairs with u before v in perm."""
    idx = np.asarray(perm, dtype=np.int64)
    sub = b[np.ix_(idx, idx)]
    return float(np.triu(sub, k=1).sum())


def lop_exact(
    B: BenefitMatrix,
    budget: int | None = None,
    warm_start: LinearOrder | None = None,
) -> tuple[LinearOrder, float, bool]:
    """Maximize the total benefit of consistent precedences over all orders.

    Up to LOP_DP_MAX_N items the subset DP solves the instance exactly, one
    strongly connected block of items at a time, budget and warm_start play
    no part, and a matrix solved recently returns its memoized answer; above
    it the branch and bound runs, uncached.

    Args:
        B: benefit matrix.
        budget: branch-and-bound cap on explored (popped) search nodes, for
            n > LOP_DP_MAX_N only; None means DEFAULT_NODE_BUDGET.  On
            exhaustion the best incumbent is returned with proven=False.
        warm_start: optional order used to strengthen the branch and bound's
            initial incumbent (the insertion heuristic always contributes one
            as well).

    Returns:
        (order, value, proven).  A proven order is the lexicographically
        smallest optimum, with values within 1e-12 counted as ties.
    """
    if warm_start is not None and warm_start.n != B.n:
        raise InvalidInput("warm start order has wrong item count")
    if B.n <= LOP_DP_MAX_N:
        return _dp_solve(B.b.tobytes(), B.n)
    return _branch_and_bound(B, DEFAULT_NODE_BUDGET if budget is None else budget, warm_start)


@lru_cache(maxsize=_DP_MEMO_SIZE)
def _dp_solve(key: bytes, n: int) -> tuple[LinearOrder, float, bool]:
    """lop_exact's answer for the n x n benefit matrix whose C-order float64
    bytes are key.  Matrices differing in any bit, -0.0 versus 0.0 included,
    are solved apart.

    Each block of _blocks' chain with two or more items is solved on its
    own, its items in ascending label order so that local indices compare as
    labels do: by _subset_dp up to _DP_ONE_PART_MAX_N items, by _bounded_dp
    above.  Both return _subset_dp's order for the block, and every optimum
    keeps the chain, so the concatenated block answers are the whole
    matrix's lexicographically smallest optimum, the order _subset_dp
    returns on all n items.
    """
    b = np.frombuffer(key).reshape(n, n)
    perm = []
    for block in _blocks(b):
        if len(block) == 1:
            perm += block
        else:
            solve = _subset_dp if len(block) <= _DP_ONE_PART_MAX_N else _bounded_dp
            perm += [block[i] for i in solve(b[np.ix_(block, block)])]
    perm = tuple(perm)
    return LinearOrder(perm), order_value(perm, b), True


def _blocks(b: np.ndarray) -> list[list[int]]:
    """The strongly connected blocks, in chain order and each in ascending
    item order, of the graph with an arc r -> s wherever
    b[r, s] - b[s, r] >= -eps: r may come before s.

    eps is _BLOCK_TOL times max(1, max |b|), far above the n * _TIE_TOL the
    DP's tie rule may give up and above float noise.  Every pair across two
    blocks gains more than eps by keeping chain order, so the stable sort by
    block of any order breaking the chain beats it by more than eps, and the
    DP never returns such an order.  Every pair has an arc one way or both,
    so the blocks form a chain and an item of an earlier block has more
    out-arcs than any item of a later one: sorted by out-degree the blocks
    are contiguous, and one starts at each position k that no arc from
    position k or later reaches back past.
    """
    n = b.shape[0]
    arc = b - b.T >= -_BLOCK_TOL * max(1.0, float(np.abs(b).max()))
    order = np.argsort(-arc.sum(axis=1), kind="stable")
    back = np.tril(arc[np.ix_(order, order)], -1)  # arcs to earlier positions
    # reach[k]: the earliest position an arc from position k or later points
    # to, or k when there is none
    lowest = np.where(back.any(axis=1), back.argmax(axis=1), np.arange(n))
    reach = np.minimum.accumulate(lowest[::-1])[::-1]
    bounds = [0] + [k for k in range(1, n) if reach[k] == k] + [n]
    order = order.tolist()
    return [sorted(order[i:j]) for i, j in zip(bounds, bounds[1:])]


def _subset_dp(b: np.ndarray) -> tuple[int, ...]:
    """Lexicographically smallest optimal order by the subset recursion

        f(S) = max over i in S of  f(S - i) + sum over j in S of b[i, j],

    where i is the first item of S and f(S) the best value of an order of S
    (b's diagonal is zero).  A subset is a bit mask, split into its low
    h bits and its high n - h bits, and f is a 2^(n-h) x 2^h table indexed
    by (high part, low part); h is n // 2, or 0 up to _DP_ONE_PART_MAX_N
    items.  The gain sum is read off the two parts' subset-sum tables.  The
    table is filled one popcount layer of the high part at a time, in chunks
    of at most _DP_CHUNK values, and within a chunk one popcount layer of
    the low part at a time.  _rebuild reads the order off it.
    """
    n = b.shape[0]
    h = _low_bits(n)
    width = 1 << h
    low_layers, high_layers = _dp_tables(n)
    gl = _subset_sums(b, 0, h)  # gl[lo, i]: sum of b[i, j] over the low bits j of lo
    gh = _subset_sums(b, h, n)  # gh[hi, i]: sum of b[i, h + j] over the bits j of hi
    gl_items = gl.T
    # the low layers past the empty one, each with its items' gains over it
    low_steps = [(lows, items, preds, gl[lows[:, None], items])
                 for lows, items, preds in low_layers[1:]]

    f = np.empty((1 << (n - h), width))
    for count, (highs, items, preds) in enumerate(high_layers):
        step = max(1, _DP_CHUNK // (max(count, 1) * width))
        for r0 in range(0, len(highs), step):
            hi = highs[r0 : r0 + step]
            if count == 0:
                w = np.full((1, width), -np.inf)
                w[0, 0] = 0.0
            else:
                # the first item is a high one: drop its bit from the high part
                first = items[r0 : r0 + step]
                t = f[preds[r0 : r0 + step]]
                t += gl_items[first]
                t += gh[hi[:, None], first][:, :, None]
                w = t.max(axis=1)
            gh_rows = gh[hi]
            for lows, first, low_preds, gain in low_steps:
                # the first item is a low one: drop its bit from the low part
                t = w[:, low_preds]
                t += gain
                t += gh_rows[:, first]
                best = t.max(axis=2)
                np.maximum(w[:, lows], best, out=best)
                w[:, lows] = best
            f[hi] = w

    return _rebuild(f.ravel(), gl, gh, h)


def _bounded_dp(b: np.ndarray) -> tuple[int, ...]:
    """_subset_dp's order, from the same recursion restricted to the subsets
    that may still lie on an optimal order (_bounded_values), or from
    _subset_dp itself where that restriction keeps too many of them."""
    n = b.shape[0]
    h = _low_bits(n)
    gl = _subset_sums(b, 0, h)
    gh = _subset_sums(b, h, n)
    f = _bounded_values(b, gl, gh, h)
    return _subset_dp(b) if f is None else _rebuild(f, gl, gh, h)


def _bounded_values(b: np.ndarray, gl: np.ndarray, gh: np.ndarray, h: int):
    """_subset_dp's value table on the subsets that may lie on an optimal
    order, -inf elsewhere; None once a popcount layer would grow more than
    2^n / _BOUNDED_LAYER_DIV candidates, checked before it is built.

    The subsets are built one popcount layer at a time from the kept ones,
    each candidate f(S - i) + gain summed exactly as _subset_dp sums it.
    S is kept only while f(S) plus the most the items outside S can add in
    front of it (_keep_floors) reaches the incumbent's value
    (_insertion_value) minus eps = _BLOCK_TOL * max(1, max |b|).  A subset
    on any order within eps of the optimum is therefore kept, and by
    induction on its size its f is _subset_dp's, from the same float sums:
    the best first item of S leaves a subset on an order at least as good.
    The rebuild, whose tie rule gives up at most n * _TIE_TOL, far below
    eps, only visits such subsets, so its order is _subset_dp's bit for bit.
    """
    n = b.shape[0]
    eps = _BLOCK_TOL * max(1.0, float(np.abs(b).max()))
    need = _keep_floors(b, h, _insertion_value(b, eps) - eps)  # least f(S) keeping S
    f = np.full(1 << n, -np.inf)
    f[0] = 0.0
    stamp = np.empty(1 << n, dtype=np.int32)  # scratch for merging duplicates
    slots = np.arange((1 << n) // _BOUNDED_LAYER_DIV, dtype=np.int32)
    low, items = (1 << h) - 1, np.arange(n)
    bit = np.int64(1) << items
    masks, values = np.zeros(1, dtype=np.int64), np.zeros(1)
    for count in range(n):
        if len(masks) * (n - count) > len(slots):
            return None
        # row r, column i: masks[r] with item i added, a new subset unless i
        # is in it already
        grown = masks[:, None] | bit
        t = values[:, None] + gl[grown & low, items]
        t += gh[grown >> h, items]
        keep = (t >= need[grown]) & (grown != masks[:, None])
        subsets, t = grown[keep], t[keep]
        np.maximum.at(f, subsets, t)
        # each subset once: the last of its duplicates stamps its slot
        stamp[subsets] = slots[: len(subsets)]
        masks = subsets[stamp[subsets] == slots[: len(subsets)]]
        values = f[masks]
    return f


def _rebuild(f: np.ndarray, gl: np.ndarray, gh: np.ndarray, h: int) -> tuple[int, ...]:
    """The subset DP's order from its value table f, indexed by mask
    (hi << h | lo): from the front, each step takes the smallest item whose
    choice stays within _TIE_TOL of the best value of the items left.  Each
    candidate is summed in the same order as in the table, so the best one
    equals f."""
    n = gl.shape[1]
    left = (1 << n) - 1
    perm = []
    for _ in range(n):
        lo, hi = gl[left & ((1 << h) - 1)].tolist(), gh[left >> h].tolist()
        floor = f.item(left) - _TIE_TOL
        item = next(
            i for i in range(n)
            if left >> i & 1 and f.item(left ^ 1 << i) + lo[i] + hi[i] >= floor
        )
        perm.append(item)
        left ^= 1 << item
    return tuple(perm)


def _keep_floors(b: np.ndarray, h: int, floor: float) -> np.ndarray:
    """Per subset S of b's items, by mask: floor minus the most the items
    outside S can add in front of S, that is the sum of b[r, s] over r
    outside S and s in S plus max(b[r, s], b[s, r]) over the pairs r < s
    outside S.

    With x the indicator of the complement, that sum is x.row_sums + x'Ax/2
    for the symmetric A = max(b, b') - b - b'.  Split into the low h items
    and the rest, it is a low term plus a high term plus a cross term, and
    all three come from one product of two small matrices, over the
    complements; the table is read backwards to index it by S.
    """
    n = b.shape[0]
    a = np.maximum(b, b.T) - b - b.T
    rows = b.sum(axis=1)
    xl, xh = _mask_bits(h), _mask_bits(n - h)
    ql = xl @ rows[:h] + 0.5 * ((xl @ a[:h, :h]) * xl).sum(axis=1)
    qh = xh @ rows[h:] + 0.5 * ((xh @ a[h:, h:]) * xh).sum(axis=1)
    high = np.column_stack([-(xh @ a[h:, :h]), floor - qh, np.full(len(xh), -1.0)])
    low = np.vstack([xl.T, np.ones(len(xl)), ql])
    return (high @ low).ravel()[::-1]


@lru_cache(maxsize=None)
def _mask_bits(width: int) -> np.ndarray:
    """Row m: the bits of m, m < 2^width, as floats."""
    bits = ((np.arange(1 << width)[:, None] >> np.arange(width)) & 1).astype(np.float64)
    bits.flags.writeable = False  # shared by every caller of the cache
    return bits


def _insertion_value(b: np.ndarray, eps: float) -> float:
    """Value of lop_heuristic's score order after best-improvement insertion
    moves, each gaining more than eps, until none does.  All O(n^2) moves of
    a step are scored at once (Schiavinotto and Stuetzle, 2004): with c[i, j]
    the sum of b[u, v] - b[v, u] over the first j positions v, u at position
    i, moving u to position j gains c[i, i] - c[i, j] for j < i and
    c[i, i] - c[i, j + 1] for j > i."""
    n = b.shape[0]
    d = b - b.T
    perm = np.argsort(-(b.sum(axis=1) - b.sum(axis=0)), kind="stable").tolist()
    pos = np.arange(n)
    # flat index into c of each move's c[i, j] or c[i, j + 1], and of c[i, i]
    move = pos[:, None] * (n + 1) + pos + (pos >= pos[:, None])
    stay = pos * (n + 2)
    c = np.zeros((n, n + 1))
    while True:
        np.cumsum(d[perm][:, perm], axis=1, out=c[:, 1:])
        flat = c.ravel()
        gain = flat[stay][:, None] - flat[move]
        best = int(gain.argmax())
        if gain.flat[best] <= eps:
            return order_value(perm, b)
        i, j = divmod(best, n)
        perm.insert(j, perm.pop(i))


def _subset_sums(b: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Row m, column i: sum of b[i, lo + j] over the bits j of m, m < 2^(hi-lo),
    added in ascending bit order."""
    sums = np.empty((1 << (hi - lo), b.shape[0]))
    sums[0] = 0.0
    for j in range(hi - lo):
        np.add(sums[: 1 << j], b[:, lo + j], out=sums[1 << j : 2 << j])
    return sums


def _low_bits(n: int) -> int:
    """Bits in the low part of the subset DP's table index for n items."""
    return n // 2 if n > _DP_ONE_PART_MAX_N else 0


@lru_cache(maxsize=None)
def _dp_tables(n: int):
    """The subset DP's index tables for n items: (low layers, high layers)."""
    h = _low_bits(n)
    return _popcount_layers(h, 0), _popcount_layers(n - h, h)


def _popcount_layers(width: int, offset: int):
    """Per popcount c, for the width-bit masks with c bits set (ascending):
    the masks, the items their bits stand for (bit j is item offset + j),
    and each mask with one of those bits cleared."""
    masks = np.arange(1 << width, dtype=np.int64)
    bits = (masks[:, None] >> np.arange(width)) & 1
    count = bits.sum(axis=1)
    layers = []
    for c in range(width + 1):
        m = masks[count == c]
        pos = np.nonzero(bits[m])[1].reshape(len(m), c)
        layer = (m, pos + offset, m[:, None] ^ (np.int64(1) << pos))
        for arr in layer:
            arr.flags.writeable = False  # shared by every caller of the cache
        layers.append(layer)
    return tuple(layers)


def _branch_and_bound(
    B: BenefitMatrix, budget: int, warm_start: LinearOrder | None
) -> tuple[LinearOrder, float, bool]:
    """Best-first branch and bound over rank positions from the front.

    budget caps the explored (popped) nodes.
    """
    b = B.b
    n = B.n
    incumbent, inc_value = lop_heuristic(B)
    if warm_start is not None:
        wv = order_value(warm_start.perm, b)
        if wv > inc_value + _IMPROVE_TOL or (
            abs(wv - inc_value) <= _IMPROVE_TOL and warm_start.perm < incumbent.perm
        ):
            incumbent, inc_value = warm_start, wv

    pm = np.maximum(b, b.T)  # per-pair upper bound max(b_rs, b_sr)

    all_items = tuple(range(n))
    root_pair_bound = float(np.triu(pm, k=1).sum())
    # heap entries: (-bound, prefix, fixed_value, pair_bound_rest, remaining)
    heap = [(-root_pair_bound, (), 0.0, root_pair_bound, all_items)]
    explored = 0

    while heap:
        if explored >= budget:
            return incumbent, inc_value, False
        negb, prefix, fixed, pbound, remaining = heapq.heappop(heap)
        explored += 1
        if not remaining:
            # first complete order popped: no other node can beat its value
            return LinearOrder(prefix), order_value(prefix, b), True
        rest_idx = np.asarray(remaining, dtype=np.int64)
        # diagonals are zero, so row sums over the remaining block give each
        # candidate's gain (and bound loss) over the other remaining items
        gains = b[np.ix_(rest_idx, rest_idx)].sum(axis=1)
        losses = pm[np.ix_(rest_idx, rest_idx)].sum(axis=1)
        for pos, item in enumerate(remaining):
            rest = remaining[:pos] + remaining[pos + 1 :]
            fixed_c = fixed + float(gains[pos])
            pbound_c = pbound - float(losses[pos])
            bound_c = fixed_c + pbound_c
            if bound_c >= inc_value - _PRUNE_TOL:
                heapq.heappush(heap, (-bound_c, prefix + (item,), fixed_c, pbound_c, rest))

    # all subtrees pruned against the incumbent: it is optimal
    return incumbent, inc_value, True


def lop_heuristic(B: BenefitMatrix) -> tuple[LinearOrder, float]:
    """Fast, deterministic insertion local search for the LOP.

    Construction places items by descending row-sum minus column-sum, then
    single-item relocations are applied (first improvement, items scanned by
    index) until a fixed point.
    """
    b = B.b
    score = b.sum(axis=1) - b.sum(axis=0)
    perm, value = _insertion_local_search(np.argsort(-score, kind="stable"), b)
    return LinearOrder(tuple(perm)), value


def _insertion_local_search(perm: list[int], b: np.ndarray) -> tuple[list[int], float]:
    """Relocate single items until no move improves the value."""
    perm = [int(v) for v in perm]
    n = len(perm)
    improved = True
    while improved:
        improved = False
        for item in range(n):
            i = perm.index(item)
            for j in range(n):
                if j == i:
                    continue
                if j > i:
                    between = perm[i + 1 : j + 1]
                    delta = sum(b[k, item] - b[item, k] for k in between)
                else:
                    between = perm[j:i]
                    delta = sum(b[item, k] - b[k, item] for k in between)
                if delta > _IMPROVE_TOL:
                    perm.pop(i)
                    perm.insert(j, item)
                    improved = True
                    break
    return perm, order_value(perm, b)


def benefit_for_pairs(n: int, upper_rs: np.ndarray, upper_sr: np.ndarray) -> BenefitMatrix:
    """Assemble a BenefitMatrix from per-pair values b_rs (r < s) and b_sr."""
    rows, cols = pair_rows_cols(n)
    b = np.zeros((n, n))
    b[rows, cols] = upper_rs
    b[cols, rows] = upper_sr
    return BenefitMatrix(b)
