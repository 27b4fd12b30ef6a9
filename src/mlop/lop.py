"""Classical Linear Ordering Problem solver over an arbitrary real benefit
matrix.  Used standalone (single-group solves) and as the inner engine of the
alternating heuristic's ranking-update step, where benefits may be negative.

lop_exact runs a subset dynamic program (the Held-Karp-style recursion over
item subsets).  It first splits the items into the chain of strongly
connected blocks of the graph in which r may come before s unless b[s, r]
exceeds b[r, s] by more than a small tolerance; every optimum keeps that
chain, so one DP per block gives the same answer as one DP over all n.  A
block of k <= _DP_ONE_PART_MAX_N items fills the DP's whole table, O(2^k k)
time.  A larger one runs the same recursion one popcount layer at a time
over only the subsets whose upper bound still reaches the value of an
insertion-search order (DP with bounding, Puchinger and Stuckey, PEPM 2008),
so its cost follows the subsets kept, and gives the same order bit for bit.
A layer of few candidates is stepped in plain Python, a larger one in
numpy, whose per-call cost would otherwise set the small layers' cost.
Where a layer would grow too many candidate subsets, a block of k <=
LOP_DP_MAX_N items fills the whole table instead (past 2^k / 16 candidates,
but never below 2^14, so up to 13 items it never does), and a larger one
keeps the insertion-search order, unproven.  Its cap (DEFAULT_LAYER_BUDGET
unless the caller sets one) counts candidate subsets too, never wall time,
so runs are machine-independent and reproducible.  The answer depends on
the matrix and the cap alone, so the answers for the last _DP_MEMO_SIZE distinct pairs
of them are memoized, and a repeated solve (the alternating heuristic makes
many) costs one hash instead of a DP.  _lop_exact_batch answers a list of
small matrices, the inner LOPs of the heuristic's starts, with one subset
DP fill over their stack.  _rebuild reads every table, lone, stacked or
bounded, so one function holds the DP's tie rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import InvalidInput, LinearOrder, PreferenceMatrix, pair_rows_cols

# largest block the whole-table subset DP solves, and so the largest n whose
# solve is always proven; its value table holds 2^n float64 (8 MiB at n = 20)
# and its cached index tables stay under 256 KiB
LOP_DP_MAX_N = 20
# candidate subsets a popcount layer of a block above LOP_DP_MAX_N items may
# grow, and rows its larger half table may have, when the caller sets no cap;
# 2^17 admits blocks of up to 34 items
DEFAULT_LAYER_BUDGET = 1 << 17
# rebuilding the DP's order, items whose best values differ by at most this
# count as tied and the smaller one is placed first
_TIE_TOL = 1e-12
# up to this n the DP's table has no low part (h = 0): a popcount layer is
# then one set of numpy calls, which halves a solve at n <= 8 and is faster
# through n = 11 (n // 2 low bits win from n = 12)
_DP_ONE_PART_MAX_N = 11
# float64 values per temporary array of the DP (1 MiB)
_DP_CHUNK = 1 << 17
# float64 values the gain tables of one stacked solve (_lop_exact_batch) may
# hold, the ceiling of the whole-table DP's own value table (8 MiB)
_STACK_VALUES = 1 << LOP_DP_MAX_N
# the bounded DP hands a block of k <= LOP_DP_MAX_N items to the whole-table
# DP before a popcount layer would grow more than 2^k / this many candidates,
# or _BOUNDED_LAYER_FLOOR where that is more
_BOUNDED_LAYER_DIV = 16
# the floor under that cap.  Below 18 items 2^k / 16 is at most 4,096
# candidates, which the +-w tournament block of a light group, whose bound
# prunes little, passes while its layers still cost less than the whole
# table.  With the floor a block of up to 13 items never fills the whole
# table; from 18 items on it changes nothing
_BOUNDED_LAYER_FLOOR = 1 << 14
# a bounded layer of at most this many candidates (kept subsets times free
# items) is stepped in plain Python, a larger one in numpy: a numpy layer
# costs about 30 us whatever its size, a Python one about 1 us per
# candidate.  Over the 808 bounded blocks of a seed-1 heuristic_n16 pass,
# 32 to 64 were fastest; 128 and 0 (all numpy) were about 4% and 9% slower
_BOUNDED_PY_LAYER_MAX = 64
# item counts whose _insertion_value index tables, and whose order_value
# masks, are cached
_INSERTION_SIZES = 64
# a pair counts as ordered, tying the blocks of its items into the chain,
# when its two benefits differ by more than this times max(1, max |b|)
_BLOCK_TOL = 1e-9
# distinct (benefit matrix, cap) pairs whose answers are kept (200 KiB of
# keys at n = 20); the heuristic's repeats come within a few solves of the
# original
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
    return float(np.where(_strict_upper(len(idx)), b[idx][:, idx], 0.0).sum())


@lru_cache(maxsize=_INSERTION_SIZES)
def _strict_upper(n: int) -> np.ndarray:
    """The n x n mask of the entries above the diagonal, np.triu's k = 1."""
    mask = np.triu(np.ones((n, n), dtype=bool), 1)
    mask.flags.writeable = False  # shared by every caller of the cache
    return mask


def lop_exact(B: BenefitMatrix, budget: int | None = None) -> tuple[LinearOrder, float, bool]:
    """Maximize the total benefit of consistent precedences over all orders.

    The subset DP solves each strongly connected block of items on its own,
    and a matrix solved recently with the same budget returns its memoized
    answer.

    Args:
        B: benefit matrix.
        budget: cap on the candidate subsets per popcount layer of a block of
            more than LOP_DP_MAX_N items, and on the rows of its larger half
            table; None means DEFAULT_LAYER_BUDGET.  A block that would pass
            it keeps its insertion-search order, and the answer is returned
            with proven=False.  Up to LOP_DP_MAX_N items it plays no part.

    Returns:
        (order, value, proven).  A proven order is the lexicographically
        smallest optimum, with values within 1e-12 counted as ties.
    """
    return _dp_solve(B.b.tobytes(), B.n, DEFAULT_LAYER_BUDGET if budget is None else budget)


@lru_cache(maxsize=_DP_MEMO_SIZE)
def _dp_solve(key: bytes, n: int, budget: int) -> tuple[LinearOrder, float, bool]:
    """lop_exact's answer for the n x n benefit matrix whose C-order float64
    bytes are key.  Matrices differing in any bit, -0.0 versus 0.0 included,
    are solved apart.

    Each block of _blocks' chain with two or more items is solved on its
    own, its items in ascending label order so that local indices compare as
    labels do: by _subset_dp up to _DP_ONE_PART_MAX_N items, by _bounded_dp
    above.  Both return _subset_dp's order for the block, and every optimum
    keeps the chain, so the concatenated block answers are the whole
    matrix's lexicographically smallest optimum, the order _subset_dp
    returns on all n items.  A block that _bounded_dp gives up on keeps its
    insertion-search order instead, and the answer is unproven.
    """
    b = np.frombuffer(key).reshape(n, n)
    perm, proven = [], True
    for block in _blocks(b):
        if len(block) == 1:
            perm += block
            continue
        sub = b[block][:, block]
        local = _subset_dp(sub) if len(block) <= _DP_ONE_PART_MAX_N else _bounded_dp(sub, budget)
        if local is None:
            local, proven = _insertion_value(sub, _tolerance(sub))[0], False
        perm += [block[i] for i in local]
    perm = tuple(perm)
    return LinearOrder(perm), order_value(perm, b), proven


def _lop_exact_batch(matrices, budget: int | None = None, solve=lop_exact):
    """lop_exact's (order, proven) for each of a list of benefit matrices of
    one size.

    Matrices of at most _DP_ONE_PART_MAX_N items, one alone included, are
    stacked, and one whole-matrix subset DP (_subset_table, h = 0) fills
    their tables in slices of at most _STACK_VALUES gain-table values;
    _rebuild reads each as _subset_dp reads a lone one.  That is the order
    lop_exact's blocks give, proven, without the memo.  Larger matrices
    each go through solve: lop_exact as the caller binds it, so that a
    wrapper the caller installs there sees those solves.
    """
    n = matrices[0].n
    if n > _DP_ONE_PART_MAX_N:
        answers = [solve(B, budget=budget) for B in matrices]
        return [(order, proven) for order, _, proven in answers]
    b = np.stack([B.b for B in matrices])
    step = max(1, _STACK_VALUES // ((1 << n) * n))
    answers = []
    for k in range(0, len(b), step):
        f, gl, gh, _ = _subset_table(b[k : k + step])
        f = f.reshape(-1, f.shape[-1])
        answers += [(LinearOrder(_rebuild(f[:, p].item, gl[..., p], gh[..., p], 0)), True)
                    for p in range(f.shape[1])]
    return answers


def _tolerance(b: np.ndarray) -> float:
    """_BLOCK_TOL times max(1, max |b|)."""
    return _BLOCK_TOL * max(1.0, float(np.abs(b).max()))


def _blocks(b: np.ndarray) -> list[list[int]]:
    """The strongly connected blocks, in chain order and each in ascending
    item order, of the graph with an arc r -> s wherever
    b[r, s] - b[s, r] >= -eps: r may come before s.

    eps = _tolerance(b) is far above the n * _TIE_TOL the DP's tie rule may
    give up and above float noise.  Every pair across two
    blocks gains more than eps by keeping chain order, so the stable sort by
    block of any order breaking the chain beats it by more than eps, and the
    DP never returns such an order.  Every pair has an arc one way or both,
    so the blocks form a chain and an item of an earlier block has more
    out-arcs than any item of a later one: sorted by out-degree the blocks
    are contiguous, and one starts at each position k that no arc from
    position k or later reaches back past.
    """
    n = b.shape[0]
    arc = b - b.T >= -_tolerance(b)
    order = np.argsort(-arc.sum(axis=1), kind="stable")
    back = np.tril(arc[order][:, order], -1)  # arcs to earlier positions
    # reach[k]: the earliest position an arc from position k or later points
    # to, or k when there is none
    pos = np.arange(n)
    lowest = np.where(back.any(axis=1), back.argmax(axis=1), pos)
    reach = np.minimum.accumulate(lowest[::-1])[::-1]
    bounds = (reach == pos).nonzero()[0].tolist() + [n]  # reach[0] is 0
    order = order.tolist()
    return [sorted(order[i:j]) for i, j in zip(bounds, bounds[1:])]


def _subset_dp(b: np.ndarray) -> tuple[int, ...]:
    """Lexicographically smallest optimal order of b's items: _subset_table's
    table, read by _rebuild."""
    f, gl, gh, h = _subset_table(b[None])
    return _rebuild(f[..., 0].ravel().item, gl[..., 0], gh[..., 0], h)


def _subset_table(b: np.ndarray):
    """The subset recursion's table for each matrix b[p] of a (P, n, n) stack,

        f(S) = max over i in S of  f(S - i) + sum over j in S of b[i, j],

    where i is the first item of S and f(S) the best value of an order of S
    (b's diagonal is zero).  A subset is a bit mask, split into its low
    h bits and its high n - h bits, and f is a 2^(n-h) x 2^h x P table
    indexed by (high part, low part, matrix); h is n // 2, or 0 up to
    _DP_ONE_PART_MAX_N items.  The gain sum is read off the two parts'
    subset-sum tables.  The table is filled one popcount layer of the high
    part at a time, in chunks of at most _DP_CHUNK values, and within a
    chunk one popcount layer of the low part at a time.  Each matrix's
    values are summed as they would be alone.  At h = 0 the low sums are
    all 0.0 and are not added: f(empty) is 0.0 and a sum is -0.0 only when
    both terms are, so f holds no -0.0 and _rebuild's added 0.0 changes no bit.

    Returns (f, gl, gh, h), gl and gh the low and high subset-sum tables.
    """
    stack, n = b.shape[0], b.shape[-1]
    h = _low_bits(n)
    width = 1 << h
    low_layers, high_layers = _dp_tables(n)
    gl = _subset_sums(b, 0, h)  # gl[lo, i, p]: sum of b[p, i, j] over the low bits j of lo
    gh = _subset_sums(b, h, n)  # gh[hi, i, p]: sum of b[p, i, h + j] over the bits j of hi
    gl_items = gl.transpose(1, 0, 2)
    gh_flat = gh.reshape(-1, stack)  # row hi * n + i is gh[hi, i]
    # the low layers past the empty one, each with its items' gains over it
    low_steps = [(lows, items, preds, gl[lows, items])
                 for lows, items, preds in low_layers[1:]]

    f = np.empty((1 << (n - h), width, stack))
    for count, (highs, items, preds) in enumerate(high_layers):
        step = max(1, _DP_CHUNK // (max(count, 1) * width * stack))
        for r0 in range(0, len(highs), step):
            hi = highs[r0 : r0 + step]
            if count == 0:
                w = np.full((1, width, stack), -np.inf)
                w[0, 0] = 0.0
            else:
                # the first item is a high one: drop its bit from the high part
                first = items[:, r0 : r0 + step]
                t = np.take(f, preds[:, r0 : r0 + step], axis=0)
                if h:
                    t += gl_items[first]
                t += np.take(gh_flat, hi * n + first, axis=0)[:, :, None]
                w = t.max(axis=0)
            gh_rows = gh[hi] if h else None
            for lows, first, low_preds, gain in low_steps:
                # the first item is a low one: drop its bit from the low part
                t = w[:, low_preds]
                t += gain
                t += gh_rows[:, first]
                best = t.max(axis=1)
                np.maximum(w[:, lows], best, out=best)
                w[:, lows] = best
            f[hi] = w

    return f, gl, gh, h


def _bounded_dp(b: np.ndarray, budget: int = DEFAULT_LAYER_BUDGET) -> tuple[int, ...] | None:
    """_subset_dp's order, from the same recursion restricted to the subsets
    that may still lie on an optimal order (_bounded_values).  A block of
    k <= LOP_DP_MAX_N items falls back to _subset_dp once a layer would
    grow more than max(2^k / _BOUNDED_LAYER_DIV, _BOUNDED_LAYER_FLOOR)
    candidates, which up to 13 items none can.  A larger block gives up,
    None, once a layer, or the 2^(k - k // 2) rows of its larger half
    table, would pass budget."""
    n = b.shape[0]
    h = _low_bits(n)
    dense = n <= LOP_DP_MAX_N
    cap = max((1 << n) // _BOUNDED_LAYER_DIV, _BOUNDED_LAYER_FLOOR) if dense else budget
    if 1 << (n - h) > cap:
        return None
    gl = _subset_sums(b, 0, h)
    gh = _subset_sums(b, h, n)
    layers = _bounded_values(b, gl, gh, h, cap)
    if layers is None:
        return _subset_dp(b) if dense else None

    def value(mask: int) -> float:
        layer = layers[mask.bit_count()]
        if type(layer) is dict:
            return layer.get(mask, -np.inf)
        masks, values = layer
        k = int(masks.searchsorted(mask))
        return values.item(k) if k < len(masks) and masks.item(k) == mask else -np.inf

    return _rebuild(value, gl, gh, h)


def _bounded_values(b: np.ndarray, gl: np.ndarray, gh: np.ndarray, h: int, cap: int):
    """_subset_dp's value of each subset that may lie on an optimal order,
    one popcount layer at a time: per layer a {mask: value} dict or a pair
    of arrays, the masks ascending and their values; a subset no layer
    holds is off every optimal order.  None once a layer would grow more
    than cap candidates, checked before it is built.

    Each layer is built from the kept subsets of the one before, each
    candidate f(S - i) + gain summed exactly as _subset_dp sums it, and the
    largest of a subset's candidates kept.
    S is kept only while f(S) plus the most the items outside S can add in
    front of it reaches the incumbent's value (_insertion_value) minus
    eps = _tolerance(b).  A subset on any order within eps of the optimum is
    therefore kept, and by induction on its size its f is _subset_dp's,
    from the same float sums: the best first item of S leaves a subset on an
    order at least as good.  The rebuild, whose tie rule gives up at most
    n * _TIE_TOL, far below eps, only visits such subsets, so its order is
    _subset_dp's bit for bit.

    With x the indicator of the items outside S, the most they add is the
    sum of b[r, s] over r outside S and s in S plus max(b[r, s], b[s, r])
    over the pairs r < s outside S, that is q = x.row_sums + x'Ax/2 for the
    symmetric A = max(b, b') - b - b'.  Each subset carries q and the
    vector v = -(row_sums + Ax): adding item i to S makes them q + v[i] and
    v + A[i].

    A numpy layer is a few dozen calls whatever its size, so a layer of at
    most _BOUNDED_PY_LAYER_MAX candidates, kept subsets times free items,
    is stepped in plain Python instead (_python_layer) and stored as a
    dict; at 16 items that is about half the layers, the first and most of
    the last ones.  Both steppers take the candidates in the same order and
    sum them alike, so they keep the same subsets with the same values, q
    and v bit for bit.  The numpy step calls ndarray methods, not the np.*
    wrappers, and sums into the arrays it gathers, not into new temporaries.
    """
    n = b.shape[0]
    eps = _tolerance(b)
    floor = _insertion_value(b, eps)[1] - eps
    a = np.maximum(b, b.T) - b - b.T
    row_sums = b.sum(axis=1)
    low, bit = (1 << h) - 1, np.int64(1) << np.arange(n)
    a_rows, gl_at, gh_at = a.tolist(), memoryview(gl), memoryview(gh)
    # the last layer's subsets, masks ascending, with their values, q and
    # v: lists after a Python step, arrays after a numpy one
    masks, values = [0], [0.0]
    q, v = [float(row_sums.sum() + 0.5 * a.sum())], [(-(a.sum(axis=1) + row_sums)).tolist()]
    arrays = False
    head = np.ones(1, dtype=bool)
    layers = [{0: 0.0}]
    for count in range(n):
        size = len(masks) * (n - count)
        if size > cap:
            return None
        if size <= _BOUNDED_PY_LAYER_MAX:
            if arrays:
                masks, values, q, v = masks.tolist(), values.tolist(), q.tolist(), v.tolist()
                arrays = False
            masks, values, q, v = _python_layer(masks, values, q, v, gl_at, gh_at, h, a_rows, floor)
            layers.append(dict(zip(masks, values)))
            continue
        if not arrays:
            masks, values = np.array(masks, dtype=np.int64), np.array(values)
            q, v = np.array(q), np.array(v)
            arrays = True
        # candidate k: subset row[k] of the layer with item col[k] added
        row, col = ((masks[:, None] & bit) == 0).nonzero()
        grown = masks[row]
        grown |= bit[col]
        t = values[row]
        t += gl[grown & low, col]
        t += gh[grown >> h, col]
        bound = q[row]
        bound += v[row, col]
        kept = (t + bound >= floor).nonzero()[0]
        kept = kept[grown[kept].argsort(kind="stable")]
        grown = grown[kept]
        # each subset once: the best of its candidates, and the bound terms
        # of the first
        first = np.concatenate((head, grown[1:] != grown[:-1])).nonzero()[0]
        masks, values = grown[first], np.maximum.reduceat(t[kept], first)
        pick = kept[first]
        q, v = bound[pick], v[row[pick]] + a[col[pick]]
        layers.append((masks, values))
    return layers


def _python_layer(masks, values, q, v, gl_at, gh_at, h, a_rows, floor):
    """One layer of _bounded_values stepped in plain Python: from a layer's
    subsets, masks ascending, with their values, q and v as lists, the next
    layer's in the same form.  gl_at and gh_at are memoryviews of gl and
    gh.  Candidates run as in the numpy step, by subset and then by added
    item, each summed in the same order, and a subset keeps the largest of
    its candidates' values and the bound terms of the first one kept."""
    n, low = len(a_rows), (1 << h) - 1
    found = {}  # grown mask -> [best value, q, parent's v, added item]
    for mask, f, qs, vs in zip(masks, values, q, v):
        for i in range(n):
            if mask >> i & 1:
                continue
            grown = mask | 1 << i
            t = f + gl_at[grown & low, i] + gh_at[grown >> h, i]
            bound = qs + vs[i]
            if t + bound >= floor:
                seen = found.get(grown)
                if seen is None:
                    found[grown] = [t, bound, vs, i]
                elif t > seen[0]:
                    seen[0] = t
    masks = sorted(found)
    kept = [found[m] for m in masks]
    return (masks, [t for t, _, _, _ in kept], [bound for _, bound, _, _ in kept],
            [[x + y for x, y in zip(vs, a_rows[i])] for _, _, vs, i in kept])


def _rebuild(value, gl: np.ndarray, gh: np.ndarray, h: int) -> tuple[int, ...]:
    """The subset DP's order from value(mask), its value of the subset with
    mask (hi << h | lo): from the front, each step takes the smallest item
    whose choice stays within _TIE_TOL of the best value of the items left.
    Each candidate is summed in the same order as in the table, so the best
    one equals the value."""
    n = gl.shape[1]
    left = (1 << n) - 1
    perm = []
    for _ in range(n):
        lo, hi = gl[left & ((1 << h) - 1)].tolist(), gh[left >> h].tolist()
        floor = value(left) - _TIE_TOL
        item = next(
            i for i in range(n)
            if left >> i & 1 and value(left ^ 1 << i) + lo[i] + hi[i] >= floor
        )
        perm.append(item)
        left ^= 1 << item
    return tuple(perm)


def _insertion_value(b: np.ndarray, eps: float) -> tuple[tuple[int, ...], float]:
    """The order, and its value, that best-improvement insertion moves reach
    from the order by descending row sum minus column sum, each move gaining
    more than eps, until none does.  All O(n^2) moves of a step are scored
    at once (Schiavinotto and Stuetzle, 2004): with c[i, j] the sum of
    b[u, v] - b[v, u] over the first j positions v, u at position i, moving
    u to position j gains c[i, i] - c[i, j] for j < i and c[i, i] - c[i, j + 1]
    for j > i."""
    n = b.shape[0]
    d = b - b.T
    perm = np.argsort(-(b.sum(axis=1) - b.sum(axis=0)), kind="stable").tolist()
    move, stay = _insertion_tables(n)
    c = np.zeros((n, n + 1))
    while True:
        np.cumsum(d[perm][:, perm], axis=1, out=c[:, 1:])
        flat = c.ravel()
        gain = flat[stay][:, None] - flat[move]
        best = int(gain.argmax())
        if gain.flat[best] <= eps:
            return tuple(perm), order_value(perm, b)
        i, j = divmod(best, n)
        perm.insert(j, perm.pop(i))


@lru_cache(maxsize=_INSERTION_SIZES)
def _insertion_tables(n: int):
    """_insertion_value's flat indices into its n x (n + 1) table c: of
    each move's c[i, j] or c[i, j + 1], and of each c[i, i]."""
    pos = np.arange(n)
    move = pos[:, None] * (n + 1) + pos + (pos >= pos[:, None])
    stay = pos * (n + 2)
    for arr in (move, stay):
        arr.flags.writeable = False  # shared by every caller of the cache
    return move, stay


def _subset_sums(b: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Row m, column i: sum of b[i, lo + j] over the bits j of m, m < 2^(hi-lo),
    added in ascending bit order.  For a (P, n, n) stack, entry [m, i, p]
    is that sum for b[p]."""
    cols = np.swapaxes(b, 0, -1)  # cols[j] is column j, one per matrix
    sums = np.empty((1 << (hi - lo),) + cols.shape[1:])
    sums[0] = 0.0
    for j in range(hi - lo):
        np.add(sums[: 1 << j], cols[lo + j], out=sums[1 << j : 2 << j])
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
    the masks, and as c x masks arrays the items their bits stand for (bit
    j is item offset + j) and each mask with one of those bits cleared.
    Candidates of one mask run down a column, so that the DP's max over
    them is a reduction over rows of contiguous values."""
    masks = np.arange(1 << width, dtype=np.int64)
    bits = (masks[:, None] >> np.arange(width)) & 1
    count = bits.sum(axis=1)
    layers = []
    for c in range(width + 1):
        m = masks[count == c]
        pos = np.nonzero(bits[m])[1].reshape(len(m), c).T
        layer = (m, pos + offset, m ^ (np.int64(1) << pos))
        for arr in layer:
            arr.flags.writeable = False  # shared by every caller of the cache
        layers.append(layer)
    return tuple(layers)


def benefit_for_pairs(n: int, upper_rs: np.ndarray, upper_sr: np.ndarray) -> BenefitMatrix:
    """Assemble a BenefitMatrix from per-pair values b_rs (r < s) and b_sr."""
    rows, cols = pair_rows_cols(n)
    b = np.zeros((n, n))
    b[rows, cols] = upper_rs
    b[cols, rows] = upper_sr
    return BenefitMatrix(b)
