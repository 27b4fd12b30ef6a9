"""Exact mixture solver for small instances, and the authoritative oracle
for the heuristic: enumerate every multiset of g linear orders (orders in
lexicographic permutation order, multisets as non-decreasing index tuples so
each group combination is visited exactly once), fit optimal simplex weights
for each one a lower bound does not rule out, and keep the global best: the
first multiset in order whose fitted objective beats the incumbent by more
than _IMPROVE_TOL, stopping at the first objective <= _ZERO_TOL.

The bound splits a mixture's objective over the pairs' agreement patterns
with the first order: the pairs on which the same other orders disagree
with it move with one shared weight, so pricing each pattern at its own
best weight bounds every multiset (_class_bound).  At g = 2 (_scan_pairs)
a first order x1 and its weight t leave one LOP for the other order; a
first-order bound screens each (x1, t) (_first_order_bound), the LOPs
that remain fill stacked subset DP tables (mlop.lop), and x1's best pair,
if it passes, is fitted at its best breakpoint (_breakpoint_g2).
At g >= 3 (_scan_stacked) the multisets come in one stream, bounded a chunk
at a time by table lookups, and the fits that remain run as stacked LPs
(mlop.simplex_fit) that may span several first orders, many problems
pivoted in lockstep, each getting the bits a stack of one would, and the
winner keeps the weights its stack gave it.

The bounds are lower bounds on the fitted objective up to _SCREEN_SLACK.
The screens and each stack read the incumbent as it stood when they
started.  That incumbent is never below the one the plain loop would hold
at any later multiset, so the screens pass every multiset the plain loop
could take, and taking the strict improvements among the fitted ones in
order picks the same multiset.

The orders come from the cached, read-only vertex table of the linear
ordering polytope (enumerate_vertices).  check_guards admits a solve of
g >= 2 groups by its cost, which depends on (n, g) alone: two groups read
the vertex table (at most VERTEX_GUARD_N! orders), and three or more visit
at most MULTISET_GUARD multisets.  One group, a classical LOP, runs at any
n and is refused only when the subset DP gives up on it.  Refused solves
raise SizeGuardExceeded; the alternating heuristic covers them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import (InvalidInput, LinearOrder, MixtureSolution, PreferenceMatrix, canonicalize,
                   pair_rows_cols)
from .lop import BenefitMatrix, _rebuild, _subset_table, lop_exact
from .simplex_fit import _fit_simplex_stack
from .simplex_fit import _fit_simplex_l1  # noqa: F401  bound here for perfbench/spans.py's tracer

# incumbent replaced only on improvement beyond LP float noise, so the first
# canonical-minimum multiset encountered is kept deterministically
_IMPROVE_TOL = 1e-12
_ZERO_TOL = 1e-12
_TIE_TOL = 1e-12  # _breakpoint_g2: weights this close to the best objective tie
# screen bounds are sums of at most C(7, 2) = 21 terms of at most 1, taken in
# another order than the fitters' own sums, so they pass the fitted
# objective's float value, if at all, by well under this; it is also below
# _IMPROVE_TOL, so a multiset that only ties the incumbent is never fitted
_SCREEN_SLACK = 5e-13
# g >= 3 screens its stream of multisets in chunks of rows that double from
# _STACK_START, so that a solve ending early at objective zero fits few
# extra multisets, up to _CHUNK_MAX, and fits a chunk's survivors in stacked
# LPs of at most _STACK_MAX problems; chunks are larger than stacks because
# the screen passes few of their rows
_STACK_START = 16
_CHUNK_MAX = 4096
_STACK_MAX = 512
# g = 2 screens this many first orders' (x1, t) LOPs at once; the first
# chunk passes all of them: at n = 6, 8, 12 and 16 rows took 0.3, 0.6 and
# 0.7-1.0 MB of peak memory, and 35, 30 and 29 ms for six solves
_FIRST_CHUNK = 12

# 7! = 5040 vertices: g = 2 at n = 7 solves at most 23 LOPs of 7 items per
# first order, in 0.02-0.2 s; with the guard lifted, n = 8 (40,320 first
# orders) took 0.2-2.3 s
VERTEX_GUARD_N = 7
# enumeration_size(5, 3), about 0.2 s: g >= 3 fits a weight LP per
# multiset the class bound passes.  With the guard lifted, n = 4, g = 6
# (475,020) takes about 1 s, and n = 6, g = 3 visits 62.4M, 211 times as
# many
MULTISET_GUARD = 295_240


class SizeGuardExceeded(RuntimeError):
    """Instance exceeds the enumeration guards; use the heuristic solver."""


@dataclass(frozen=True)
class ExactConfig:
    """Settings of one exact solve: the number of groups g.

    Whether a solve of g groups at n items runs is not a setting;
    check_guards decides it from the cost alone.
    """

    g: int = 1

    def __post_init__(self):
        if self.g < 1:
            raise InvalidInput(f"g must be >= 1, got {self.g}")


@lru_cache(maxsize=None)
def enumerate_vertices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The complete, duplicate-free vertex table, read-only: perms (n!, n),
    the orders in lexicographic permutation order with the item ranked k-th
    in column k, and vertices (n!, C(n, 2)) float64, their precedence vectors."""
    if n < 2:
        raise InvalidInput(f"need n >= 2, got {n}")
    if n > VERTEX_GUARD_N:
        raise SizeGuardExceeded(
            f"vertex enumeration is guarded to n <= {VERTEX_GUARD_N}, got n={n}"
        )
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.intp)
    pos = np.argsort(perms, axis=1)  # pos[o, item]: where order o ranks the item
    rows, cols = pair_rows_cols(n)
    # C order: the scans read rows, and pos[:, rows] comes out F-ordered
    vertices = (pos[:, rows] < pos[:, cols]).astype(np.float64, order="C")
    perms.flags.writeable = False
    vertices.flags.writeable = False
    return perms, vertices


def enumeration_size(n: int, g: int) -> int:
    """Multiset coefficient C(n! + g - 1, g): number of visited candidates."""
    return math.comb(math.factorial(n) + g - 1, g)


def check_guards(n: int, g: int) -> None:
    """Raise SizeGuardExceeded unless an exact solve of g groups at n items
    is admitted.

    g = 1 is admitted at every n: solve_exact refuses it only once the
    subset DP has given up on it.  g = 2 reads the vertex table and is
    admitted up to n = VERTEX_GUARD_N.  g >= 3 fits a weight LP of g
    columns per unscreened multiset and is admitted while it visits at most
    MULTISET_GUARD of them.  n = 2 has only two orders, so its count, g + 1,
    stops bounding the g-column work; it is held to the n = 3 count
    (g <= 29), which is larger at every g.
    The cost grows with g, so admitting g admits every smaller g at the same n.
    """
    if g == 2 and n > VERTEX_GUARD_N:
        raise SizeGuardExceeded(
            f"g=2 enumerates all n! orders, guarded to n <= {VERTEX_GUARD_N}, got n={n}; "
            "use the heuristic solver"
        )
    if g >= 3 and enumeration_size(max(n, 3), g) > MULTISET_GUARD:
        where = f"n={n}" if n >= 3 else f"n={n} is held to n=3, which"
        raise SizeGuardExceeded(
            f"g={g} at {where} visits {enumeration_size(max(n, 3), g):,} multisets, more than "
            f"the guard of {MULTISET_GUARD:,} (n=5, g=3); use the heuristic solver"
        )


def solve_exact(
    C: PreferenceMatrix, cfg: ExactConfig
) -> tuple[MixtureSolution, float, bool]:
    """Provably optimal mixture of cfg.g linear orders under the L1 objective.

    Returns (solution, objective, proven).  The solution is canonicalized;
    proven is True on full enumeration and also on an early exit at objective
    zero, which is a global lower bound.  For a single group the search
    reduces to a classical LOP solved by lop_exact, which returns the
    identical optimum (objective C(n,2) - LOP value, lex-smallest order)
    or gives up, which raises SizeGuardExceeded.  Two or more groups
    enumerate the vertex table; check_guards says which sizes are admitted.
    """
    g = cfg.g
    check_guards(C.n, g)
    c = C.upper

    if g == 1:
        order, _, proven = lop_exact(BenefitMatrix.from_preferences(C))
        if not proven:
            raise SizeGuardExceeded(f"the subset DP gave up on g=1 at n={C.n}; "
                                    "use the heuristic solver")
        sol = MixtureSolution((order,), (1.0,))
        return sol, float(np.abs(c - order.prec).sum()), True

    perms, X = enumerate_vertices(C.n)
    best_combo, best_w, best_obj = _scan_pairs(X, c) if g == 2 else _scan_stacked(X, c, g)
    orders = tuple(LinearOrder(perms[j]) for j in best_combo)
    sol = canonicalize(MixtureSolution(orders, tuple(float(v) for v in best_w)))
    return sol, float(best_obj), True


def _scan_pairs(X: np.ndarray, c: np.ndarray):
    """(pair, weights, objective) of the first strict optimum among the
    pairs of rows of X.  At a weight t on a first order x1, the other
    order's best choice is a LOP: pair k costs its residual where it agrees
    with x1, |b_k - t| where it does not (_pair_terms).  Between two
    consecutive b_k each order's cost is linear in t, so their least is
    concave there and t need only take the b_k, 0 and 1.  The (x1, t) the
    first-order bound passes fill one subset DP table per _FIRST_CHUNK
    first orders.  An x1 whose least value passes the incumbent is fitted
    with its lexicographically smallest order rebuilt at a t within
    _TIE_TOL of that value, rows in table order."""
    n = math.isqrt(2 * X.shape[1]) + 1
    rows, cols = pair_rows_cols(n)
    best_obj, best_combo, best_w = math.inf, None, None
    for start in range(0, X.shape[0], _FIRST_CHUNK):
        X1 = X[start:start + _FIRST_CHUNK]
        residual, dist = _pair_terms(X1, c)
        bound = _first_order_bound(residual, dist)
        first, t = np.nonzero(bound < best_obj - _IMPROVE_TOL + _SCREEN_SLACK)
        if not first.size:
            continue  # a later chunk may still pass
        agree, differ, ones = residual[first], dist[first, :, t], X1[first] == 1.0
        b = np.zeros((first.size, n, n))
        b[:, rows, cols] = -np.where(ones, agree, differ)
        b[:, cols, rows] = -np.where(ones, differ, agree)
        f, gl, gh, _ = _subset_table(b)
        objs = -f[-1, 0]  # each LOP's value at the full mask
        heads = np.flatnonzero(np.diff(first, prepend=-1))  # each x1's first LOP
        for r, low in zip(first[heads], np.minimum.reduceat(objs, heads)):
            if low >= best_obj - _IMPROVE_TOL + _SCREEN_SLACK:
                continue
            own = np.flatnonzero(first == r)
            x2 = min(_rebuild(f[:, 0, p].item, gl[..., p], gh[..., p], 0)
                     for p in own[objs[own] <= low + _TIE_TOL])
            j = sum(sum(q < v for q in x2[k + 1:]) * math.factorial(n - 1 - k)
                    for k, v in enumerate(x2))  # its row: the rank of x2
            combo = tuple(sorted((start + int(r), j)))
            w, obj = _breakpoint_g2(X[list(combo)], c)
            if obj < best_obj - _IMPROVE_TOL:
                best_obj, best_combo, best_w = obj, combo, w
                if best_obj <= _ZERO_TOL:
                    return best_combo, best_w, best_obj
    return best_combo, best_w, best_obj


def _scan_stacked(X: np.ndarray, c: np.ndarray, g: int):
    """(multiset, weights, objective) of the first strict optimum among the
    multisets of g >= 3 rows of X, fitted in stacks of at most _STACK_MAX.

    The multisets are taken lazily in chunks that grow from _STACK_START to
    _CHUNK_MAX rows, so a solve that stops at objective zero early fits few
    multisets past the one it stops at.
    """
    class_bound = _class_bound(X, c)
    multisets = itertools.combinations_with_replacement(range(X.shape[0]), g)
    best_obj, best_combo, best_w = math.inf, None, None
    size = _STACK_START
    while True:
        chunk = itertools.chain.from_iterable(itertools.islice(multisets, size))
        combos = np.fromiter(chunk, dtype=np.intp).reshape(-1, g)
        if not combos.size:
            return best_combo, best_w, best_obj
        size = min(2 * size, _CHUNK_MAX)
        bound = class_bound(combos)
        pending = np.flatnonzero(bound < best_obj - _IMPROVE_TOL + _SCREEN_SLACK)
        while pending.size:
            stack, pending = combos[pending[:_STACK_MAX]], pending[_STACK_MAX:]
            ws, objs = _fit_simplex_stack(X, stack, c)
            for r in np.flatnonzero(objs < best_obj - _IMPROVE_TOL):
                if objs[r] >= best_obj - _IMPROVE_TOL:
                    continue  # the incumbent improved earlier in this stack
                best_obj, best_combo, best_w = objs[r], tuple(int(v) for v in stack[r]), ws[r]
                if best_obj <= _ZERO_TOL:
                    return best_combo, best_w, best_obj
            pending = pending[bound[pending] < best_obj - _IMPROVE_TOL + _SCREEN_SLACK]


def _targets(X1: np.ndarray, c: np.ndarray) -> np.ndarray:
    """b of each first order x1, a row of X1: the t that fits each pair
    exactly (_pair_terms), c_k where x1_k = 1 and 1 - c_k where it is 0."""
    return np.where(X1 == 1.0, c, 1.0 - c)


def _pair_terms(X1: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(residual, dist) of each first order x1, a row of X1 (R, m).

    Pair k adds |b_k - t| (_targets) to the objective of a mixture that
    starts with x1, where t = 1 - (the weight of the other orders that
    disagree with x1 on pair k).  residual (R, m) is that term where every
    order agrees with x1, |c_k - x1_k| = |b_k - 1|; dist (R, m, m + 2)
    holds it at each candidate t in (b_1, ..., b_m, 0, 1).
    """
    b = _targets(X1, c)
    ends = np.broadcast_to([0.0, 1.0], (b.shape[0], 2))
    cands = np.concatenate([b, ends], axis=1)
    return np.abs(c - X1), np.abs(b[:, :, None] - cands[:, None, :])


def _breakpoint_g2(X: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, float]:
    """Optimal weights (t, 1 - t) and objective of the pair of orders X
    (2, m), as simplex_fit._fit_simplex_l1 would return them.

    The pairs on which both orders agree add their residuals, and each
    other pair adds |b_k - t| (_targets).  That sum is piecewise linear in
    t with breakpoints only at the b_k, so the optimum is found by
    evaluating those breakpoints plus {0, 1}.
    """
    x1, x2 = X[0], X[1]
    diff = x1 != x2
    const = float(np.abs(c[~diff] - x1[~diff]).sum())
    b = _targets(x1, c)[diff]
    cands = np.unique(np.concatenate([b, [0.0, 1.0]]))
    F = const + np.abs(b[None, :] - cands[:, None]).sum(axis=1)
    best = float(F.min())
    opt = cands[F <= best + _TIE_TOL]
    # deterministic tie rule: lexicographically largest sorted weight vector,
    # then weight mass on the first column
    spread = np.maximum(opt, 1.0 - opt)
    opt = opt[spread >= spread.max() - _TIE_TOL]
    t = float(opt.max())
    objective = const + float(np.abs(b - t).sum())
    return np.array([t, 1.0 - t]), objective


def _first_order_bound(residual: np.ndarray, dist: np.ndarray) -> np.ndarray:
    """Lower bound (R, m + 2) on the objective of every pair of orders
    (x1, x2) at each candidate weight t on x1, from x1's _pair_terms.

    On each pair k, x2 either agrees with x1, which costs residual_k, or
    follows the one weight t, which costs |b_k - t|.  So the objective at t
    is at least sum_k min(residual_k, |b_k - t|).
    """
    return np.minimum(dist, residual[:, :, None]).sum(axis=1)


def _class_bound(X: np.ndarray, c: np.ndarray):
    """The class bound of the multisets of g >= 3 rows of X for the data c:
    a function of combos (R, g), R multisets as non-decreasing row indices,
    that returns a lower bound on each one's objective.

    On pair k, the pattern of a multiset is the set P of other orders that
    disagree with its first order x1 there, and the pair adds |b_k - t_P|
    (_pair_terms), so pairs of one pattern share one t_P.  The empty
    pattern has t = 1 and costs the residuals.  Freeing every other
    pattern's t gives the bound: the sum over those patterns of min over t
    of sum_k |b_k - t|, found at a candidate.  A pattern of one pair adds 0.

    Pair sets are bit sets, so each pattern is priced by a table lookup:
    the m pairs of g >= 3 are at most C(5, 2) = 10 (check_guards), so a
    table holds at most 5! first orders by 2^10 pair sets.  The tables are
    flat, read at first * N + other and first << m | pair set.
    """
    N, m = X.shape
    bit = 1 << np.arange(m)
    # agree[i, j] is the bit set of pairs on which order j agrees with order
    # i, and side[i, j, k] the pairs on which it sides with order i as it
    # does on pair k; agree_cost[i, s] is the residual sum of the pair set
    # s, and free_cost[i, s] its least sum at a free t
    code = (X == 1.0) @ bit
    dis = code[:, None] ^ code
    agree = ~dis & bit.sum()
    side = np.where(dis[:, :, None] & bit, dis[:, :, None], agree[:, :, None])
    residual, dist = _pair_terms(X, c)
    subsets = ((np.arange(1 << m)[:, None] >> np.arange(m)) & 1).T.astype(np.float64)
    # one candidate at a time: all m + 2 at once would be a 12 MB
    # temporary at n = 5
    free_cost = dist[:, :, 0] @ subsets
    for t in range(1, m + 2):
        np.minimum(free_cost, dist[:, :, t] @ subsets, out=free_cost)
    side, agree = side.reshape(N * N, m), agree.ravel()
    agree_cost, free_cost = (residual @ subsets).ravel(), free_cost.ravel()

    def bound(combos: np.ndarray) -> np.ndarray:
        first = combos[:, :1]
        others = first * N + combos[:, 1:]
        # the pairs that share pair k's pattern, and the empty pattern's pairs
        pattern = np.bitwise_and.reduce(side[others], axis=1)
        empty = np.bitwise_and.reduce(agree[others], axis=1)
        # price each other pattern once, at its lowest pair
        lowest = ((pattern & -pattern) == bit) & (pattern != empty[:, None])
        row = first << m  # the first order's row of the cost tables
        free = np.where(lowest, free_cost[row | pattern], 0.0)
        return agree_cost[row[:, 0] | empty] + free.sum(axis=1)

    return bound


def opt_curve(C: PreferenceMatrix, g_max: int) -> list[tuple[int, float]]:
    """Proven optima (g, OPT_g) for g = 1..g_max; non-increasing in g: a
    solve may land float noise above a smaller g's, which then stands.

    Refuses before solving anything when g_max is not admitted.
    """
    if g_max < 1:
        raise InvalidInput(f"g_max must be >= 1, got {g_max}")
    check_guards(C.n, g_max)
    objs = (solve_exact(C, ExactConfig(g))[1] for g in range(1, g_max + 1))
    return list(enumerate(itertools.accumulate(objs, min), 1))
