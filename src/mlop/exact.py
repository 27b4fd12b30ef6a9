"""Exact mixture solver for small instances, and the authoritative oracle
for the heuristic: enumerate every multiset of g linear orders (orders in
lexicographic permutation order, multisets as non-decreasing index tuples so
each group combination is visited exactly once), fit optimal simplex weights
for each one a lower bound does not rule out, and keep the global best.

The bound splits a mixture's objective over the pairs' agreement patterns
with the first order: the pairs on which the same other orders disagree
with it move with one shared weight, so pricing each pattern at its own
best weight bounds every multiset (_ClassBound, _pair_bound at g = 2).  The
multisets that start with one order are bounded in one batch: one matrix
product at g = 2, table lookups at g >= 3.  At g = 2 a bound on the whole
batch skips most first orders outright (_first_order_bound).  At g >= 3
the fits that remain run as stacked LPs, many problems pivoted in
lockstep, and the winner keeps the weights its stack gave it.

The orders come from the cached vertex table of the linear ordering
polytope.  check_guards admits a solve of g >= 2 groups by its cost, which
depends on (n, g) alone: two groups read the vertex table (at most
VERTEX_GUARD_N! orders), and three or more visit at most MULTISET_GUARD
multisets.  One group, a classical LOP, runs at any n and is refused only
when the subset DP gives up on it.  Refused solves raise SizeGuardExceeded;
the alternating heuristic covers them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .core import (
    InvalidInput,
    LinearOrder,
    MixtureSolution,
    PreferenceMatrix,
    canonicalize,
    pair_rows_cols,
)
from .lop import BenefitMatrix, lop_exact
from .simplex_fit import _breakpoint_g2, _fit_simplex_stack
from .simplex_fit import _fit_simplex_l1  # noqa: F401  bound here for perfbench/spans.py's tracer

# incumbent replaced only on improvement beyond LP float noise, so the first
# canonical-minimum multiset encountered is kept deterministically
_IMPROVE_TOL = 1e-12
_ZERO_TOL = 1e-12
# screen bounds are sums of at most C(7, 2) = 21 terms of at most 1, taken in
# another order than the fitters' own sums, so they pass the fitted
# objective's float value, if at all, by well under this; it is also below
# _IMPROVE_TOL, so a multiset that only ties the incumbent is never fitted
_SCREEN_SLACK = 5e-13
# g >= 3 screens the multisets that start with one order in chunks of rows
# that double from _STACK_START, so that a solve ending early at objective
# zero fits few extra multisets, up to _CHUNK_MAX, and fits a chunk's
# survivors in stacked LPs of at most _STACK_MAX problems; chunks are larger
# than stacks because the screen passes few of their rows
_STACK_START = 16
_CHUNK_MAX = 4096
_STACK_MAX = 512
# g = 2 takes the first-order bounds of this many first orders at once, in
# (rows, m, m + 2) arrays: at n = 6, 256 rows raised a solve's peak memory
# by 0.8 MB over 32, and all 720 at once by 1.8 MB
_FIRST_CHUNK = 32

# 7! = 5040 vertices: g = 2 at n = 7 visits 12.7M multisets in 0.07-0.7 s
# on generated instances and 3-5 s on uniform random data, because the
# first-order bound skips most first orders; with the guard lifted, n = 8
# (40,320 vertices, 813M multisets) took 6 s on a generated instance and
# 16 s on uniform random data
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


@dataclass(frozen=True)
class PolytopeVertexSet:
    """All n! precedence vectors, with the permutations they encode."""

    n: int
    perms: np.ndarray  # (n!, n) item ranked k-th in column k, lexicographic rows
    vertices: np.ndarray  # (n!, C(n,2)) float64, rows aligned with perms

    @cached_property
    def orders(self) -> tuple[LinearOrder, ...]:
        """The orders of the rows, built on first use."""
        return tuple(LinearOrder(p) for p in self.perms.tolist())


@lru_cache(maxsize=None)
def enumerate_vertices(n: int) -> PolytopeVertexSet:
    """Complete, duplicate-free vertex set in lexicographic permutation order."""
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
    return PolytopeVertexSet(n, perms, vertices)


def _iter_multisets(num_orders: int, g: int):
    """Non-decreasing index tuples: each multiset of g orders exactly once."""
    return itertools.combinations_with_replacement(range(num_orders), g)


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

    V = enumerate_vertices(C.n)
    best_combo, best_w, best_obj = _scan_multisets(V.vertices, c, g)
    sol = canonicalize(
        MixtureSolution(
            orders=tuple(LinearOrder(V.perms[j]) for j in best_combo),
            weights=tuple(float(v) for v in best_w),
        )
    )
    return sol, float(best_obj), True


def _scan_multisets(X: np.ndarray, c: np.ndarray, g: int):
    """(multiset, weights, objective) of the first strict optimum in order.

    Visits the multisets of g rows of X in lexicographic order and keeps the
    first whose fitted objective beats the incumbent by more than
    _IMPROVE_TOL, stopping at the first objective <= _ZERO_TOL.  The
    multisets that start with one order are screened together: each gets
    its class bound (_ClassBound, _pair_bound at g = 2), and only those
    whose bound could still beat the incumbent are fitted.  g = 2 first
    skips every first order whose first-order bound, a bound on all of its
    pairs at once, cannot beat the incumbent, and fits the pairs that pass
    one by one with _breakpoint_g2; g >= 3 fits them in stacks of at most
    _STACK_MAX with _fit_simplex_stack, which gives each the bits a stack of
    one would, and keeps the weights of the stack that scored the winner.

    Both bounds are lower bounds on the fitted objective up to
    _SCREEN_SLACK.  The screen and each stack read the incumbent as it
    stood when they started.  That incumbent is never below the one the
    plain loop would hold at any later multiset, so the screen passes every
    multiset the plain loop could take, and taking the strict improvements
    among the fitted ones in order picks the same multiset.
    """
    if g == 2:
        return _scan_pairs(X, c)
    return _scan_stacked(X, c, g)


def _scan_pairs(X: np.ndarray, c: np.ndarray):
    """_scan_multisets for g = 2: one batch per first order, which holds
    every pair that starts with it, and first-order bounds taken for
    _FIRST_CHUNK first orders at a time."""
    N = X.shape[0]
    best_obj, best_combo, best_w = math.inf, None, None
    for start in range(0, N, _FIRST_CHUNK):
        residual, dist = _pair_terms(X[start:start + _FIRST_CHUNK], c)
        first = _first_order_bound(residual, dist)
        for r, i in enumerate(range(start, start + first.size)):
            if first[r] >= best_obj - _IMPROVE_TOL + _SCREEN_SLACK:
                continue
            bound = _pair_bound(X[i:] != X[i], residual[r], dist[r])
            for j in np.flatnonzero(bound < best_obj - _IMPROVE_TOL + _SCREEN_SLACK):
                if bound[j] >= best_obj - _IMPROVE_TOL + _SCREEN_SLACK:
                    continue  # the incumbent improved earlier in this batch
                combo = (i, i + int(j))
                w, obj = _breakpoint_g2(X[list(combo)], c)
                if obj < best_obj - _IMPROVE_TOL:
                    best_obj, best_combo, best_w = obj, combo, w
                    if best_obj <= _ZERO_TOL:
                        return best_combo, best_w, best_obj
    return best_combo, best_w, best_obj


def _scan_stacked(X: np.ndarray, c: np.ndarray, g: int):
    """_scan_multisets for g >= 3.

    The multisets that start with order i are taken lazily in chunks that
    grow from _STACK_START to _CHUNK_MAX rows, so a solve that stops at
    objective zero early fits few multisets past the one it stops at.
    """
    N = X.shape[0]
    class_bound = _ClassBound(X, c)
    best_obj, best_combo, best_w = math.inf, None, None
    size = _STACK_START
    for i in range(N):
        # the other g - 1 orders of each multiset, as offsets from i
        rests = _iter_multisets(N - i, g - 1)
        while True:
            chunk = itertools.chain.from_iterable(itertools.islice(rests, size))
            rest = np.fromiter(chunk, dtype=np.intp).reshape(-1, g - 1)
            if not rest.size:
                break
            size = min(2 * size, _CHUNK_MAX)
            bound = class_bound(i, rest)
            pending = np.flatnonzero(bound < best_obj - _IMPROVE_TOL + _SCREEN_SLACK)
            while pending.size:
                stack, pending = pending[:_STACK_MAX], pending[_STACK_MAX:]
                combos = np.column_stack([np.full(stack.size, i), i + rest[stack]])
                ws, objs = _fit_simplex_stack(X, combos, c)
                start = 0
                while True:
                    hit = np.flatnonzero(objs[start:] < best_obj - _IMPROVE_TOL)
                    if not hit.size:
                        break
                    r = start + int(hit[0])
                    best_obj, best_combo, best_w = objs[r], tuple(int(v) for v in combos[r]), ws[r]
                    if best_obj <= _ZERO_TOL:
                        return best_combo, best_w, best_obj
                    start = r + 1
                pending = pending[bound[pending] < best_obj - _IMPROVE_TOL + _SCREEN_SLACK]
    return best_combo, best_w, best_obj


def _pair_terms(X1: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(residual, dist) of each first order x1, a row of X1 (R, m).

    With b_k = c_k where x1_k = 1 and 1 - c_k where it is 0, pair k adds
    |b_k - t| to the objective of a mixture that starts with x1, where
    t = 1 - (the weight of the other orders that disagree with x1 on pair
    k).  residual (R, m) is that term where every order agrees with x1,
    |c_k - x1_k| = |b_k - 1|; dist (R, m, m + 2) holds it at each
    candidate t in (b_1, ..., b_m, 0, 1).
    """
    b = np.where(X1 == 1.0, c, 1.0 - c)
    ends = np.broadcast_to([0.0, 1.0], (b.shape[0], 2))
    cands = np.concatenate([b, ends], axis=1)
    return np.abs(c - X1), np.abs(b[:, :, None] - cands[:, None, :])


def _first_order_bound(residual: np.ndarray, dist: np.ndarray) -> np.ndarray:
    """Lower bound on the objective of every pair of orders (x1, x2) that
    starts with each first order x1, from its _pair_terms.

    On each pair k, x2 either agrees with x1, which costs residual_k, or
    follows the one weight t, which costs |b_k - t|.  So the objective at t
    is at least sum_k min(residual_k, |b_k - t|).  That sum is piecewise
    linear in t with its convex kinks only at the b_k, so its least value
    on [0, 1] is at a candidate.
    """
    return np.minimum(dist, residual[:, :, None]).sum(axis=1).min(axis=1)


def _pair_bound(d: np.ndarray, residual: np.ndarray, dist: np.ndarray) -> np.ndarray:
    """The class bound (_ClassBound) of the pairs (x1, x2) that start with
    one first order x1, from its _pair_terms row: d (R, m) marks the pairs
    on which each x2 disagrees with x1.  One other order makes one pattern,
    so the bound is the pair's breakpoint optimum, priced by one matrix
    product."""
    return ~d @ residual + (d @ dist).min(axis=1)


class _ClassBound:
    """The class bound of the multisets of g >= 3 rows of X for the data c:
    called with a first order i and rest (R, g - 1), the other orders of R
    multisets as offsets from i, it returns a lower bound on each one's
    objective.

    On pair k, the pattern of a multiset is the set P of other orders that
    disagree with x1 = X[i] there, and the pair adds |b_k - t_P|
    (_pair_terms), so pairs of one pattern share one t_P.  The empty
    pattern has t = 1 and costs the residuals.  Freeing every other
    pattern's t gives the bound: the sum over those patterns of min over t
    of sum_k |b_k - t|, found at a candidate.  A pattern of one pair adds 0.

    Pair sets are bit sets, so each pattern is priced by a table lookup:
    the m pairs of g >= 3 are at most C(5, 2) = 10 (check_guards), so a
    table holds at most 5! first orders by 2^10 pair sets.  g = 2 takes
    _pair_bound instead.
    """

    def __init__(self, X: np.ndarray, c: np.ndarray):
        self.X, self.c = X, c
        self.bit = 1 << np.arange(X.shape[1])

    def __call__(self, i: int, rest: np.ndarray) -> np.ndarray:
        side, agree, agree_cost, free_cost = self._tables
        # the pairs that share pair k's pattern, and the empty pattern's pairs
        pattern = np.bitwise_and.reduce(side[i, i:][rest], axis=1)
        empty = np.bitwise_and.reduce(agree[i, i:][rest], axis=1)
        # price each other pattern once, at its lowest pair
        lowest = ((pattern & -pattern) == self.bit) & (pattern != empty[:, None])
        return agree_cost[i, empty] + np.where(lowest, free_cost[i, pattern], 0.0).sum(axis=1)

    @cached_property
    def _tables(self):
        """(side, agree, agree_cost, free_cost) for first order i and order
        j.  agree[i, j] is the bit set of pairs on which order j agrees with
        order i, and side[i, j, k] the pairs on which it sides with order i
        as it does on pair k.  agree_cost[i, s] is the residual sum of the
        pair set s, and free_cost[i, s] its least sum at a free t."""
        m, bit = self.X.shape[1], self.bit
        code = (self.X == 1.0) @ bit
        dis = code[:, None] ^ code
        agree = ~dis & bit.sum()
        side = np.where(dis[:, :, None] & bit, dis[:, :, None], agree[:, :, None])
        residual, dist = _pair_terms(self.X, self.c)
        subsets = ((np.arange(1 << m)[:, None] >> np.arange(m)) & 1).T.astype(np.float64)
        # one candidate at a time: all m + 2 at once would be a 12 MB
        # temporary at n = 5
        free_cost = dist[:, :, 0] @ subsets
        for t in range(1, m + 2):
            np.minimum(free_cost, dist[:, :, t] @ subsets, out=free_cost)
        return side, agree, residual @ subsets, free_cost


def opt_curve(C: PreferenceMatrix, g_max: int) -> list[tuple[int, float]]:
    """Proven optima (g, OPT_g) for g = 1..g_max; non-increasing in g.

    Refuses before solving anything when g_max is not admitted.
    """
    if g_max < 1:
        raise InvalidInput(f"g_max must be >= 1, got {g_max}")
    check_guards(C.n, g_max)
    return [(g, solve_exact(C, ExactConfig(g))[1]) for g in range(1, g_max + 1)]
