"""Exact mixture solver for small instances, and the authoritative oracle
for the heuristic: enumerate every multiset of g linear orders (orders in
lexicographic permutation order, multisets as non-decreasing index tuples so
each group combination is visited exactly once), fit optimal simplex weights
for each one a lower bound does not rule out, and keep the global best.
The multisets that start with one order are bounded in batches of one
matrix product each; at g >= 3 the fits that remain run as stacked LPs,
many problems pivoted in lockstep, and the winner keeps the weights its
stack gave it.

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
from functools import lru_cache

import numpy as np

from .core import (
    InvalidInput,
    LinearOrder,
    MixtureSolution,
    PreferenceMatrix,
    canonicalize,
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

# 7! = 5040 vertices: g = 2 at n = 7 visits 12.7M multisets in 5-7 s,
# while n = 8 (40,320 vertices, 813M multisets) would take 8-25 minutes
VERTEX_GUARD_N = 7
# enumeration_size(5, 3), about 0.6 s: g >= 3 fits a weight LP per
# unscreened multiset, and the next sizes up cost more than an oracle solve
# should: n = 4, g = 6 (475,020) takes about 5 s, and n = 6, g = 3 visits
# 62.4M, 211 times as many
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
    """All n! precedence vectors, with the orders they encode."""

    n: int
    orders: tuple[LinearOrder, ...]
    vertices: np.ndarray  # (n!, C(n,2)) float64, rows aligned with orders


@lru_cache(maxsize=None)
def enumerate_vertices(n: int) -> PolytopeVertexSet:
    """Complete, duplicate-free vertex set in lexicographic permutation order."""
    if n < 2:
        raise InvalidInput(f"need n >= 2, got {n}")
    if n > VERTEX_GUARD_N:
        raise SizeGuardExceeded(
            f"vertex enumeration is guarded to n <= {VERTEX_GUARD_N}, got n={n}"
        )
    orders = tuple(LinearOrder(p) for p in itertools.permutations(range(n)))
    vertices = np.stack([o.prec for o in orders]).astype(np.float64)
    vertices.flags.writeable = False
    return PolytopeVertexSet(n, orders, vertices)


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
            orders=tuple(V.orders[j] for j in best_combo),
            weights=tuple(float(v) for v in best_w),
        )
    )
    return sol, float(best_obj), True


def _scan_multisets(X: np.ndarray, c: np.ndarray, g: int):
    """(multiset, weights, objective) of the first strict optimum in order.

    Visits the multisets of g rows of X in lexicographic order and keeps the
    first whose fitted objective beats the incumbent by more than
    _IMPROVE_TOL, stopping at the first objective <= _ZERO_TOL.  The
    multisets that start with one order are screened together: each gets a
    lower bound on its objective, and only those whose bound could still
    beat the incumbent are fitted.  g = 2 fits them one by one with
    _breakpoint_g2; g >= 3 fits them in stacks of at most _STACK_MAX with
    _fit_simplex_stack, which gives each the bits a stack of one would, and
    keeps the weights of the stack that scored the winner.

    The screen and each stack read the incumbent as it stood when they
    started.  That incumbent is never below the one the plain loop would
    hold at any later multiset, so the screen passes every multiset the
    plain loop could take, and taking the strict improvements among the
    fitted ones in order picks the same multiset.
    """
    if g == 2:
        return _scan_pairs(X, c)
    return _scan_stacked(X, c, g)


def _scan_pairs(X: np.ndarray, c: np.ndarray):
    """_scan_multisets for g = 2: one batch per first order, which holds
    every pair that starts with it."""
    best_obj, best_combo, best_w = math.inf, None, None
    for i in range(X.shape[0]):
        bound = _breakpoint_screen(X[i], c, X[i:] == X[i])
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
    best_obj, best_combo, best_w = math.inf, None, None
    size = _STACK_START
    for i in range(N):
        # the other g - 1 orders of each multiset, as offsets from i
        rests = _iter_multisets(N - i, g - 1)
        agree = X[i:] == X[i]  # row j: where order i + j agrees with order i
        while True:
            chunk = itertools.chain.from_iterable(itertools.islice(rests, size))
            rest = np.fromiter(chunk, dtype=np.intp).reshape(-1, g - 1)
            if not rest.size:
                break
            size = min(2 * size, _CHUNK_MAX)
            bound = _breakpoint_screen(X[i], c, agree[rest[:, -1]], agree[rest[:, :-1]].all(axis=1))
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


def _breakpoint_screen(x1: np.ndarray, c: np.ndarray, agree: np.ndarray,
                       fixed: np.ndarray | None = None) -> np.ndarray:
    """Lower bound on the objective of each multiset in a batch that starts
    with the order x1.

    Row r of agree says on which pairs the multiset's last order agrees
    with x1; row r of fixed, on which pairs every other order does (None:
    all pairs, as at g = 2).  On the fixed pairs the mixture is
    (1 - t) x1 + t x_last for the last weight t, so the g = 2 breakpoint
    objective of (x1, x_last) over those pairs alone is a lower bound;
    other pairs add >= 0.  With x1 fixed, the candidate weights
    (breakpoints and {0, 1}) and their distances do not depend on the
    multiset, only which pairs are fixed and where x_last disagrees do, so
    the batch takes one matrix product.  Every candidate is a weight t in
    [0, 1], and F at any t is the restricted objective at t, so no
    candidate lowers the minimum.  For g = 2 the bound is the exact
    breakpoint optimum.
    """
    b = np.where(x1 == 1.0, c, 1.0 - c)
    cands = np.concatenate([b, [0.0, 1.0]])
    residual = np.abs(c - x1)[:, None]
    dist = np.abs(b[:, None] - cands[None, :])
    if fixed is None:
        F = agree @ residual + ~agree @ dist
    else:
        F = (agree & fixed) @ residual + (fixed & ~agree) @ dist
    return F.min(axis=1)


def opt_curve(C: PreferenceMatrix, g_max: int) -> list[tuple[int, float]]:
    """Proven optima (g, OPT_g) for g = 1..g_max; non-increasing in g.

    Refuses before solving anything when g_max is not admitted.
    """
    if g_max < 1:
        raise InvalidInput(f"g_max must be >= 1, got {g_max}")
    check_guards(C.n, g_max)
    return [(g, solve_exact(C, ExactConfig(g))[1]) for g in range(1, g_max + 1)]
