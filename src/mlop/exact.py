"""Exact mixture solver for small instances, and the authoritative oracle
for the heuristic: enumerate every multiset of g linear orders (orders in
lexicographic permutation order, multisets as non-decreasing index tuples so
each group combination is visited exactly once), fit optimal simplex weights
for each one a lower bound does not rule out, and keep the global best.

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
from .simplex_fit import _breakpoint_g2, _fit_simplex_l1

# incumbent replaced only on improvement beyond LP float noise, so the first
# canonical-minimum multiset encountered is kept deterministically
_IMPROVE_TOL = 1e-12
_ZERO_TOL = 1e-12
# screen bounds are sums of at most C(7, 2) = 21 terms of at most 1, taken in
# another order than the fitters' own sums, so they pass the fitted
# objective's float value, if at all, by well under this; it is also below
# _IMPROVE_TOL, so a multiset that only ties the incumbent is never fitted
_SCREEN_SLACK = 5e-13

# 7! = 5040 vertices: g = 2 at n = 7 visits 12.7M multisets in 5-7 s,
# while n = 8 (40,320 vertices, 813M multisets) would take 8-25 minutes;
# the geometry projection, which prices vertices instead of listing them,
# keeps the same limit
VERTEX_GUARD_N = 7
# enumeration_size(5, 3): g >= 3 fits a weight LP per unscreened multiset, and
# the next size up (n = 4, g = 6: 475,020; n = 6, g = 3: 62.4M) costs minutes
# to hours
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
    _IMPROVE_TOL, stopping at the first objective <= _ZERO_TOL.  Multisets
    sharing their first g - 1 rows are screened together: each gets a lower
    bound on its objective, and only those whose bound could still beat the
    incumbent are fitted, with the same kernel the plain loop would call.
    """
    fit = _breakpoint_g2 if g == 2 else _fit_simplex_l1
    best_obj, best_combo, best_w = math.inf, None, None
    for prefix in _iter_multisets(X.shape[0], g - 1):
        start = prefix[-1]
        bound = _breakpoint_screen(X, c, prefix)
        for j in np.flatnonzero(bound < best_obj - _IMPROVE_TOL + _SCREEN_SLACK):
            if bound[j] >= best_obj - _IMPROVE_TOL + _SCREEN_SLACK:
                continue  # the incumbent improved earlier in this batch
            combo = prefix + (start + int(j),)
            w, obj = fit(X[list(combo)], c)
            if obj < best_obj - _IMPROVE_TOL:
                best_obj, best_combo, best_w = obj, combo, w
                if best_obj <= _ZERO_TOL:
                    return best_combo, best_w, best_obj
    return best_combo, best_w, best_obj


def _breakpoint_screen(X: np.ndarray, c: np.ndarray, prefix: tuple[int, ...]) -> np.ndarray:
    """Lower bound on the objective of each multiset prefix + (j,), j >= prefix[-1].

    Where every prefix order agrees with x1 = X[prefix[0]], the mixture is
    (1 - t) x1 + t x_j for the last weight t, so the g = 2 breakpoint
    objective of (x1, x_j) over those pairs alone is a lower bound; other
    pairs add >= 0.  With x1 fixed, the candidate weights (breakpoints and
    {0, 1}) and their distances do not depend on j, only which pairs x_j
    disagrees on does.  Every candidate is a weight t in [0, 1], and F at
    any t is the restricted objective at t, so no candidate lowers the
    minimum.  For g = 2 the bound is the exact breakpoint optimum.
    """
    x1 = X[prefix[0]]
    fixed = np.all(X[list(prefix)] == x1, axis=0)
    if not fixed.any():
        return np.zeros(X.shape[0] - prefix[-1])
    b = np.where(x1 == 1.0, c, 1.0 - c)
    cands = np.concatenate([b, [0.0, 1.0]])
    agree = X[prefix[-1] :] == x1
    residual = np.where(fixed, np.abs(c - x1), 0.0)
    dist = np.where(fixed[:, None], np.abs(b[:, None] - cands[None, :]), 0.0)
    F = agree @ residual[:, None] + ~agree @ dist
    return F.min(axis=1)


def opt_curve(C: PreferenceMatrix, g_max: int) -> list[tuple[int, float]]:
    """Proven optima (g, OPT_g) for g = 1..g_max; non-increasing in g.

    Refuses before solving anything when g_max is not admitted.
    """
    if g_max < 1:
        raise InvalidInput(f"g_max must be >= 1, got {g_max}")
    check_guards(C.n, g_max)
    return [(g, solve_exact(C, ExactConfig(g))[1]) for g in range(1, g_max + 1)]
