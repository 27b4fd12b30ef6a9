"""Exact mixture solver for small instances, and the authoritative oracle
for the heuristic: enumerate every multiset of g linear orders (orders in
lexicographic permutation order, multisets as non-decreasing index tuples so
each group combination is visited exactly once), fit optimal simplex weights
for each one a lower bound does not rule out, and keep the global best.

The orders come from the cached vertex table of the linear ordering
polytope, which the geometry utilities read as well.  Guards reject
instances beyond the enumeration envelope; callers are expected to fall back
to the alternating heuristic there.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
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
# screen bounds are sums of at most C(8, 2) = 28 terms of at most 1, taken in
# another order than the fitters' own sums, so they differ from the fitted
# objective's float value by well under this; it is also below _IMPROVE_TOL,
# so a multiset that only ties the incumbent is never fitted
_SCREEN_SLACK = 5e-13

# 8! = 40320 vertices; at n = 9 even g = 2 would visit 6.6e10 multisets
VERTEX_GUARD_N = 8
# enumeration_size(5, 3): g >= 3 fits a weight LP per unscreened multiset, and
# the next size up (n = 4, g = 6: 475,020; n = 6, g = 3: 62.4M) costs minutes
# to hours
MULTISET_GUARD = 295_240


class SizeGuardExceeded(RuntimeError):
    """Instance exceeds the enumeration guards; use the heuristic solver."""


@dataclass(frozen=True)
class ExactConfig:
    g: int = 1
    max_n: int = 6
    max_g: int = 3

    def __post_init__(self):
        if self.g < 1:
            raise InvalidInput(f"g must be >= 1, got {self.g}")
        if self.max_n < 2 or self.max_g < 1:
            raise InvalidInput("size guards must be positive")


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


def check_guards(n: int, cfg: ExactConfig) -> None:
    """Raise SizeGuardExceeded unless an exact solve of cfg.g groups at n
    items is admitted.

    Besides cfg's own bounds, two or more groups never run past
    n = VERTEX_GUARD_N and three or more never visit more than
    MULTISET_GUARD multisets, whatever cfg admits.  The cost grows with g,
    so admitting g admits every smaller g at the same n.
    """
    g = cfg.g
    if n > cfg.max_n:
        raise SizeGuardExceeded(
            f"n={n} exceeds the enumeration guard max_n={cfg.max_n}; "
            "use the heuristic solver"
        )
    if g > cfg.max_g:
        raise SizeGuardExceeded(
            f"g={g} exceeds the enumeration guard max_g={cfg.max_g}; "
            "use the heuristic solver"
        )
    if g >= 2 and n > VERTEX_GUARD_N:
        raise SizeGuardExceeded(
            f"g={g} enumerates all n! orders, guarded to n <= {VERTEX_GUARD_N}, got n={n}; "
            "use the heuristic solver"
        )
    if g >= 3 and enumeration_size(n, g) > MULTISET_GUARD:
        raise SizeGuardExceeded(
            f"g={g} at n={n} visits {enumeration_size(n, g):,} multisets, more than "
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
    identical optimum (objective C(n,2) - LOP value, lex-smallest order); it
    is exact up to LOP_DP_MAX_N items, and above that proven only if its
    capped branch and bound finishes.
    Two or more groups enumerate the vertex table; check_guards says which
    sizes are admitted.
    """
    check_guards(C.n, cfg)
    g = cfg.g
    c = C.upper

    if g == 1:
        order, value, proven = lop_exact(BenefitMatrix.from_preferences(C))
        sol = MixtureSolution((order,), (1.0,))
        return sol, float(np.abs(c - order.prec).sum()), proven

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
    screen = _breakpoint_screen if g == 2 else _agreement_screen
    best_obj, best_combo, best_w = math.inf, None, None
    for prefix in _iter_multisets(X.shape[0], g - 1):
        start = prefix[-1]
        bound = screen(X, c, prefix)
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


def _breakpoint_screen(X: np.ndarray, c: np.ndarray, prefix: tuple[int]) -> np.ndarray:
    """Least g = 2 breakpoint objective of each multiset (i, j), j >= i.

    With x1 = X[i] fixed, the breakpoints, the candidate weights and their
    distances do not depend on j; only which pairs the two orders disagree
    on does.  The pair's objective is the residual on agreeing pairs plus
    the distance sum over disagreeing ones, minimised over the candidates
    that pair has: its own breakpoints and {0, 1}.
    """
    (i,) = prefix
    x1 = X[i]
    b = np.where(x1 == 1.0, c, 1.0 - c)
    cands = np.concatenate([b, [0.0, 1.0]])
    agree = X[i:] == x1
    F = agree @ np.abs(c - x1)[:, None] + ~agree @ np.abs(b[:, None] - cands[None, :])
    F[:, : b.size][agree] = np.inf
    return F.min(axis=1)


def _agreement_screen(X: np.ndarray, c: np.ndarray, prefix: tuple[int, ...]) -> np.ndarray:
    """Residual of prefix + (j,), j >= prefix[-1], on pairs all g orders agree on.

    No choice of weights moves the mixture on such a pair, so this is a
    lower bound on the multiset's objective.
    """
    x1 = X[prefix[0]]
    fixed = np.all(X[list(prefix)] == x1, axis=0)
    return (X[prefix[-1] :] == x1) @ np.where(fixed, np.abs(c - x1), 0.0)


def opt_curve(
    C: PreferenceMatrix, g_max: int, cfg: ExactConfig | None = None
) -> list[tuple[int, float]]:
    """Proven optima (g, OPT_g) for g = 1..g_max; non-increasing in g."""
    if g_max < 1:
        raise InvalidInput(f"g_max must be >= 1, got {g_max}")
    base = cfg if cfg is not None else ExactConfig()
    rows = []
    for g in range(1, g_max + 1):
        _, obj, _ = solve_exact(C, replace(base, g=g))
        rows.append((g, obj))
    return rows
