"""Exact mixture solver for small instances, and the authoritative oracle
for the heuristic: enumerate every multiset of g linear orders (orders in
lexicographic permutation order, multisets as non-decreasing index tuples so
each group combination is visited exactly once), fit optimal simplex weights
for each, and keep the global best.

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

# 8! = 40320 vertices; at n = 9 even g = 2 would visit 6.6e10 multisets
VERTEX_GUARD_N = 8


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


def solve_exact(
    C: PreferenceMatrix, cfg: ExactConfig
) -> tuple[MixtureSolution, float, bool]:
    """Provably optimal mixture of cfg.g linear orders under the L1 objective.

    Returns (solution, objective, proven).  The solution is canonicalized;
    proven is True on full enumeration and also on an early exit at objective
    zero, which is a global lower bound.  For a single group the search
    reduces to a classical LOP solved by branch and bound, which returns the
    identical optimum (objective C(n,2) - LOP value, lex-smallest order).
    Two or more groups enumerate the vertex table, so they never run past
    n = VERTEX_GUARD_N, whatever cfg.max_n admits.
    """
    n = C.n
    if n > cfg.max_n:
        raise SizeGuardExceeded(
            f"n={n} exceeds the enumeration guard max_n={cfg.max_n}; "
            "use the heuristic solver"
        )
    if cfg.g > cfg.max_g:
        raise SizeGuardExceeded(
            f"g={cfg.g} exceeds the enumeration guard max_g={cfg.max_g}; "
            "use the heuristic solver"
        )
    g = cfg.g
    c = C.upper

    if g == 1:
        order, value, proven = lop_exact(BenefitMatrix.from_preferences(C))
        sol = MixtureSolution((order,), (1.0,))
        return sol, float(np.abs(c - order.prec).sum()), proven

    V = enumerate_vertices(n)

    best_obj = math.inf
    best_combo: tuple[int, ...] | None = None
    best_w: np.ndarray | None = None
    for combo in _iter_multisets(len(V.orders), g):
        cols = V.vertices[list(combo)]
        if g == 2:
            w, obj = _breakpoint_g2(cols, c)
        else:
            w, obj = _fit_simplex_l1(cols, c)
        if obj < best_obj - _IMPROVE_TOL:
            best_obj, best_combo, best_w = obj, combo, w
            if best_obj <= _ZERO_TOL:
                break

    assert best_combo is not None and best_w is not None
    sol = canonicalize(
        MixtureSolution(
            orders=tuple(V.orders[j] for j in best_combo),
            weights=tuple(float(v) for v in best_w),
        )
    )
    return sol, float(best_obj), True


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
