"""Linear ordering polytope utilities.

3-cycle (transitivity) residuals, membership tests, L1 projection onto the
full polytope, and the smallest group count at which the restricted mixture
optimum matches the full-polytope projection.  Membership and projection are
decided by an exact LP over explicit vertex weights, since complete facet
descriptions are unavailable for general n; the vertices come from
``mlop.exact.enumerate_vertices``, whose guard keeps the LPs at 7! columns
or fewer.
"""

from __future__ import annotations

import numpy as np

from .core import InvalidInput, PreferenceMatrix, num_pairs, pair_rows_cols, triple_pair_indices
from .exact import ExactConfig, SizeGuardExceeded, enumerate_vertices, solve_exact
from .simplex_fit import _fit_simplex_l1

SATURATION_GUARD_N = 4

MEMBERSHIP_TOL = 1e-9
CYCLE_TOL = 1e-12


def _as_point(point, n: int) -> np.ndarray:
    arr = np.asarray(point, dtype=np.float64)
    if arr.shape != (num_pairs(n),):
        raise InvalidInput(
            f"point for n={n} must have length {num_pairs(n)}, got shape {arr.shape}"
        )
    if not np.all(np.isfinite(arr)):
        raise InvalidInput("point entries must be finite")
    return arr


def cycle_residuals(point, n: int) -> list[tuple[tuple[int, int, int], float]]:
    """Transitivity residuals x_rs - x_rt + x_st for every triple r < s < t.

    A point violates a 3-cycle facet iff some residual falls outside [0, 1];
    precedence vectors of linear orders always land exactly on {0, 1}.
    """
    arr = _as_point(point, n)
    rs, rt, st = triple_pair_indices(n)
    res = arr[rs] - arr[rt] + arr[st]
    # (r, s) is the pair at rs and t the second item of the pair at st
    rows, cols = pair_rows_cols(n)
    labels = zip(rows[rs].tolist(), cols[rs].tolist(), cols[st].tolist())
    return list(zip(labels, res.tolist()))


def violates_cycle(residual: float, tol: float = CYCLE_TOL) -> bool:
    """True iff a 3-cycle residual leaves [0, 1] by more than tol."""
    return residual < -tol or residual > 1.0 + tol


def cycle_violations(point, n: int, tol: float = CYCLE_TOL):
    """Triples whose residual leaves [0, 1] by more than tol."""
    return [
        (triple, res) for triple, res in cycle_residuals(point, n) if violates_cycle(res, tol)
    ]


def l1_projection_full(point, n: int) -> tuple[np.ndarray, float]:
    """Globally optimal L1 projection of a point onto the full polytope.

    Returns (projected point, distance); the optimal point is not unique in
    general, but the LP's Bland pivoting makes the returned one deterministic.
    """
    arr = _as_point(point, n)
    V = enumerate_vertices(n)
    w, dist = _fit_simplex_l1(V.vertices, arr)
    return w @ V.vertices, dist


def polytope_membership(point, n: int) -> bool:
    """True iff the point is a convex combination of precedence vectors."""
    _, dist = l1_projection_full(point, n)
    return dist <= MEMBERSHIP_TOL


def caratheodory_saturation(point, n: int, tol: float = MEMBERSHIP_TOL) -> int:
    """Smallest g whose restricted optimum OPT_g matches the full projection.

    Always at most C(n,2) + 1; at most C(n,2) when the point lies outside
    the polytope (its projection then sits on a proper face).
    """
    if n > SATURATION_GUARD_N:
        raise SizeGuardExceeded(
            f"saturation search is guarded to n <= {SATURATION_GUARD_N}, got n={n}"
        )
    arr = _as_point(point, n)
    _, dist = l1_projection_full(arr, n)
    bound = num_pairs(n) + 1 if dist <= tol else num_pairs(n)
    C = PreferenceMatrix(n, arr)
    for g in range(1, bound + 1):
        _, obj, _ = solve_exact(C, ExactConfig(g))
        if abs(obj - dist) <= tol:
            return g
    raise ArithmeticError(
        "no g within the Caratheodory bound reached the projection distance; "
        "tolerance too tight for this input"
    )
