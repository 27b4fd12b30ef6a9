"""Linear ordering polytope utilities.

3-cycle (transitivity) residuals, L1 projection onto the full polytope (a
point is a member when its projection distance is at most MEMBERSHIP_TOL),
and the smallest group count at which the restricted mixture optimum matches
the full-polytope projection, at most the projection's support.  Complete
facet descriptions are unavailable for general n, so the projection is an
exact LP over vertex weights, solved by column generation: the master, a
Bland tableau, starts from one vertex and asks the subset DP for the vertex
of best reduced cost, since pricing a vertex is itself a linear ordering
problem.  No vertex table is built.  The distance is unique; the projected
point in general is not.
"""

from __future__ import annotations

import numpy as np

from .core import InvalidInput, PreferenceMatrix, num_pairs, pair_rows_cols, triple_pair_indices
from .exact import ExactConfig, SizeGuardExceeded, check_guards, solve_exact
from .lop import benefit_for_pairs, lop_exact
from .simplex_fit import _fit_simplex_l1  # noqa: F401  bound here for perfbench/spans.py's tracer
from .simplex_fit import _project_columns

# the projection is admitted up to the largest n <= 10 at which, at every
# n from 8 up, 20 interior points (mixtures of three random orders) come out
# inside and 5 exterior ones match HiGHS over the generated vertices with no
# vertex pricing positive on the final duals; at n = 10 an interior point
# takes 0.06-0.3 s and 47-145 master columns on one core of a 2-vCPU Xeon,
# and at n = 11 and 12, 1 and 7 of 20 interior points fail
PROJECTION_GUARD_N = 10
SATURATION_GUARD_N = 4

MEMBERSHIP_TOL = 1e-9
CYCLE_TOL = 1e-12
# a point is refused unless this multiple of C(n,2) times its largest |entry|
# is finite, so that no residual, LOP value or L1 distance over it overflows
_POINT_HEADROOM = 16.0


def _as_point(point, n: int) -> np.ndarray:
    arr = np.asarray(point, dtype=np.float64)
    if arr.shape != (num_pairs(n),):
        raise InvalidInput(
            f"point for n={n} must have length {num_pairs(n)}, got shape {arr.shape}"
        )
    if not np.all(np.isfinite(arr)):
        raise InvalidInput("point entries must be finite")
    if not np.isfinite(_POINT_HEADROOM * arr.size * float(np.abs(arr).max(initial=0.0))):
        raise InvalidInput("point entries are too large for sums over them to stay finite")
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


def l1_projection_full(point, n: int) -> tuple[np.ndarray, float]:
    """Globally optimal L1 projection of a point onto the full polytope.

    Returns (projected point, distance).  The LP over vertex weights is
    solved by column generation: the master starts from the LOP order of
    the point and pricing solves one LOP on the row duals, so only the
    vertices that enter are ever built.  Admitted up to
    n = PROJECTION_GUARD_N.  The distance is unique; the projected point is
    not in general, but the master's pivots follow Bland's rule, which makes
    the returned one deterministic.
    """
    w, X, dist = _project(point, n)
    return w @ X, dist


def _project(point, n: int) -> tuple[np.ndarray, np.ndarray, float]:
    """l1_projection_full's LP: (master weights, master vertex rows, distance)."""
    arr = _as_point(point, n)
    if n < 2:
        raise InvalidInput(f"need n >= 2, got {n}")
    if n > PROJECTION_GUARD_N:
        raise SizeGuardExceeded(f"projection is guarded to n <= {PROJECTION_GUARD_N}, got n={n}")
    start, _, _ = lop_exact(benefit_for_pairs(n, arr, 1.0 - arr))
    master = [start]
    zero = np.zeros_like(arr)

    def price(y: np.ndarray, floor: float):
        # the best vertex for the duals is the LOP order with b[r, s] = y_rs;
        # one already in the master has a reduced cost of at most zero, up to
        # float noise, so it ends the search
        order, value, _ = lop_exact(benefit_for_pairs(n, y, zero))
        if value <= floor or order in master:
            return None
        master.append(order)
        return order.prec

    w, dist = _project_columns(arr, start.prec, price)
    return w, np.array([o.prec for o in master], dtype=np.float64), dist


def caratheodory_saturation(point, n: int, *, projection: tuple[float, int] | None = None) -> int:
    """Smallest g whose restricted optimum OPT_g matches the full projection.

    The projection's k support vertices reproduce the projected point, so
    OPT_k equals the distance: only g < k are solved, and k is returned when
    none matches.  When check_guards refuses g = k - 1, the search raises
    SizeGuardExceeded before it solves anything.  projection, when given,
    is (distance, k) of this point's projection, which is then not solved
    again.
    """
    if n > SATURATION_GUARD_N:
        raise SizeGuardExceeded(
            f"saturation search is guarded to n <= {SATURATION_GUARD_N}, got n={n}"
        )
    arr = _as_point(point, n)
    if projection is None:
        w, _, dist = _project(arr, n)
        projection = dist, int(np.count_nonzero(w))
    dist, support = projection
    try:
        check_guards(n, support - 1)
    except SizeGuardExceeded as e:
        raise SizeGuardExceeded(
            f"the projection weights {support} vertices, so g_star may need g={support - 1}: {e}"
        ) from None
    C = PreferenceMatrix(n, arr)
    for g in range(1, support):
        _, obj, _ = solve_exact(C, ExactConfig(g))
        if abs(obj - dist) <= MEMBERSHIP_TOL:
            return g
    return support
