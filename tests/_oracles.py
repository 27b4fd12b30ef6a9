"""Independent oracles used by the test suite.

Everything here is deliberately written the dumb way (double loops, full
enumeration, dense grids) and never calls the solver paths it checks.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


def lop_value_double_loop(perm, full_matrix) -> float:
    """Sum matrix entries along the ranking with two explicit loops."""
    n = len(perm)
    total = 0.0
    for i in range(n - 1):
        for j in range(i + 1, n):
            total += full_matrix[perm[i]][perm[j]]
    return total


def lop_enumeration_max(b: np.ndarray) -> tuple[tuple[int, ...], float]:
    """Optimal LOP value by checking every permutation."""
    n = b.shape[0]
    best_perm, best = None, -math.inf
    for perm in itertools.permutations(range(n)):
        v = lop_value_double_loop(perm, b)
        if v > best:
            best_perm, best = perm, v
    return best_perm, best


def lop_lex_smallest_optimum(b: np.ndarray, tol: float = 1e-12) -> tuple[tuple[int, ...], float]:
    """First permutation, in lexicographic order, within tol of the best value."""
    perms = list(itertools.permutations(range(b.shape[0])))
    values = [lop_value_double_loop(perm, b) for perm in perms]
    best = max(values)
    return next((p, v) for p, v in zip(perms, values) if v >= best - tol)


def lop_subset_dp_max(b) -> float:
    """Optimal LOP value by the subset recursion: the best order of a set S
    starts with some i in S, which gains b[i][j] over every other j in S,
    followed by the best order of S - {i}.  One dict entry per subset."""
    rows = np.asarray(b).tolist()
    n = len(rows)
    best = {frozenset(): 0.0}
    for size in range(1, n + 1):
        for items in itertools.combinations(range(n), size):
            S = frozenset(items)
            best[S] = max(
                best[S - {i}] + sum(rows[i][j] for j in items if j != i) for i in items
            )
    return best[frozenset(range(n))]


def is_insertion_local_optimal(order, B, tol: float = 1e-9) -> bool:
    """True iff no single-item relocation improves the order's value."""
    b = B.b
    perm = list(order.perm)
    n = len(perm)
    for i in range(n):
        item = perm[i]
        for j in range(n):
            if j == i:
                continue
            if j > i:
                delta = sum(b[k, item] - b[item, k] for k in perm[i + 1 : j + 1])
            else:
                delta = sum(b[item, k] - b[k, item] for k in perm[j:i])
            if delta > tol:
                return False
    return True


def kendall_double_loop(perm_a, perm_b) -> int:
    """Count item pairs ranked oppositely, one pair at a time."""
    n = len(perm_a)
    pos_a = {item: i for i, item in enumerate(perm_a)}
    pos_b = {item: i for i, item in enumerate(perm_b)}
    count = 0
    for r in range(n - 1):
        for s in range(r + 1, n):
            if (pos_a[r] < pos_a[s]) != (pos_b[r] < pos_b[s]):
                count += 1
    return count


def inversion_counts(perms: np.ndarray) -> np.ndarray:
    """Kendall distance of each row of an (N, n) permutation array to the
    identity order: the position pairs whose items appear out of order."""
    i, j = np.triu_indices(perms.shape[1], k=1)
    return np.count_nonzero(perms[:, i] > perms[:, j], axis=1)


def _pair_position(n: int, r: int, s: int) -> int:
    """Position of pair (r, s), r < s, found by walking the upper triangle."""
    k = 0
    for a in range(n - 1):
        for b in range(a + 1, n):
            if (a, b) == (r, s):
                return k
            k += 1
    raise IndexError((n, r, s))


def cycle_residuals_triple_loop(point, n: int) -> list[tuple[tuple[int, int, int], float]]:
    """x_rs - x_rt + x_st for every triple r < s < t, one triple at a time."""
    out = []
    for r in range(n - 2):
        for s in range(r + 1, n - 1):
            for t in range(s + 1, n):
                res = (
                    point[_pair_position(n, r, s)]
                    - point[_pair_position(n, r, t)]
                    + point[_pair_position(n, s, t)]
                )
                out.append(((r, s, t), float(res)))
    return out


def prec_double_loop(perm) -> list[int]:
    """Precedence vector of a ranking: 1 for pair (r, s) iff r comes first."""
    n = len(perm)
    pos = {item: i for i, item in enumerate(perm)}
    return [int(pos[r] < pos[s]) for r in range(n - 1) for s in range(r + 1, n)]


def exact_min_by_enumeration(upper, n: int, g: int, milli: int = 1000) -> float:
    """Least grid-fitted L1 objective over every multiset of g orders.

    Exact whenever some optimum carries weights on the 1/milli grid."""
    vectors = [prec_double_loop(p) for p in itertools.permutations(range(n))]
    return min(
        grid_min_objective(np.array([vectors[i] for i in combo], dtype=np.float64), upper, milli)
        for combo in itertools.combinations_with_replacement(range(len(vectors)), g)
    )


def grid_min_objective(X: np.ndarray, c: np.ndarray, milli: int = 1000) -> float:
    """Minimum of sum_k |c_k - (w @ X)_k| over the 1/milli-step simplex grid.

    Full grid for g <= 3.  For g = 4 the full 0.001 grid has ~1.7e8 points,
    so a 0.01 coarse pass is refined exhaustively at 0.001 resolution in a
    +-0.02 window around the coarse argmin; the window minimum can only be
    >= the full-grid minimum, which keeps the oracle check conservative.
    """
    X = np.asarray(X, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    g = X.shape[0]
    if g == 1:
        return float(np.abs(c - X[0]).sum())
    if g == 2:
        t = np.arange(milli + 1) / milli
        F = np.abs(c[None, :] - (t[:, None] * X[0] + (1 - t)[:, None] * X[1])).sum(axis=1)
        return float(F.min())
    if g == 3:
        return _grid3(X, c, milli)[0]
    if g == 4:
        coarse_val, coarse_arg = _grid4(X, c, milli // 10)
        lo = [max(0, 10 * a - 20) for a in coarse_arg]
        hi = [min(milli, 10 * a + 20) for a in coarse_arg]
        fine_val, _ = _grid4(X, c, milli, window=(lo, hi))
        return float(min(coarse_val, fine_val))
    raise NotImplementedError("grid oracle supports g <= 4")


def _grid3(X, c, milli):
    i = np.arange(milli + 1)
    a1, a2 = np.meshgrid(i, i, indexing="ij")
    mask = a1 + a2 <= milli
    a1, a2 = a1[mask], a2[mask]
    a3 = milli - a1 - a2
    F = np.zeros(a1.shape[0])
    for k in range(X.shape[1]):
        p = (a1 * X[0, k] + a2 * X[1, k] + a3 * X[2, k]) / milli
        F += np.abs(c[k] - p)
    j = int(np.argmin(F))
    return float(F[j]), (int(a1[j]), int(a2[j]), int(a3[j]))


def _grid4(X, c, milli, window=None):
    if window is None:
        r1 = r2 = r3 = np.arange(milli + 1)
    else:
        lo, hi = window
        r1 = np.arange(lo[0], hi[0] + 1)
        r2 = np.arange(lo[1], hi[1] + 1)
        r3 = np.arange(lo[2], hi[2] + 1)
    a1, a2, a3 = np.meshgrid(r1, r2, r3, indexing="ij")
    mask = a1 + a2 + a3 <= milli
    a1, a2, a3 = a1[mask], a2[mask], a3[mask]
    a4 = milli - a1 - a2 - a3
    F = np.zeros(a1.shape[0])
    for k in range(X.shape[1]):
        p = (a1 * X[0, k] + a2 * X[1, k] + a3 * X[2, k] + a4 * X[3, k]) / milli
        F += np.abs(c[k] - p)
    j = int(np.argmin(F))
    return float(F[j]), (int(a1[j]), int(a2[j]), int(a3[j]), int(a4[j]))


def random_preference_matrix(n: int, rng: np.random.Generator):
    from mlop import PreferenceMatrix

    return PreferenceMatrix(n, rng.random(n * (n - 1) // 2))


def random_order(n: int, rng: np.random.Generator):
    from mlop import LinearOrder

    return LinearOrder(tuple(int(v) for v in rng.permutation(n)))


def heuristic_shaped_benefits(n: int, rng: np.random.Generator, g: int = 3) -> np.ndarray:
    """Benefits of one group's reduced LOP in the heuristic's ranking step."""
    C = random_preference_matrix(n, rng)
    w = rng.dirichlet(np.ones(g))
    X = np.stack([random_order(n, rng).prec for _ in range(g)]).astype(np.float64)
    a = C.upper - (w @ X - w[0] * X[0])
    a_sr = w[0] - a
    rows, cols = np.triu_indices(n, k=1)
    b = np.zeros((n, n))
    b[rows, cols] = np.abs(a) - np.abs(a - w[0])
    b[cols, rows] = np.abs(a_sr) - np.abs(a_sr - w[0])
    return b


def tournament_benefits(n: int, rng: np.random.Generator, w: float, loose: int = 0) -> np.ndarray:
    """A +-w tournament, w (T - T') for T strictly upper triangular with
    random +-1 entries: the reduced LOP of a group of weight w whose every
    pair is saturated.  loose random pairs are unsaturated instead, with
    b[r, s] = -b[s, r] drawn uniformly from (-w, w)."""
    t = np.triu(rng.choice([-1.0, 1.0], size=(n, n)), 1)
    b = w * (t - t.T)
    rows, cols = np.triu_indices(n, k=1)
    for k in rng.choice(len(rows), size=min(loose, len(rows)), replace=False):
        u = rng.uniform(-w, w)
        b[rows[k], cols[k]], b[cols[k], rows[k]] = u, -u
    return b


def exact_scan_reference(C, g: int):
    """`solve_exact`'s enumeration for g >= 2 as one weight fit per multiset.

    The plain loop the batched scan must reproduce exactly: every multiset of
    g orders in lexicographic order, fitted with the same kernels (g >= 3 as
    a stack of one problem), the incumbent replaced only on improvement
    beyond _IMPROVE_TOL and the search stopped at the first objective
    <= _ZERO_TOL.
    Returns (solution, objective, proven)."""
    from mlop.core import LinearOrder, MixtureSolution, canonicalize
    from mlop.exact import _IMPROVE_TOL, _ZERO_TOL, _breakpoint_g2, enumerate_vertices
    from mlop.simplex_fit import _fit_simplex_stack

    c = C.upper
    perms, X = enumerate_vertices(C.n)

    best_obj = math.inf
    best_combo: tuple[int, ...] | None = None
    best_w: np.ndarray | None = None
    for combo in itertools.combinations_with_replacement(range(len(perms)), g):
        if g == 2:
            w, obj = _breakpoint_g2(X[list(combo)], c)
        else:
            ws, objs = _fit_simplex_stack(X, np.array([combo]), c)
            w, obj = ws[0], objs[0]
        if obj < best_obj - _IMPROVE_TOL:
            best_obj, best_combo, best_w = obj, combo, w
            if best_obj <= _ZERO_TOL:
                break

    assert best_combo is not None and best_w is not None
    sol = canonicalize(
        MixtureSolution(
            orders=tuple(LinearOrder(perms[j]) for j in best_combo),
            weights=tuple(float(v) for v in best_w),
        )
    )
    return sol, float(best_obj), True


def sequential_heuristic_reference(C, g: int, cfg):
    """`solve_heuristic` as a plain loop: each start runs to its end before
    the next one begins, its ranking step through `step_rankings` (one
    `lop_exact` call per inner LOP) and its weight step through
    `step_weights` after every ranking step, and the best start is the first
    one that beats all earlier ones by more than _IMPROVE_TOL.
    Returns (solution, objective, per-start trace rows, inner_unproven)."""
    from mlop.core import LinearOrder, MixtureSolution, canonicalize
    from mlop.heuristic import (
        _CONVERGED,
        _IMPROVE_TOL,
        _IT_MAX,
        random_simplex_weights,
        step_rankings,
        step_weights,
    )

    best_obj, best_orders, best_w = math.inf, None, None
    starts, unproven = [], 0
    for k in range(cfg.n_starts):
        rng = np.random.default_rng(cfg.base_seed ^ k)
        w = random_simplex_weights(g, rng)
        orders = [LinearOrder(tuple(int(v) for v in rng.permutation(C.n))) for _ in range(g)]
        obj = math.inf
        rows = []
        for it in range(1, _IT_MAX + 1):
            obj_start = obj
            new_orders, obj1, missed = step_rankings(C, w, orders, cfg.step1_budget)
            unproven += missed
            if obj1 < obj:
                orders, obj = new_orders, obj1
            after1 = obj
            new_w, obj2 = step_weights(C, orders)
            if obj2 < obj:
                w, obj = new_w, obj2
            rows.append((it, after1, obj))
            if abs(obj_start - obj) < _CONVERGED:
                break
        starts.append(rows)
        if obj < best_obj - _IMPROVE_TOL:
            best_obj, best_orders, best_w = obj, orders, w

    sol = canonicalize(MixtureSolution(tuple(best_orders), tuple(float(v) for v in best_w)))
    return sol, float(best_obj), starts, unproven


def l1_fit_by_highs(X: np.ndarray, c) -> float:
    """Least L1 distance from c to a convex combination of the rows of X,
    by scipy's HiGHS on the split-residual LP: an oracle independent of
    the weight-fit kernels."""
    from scipy.optimize import linprog

    g, m = X.shape
    cost = np.concatenate([np.zeros(g), np.ones(2 * m)])
    A_eq = np.zeros((m + 1, g + 2 * m))
    A_eq[:m, :g] = X.T
    A_eq[:m, g : g + m] = np.eye(m)
    A_eq[:m, g + m :] = -np.eye(m)
    A_eq[m, :g] = 1.0
    b_eq = np.concatenate([c, [1.0]])
    # HiGHS's default feasibility tolerances (1e-7) let it return a slightly
    # infeasible optimum, down to -1e-9 for a point 1e-9 outside the polytope
    tight = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}
    res = linprog(cost, A_eq=A_eq, b_eq=b_eq, bounds=(0, None), method="highs", options=tight)
    assert res.success
    return float(res.fun)


def projection_by_enumeration(c, n: int) -> float:
    """L1 distance from c to the linear ordering polytope, by HiGHS over all
    n! vertices.

    `l1_projection_full` prices vertices instead of listing them; this is the
    full LP it must agree with."""
    from mlop.exact import enumerate_vertices

    return l1_fit_by_highs(enumerate_vertices(n)[1], np.asarray(c, dtype=np.float64))


def _draw_index(weights: np.ndarray, rng: np.random.Generator) -> int:
    cum = np.cumsum(weights)
    u = rng.random() * cum[-1]
    return min(int(np.searchsorted(cum, u, side="right")), len(weights) - 1)


def sample_within_ball_reference(center, D: int, rng: np.random.Generator):
    """Uniform draw from the Kendall ball of radius D around center, one
    Lehmer code entry at a time: one uniform for the distance, then one per
    code entry unless the distance is 0.  The generator's draws must match
    this loop draw for draw."""
    from mlop import LinearOrder
    from mlop.instances import _mahonian_rows

    n = center.n
    if D == 0:
        return center
    rows = _mahonian_rows(n)
    d = _draw_index(np.array(rows[n][: D + 1], dtype=np.float64), rng)
    if d == 0:
        return center
    # uniform Lehmer code with sum d, then relabel positions through center
    code = []
    rem = d
    for i in range(n):
        cap = n - 1 - i
        nxt = rows[cap]  # ways for the code entries after position i
        vmax = min(cap, rem)
        w = np.array(
            [nxt[rem - v] if rem - v < len(nxt) else 0 for v in range(vmax + 1)],
            dtype=np.float64,
        )
        v = _draw_index(w, rng)
        code.append(v)
        rem -= v
    available = list(range(n))
    pi = [available.pop(c) for c in code]
    return LinearOrder(tuple(center.perm[k] for k in pi))


def saturation_by_full_loop(point, n: int) -> int:
    """Smallest g whose exact optimum OPT_g matches the L1 projection
    distance, searched up to the Caratheodory count: C(n,2) + 1 inside the
    polytope, C(n,2) outside it, where the projection sits on a proper face.

    `caratheodory_saturation` stops at the projection's support instead;
    this is the loop over every g up to that count that it must agree with."""
    from mlop.core import PreferenceMatrix, num_pairs
    from mlop.exact import ExactConfig, solve_exact
    from mlop.geometry import MEMBERSHIP_TOL, l1_projection_full

    _, dist = l1_projection_full(point, n)
    bound = num_pairs(n) + 1 if dist <= MEMBERSHIP_TOL else num_pairs(n)
    C = PreferenceMatrix(n, point)
    for g in range(1, bound + 1):
        if abs(solve_exact(C, ExactConfig(g))[1] - dist) <= MEMBERSHIP_TOL:
            return g
    raise AssertionError("no g within the Caratheodory bound reached the projection")
