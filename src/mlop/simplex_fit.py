"""Exact solver for the weight-update subproblem: given fixed precedence
vectors, find simplex weights minimizing the L1 gap to the observed
preference vector.

The problem is written with split residuals, one equality row per pair,

    minimize  sum_k (e+_k + e-_k)
    s.t.      sum_i w_i x_k^i + e+_k - e-_k = c_k      for every pair k
              sum_i w_i = 1,   w, e+, e- >= 0

and solved by dense primal simplex with Bland's rule (no cycling).  A
feasible starting basis exists in closed form (w_1 plus one residual per
row), so no phase-1 pass is needed.  g rarely exceeds 10, but there is one
row per pair at any n the heuristic runs: 1,225 rows at n = 50.

The same kernel also runs with an optional pricing step, which turns it into
column generation over a set of vectors too large to list (the vertices of
the linear ordering polytope): the rows of X are then only the master's
starting columns, and whenever no column of the master improves, the pricer
is asked for a new vector whose reduced cost, read off the row duals in the
tableau's objective row, is positive.
"""

from __future__ import annotations

import numpy as np

_PIVOT_TOL = 1e-11
_TIE_TOL = 1e-12


def _breakpoint_g2(X: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, float]:
    """Fast path for g = 2 with the contract of _fit_simplex_l1.

    The objective is piecewise linear in the scalar w_1 with breakpoints
    only at {c_k, 1 - c_k} over pairs where the two vectors differ, so the
    optimum is found by evaluating all breakpoints plus {0, 1}.
    """
    x1, x2 = X[0], X[1]
    diff = x1 != x2
    const = float(np.abs(c[~diff] - x1[~diff]).sum())
    # target value of w_1 making pair k exact: c_k where x1 leads, else 1-c_k
    b = np.where(x1[diff] == 1.0, c[diff], 1.0 - c[diff])
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


def _fit_simplex_l1(X: np.ndarray, c: np.ndarray, price=None) -> tuple[np.ndarray, float]:
    """Globally optimal simplex weights for the L1 fit of the rows of X to c.

    Returns (weights, objective) with weights >= 0 summing to 1.  Among
    degenerate optima the result is deterministic: weight spread across
    exact duplicate rows is consolidated onto the first occurrence, and the
    underlying Bland pivoting is index-ordered.  Shared by the mixture
    solvers and the polytope geometry.

    price, when given, adds columns to the master (see _solve_lp), and the
    weights cover the rows of X and then each vector price returned, in the
    order returned; the fit is then over every vector price can return.
    """
    X = np.asarray(X, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    if X.shape[0] == 1 and price is None:
        return np.array([1.0]), float(np.abs(c - X[0]).sum())

    w, X = _solve_lp(X, c, price)
    w = _consolidate_duplicates(X, np.maximum(w, 0.0))
    w /= w.sum()
    objective = float(np.abs(c - w @ X).sum())
    return w, objective


def _consolidate_duplicates(X: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Move weight spread across identical vectors onto the first occurrence;
    updates w in place and returns it."""
    seen: dict[bytes, int] = {}
    for i in range(X.shape[0]):
        key = X[i].tobytes()
        if key in seen:
            w[seen[key]] += w[i]
            w[i] = 0.0
        else:
            seen[key] = i
    return w


def _solve_lp(X: np.ndarray, c: np.ndarray, price=None) -> tuple[np.ndarray, np.ndarray]:
    """Optimal weights of the LP above and the rows they weight: X's rows,
    then the vectors price returned.

    Without price the columns are fixed.  With it, whenever no column
    improves, price(y, floor) gets the pair rows' duals y and returns a
    vector a (a row like X's) not yet in the master with y @ a > floor,
    that is a positive reduced cost, or None when there is none.  A
    returned vector is appended as the column B^-1 [a; 1] and enters the
    basis; None ends the solve, and so does a column whose reduced cost in
    the tableau is not positive after all (float noise), which keeps the
    loop finite.  The simplex row's dual and B^-1 [a; 1] are read off the
    tableau through the column of w_1.
    """
    g, m = X.shape
    nvar = g + 2 * m  # w_1..w_g, e+_1..e+_m, e-_1..e-_m, then priced columns
    rows = m + 1

    A = np.zeros((rows, nvar + 1))
    A[:m, :g] = X.T
    A[:m, g : g + m] = np.eye(m)
    A[:m, g + m : g + 2 * m] = -np.eye(m)
    A[:m, -1] = c
    A[m, :g] = 1.0
    A[m, -1] = 1.0

    cost = np.zeros(nvar)
    cost[g:] = 1.0

    # starting basis: w_1 on the simplex row plus, per pair row, whichever
    # residual keeps the basic value nonnegative
    basis = np.empty(rows, dtype=np.int64)
    basis[m] = 0
    for k in range(m):
        if c[k] >= X[0, k]:
            basis[k] = g + k
        else:
            basis[k] = g + m + k
            A[k] *= -1.0
    A[:m] -= np.outer(A[:m, 0], A[m])

    # objective row holds z_j - c_j; entering columns have positive entries
    obj = cost[basis] @ A[:, :nvar] - cost

    priced = []
    max_iter, pivots = 2000 + 200 * nvar, 0
    while True:
        improving = np.nonzero(obj > _PIVOT_TOL)[0]
        if improving.size:
            enter = int(improving[0])  # Bland: smallest improving index
        else:
            if price is None:
                break
            # e+_k's column is B^-1 e_k at cost 1, so z_j - c_j = y_k - 1;
            # w_1's is B^-1 [X[0]; 1] at cost 0, which gives the simplex
            # row's dual y0 = obj[0] - y @ X[0]
            y = obj[g : g + m] + 1.0
            a = price(y, y @ X[0] - obj[0] + _PIVOT_TOL)
            if a is None:
                break
            a = np.asarray(a, dtype=np.float64)
            col = A[:, g : g + m] @ (a - X[0]) + A[:, 0]
            A = np.insert(A, nvar, col, axis=1)
            cost = np.append(cost, 0.0)
            obj = np.append(obj, cost[basis] @ col)
            priced.append(a)
            enter, nvar, max_iter = nvar, nvar + 1, max_iter + 200
            if obj[enter] <= _PIVOT_TOL:
                break  # the tableau disagrees with price by float noise
        if pivots == max_iter:
            raise ArithmeticError("simplex failed to converge (iteration cap hit)")
        pivots += 1
        col = A[:, enter]
        ratios = np.full(rows, np.inf)
        ok = col > _PIVOT_TOL
        ratios[ok] = A[ok, -1] / col[ok]
        best = ratios.min()
        if not np.isfinite(best):
            raise ArithmeticError("LP column unbounded; input is inconsistent")
        tied = np.nonzero(ratios <= best + _TIE_TOL)[0]
        leave = int(tied[np.argmin(basis[tied])])  # Bland on leaving variable

        A[leave] /= A[leave, enter]
        factors = A[:, enter].copy()
        factors[leave] = 0.0
        A -= np.outer(factors, A[leave])
        obj = obj - obj[enter] * A[leave, :nvar]
        obj[enter] = 0.0
        basis[leave] = enter

    # a priced column's variable follows the residuals; its weight follows X's
    w = np.zeros(g + len(priced))
    for r, var in enumerate(basis):
        if var < g:
            w[var] = A[r, -1]
        elif var >= g + 2 * m:
            w[var - 2 * m] = A[r, -1]
    if priced:
        X = np.vstack([X] + priced)
    return w, X
