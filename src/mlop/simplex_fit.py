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

The exact scan fits thousands of small problems that share c.  It runs
them as a stack (_solve_stack): the same loop over a (P, m + 1, g + 2m + 1)
tableau array, where each problem makes its own Bland choices and its pivot
is the same elementwise arithmetic, so each problem gets exactly the
weights the single-problem loop (_solve_lp) gives it alone.  The
single-problem loop stays for one problem at a time, where the stack's
indexing costs more than it saves, and for pricing.  Both share the
tableau set-up (_tableau) and the read-off (_read_weights, _finish).

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
_NO_ROW = np.iinfo(np.int64).max  # above every variable index


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
    seen: dict[bytes, int] = {}
    first = [seen.setdefault(row.tobytes(), i) for i, row in enumerate(X)]
    w, objective = _finish(X[None], c, w[None], np.array([first]))
    return w[0], float(objective[0])


def _fit_simplex_stack(V: np.ndarray, idx: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_fit_simplex_l1 for each problem of a stack sharing c: problem p fits
    the rows idx[p] of V, whose rows are distinct.

    Returns (weights (P, g), objectives (P,)), the bits _fit_simplex_l1
    gives each problem alone: _solve_stack makes the same pivots with the
    same arithmetic, and both finish through _finish.  Rows of a problem are
    equal exactly where their indices are.
    """
    X = V[idx]
    first = (idx[:, :, None] == idx[:, None, :]).argmax(axis=2)
    return _finish(X, c, _solve_stack(X, c), first)


def _finish(X: np.ndarray, c: np.ndarray, w: np.ndarray,
            first: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(weights, objectives) of a stack X (P, k, m) from its LP weights
    w (P, k): negative float noise clipped, the weight of each row moved
    onto first[p, i], the first row of its problem equal to it, then
    normalised to sum 1."""
    w = np.maximum(w, 0.0)
    for i in np.flatnonzero((first != np.arange(X.shape[1])).any(axis=0)):
        p = np.flatnonzero(first[:, i] != i)
        w[p, first[p, i]] += w[p, i]
        w[p, i] = 0.0
    w /= w.sum(axis=1, keepdims=True)
    # one vector-matrix product per problem, the BLAS call w @ X makes for
    # a single one, so a stack and a lone fit get the same bits
    objective = np.abs(c - np.matmul(w[:, None, :], X)[:, 0]).sum(axis=1)
    return w, objective


def _tableau(X: np.ndarray, c: np.ndarray):
    """Starting tableaux of a stack X (P, g, m): (A, basis, obj).

    A (P, m + 1, g + 2m + 1) holds the pair rows, the simplex row and the
    right-hand side; the basis is w_1 on the simplex row plus, per pair
    row, whichever residual keeps the basic value nonnegative; obj is the
    objective row z_j - c_j, where entering columns have positive entries.
    Every entry of obj is an integer, so it does not depend on the order
    its sum is taken in.
    """
    P, g, m = X.shape
    nvar = g + 2 * m  # w_1..w_g, e+_1..e+_m, e-_1..e-_m
    rows = m + 1
    pairs = np.arange(m)

    A = np.zeros((P, rows, nvar + 1))
    A[:, :m, :g] = X.transpose(0, 2, 1)
    A[:, pairs, g + pairs] = 1.0
    A[:, pairs, g + m + pairs] = -1.0
    A[:, :m, -1] = c
    A[:, m, :g] = 1.0
    A[:, m, -1] = 1.0

    basis = np.empty((P, rows), dtype=np.int64)
    basis[:, m] = 0
    flip = c < X[:, 0, :]
    basis[:, :m] = np.where(flip, g + m + pairs, g + pairs)
    A[:, :m] *= np.where(flip, -1.0, 1.0)[:, :, None]
    A[:, :m] -= A[:, :m, 0, None] * A[:, m, None, :]

    cost = np.zeros(nvar)
    cost[g:] = 1.0
    obj = np.matmul(cost[basis][:, None, :], A[:, :, :nvar])[:, 0] - cost
    return A, basis, obj


def _read_weights(basis: np.ndarray, rhs: np.ndarray, g: int, m: int, k: int) -> np.ndarray:
    """Weights (P, k) read off final bases and right-hand sides (P, m + 1):
    the basic columns of X's g rows and then of any priced vectors, whose
    variables follow the residuals."""
    p, r = np.nonzero((basis < g) | (basis >= g + 2 * m))
    var = basis[p, r]
    w = np.zeros((basis.shape[0], k))
    w[p, np.where(var < g, var, var - 2 * m)] = rhs[p, r]
    return w


def _solve_stack(X: np.ndarray, c: np.ndarray) -> np.ndarray:
    """LP weights (P, g) of each problem of a stack X (P, g, m) sharing c.

    The loop of _solve_lp without pricing, run in lockstep: every live
    problem makes its own Bland choices of entering and leaving variable,
    and its pivot is the same elementwise arithmetic, so each problem gets
    exactly the weights _solve_lp gives it alone.  A problem leaves the
    stack once no column improves it.
    """
    P, g, m = X.shape
    A, basis, obj = _tableau(X, c)
    nvar = A.shape[2] - 1
    final_basis, final_rhs = np.empty_like(basis), np.empty((P, m + 1))
    live = np.arange(P)
    max_iter, pivots = 2000 + 200 * nvar, 0
    while True:
        improving = obj > _PIVOT_TOL
        done = ~improving.any(axis=1)
        if done.any():
            final_basis[live[done]], final_rhs[live[done]] = basis[done], A[done, :, -1]
            keep = ~done
            live, A, basis, obj, improving = (
                live[keep], A[keep], basis[keep], obj[keep], improving[keep])
            if not live.size:
                return _read_weights(final_basis, final_rhs, g, m, g)
        if pivots == max_iter:
            raise ArithmeticError("simplex failed to converge (iteration cap hit)")
        pivots += 1
        L = np.arange(live.size)
        enter = improving.argmax(axis=1)  # Bland: smallest improving index
        col = A[L, :, enter]
        ok = col > _PIVOT_TOL
        ratios = np.divide(A[:, :, -1], col, out=np.full(col.shape, np.inf), where=ok)
        best = ratios.min(axis=1)
        if not np.isfinite(best).all():
            raise ArithmeticError("LP column unbounded; input is inconsistent")
        tied = ratios <= best[:, None] + _TIE_TOL
        leave = np.where(tied, basis, _NO_ROW).argmin(axis=1)  # Bland on leaving variable

        row = A[L, leave] / A[L, leave, enter][:, None]
        A[L, leave] = row
        factors = A[L, :, enter]
        factors[L, leave] = 0.0
        A -= factors[:, :, None] * row[:, None, :]
        obj = obj - obj[L, enter][:, None] * row[:, :nvar]
        obj[L, enter] = 0.0
        basis[L, leave] = enter


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
    A, basis, obj = (a[0] for a in _tableau(X[None], c))
    nvar = g + 2 * m  # then priced columns
    rows = m + 1
    cost = np.zeros(nvar)
    cost[g:] = 1.0

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

    w = _read_weights(basis[None], A[None, :, -1], g, m, nvar - 2 * m)[0]
    if priced:
        X = np.vstack([X] + priced)
    return w, X
