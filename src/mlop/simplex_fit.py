"""The two exact LP kernels of the weight-update subproblem: given fixed
precedence vectors, find simplex weights minimizing the L1 gap to the
observed preference vector,

    minimize  sum_k |c_k - sum_i w_i x_k^i|   over   w >= 0,  sum_i w_i = 1.

One problem at a time (_fit_simplex_l1) is solved by an edge walk in weight
space in the style of Barrodale and Roberts (1973).  A vertex is fixed by
its basic groups B and |B| - 1 pairs K whose residual it holds at zero, so
its basis matrix is at most min(g, m + 1) square whatever the number of
pairs m.  Each step leaves the vertex along the edge that frees one zero
weight or one held residual, and walks it past every residual that changes
sign while the objective still falls (the bound-flipping ratio test of the
dual, where each pair's dual sits at -1 or +1 until its residual is held).
A step inverts the basis matrix afresh, O(b^3) for b <= min(g, m + 1), and
prices every weight and pair, O(m g).  The walk serves fits whose rows are
fixed.

The exact scan at g >= 3 fits thousands of small problems that share c
(a pair of orders has a closed form, mlop.exact._breakpoint_g2).  It runs
them as a stack (_solve_stack): Bland pivots (_pivot) on a dense
(P, m + 1, g + 2m + 1) tableau array of the split-residual form

    minimize  sum_k (e+_k + e-_k)
    s.t.      sum_i w_i x_k^i + e+_k - e-_k = c_k      for every pair k
              sum_i w_i = 1,   w, e+, e- >= 0,

where each problem makes its own choices and its pivot is the same
elementwise arithmetic, so a problem gets the same bits in any stack.  As
a stack of one, the same tableau is the master of the polytope projection
(_project_columns), which prices columns from a set too large to list.
Bland's rule cannot cycle, so both end on degenerate points.
"""

from __future__ import annotations

import numpy as np

_PIVOT_TOL = 1e-11
_TIE_TOL = 1e-12
_NO_ROW = np.iinfo(np.int64).max  # above every variable index
# the edge walk: a reduced cost below -_OPT_TOL improves; an edge moves a
# weight or a residual only by a rate above _EDGE_TOL; residuals and
# weights within _ZERO_TOL of zero count as zero in the ratio test, and an
# objective within it of zero ends the walk
_OPT_TOL = 1e-10
_EDGE_TOL = 1e-9
_ZERO_TOL = 1e-12
# steps in a row that leave the walk's vertex where it was before Bland's
# rule takes over: 10 took 15% fewer steps than 1 on projections of
# interior points at n = 8 and 10, and with no switch at all 2 of 10 at
# n = 11 hit the step cap (measured when the walk also ran the projection;
# it now serves step_weights only)
_BLAND_AFTER = 10


def _fit_simplex_l1(X: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, float]:
    """Globally optimal simplex weights for the L1 fit of the rows of X to c.

    Returns (weights, objective) with weights >= 0 summing to 1.  The walk
    runs on the distinct rows of X only, so exact duplicate rows carry no
    weight past their first occurrence, and its choices are index-ordered,
    so the result is deterministic.
    """
    X = np.asarray(X, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    seen: dict[bytes, int] = {}
    first = np.array([seen.setdefault(row.tobytes(), i) for i, row in enumerate(X)])
    distinct = np.flatnonzero(first == np.arange(len(X)))
    w = np.zeros(len(X))
    w[distinct] = np.maximum(_edge_walk(*_merged_pairs(X[distinct], c)), 0.0)  # float noise
    w /= w.sum()
    return w, float(np.abs(c - w @ X).sum())


def _merged_pairs(X: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The fit of the rows of X to c as a weighted one with fewer pairs:
    (X', c', mult) with the same objective, sum_k mult_k |c'_k - w @ X'_k|,
    up to a constant, for every w on the simplex.

    Each pair is oriented so that the first row holds a 1 there (x -> 1 - x
    and c -> 1 - c leave |c - w @ x| as it is when w sums to 1).  Pairs on
    which every row then holds a 1 add a constant and are dropped, and
    pairs equal in X' and c' are merged into one, with their count as its
    multiplicity.  Equal pairs would otherwise tie in every ratio test.
    """
    pairs = np.vstack([c, X])  # one column per pair: its target, then X's
    pairs = np.where(X[0] == 0.0, 1.0 - pairs, pairs)
    pairs = pairs[:, (pairs[1:] != 1.0).any(axis=0)]
    pairs = pairs[:, np.lexsort(pairs)]  # equal pairs side by side
    new = np.ones(pairs.shape[1], dtype=bool)
    new[1:] = (pairs[:, 1:] != pairs[:, :-1]).any(axis=0)
    start = np.flatnonzero(new)
    mult = np.diff(start, append=pairs.shape[1]).astype(np.float64)
    return pairs[1:, start], pairs[0, start], mult


def _edge_walk(X: np.ndarray, c: np.ndarray, mult: np.ndarray) -> np.ndarray:
    """Optimal weights of the fit of the distinct rows of X to c, pair k
    counted mult_k times.

    The walk starts at the row nearest c (the first of any tie).  A vertex
    is its basic groups B and held pairs K, one fewer, plus a sign s_k of
    the residual of each other pair (kept while that residual is zero).
    With M = [1; X[B, K]^T] its weights solve M w_B = [1; c_K], and its row
    duals M^T [lam; -u] = X[B] y for y = mult s off K and 0 on K; then
    y = u on K.  The reduced cost of a zero weight i is lam - X[i] y, and
    of freeing held pair k towards sign sigma, mult_k - sigma u_k.  The
    most negative one enters, the first in the order weights by index, then
    + and then - residuals in K's order.  Once _BLAND_AFTER steps in a row
    have left the vertex where it was, the steps take the first improving
    one by index instead and stop at the first basic variable to reach zero
    (Bland's rule on the split-residual form), until one moves: Bland's
    rule cannot cycle, so the walk ends.  Otherwise a long step walks past
    each residual that crosses zero, which adds twice its weighted rate to
    the slope, until the slope is no longer negative, and stops earlier
    where a weight reaches zero; ties go to weights, the smallest index
    first.  Each step computes M^-1 afresh, O(b^3) for a basis of
    b <= min(g, m + 1) groups, so a singular basis raises ArithmeticError at
    whatever step it appears, and the basis change only edits B and K.
    """
    g, m = X.shape
    # each row with a trailing 1: its column is the simplex row, held like a
    # pair with target 1, first in K and never freed
    rows = np.hstack([X, np.ones((g, 1))])
    target = np.append(c, 1.0)
    start = int((np.abs(c - X) @ mult).argmin())
    B, K = [start], [m]
    s = np.where(c < X[start], -1.0, 1.0)
    y = np.zeros(m + 1)
    stalled = pivots = 0
    while True:
        XB = rows[B]
        # Minv = M^-1 with M = rows[B][:, K].T: its rows follow B, its columns K
        try:
            Minv = np.linalg.inv(XB[:, K].T)
        except np.linalg.LinAlgError:
            raise ArithmeticError("weight fit basis is singular") from None
        wB = Minv @ target[K]
        r = c - wB @ XB[:, :m]
        size = np.abs(r)
        if size @ mult <= _ZERO_TOL:
            break  # a zero objective is optimal over every vector
        np.copysign(1.0, r, out=s, where=size > _ZERO_TOL)
        np.multiply(s, mult, out=y[:m])
        y[K] = 0.0
        y[K] = -((XB @ y) @ Minv)  # -lam on the simplex row, u on the held pairs
        held = K[1:]
        u = y[held]
        cost = np.concatenate([-(rows @ y), mult[held] - u, mult[held] + u])
        cost[B] = 0.0
        improving = cost < -_OPT_TOL
        if not improving.any():
            break
        elif stalled < _BLAND_AFTER:
            enter = int(cost.argmin())
            slope = cost[enter]
        elif improving[:g].any():
            enter = int(improving.argmax())
        else:  # Bland: the held pair of the smallest index, + before -
            key = np.concatenate([held, np.add(held, m)])
            enter = g + int(np.where(improving[g:], key, 2 * m).argmin())

        # the edge: the weights move by dB (and an entering weight by 1),
        # the fit by delta per unit step
        if enter < g:
            dB = -(Minv @ rows[enter, K])
            delta = rows[enter, :m] + dB @ XB[:, :m]
        else:
            t = 1 + (enter - g) % len(held)  # in K
            sigma = 1.0 if enter - g < len(held) else -1.0
            dB = -sigma * Minv[:, t]
            delta = dB @ XB[:, :m]

        blocking = np.flatnonzero(dB < -_EDGE_TOL)
        tau_w = wB[blocking]
        tau_w = np.where(tau_w > _ZERO_TOL, tau_w, 0.0) / -dB[blocking]
        rate = s * delta
        rate[held] = 0.0
        k = np.flatnonzero(rate > _EDGE_TOL)
        gap = s[k] * r[k]
        tau_k = np.where(gap > _ZERO_TOL, gap, 0.0) / rate[k]

        passed = k[:0]
        step_w = tau_w.min(initial=np.inf)
        if stalled >= _BLAND_AFTER:
            step = min(step_w, tau_k.min(initial=np.inf))
            leave_pair = step_w > step + _TIE_TOL
            if leave_pair:  # the basic residual of the smallest index
                tied = k[tau_k <= step + _TIE_TOL]
                p = int(tied[np.argmin(np.where(s[tied] > 0, tied, tied + m))])
        else:
            order = np.argsort(tau_k, kind="stable")
            k, tau_k = k[order], tau_k[order]
            climb = np.cumsum(mult[k] * np.abs(delta[k]))
            climb *= 2.0
            climb += slope
            stop = int(np.argmax(climb > -_OPT_TOL)) if climb.size and climb[-1] > -_OPT_TOL else -1
            step_k = tau_k[stop] if stop >= 0 else np.inf
            leave_pair = step_w > step_k + _TIE_TOL
            if leave_pair:
                p, passed, step = int(k[stop]), k[:stop], step_k
            else:
                passed, step = k[: np.searchsorted(tau_k, step_w)], step_w
        if not np.isfinite(step):
            raise ArithmeticError("weight fit edge unbounded; input is inconsistent")
        s[passed] *= -1.0
        if enter >= g:
            s[K[t]] = sigma

        # the basis change
        if leave_pair:
            if enter < g:  # a column for the weight, a row for p
                B.append(enter)
                K.append(p)
            else:  # p takes the freed pair's row
                K[t] = p
        else:
            tied = blocking[tau_w <= step_w + _TIE_TOL]
            q = min(tied.tolist(), key=B.__getitem__)  # the smallest tied weight
            if enter < g:  # the weight takes the leaving one's column
                B[q] = enter
            else:  # the leaving weight's column goes, and the freed pair's row
                del B[q], K[t]
        stalled = stalled + 1 if step == 0.0 else 0
        pivots += 1
        if pivots > 1000 + 50 * (g + m):  # Bland's rule rules out cycling; float noise may not
            raise ArithmeticError("weight fit failed to converge")

    w = np.zeros(g)
    w[B] = wB
    return w


def _fit_simplex_stack(V: np.ndarray, idx: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Optimal simplex weights for each problem of a stack sharing c:
    problem p fits the rows idx[p] of V, whose rows are distinct.

    Returns (weights (P, g), objectives (P,)).  Each problem gets the bits
    it gets in any other stack, a stack of one included: _solve_stack makes
    its pivots with elementwise arithmetic, and each objective is summed
    alone.  A repeated index gives a problem equal columns, which get equal
    arithmetic, so Bland's rule enters only the first of them and a later
    copy keeps weight 0.
    """
    X = V[idx]
    w = np.maximum(_solve_stack(X, c), 0.0)  # float noise
    w /= w.sum(axis=1, keepdims=True)
    # one vector-matrix product per problem, the BLAS call w @ X makes for
    # a single one, so a problem gets the same bits in any stack
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


def _solve_stack(X: np.ndarray, c: np.ndarray) -> np.ndarray:
    """LP weights (P, g) of each problem of a stack X (P, g, m) sharing c.

    Dense primal simplex with Bland's rule (no cycling), run in lockstep:
    every live problem makes its own choices of entering and leaving
    variable, and its pivot is the same elementwise arithmetic whatever
    else the stack holds.  A problem leaves the stack once no column
    improves it, and its weights are read off its final basis.
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
                p, r = np.nonzero(final_basis < g)
                w = np.zeros((P, g))
                w[p, final_basis[p, r]] = final_rhs[p, r]
                return w
        if pivots == max_iter:
            raise ArithmeticError("simplex failed to converge (iteration cap hit)")
        pivots += 1
        obj = _pivot(A, basis, obj, improving)


def _pivot(A: np.ndarray, basis: np.ndarray, obj: np.ndarray, improving: np.ndarray) -> np.ndarray:
    """One Bland pivot on each tableau of a stack, in place on A and basis;
    returns the new objective row."""
    L = np.arange(len(A))
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
    obj = obj - obj[L, enter][:, None] * row[:, : obj.shape[1]]
    obj[L, enter] = 0.0
    basis[L, leave] = enter
    return obj


def _project_columns(c: np.ndarray, x0: np.ndarray, price) -> tuple[np.ndarray, float]:
    """Optimal simplex weights of the L1 fit to c over x0 and every vector
    price can return, by column generation: (weights, objective), the
    weights on x0 and then on each vector price returned, in that order.

    The master is _solve_stack's tableau, pivoted until no column improves.
    Its row duals are then y_k = obj[g + k] + 1 (e+_k has the column e_k and
    cost 1) and lam = obj[0] - y @ x0, and price(y, floor) returns a vector
    a not yet in the master with y @ a > floor, an improving column, or
    None, which ends the solve; so does a zero objective.  Each new column
    rebuilds the tableau and re-reads it from the basis, so that float error
    does not build up over the rounds.
    """
    m = len(c)
    X = np.asarray(x0, dtype=np.float64)[None]
    A, basis, obj = _tableau(X[None], c)
    g, pivots = 1, 0
    while A[0, basis[0] >= g, -1].sum() > _ZERO_TOL:  # the basic residuals
        improving = obj > _PIVOT_TOL
        if improving.any():
            if pivots == 2000 + 200 * (g + 2 * m):
                raise ArithmeticError("simplex failed to converge (iteration cap hit)")
            pivots += 1
            obj = _pivot(A, basis, obj, improving)
            continue
        y = obj[0, g : g + m] + 1.0
        a = price(y, _OPT_TOL - (obj[0, 0] - y @ X[0]))
        if a is None:
            break
        X = np.vstack([X, a])
        basis[basis >= g] += 1  # the residual columns move right by one
        g += 1
        A, _, _ = _tableau(X[None], c)
        try:  # _tableau returns T [original], so this is B^-1 [original]
            A = np.linalg.solve(A[:, :, basis[0]], A)
        except np.linalg.LinAlgError:
            raise ArithmeticError("projection basis is singular") from None
        obj = A[:, basis[0] >= g, :-1].sum(axis=1)  # the residuals cost 1, the weights 0
        obj[:, g:] -= 1.0
    if A[0, :, -1].min() < -_EDGE_TOL:  # a pivot on float noise, which the exit tests miss
        raise ArithmeticError("projection basis became infeasible")
    w = np.zeros(g)
    held = basis[0] < g
    w[basis[0, held]] = np.maximum(A[0, held, -1], 0.0)  # float noise
    w /= w.sum()
    return w, float(np.abs(c - w @ X).sum())
