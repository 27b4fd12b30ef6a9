"""Exact solver for the weight-update subproblem: given fixed precedence
vectors, find simplex weights minimizing the L1 gap to the observed
preference vector.

The problem is written with split residuals, one equality row per pair,

    minimize  sum_k (e+_k + e-_k)
    s.t.      sum_i w_i x_k^i + e+_k - e-_k = c_k      for every pair k
              sum_i w_i = 1,   w, e+, e- >= 0

and solved by dense primal simplex with Bland's rule (no cycling).  A
feasible starting basis exists in closed form (w_1 plus one residual per
row), so no phase-1 pass is needed.  Problem sizes here are tiny: g rarely
exceeds 10 and there are at most 276 pairs at n = 24.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import InvalidInput, _n_from_pairs, triple_pair_indices

_PIVOT_TOL = 1e-11
_TIE_TOL = 1e-12


@dataclass(frozen=True)
class WeightFitProblem:
    """g binary precedence vectors (rows of X) and the target vector c."""

    X: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        X = np.ascontiguousarray(np.asarray(self.X, dtype=np.float64))
        c = np.ascontiguousarray(np.asarray(self.c, dtype=np.float64))
        if X.ndim != 2 or X.shape[0] < 1:
            raise InvalidInput(f"X must be a (g, pairs) matrix, got shape {X.shape}")
        if c.shape != (X.shape[1],):
            raise InvalidInput("c must match the pair dimension of X")
        if not np.all((X == 0.0) | (X == 1.0)):
            raise InvalidInput("precedence vectors must be binary")
        if not np.all(np.isfinite(c)):
            raise InvalidInput("target vector must be finite")
        rs, rt, st = triple_pair_indices(_n_from_pairs(X.shape[1]))
        res = X[:, rs] - X[:, rt] + X[:, st]
        if np.any((res < 0) | (res > 1)):
            raise InvalidInput("every precedence vector must come from a linear order")
        X.flags.writeable = False
        c.flags.writeable = False
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "c", c)

    @property
    def g(self) -> int:
        return self.X.shape[0]


def fit_weights(prob: WeightFitProblem) -> tuple[np.ndarray, float]:
    """Globally optimal simplex weights for the L1 fit (LP optimum).

    Returns (weights, objective) with weights >= 0 summing to 1.  Among
    degenerate optima the result is deterministic: weight spread across
    exact duplicate vectors is consolidated onto the first occurrence, and
    the underlying Bland pivoting is index-ordered.
    """
    return _fit_simplex_l1(prob.X, prob.c)


def weight_breakpoint_fit_g2(prob: WeightFitProblem) -> tuple[np.ndarray, float]:
    """Fast path for g = 2 with a contract identical to fit_weights.

    The objective is piecewise linear in the scalar w_1 with breakpoints
    only at {c_k, 1 - c_k} over pairs where the two vectors differ, so the
    optimum is found by evaluating all breakpoints plus {0, 1}.
    """
    if prob.g != 2:
        raise InvalidInput(f"breakpoint fit requires g == 2, got g={prob.g}")
    return _breakpoint_g2(prob.X, prob.c)


def _breakpoint_g2(X: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, float]:
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


def _fit_simplex_l1(X: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, float]:
    """LP core shared by the mixture solvers and the polytope geometry."""
    X = np.asarray(X, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    g, m = X.shape
    if g == 1:
        return np.array([1.0]), float(np.abs(c - X[0]).sum())

    w = _solve_lp(X, c)
    w = _consolidate_duplicates(X, w)
    w = np.maximum(w, 0.0)
    w /= w.sum()
    objective = float(np.abs(c - w @ X).sum())
    return w, objective


def _consolidate_duplicates(X: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Move weight spread across identical vectors onto the first occurrence."""
    w = w.copy()
    g = X.shape[0]
    for i in range(g):
        if w[i] < 0.0:
            w[i] = 0.0
    seen: dict[bytes, int] = {}
    for i in range(g):
        key = X[i].tobytes()
        if key in seen:
            w[seen[key]] += w[i]
            w[i] = 0.0
        else:
            seen[key] = i
    return w


def _solve_lp(X: np.ndarray, c: np.ndarray) -> np.ndarray:
    g, m = X.shape
    nvar = g + 2 * m  # w_1..w_g, e+_1..e+_m, e-_1..e-_m
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

    max_iter = 2000 + 200 * nvar
    for _ in range(max_iter):
        improving = np.nonzero(obj > _PIVOT_TOL)[0]
        if improving.size == 0:
            break
        enter = int(improving[0])  # Bland: smallest improving index
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
    else:
        raise ArithmeticError("simplex failed to converge (iteration cap hit)")

    w = np.zeros(g)
    for r, var in enumerate(basis):
        if var < g:
            w[var] = A[r, -1]
    return w
