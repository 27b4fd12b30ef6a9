"""Multi-start alternating-direction matheuristic.

Each start draws random simplex weights, then alternates two steps until the
objective stops improving: a ranking-update step that re-optimizes the group
orders at fixed weights, and a weight-update step that re-fits the simplex
weights at fixed orders (an exact LP).  Step results are accepted only when
they strictly improve the start's best objective, and the best solution over
all starts is returned.

The ranking update is realized as block coordinate descent over the groups:
with the other groups fixed, the subproblem for group i,

    min over orders  sum_k |a_k - w_i x_k|,   a = c - sum_{j != i} w_j x^j,

is exactly a classical LOP with per-pair benefits |a_k| - |a_k - w_i| (and
the analogous value from the complementary pair), solved by ``lop_exact``'s
subset DP.  The DP runs once per strongly connected block of the items'
"may come before" graph, so a subproblem whose pairs mostly agree on a
direction costs far less than one DP over all n items.  A block of more
than ``LOP_DP_MAX_N`` items whose DP layers would pass the step-1 budget
keeps its insertion-search order instead (the trace counts those solves).
Groups are swept cyclically until a full sweep yields no improvement, so
the step never worsens the incumbent.

Neither step repeats work whose answer it already has.  ``lop_exact``
memoizes its subset-DP answers, so an inner subproblem met again (in a
confirmation sweep, in a start's last iteration, or at g = 1 on every step)
costs one lookup.  The weight step is skipped when the ranking step kept the
orders it was last fitted on: the refit would return the same objective,
which can never strictly improve the start's best.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    InvalidInput,
    LinearOrder,
    MixtureSolution,
    PreferenceMatrix,
    canonicalize,
)
from .lop import benefit_for_pairs, lop_exact
from .simplex_fit import _fit_simplex_l1

_WEIGHT_EPS = 1e-12
_IMPROVE_TOL = 1e-15
_MAX_SWEEPS = 100


@dataclass(frozen=True)
class HeuristicConfig:
    """Knobs of the multi-start alternation.

    step1_budget is lop_exact's budget for each inner LOP solve: the cap on
    the candidate subsets per popcount layer of a block of more than
    LOP_DP_MAX_N items; None selects the lop module's DEFAULT_LAYER_BUDGET.
    Start k derives its RNG seed as base_seed XOR k, so runs are reproducible
    and independent of any scheduling.
    """

    n_starts: int = 10
    it_max: int = 12
    epsilon: float = 1e-5
    step1_budget: int | None = None
    base_seed: int = 0

    def __post_init__(self):
        if self.n_starts < 1:
            raise InvalidInput(f"n_starts must be >= 1, got {self.n_starts}")
        if self.it_max < 1:
            raise InvalidInput(f"it_max must be >= 1, got {self.it_max}")
        if not self.epsilon > 0:
            raise InvalidInput(f"epsilon must be > 0, got {self.epsilon}")
        if self.step1_budget is not None and self.step1_budget < 1:
            raise InvalidInput("step1_budget must be positive when given")
        if self.base_seed < 0:
            raise InvalidInput(f"base_seed must be a non-negative integer, got {self.base_seed}")


@dataclass
class HeuristicTrace:
    """Per-start rows (iteration, objective after step 1, after step 2), and
    the number of inner LOP solves that stopped on their budget."""

    starts: list[list[tuple[int, float, float]]] = field(default_factory=list)
    inner_unproven: int = 0

    @property
    def total_iterations(self) -> int:
        return sum(len(rows) for rows in self.starts)


def random_simplex_weights(g: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform draw from the probability simplex (flat Dirichlet)."""
    if g < 1:
        raise InvalidInput(f"g must be >= 1, got {g}")
    return rng.dirichlet(np.ones(g))


def step_weights(
    C: PreferenceMatrix, fixed_orders: list[LinearOrder] | tuple[LinearOrder, ...]
) -> tuple[np.ndarray, float]:
    """Re-optimize the weights at fixed rankings (exact LP, always feasible)."""
    X = np.stack([o.prec for o in fixed_orders]).astype(np.float64)
    return _fit_simplex_l1(X, C.upper)


def step_rankings(
    C: PreferenceMatrix,
    fixed_weights,
    incumbent_orders,
    budget: int | None = None,
) -> tuple[list[LinearOrder], float, int]:
    """Update the group orders at fixed weights; never worsens the incumbent.

    Args:
        C: observed preference matrix.
        fixed_weights: simplex vector of length g.
        incumbent_orders: current orders, kept wherever no strict improvement
            is found (zero-weight groups always keep theirs).
        budget: lop_exact's budget for each inner solve, which uses it only
            on blocks of more than LOP_DP_MAX_N items; an unproven order is
            kept only if it strictly improves the objective, like any other.

    Returns:
        (orders, objective, unproven): the objective at the fixed weights, and
        the number of inner solves that stopped on their budget.
    """
    w = np.asarray(fixed_weights, dtype=np.float64)
    orders = list(incumbent_orders)
    if w.shape != (len(orders),):
        raise InvalidInput("one weight per incumbent order is required")
    if w.min() < -1e-9 or abs(w.sum() - 1.0) > 1e-9:
        raise InvalidInput("fixed weights must lie on the probability simplex")
    n = C.n
    c = C.upper
    X = np.stack([o.prec for o in orders]).astype(np.float64)
    cur_obj = float(np.abs(c - w @ X).sum())
    unproven = 0

    for _ in range(_MAX_SWEEPS):
        improved = False
        for i in range(len(orders)):
            if w[i] <= _WEIGHT_EPS:
                continue  # benefits vanish; the group may hold any order
            a = c - (w @ X - w[i] * X[i])
            b_rs = np.abs(a) - np.abs(a - w[i])
            a_sr = w[i] - a
            b_sr = np.abs(a_sr) - np.abs(a_sr - w[i])
            B = benefit_for_pairs(n, b_rs, b_sr)
            new_order, _, proven = lop_exact(B, budget=budget)
            unproven += not proven
            if new_order.perm == orders[i].perm:
                continue
            x_new = new_order.prec.astype(np.float64)
            cand = float(np.abs(c - (w @ X - w[i] * X[i] + w[i] * x_new)).sum())
            if cand < cur_obj - _IMPROVE_TOL:
                orders[i] = new_order
                X[i] = x_new
                cur_obj = cand
                improved = True
        if not improved:
            break
    return orders, cur_obj, unproven


def solve_heuristic(
    C: PreferenceMatrix, g: int, cfg: HeuristicConfig | None = None
) -> tuple[MixtureSolution, float, HeuristicTrace]:
    """Best mixture found by the multi-start alternation, canonicalized.

    Deterministic given cfg.base_seed; an identical config reproduces the
    identical solution.  The objective can never beat the exact optimum and
    never worsens across accepted updates within a start.
    """
    if g < 1:
        raise InvalidInput(f"g must be >= 1, got {g}")
    cfg = cfg if cfg is not None else HeuristicConfig()
    n = C.n

    best_obj = math.inf
    best_orders: list[LinearOrder] | None = None
    best_weights: np.ndarray | None = None
    trace = HeuristicTrace()

    for k in range(cfg.n_starts):
        rng = np.random.default_rng(cfg.base_seed ^ k)
        w_ref = random_simplex_weights(g, rng)
        orders_loc = [LinearOrder(tuple(int(v) for v in rng.permutation(n))) for _ in range(g)]
        w_loc = w_ref
        obj_loc = math.inf
        fitted = None  # the orders list the last weight step was fitted on
        rows: list[tuple[int, float, float]] = []

        for it in range(1, cfg.it_max + 1):
            obj_start = obj_loc

            orders_new, obj1, unproven = step_rankings(C, w_ref, orders_loc, cfg.step1_budget)
            trace.inner_unproven += unproven
            if obj1 < obj_loc:
                orders_loc, obj_loc = orders_new, obj1
            after1 = obj_loc

            if orders_loc is not fitted:
                w_new, obj2 = step_weights(C, orders_loc)
                fitted = orders_loc
                if obj2 < obj_loc:
                    w_loc, obj_loc = w_new, obj2
            rows.append((it, after1, obj_loc))
            w_ref = w_loc  # reference weights for the next ranking update

            if abs(obj_start - obj_loc) < cfg.epsilon:
                break

        trace.starts.append(rows)
        if obj_loc < best_obj - _IMPROVE_TOL:
            best_obj = obj_loc
            best_orders = orders_loc
            best_weights = np.asarray(w_loc, dtype=np.float64)

    assert best_orders is not None and best_weights is not None
    sol = canonicalize(
        MixtureSolution(tuple(best_orders), tuple(float(v) for v in best_weights))
    )
    return sol, float(best_obj), trace
