"""Multi-start alternating-direction matheuristic.

Each start draws random simplex weights, then alternates two steps, for at
most 12 iterations or until one moves the objective by less than 1e-5: a
ranking-update step that re-optimizes the group orders at fixed weights,
and a weight-update step that re-fits the simplex weights at fixed orders
(an exact LP).  Step results are accepted only when they strictly improve
the start's best objective, and the best solution over all starts is returned.

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

The starts run in lockstep.  Each start is a generator that yields the
benefit matrix of every inner LOP its ranking step meets and waits for the
answer; a driver collects the matrices all live starts wait on and answers
them together.  Up to _DP_ONE_PART_MAX_N (11) items they go to one stacked
subset DP (``lop._lop_exact_batch``), whose answers are ``lop_exact``'s bit
for bit, so a start's arithmetic, the trace and the best-start rule are
those of starts run one after another.  Larger matrices go to
``lop_exact`` one by one.

Neither step repeats work whose answer it already has.  ``lop_exact``
memoizes its subset-DP answers, so an inner subproblem of more than 11
items that a solve meets again (in a confirmation sweep, in a start's last
iteration, or at g = 1 on every step) costs one lookup; a stacked solve
skips the memo, and a repeated matrix costs one row of the stack.  The
weight step is skipped when the ranking step kept the orders it was last
fitted on: the refit would return the same objective, which can never
strictly improve the start's best.
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
from .lop import _lop_exact_batch, benefit_for_pairs, lop_exact
from .simplex_fit import _fit_simplex_l1

_WEIGHT_EPS = 1e-12
_IMPROVE_TOL = 1e-15
_MAX_SWEEPS = 100
_IT_MAX = 12
_CONVERGED = 1e-5


@dataclass(frozen=True)
class HeuristicConfig:
    """Settings of the multi-start alternation, whose stopping rule is fixed.

    step1_budget is lop_exact's budget for each inner LOP solve: the cap on
    the candidate subsets per popcount layer of a block of more than
    LOP_DP_MAX_N items; None selects the lop module's DEFAULT_LAYER_BUDGET.
    Start k derives its RNG seed as base_seed XOR k, so runs are reproducible
    and independent of any scheduling.
    """

    n_starts: int = 10
    step1_budget: int | None = None
    base_seed: int = 0

    def __post_init__(self):
        if self.n_starts < 1:
            raise InvalidInput(f"n_starts must be >= 1, got {self.n_starts}")
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
        budget: lop_exact's budget for each inner solve, one lop_exact call
            per inner LOP, memo included, which uses it only on blocks of more
            than LOP_DP_MAX_N items; an unproven order is kept only if it
            strictly improves the objective, like any other.

    Returns:
        (orders, objective, unproven): the objective at the fixed weights, and
        the number of inner solves that stopped on their budget.
    """
    step = _ranking_step(C, fixed_weights, incumbent_orders)
    try:
        B = next(step)
        while True:
            order, _, proven = lop_exact(B, budget=budget)
            B = step.send((order, proven))
    except StopIteration as done:
        return done.value


def _ranking_step(C: PreferenceMatrix, fixed_weights, incumbent_orders):
    """step_rankings as a generator: it yields each inner LOP's benefit
    matrix, is sent its (order, proven), and returns step_rankings' result."""
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
            new_order, proven = yield benefit_for_pairs(n, b_rs, b_sr)
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
    starts = [_start(C, g, cfg, k) for k in range(cfg.n_starts)]
    results = _lockstep(starts, cfg.step1_budget)

    best_obj = math.inf
    best_orders: list[LinearOrder] | None = None
    best_weights: np.ndarray | None = None
    trace = HeuristicTrace()
    for orders_loc, w_loc, obj_loc, rows, unproven in results:
        trace.starts.append(rows)
        trace.inner_unproven += unproven
        if obj_loc < best_obj - _IMPROVE_TOL:
            best_obj = obj_loc
            best_orders = orders_loc
            best_weights = np.asarray(w_loc, dtype=np.float64)

    assert best_orders is not None and best_weights is not None
    sol = canonicalize(
        MixtureSolution(tuple(best_orders), tuple(float(v) for v in best_weights))
    )
    return sol, float(best_obj), trace


def _lockstep(steps, budget: int | None) -> list:
    """Runs generators that yield benefit matrices and are sent lop_exact's
    (order, proven) side by side: each round answers the matrices that all
    live generators wait on with one _lop_exact_batch call, then resumes
    each in turn.  Returns what each generator returns, in order."""
    results = [None] * len(steps)
    answers = dict.fromkeys(range(len(steps)))  # None starts a generator
    while answers:
        pending = {}
        for k, answer in answers.items():
            try:
                pending[k] = steps[k].send(answer)
            except StopIteration as done:
                results[k] = done.value
        solved = _lop_exact_batch(list(pending.values()), budget, lop_exact) if pending else []
        answers = dict(zip(pending, solved))
    return results


def _start(C: PreferenceMatrix, g: int, cfg: HeuristicConfig, k: int):
    """Start k of solve_heuristic as a generator that yields the benefit
    matrix of each inner LOP its ranking steps solve and is sent its
    (order, proven).  Returns (orders, weights, objective, trace rows, unproven)."""
    rng = np.random.default_rng(cfg.base_seed ^ k)
    w_loc = random_simplex_weights(g, rng)
    orders_loc = [LinearOrder(tuple(int(v) for v in rng.permutation(C.n))) for _ in range(g)]
    obj_loc = math.inf
    fitted = None  # the orders list the last weight step was fitted on
    rows: list[tuple[int, float, float]] = []
    inner_unproven = 0

    for it in range(1, _IT_MAX + 1):
        obj_start = obj_loc

        orders_new, obj1, unproven = yield from _ranking_step(C, w_loc, orders_loc)
        inner_unproven += unproven
        if obj1 < obj_loc:
            orders_loc, obj_loc = orders_new, obj1
        after1 = obj_loc

        if orders_loc is not fitted:
            w_new, obj2 = step_weights(C, orders_loc)
            fitted = orders_loc
            if obj2 < obj_loc:
                w_loc, obj_loc = w_new, obj2
        rows.append((it, after1, obj_loc))

        if abs(obj_start - obj_loc) < _CONVERGED:
            break
    return orders_loc, w_loc, obj_loc, rows, inner_unproven
