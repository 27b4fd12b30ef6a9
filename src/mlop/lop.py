"""Classical Linear Ordering Problem solvers over an arbitrary real benefit
matrix.  Used standalone (single-group solves) and as the inner engine of the
alternating heuristic's ranking-update step, where benefits may be negative.

The exact solver is a best-first branch and bound assigning rank positions
from the front, with an admissible node bound (value fixed so far plus the
sum of max(b_rs, b_sr) over undecided pairs).  Effort is measured in explored
nodes, never wall time, so runs are machine-independent and reproducible.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .core import InvalidInput, LinearOrder, PreferenceMatrix, pair_rows_cols

# Margin below the incumbent at which subtrees are pruned.  Keeping
# bound == incumbent nodes alive is what makes the lexicographic tie rule
# exact: the first complete order popped is the lex-smallest optimum.
_PRUNE_TOL = 1e-12

_IMPROVE_TOL = 1e-12


@dataclass(frozen=True)
class BenefitMatrix:
    """Full n x n matrix of real benefits of placing r before s.

    No normalization is required (entries may be negative); the diagonal is
    ignored and forced to zero on construction.
    """

    b: np.ndarray

    def __post_init__(self):
        arr = np.array(self.b, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
            raise InvalidInput(f"benefit matrix must be square, got {arr.shape}")
        np.fill_diagonal(arr, 0.0)  # diagonal carries no information
        if not np.all(np.isfinite(arr)):
            raise InvalidInput("benefit entries must be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "b", arr)

    @property
    def n(self) -> int:
        return self.b.shape[0]

    @classmethod
    def from_preferences(cls, C: PreferenceMatrix) -> "BenefitMatrix":
        return cls(C.full())


def order_value(perm, b: np.ndarray) -> float:
    """Sum of b[u, v] over all pairs with u before v in perm."""
    idx = np.asarray(perm, dtype=np.int64)
    sub = b[np.ix_(idx, idx)]
    return float(np.triu(sub, k=1).sum())


def lop_exact(
    B: BenefitMatrix,
    budget: int | None = None,
    warm_start: LinearOrder | None = None,
) -> tuple[LinearOrder, float, bool]:
    """Maximize the total benefit of consistent precedences over all orders.

    Args:
        B: benefit matrix.
        budget: maximum number of explored (popped) search nodes; None means
            unlimited.  On exhaustion the best incumbent is returned with
            proven=False.
        warm_start: optional order used to strengthen the initial incumbent
            (the insertion heuristic always contributes one as well).

    Returns:
        (order, value, proven).  With sufficient budget the order is the
        lexicographically smallest permutation among the optima.
    """
    b = B.b
    n = B.n
    if n == 1:
        return LinearOrder((0,)), 0.0, True

    incumbent, inc_value = lop_heuristic(B)
    if warm_start is not None:
        if warm_start.n != n:
            raise InvalidInput("warm start order has wrong item count")
        wv = order_value(warm_start.perm, b)
        if wv > inc_value + _IMPROVE_TOL or (
            abs(wv - inc_value) <= _IMPROVE_TOL and warm_start.perm < incumbent.perm
        ):
            incumbent, inc_value = warm_start, wv

    pm = np.maximum(b, b.T)  # per-pair upper bound max(b_rs, b_sr)

    all_items = tuple(range(n))
    root_pair_bound = float(np.triu(pm, k=1).sum())
    # heap entries: (-bound, prefix, fixed_value, pair_bound_rest, remaining)
    heap = [(-root_pair_bound, (), 0.0, root_pair_bound, all_items)]
    explored = 0

    while heap:
        if budget is not None and explored >= budget:
            return incumbent, inc_value, False
        negb, prefix, fixed, pbound, remaining = heapq.heappop(heap)
        explored += 1
        if not remaining:
            # first complete order popped: no other node can beat its value
            return LinearOrder(prefix), order_value(prefix, b), True
        rest_idx = np.asarray(remaining, dtype=np.int64)
        # diagonals are zero, so row sums over the remaining block give each
        # candidate's gain (and bound loss) over the other remaining items
        gains = b[np.ix_(rest_idx, rest_idx)].sum(axis=1)
        losses = pm[np.ix_(rest_idx, rest_idx)].sum(axis=1)
        for pos, item in enumerate(remaining):
            rest = remaining[:pos] + remaining[pos + 1 :]
            fixed_c = fixed + float(gains[pos])
            pbound_c = pbound - float(losses[pos])
            bound_c = fixed_c + pbound_c
            if bound_c >= inc_value - _PRUNE_TOL:
                heapq.heappush(heap, (-bound_c, prefix + (item,), fixed_c, pbound_c, rest))

    # all subtrees pruned against the incumbent: it is optimal
    return incumbent, inc_value, True


def lop_heuristic(B: BenefitMatrix) -> tuple[LinearOrder, float]:
    """Fast, deterministic insertion local search for the LOP.

    Construction places items by descending row-sum minus column-sum, then
    single-item relocations are applied (first improvement, items scanned by
    index) until a fixed point.
    """
    b = B.b
    score = b.sum(axis=1) - b.sum(axis=0)
    perm, value = _insertion_local_search(np.argsort(-score, kind="stable"), b)
    return LinearOrder(tuple(perm)), value


def _insertion_local_search(perm: list[int], b: np.ndarray) -> tuple[list[int], float]:
    """Relocate single items until no move improves the value."""
    perm = [int(v) for v in perm]
    n = len(perm)
    improved = True
    while improved:
        improved = False
        for item in range(n):
            i = perm.index(item)
            for j in range(n):
                if j == i:
                    continue
                if j > i:
                    between = perm[i + 1 : j + 1]
                    delta = sum(b[k, item] - b[item, k] for k in between)
                else:
                    between = perm[j:i]
                    delta = sum(b[item, k] - b[k, item] for k in between)
                if delta > _IMPROVE_TOL:
                    perm.pop(i)
                    perm.insert(j, item)
                    improved = True
                    break
    return perm, order_value(perm, b)


def benefit_for_pairs(n: int, upper_rs: np.ndarray, upper_sr: np.ndarray) -> BenefitMatrix:
    """Assemble a BenefitMatrix from per-pair values b_rs (r < s) and b_sr."""
    rows, cols = pair_rows_cols(n)
    b = np.zeros((n, n))
    b[rows, cols] = upper_rs
    b[cols, rows] = upper_sr
    return BenefitMatrix(b)
