"""Shared domain types and evaluation functions for mixture linear ordering.

Holds the normalized pairwise preference matrix, linear orders with their
binary precedence vectors, weighted mixtures of orders, and the pure
functions every solver relies on: consistency value, L1 reconstruction gap,
normalized fit, Kendall distance, and canonicalization of mixtures.

Items are 0-based integers throughout the in-memory API; 1-based indexing
exists only in the file formats handled by the CLI.  All types are immutable
after construction and all operations are pure.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

# Absolute tolerance separating model error from float noise; preference
# data rarely carries more than 3 decimals, so 1e-9 is far below resolution.
TOL = 1e-9

# Full matrices whose complementary entries drift further than this from
# c_rs + c_sr = 1 are rejected instead of renormalized.
NORMALIZATION_TOL = 1e-6


class DimensionMismatch(ValueError):
    """Operands were built for different item counts."""


class InvalidInput(ValueError):
    """Construction-time validation failure."""


def num_pairs(n: int) -> int:
    """Number of unordered item pairs, C(n, 2)."""
    return n * (n - 1) // 2


@lru_cache(maxsize=None)
def pair_rows_cols(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays (r, s) of the row-major upper triangle of an n x n grid."""
    rows, cols = np.triu_indices(n, k=1)
    rows.flags.writeable = False
    cols.flags.writeable = False
    return rows, cols


@lru_cache(maxsize=None)
def triple_pair_indices(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat pair indices (rs, rt, st) of every triple r < s < t, triples in
    lexicographic order; x[rs] - x[rt] + x[st] is the 3-cycle residual."""
    triples = np.array(list(itertools.combinations(range(n), 3)), dtype=np.int64)
    r, s, t = triples.reshape(-1, 3).T
    out = (pair_index(n, r, s), pair_index(n, r, t), pair_index(n, s, t))
    for idx in out:
        idx.flags.writeable = False
    return out


def pair_index(n: int, r, s):
    """Flat position of pair (r, s), r < s, in the row-major upper triangle;
    r and s may also be integer arrays holding one pair per entry."""
    if not np.all((0 <= r) & (r < s) & (s < n)):
        raise IndexError(f"need 0 <= r < s < n, got r={r}, s={s}, n={n}")
    return r * n - r * (r + 1) // 2 + (s - r - 1)


def _n_from_pairs(m: int) -> int:
    """Inverse of num_pairs; raises if m is not a triangular number."""
    n = int((1 + math.isqrt(1 + 8 * m)) // 2)
    if num_pairs(n) != m:
        raise InvalidInput(f"vector length {m} is not C(n,2) for any integer n")
    return n


@dataclass(frozen=True)
class PreferenceMatrix:
    """Normalized pairwise preference data.

    Only the upper triangle is stored: entry k of ``upper`` is c_rs for the
    k-th pair (r, s) with r < s in row-major order.  The lower triangle is
    always derived as c_sr = 1 - c_rs, which enforces normalization by
    construction.  The diagonal is undefined and never stored.
    """

    n: int
    upper: np.ndarray

    def __post_init__(self):
        if self.n < 2:
            raise InvalidInput(f"need at least 2 items, got n={self.n}")
        arr = np.asarray(self.upper, dtype=np.float64)
        if arr.shape != (num_pairs(self.n),):
            raise InvalidInput(
                f"upper triangle for n={self.n} must have length "
                f"{num_pairs(self.n)}, got shape {arr.shape}"
            )
        arr = np.ascontiguousarray(arr)
        if not np.all(np.isfinite(arr)):
            raise InvalidInput("preference entries must be finite")
        if arr.min() < 0.0 or arr.max() > 1.0:
            raise InvalidInput("preference entries must lie in [0, 1]")
        arr.flags.writeable = False
        object.__setattr__(self, "upper", arr)

    @classmethod
    def from_full(cls, matrix) -> "PreferenceMatrix":
        """Build from a full n x n matrix, ignoring the diagonal.

        Rejects inputs violating |c_rs + c_sr - 1| <= NORMALIZATION_TOL,
        including non-finite off-diagonal entries, rather than silently
        renormalizing them.
        """
        a = np.asarray(matrix, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise InvalidInput(f"expected a square matrix, got shape {a.shape}")
        n = a.shape[0]
        rows, cols = pair_rows_cols(n)
        with np.errstate(over="ignore", invalid="ignore"):
            gap = np.abs(a[rows, cols] + a[cols, rows] - 1.0)
        # a NaN gap (a null or NaN entry, or inf - inf) fails the test too
        if not (gap <= NORMALIZATION_TOL).all():
            k = int(np.argmax(np.nan_to_num(gap, nan=np.inf)))
            raise InvalidInput(
                f"matrix is not normalized: c[{rows[k]},{cols[k]}] + "
                f"c[{cols[k]},{rows[k]}] deviates from 1 by {gap[k]:.3g}"
            )
        return cls(n, a[rows, cols])

    def full(self) -> np.ndarray:
        """Full matrix with NaN on the (undefined) diagonal."""
        rows, cols = pair_rows_cols(self.n)
        out = np.full((self.n, self.n), np.nan)
        out[rows, cols] = self.upper
        out[cols, rows] = 1.0 - self.upper
        return out


@dataclass(frozen=True)
class LinearOrder:
    """A permutation of n items plus its derived binary precedence vector.

    ``perm[k]`` is the item ranked k-th; ``prec`` has one entry per pair
    (r, s), r < s, equal to 1 iff r precedes s.  Transitivity holds by
    construction.
    """

    perm: tuple[int, ...]
    prec: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        perm = tuple(map(int, self.perm))
        n = len(perm)
        if n < 1 or sorted(perm) != list(range(n)):
            raise InvalidInput(f"perm must be a permutation of 0..n-1, got {perm}")
        object.__setattr__(self, "perm", perm)
        pos = np.fromiter(perm, np.int64, n).argsort()  # pos[i]: the rank of item i
        rows, cols = pair_rows_cols(n)
        prec = (pos[rows] < pos[cols]).view(np.uint8)
        prec.flags.writeable = False
        object.__setattr__(self, "prec", prec)

    @property
    def n(self) -> int:
        return len(self.perm)


@dataclass(frozen=True)
class MixtureSolution:
    """g linear orders plus simplex weights; the decision object of a solve."""

    orders: tuple[LinearOrder, ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        orders = tuple(self.orders)
        weights = tuple(float(w) for w in self.weights)
        if len(orders) < 1 or len(orders) != len(weights):
            raise InvalidInput(
                f"need matching non-empty orders/weights, got "
                f"{len(orders)} orders and {len(weights)} weights"
            )
        n = orders[0].n
        if any(o.n != n for o in orders):
            raise DimensionMismatch("all orders must rank the same item count")
        if not all(math.isfinite(w) for w in weights):
            raise InvalidInput(f"weights must be finite, got {weights}")
        if min(weights) < -TOL:
            raise InvalidInput(f"weights must be nonnegative, got {weights}")
        if abs(sum(weights) - 1.0) > TOL:
            raise InvalidInput(f"weights must sum to 1, got sum {sum(weights)!r}")
        # clamp float dust from LP vertices so downstream output is clean
        weights = tuple(0.0 if w < 0.0 else w for w in weights)
        object.__setattr__(self, "orders", orders)
        object.__setattr__(self, "weights", weights)

    @property
    def g(self) -> int:
        return len(self.orders)

    @property
    def n(self) -> int:
        return self.orders[0].n


def _check_same_n(n_a: int, n_b: int) -> None:
    if n_a != n_b:
        raise DimensionMismatch(f"item counts differ: {n_a} vs {n_b}")


def lop_value(order: LinearOrder, C: PreferenceMatrix) -> float:
    """Total weight of pairwise relations consistent with the order.

    Equals the sum over pairs of x_rs*c_rs + (1-x_rs)*(1-c_rs), i.e. the sum
    of c entries read along the ranking.
    """
    _check_same_n(order.n, C.n)
    x = order.prec
    c = C.upper
    return float(np.sum(x * c + (1 - x) * (1.0 - c)))


def mixture_point(sol: MixtureSolution) -> np.ndarray:
    """p_rs = sum_i w_i x_rs^i, the point of the ordering polytope the
    mixture realizes, as a read-only vector clipped to [0, 1]."""
    X = np.stack([o.prec for o in sol.orders]).astype(np.float64)
    p = np.clip(np.asarray(sol.weights, dtype=np.float64) @ X, 0.0, 1.0)
    p.flags.writeable = False
    return p


def l1_objective(sol: MixtureSolution, C: PreferenceMatrix) -> float:
    """L1 distance between the observed upper triangle and the mixture point."""
    _check_same_n(sol.n, C.n)
    return float(np.abs(C.upper - mixture_point(sol)).sum())


def fit_from_objective(objective: float, n: int) -> float:
    """Normalized fit 1 - objective / C(n,2); 1.0 means exact reconstruction."""
    return 1.0 - objective / num_pairs(n)


def fit(sol: MixtureSolution, C: PreferenceMatrix) -> float:
    """Fit of a mixture solution against the observed matrix, in [0, 1]."""
    return fit_from_objective(l1_objective(sol, C), C.n)


def kendall_distance(a: LinearOrder, b: LinearOrder) -> int:
    """Number of item pairs the two orders rank oppositely (0..C(n,2))."""
    _check_same_n(a.n, b.n)
    return int(np.count_nonzero(a.prec != b.prec))


def canonicalize(sol: MixtureSolution) -> MixtureSolution:
    """Canonical representative of a mixture: groups sorted by weight
    descending, ties broken by lexicographic precedence vector.  The
    objective value is unchanged by this group permutation."""
    idx = sorted(range(sol.g), key=lambda i: (-sol.weights[i], sol.orders[i].prec.tobytes()))
    return MixtureSolution(
        orders=tuple(sol.orders[i] for i in idx),
        weights=tuple(sol.weights[i] for i in idx),
    )
