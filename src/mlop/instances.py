"""Synthetic instance generation and ranking-file ingestion.

Generation follows the latent-group recipe: draw well-separated central
permutations, sample each group's rankings uniformly from the Kendall ball
of radius D around its center, apportion the rankings by the group weights,
and aggregate everything into a normalized preference matrix.  Ball sampling
is exactly uniform: the distance is drawn proportional to the Mahonian count
of permutations at that distance, then a permutation at that exact distance
is drawn via a uniform Lehmer code.

Ranking files are UTF-8 text, one complete ranking per line, whitespace
separated 1-based item indices, most preferred first; '#' starts a comment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .core import (
    InvalidInput,
    LinearOrder,
    PreferenceMatrix,
    kendall_distance,
    num_pairs,
    pair_rows_cols,
)

DEFAULT_MAX_ATTEMPTS = 100_000


class SeparationInfeasible(RuntimeError):
    """Center sampling could not meet the minimum separation."""


class RankingFormatError(ValueError):
    """Malformed ranking file; carries the offending line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def default_min_separation(n: int) -> int:
    return math.ceil(num_pairs(n) / 2)


def dispersion_from_percentage(n: int, p: float) -> int:
    """Kendall radius D = ceil((p/100) * C(n,2)) for a percentage p."""
    if not 0 <= p <= 100:
        raise InvalidInput(f"percentage must be in [0, 100], got {p}")
    # the tiny slack keeps exact-integer products from ceiling one step up
    return int(math.ceil(p * num_pairs(n) / 100.0 - 1e-12))


@dataclass(frozen=True)
class GeneratorSpec:
    """Parameters of the synthetic generator.

    Exactly the dispersion is authoritative: when D is given it is used as
    is; otherwise it is derived from the percentage p.  min_separation
    defaults to ceil(C(n,2)/2).
    """

    n: int
    g_true: int
    weights: tuple[float, ...]
    p: float | None = None
    D: int | None = None
    num_rankings: int = 1000
    min_separation: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.n < 2:
            raise InvalidInput(f"need n >= 2, got {self.n}")
        if self.g_true < 1:
            raise InvalidInput(f"need g_true >= 1, got {self.g_true}")
        weights = tuple(float(w) for w in self.weights)
        if len(weights) != self.g_true:
            raise InvalidInput("one weight per latent group is required")
        if not all(math.isfinite(w) for w in weights):
            raise InvalidInput(f"weights must be finite, got {weights}")
        if min(weights) < 0 or abs(sum(weights) - 1.0) > 1e-9:
            raise InvalidInput("weights must lie on the probability simplex")
        object.__setattr__(self, "weights", weights)
        if self.p is None and self.D is None:
            raise InvalidInput("either p or D must be given")
        if self.D is not None and not 0 <= self.D <= num_pairs(self.n):
            raise InvalidInput(f"D must be in [0, {num_pairs(self.n)}], got {self.D}")
        if self.p is not None and not 0 <= self.p <= 100:
            raise InvalidInput(f"p must be in [0, 100], got {self.p}")
        if self.min_separation is not None and self.min_separation < 0:
            raise InvalidInput(f"min_separation must be >= 0, got {self.min_separation}")
        if self.num_rankings < self.g_true:
            raise InvalidInput("need at least one ranking per latent group")
        if self.seed < 0:
            raise InvalidInput(f"seed must be a non-negative integer, got {self.seed}")

    @property
    def resolved_D(self) -> int:
        if self.D is not None:
            return self.D
        return dispersion_from_percentage(self.n, self.p)

    @property
    def resolved_min_separation(self) -> int:
        if self.min_separation is not None:
            return self.min_separation
        return default_min_separation(self.n)


@dataclass(frozen=True)
class RankingSample:
    """Generated rankings with their group labels and the central orders."""

    rankings: tuple[LinearOrder, ...]
    labels: tuple[int, ...]
    centers: tuple[LinearOrder, ...]


@lru_cache(maxsize=None)
def _mahonian_rows(n: int) -> tuple[tuple[int, ...], ...]:
    """Row j, j = 0..n: count of permutations of j items at each Kendall
    distance 0..C(j,2), exact in Python integers.  Row j is row j - 1
    convolved with the j values one more Lehmer code entry can take, so it
    also counts the ways the last j entries of any code reach each sum.
    """
    rows = [(1,)]
    for j in range(1, n + 1):
        prev = rows[-1]
        counts = [0] * (len(prev) + j - 1)
        acc = 0
        for k in range(len(counts)):
            acc += prev[k] if k < len(prev) else 0
            if k - j >= 0:
                acc -= prev[k - j]
            counts[k] = acc
        rows.append(tuple(counts))
    return tuple(rows)


def mahonian_counts(n: int) -> tuple[int, ...]:
    """Count of permutations of n items at each Kendall distance 0..C(n,2)."""
    return _mahonian_rows(n)[n]


def _draw_index(weights: np.ndarray, rng: np.random.Generator) -> int:
    cum = np.cumsum(weights)
    u = rng.random() * cum[-1]
    return min(int(np.searchsorted(cum, u, side="right")), len(weights) - 1)


def sample_within_ball(
    center: LinearOrder, D: int, rng: np.random.Generator
) -> LinearOrder:
    """Uniform draw from the Kendall ball of radius D around center."""
    n = center.n
    if not 0 <= D <= num_pairs(n):
        raise InvalidInput(f"D must be in [0, {num_pairs(n)}], got {D}")
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


def sample_centers(
    n: int,
    g_true: int,
    min_separation: int,
    rng: np.random.Generator,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
) -> list[LinearOrder]:
    """Uniform rejection sampling of g_true central orders with pairwise
    Kendall distance >= min_separation.  Infeasible separations are reported
    after max_attempts, never silently relaxed."""
    for _ in range(max_attempts):
        cands = [
            LinearOrder(tuple(int(v) for v in rng.permutation(n)))
            for _ in range(g_true)
        ]
        if all(
            kendall_distance(cands[i], cands[j]) >= min_separation
            for i in range(g_true)
            for j in range(i + 1, g_true)
        ):
            return cands
    raise SeparationInfeasible(
        f"no {g_true} centers at pairwise distance >= {min_separation} "
        f"found in {max_attempts} attempts (n={n})"
    )


def allocate_counts(weights, N: int) -> list[int]:
    """Largest-remainder apportionment of N rankings to the groups."""
    w = np.asarray(weights, dtype=np.float64)
    if N < 1:
        raise InvalidInput(f"N must be >= 1, got {N}")
    quotas = w * N
    base = np.floor(quotas).astype(np.int64)
    remainder = N - int(base.sum())
    order = np.argsort(-(quotas - base), kind="stable")  # ties: lower index first
    for i in order[:remainder]:
        base[i] += 1
    return [int(v) for v in base]


def _pair_counts(rankings) -> tuple[int, int, np.ndarray]:
    """(n, N, a): item count, ranking count, and per pair (r, s), r < s, the
    number of rankings placing r before s."""
    rankings = list(rankings)
    if not rankings:
        raise InvalidInput("cannot aggregate an empty list of rankings")
    n = rankings[0].n
    if any(o.n != n for o in rankings):
        raise InvalidInput("all rankings must cover the same items")
    counts = np.zeros(num_pairs(n), dtype=np.int64)
    for o in rankings:
        counts += o.prec
    return n, len(rankings), counts


def _full_counts(n: int, N: int, counts: np.ndarray) -> np.ndarray:
    rows, cols = pair_rows_cols(n)
    A = np.zeros((n, n), dtype=np.int64)
    A[rows, cols] = counts
    A[cols, rows] = N - counts
    return A


def aggregate(rankings) -> PreferenceMatrix:
    """Pairwise proportions c_rs = a_rs / N over complete rankings."""
    n, N, counts = _pair_counts(rankings)
    return PreferenceMatrix(n, counts / N)


def count_matrix(rankings) -> np.ndarray:
    """Full integer matrix a_rs = number of rankings placing r before s."""
    return _full_counts(*_pair_counts(rankings))


def generate_instance(spec: GeneratorSpec) -> tuple[RankingSample, PreferenceMatrix]:
    """Run the full generation recipe for a spec; reproducible per seed."""
    rng = np.random.default_rng(spec.seed)
    centers = sample_centers(spec.n, spec.g_true, spec.resolved_min_separation, rng)
    counts = allocate_counts(spec.weights, spec.num_rankings)
    D = spec.resolved_D
    rankings: list[LinearOrder] = []
    labels: list[int] = []
    for i, center in enumerate(centers):
        for _ in range(counts[i]):
            rankings.append(sample_within_ball(center, D, rng))
            labels.append(i)
    sample = RankingSample(tuple(rankings), tuple(labels), tuple(centers))
    return sample, aggregate(rankings)


def parse_ranking_line(line: str, line_no: int, n: int | None) -> LinearOrder:
    tokens = line.split()
    try:
        items = [int(t) for t in tokens]
    except ValueError:
        raise RankingFormatError(line_no, f"non-integer token in {tokens!r}") from None
    if n is not None and len(items) != n:
        raise RankingFormatError(
            line_no, f"expected {n} items per ranking, got {len(items)}"
        )
    size = len(items)
    if sorted(items) != list(range(1, size + 1)):
        if len(set(items)) != size:
            raise RankingFormatError(line_no, "repeated item within a ranking")
        raise RankingFormatError(
            line_no, f"items must be exactly 1..{size}, got {items}"
        )
    return LinearOrder(tuple(v - 1 for v in items))


def ingest_rankings(path) -> tuple[PreferenceMatrix, np.ndarray]:
    """Parse a ranking file into (preference matrix, raw count matrix A)."""
    text = Path(path).read_text(encoding="utf-8")
    rankings: list[LinearOrder] = []
    n: int | None = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        order = parse_ranking_line(line, line_no, n)
        if n is None:
            n = order.n
        rankings.append(order)
    if not rankings:
        raise RankingFormatError(0, "file contains no rankings")
    n, N, counts = _pair_counts(rankings)
    return PreferenceMatrix(n, counts / N), _full_counts(n, N, counts)
