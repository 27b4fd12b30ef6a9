"""Synthetic instance generation and ranking-file ingestion.

Generation follows the latent-group recipe: draw well-separated central
permutations, sample each group's rankings uniformly from the Kendall ball
of radius D around its center, apportion the rankings by the group weights,
and aggregate everything into a normalized preference matrix.  Ball sampling
is exactly uniform: the distance is drawn proportional to the Mahonian count
of permutations at that distance, then a permutation at that exact distance
is drawn via a uniform Lehmer code.  Both draws read one cached table of
cumulative weights per (n, D), and a group's rankings are drawn, decoded
and counted as one (N, n) integer array, in chunks.

Ranking files are UTF-8 text, one complete ranking per line, whitespace
separated 1-based item indices in ASCII digits, most preferred first; '#'
starts a comment.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations
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
from .exact import enumerate_vertices

# draws of g_true centers sample_centers makes before it gives up on a
# separation that nothing refuses at once; up to n = EXACT_SEPARATION_N
# (4! = 24 orders) a search over sets of orders, at most ~10 ms, decides it
MAX_CENTER_ATTEMPTS = 100_000
EXACT_SEPARATION_N = 4

# Array cells one vectorised chunk may span: rankings x (n + 1) uniforms when
# sampling, rankings x C(n,2) pairs when counting.  Bounds the working memory.
_CHUNK_CELLS = 1 << 16
# a character a ranking line may not hold: items are ASCII decimal numerals
# (int() would also take "+3", "3_0" and non-ASCII digits)
_NOT_DIGIT = re.compile(r"[^0-9\s]")


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
        if len(self.weights) != self.g_true:
            raise InvalidInput("one weight per latent group is required")
        object.__setattr__(self, "weights", _simplex_weights(self.weights))
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


@dataclass(frozen=True, eq=False)
class RankingSample:
    """Generated rankings with their group labels and the central orders.

    ``rankings`` is a read-only (N, n) array holding one 0-based permutation
    per row, most preferred item first, in the smallest unsigned dtype that
    holds n - 1; ``labels[k]`` is the group of row k.
    """

    rankings: np.ndarray
    labels: np.ndarray
    centers: tuple[LinearOrder, ...]

    def __eq__(self, other):
        if not isinstance(other, RankingSample):
            return NotImplemented
        return (
            self.centers == other.centers
            and np.array_equal(self.rankings, other.rankings)
            and np.array_equal(self.labels, other.labels)
        )


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


@dataclass(frozen=True)
class _BallTable:
    """Cumulative draw weights for the Kendall ball of radius D at n items.

    dist_cum       (D + 1,): cumulative Mahonian counts of distances 0..D
    code_cum[i]    (R + 1, n - i), R = min(D, C(n - i, 2)), the largest sum
                   the code entries from position i on can reach: row rem is
                   the cumulative weight of entry v = 0..min(n - 1 - i, rem)
                   at position i when those entries sum to rem, padded with
                   +inf
    code_total[i]  (R + 1,): the last finite entry of each row

    A draw from a row picks the first entry whose cumulative weight exceeds
    u * total, u uniform in [0, 1), clamped to the row's last entry.  Every
    entry it can pick has positive weight, so the remaining sum stays
    within R.  About n^4 / 8 values at D = C(n,2): 20k at n = 20.
    """

    dist_cum: np.ndarray
    code_cum: tuple[np.ndarray, ...]
    code_total: tuple[np.ndarray, ...]


@lru_cache(maxsize=16)
def _ball_table(n: int, D: int) -> _BallTable:
    rows = _mahonian_rows(n)
    code_cum, code_total = [], []
    for i in range(n):
        cap = n - 1 - i
        nxt = rows[cap]  # ways for the code entries after position i
        top = min(D, num_pairs(cap + 1))
        cum = np.full((top + 1, cap + 1), np.inf)
        total = np.empty(top + 1)
        for rem in range(top + 1):
            vmax = min(cap, rem)
            w = np.array(
                [nxt[rem - v] if rem - v < len(nxt) else 0 for v in range(vmax + 1)],
                dtype=np.float64,
            )
            cum[rem, : vmax + 1] = np.cumsum(w)
            total[rem] = cum[rem, vmax]
        code_cum.append(cum)
        code_total.append(total)
    dist_cum = np.cumsum(np.array(rows[n][: D + 1], dtype=np.float64))
    for arr in (dist_cum, *code_cum, *code_total):
        arr.flags.writeable = False
    return _BallTable(dist_cum, tuple(code_cum), tuple(code_total))


def _draw_distances(dist_cum: np.ndarray, u) -> np.ndarray:
    """Distance each uniform in u selects from the cumulative weights."""
    idx = np.searchsorted(dist_cum, u * dist_cum[-1], side="right")
    return np.minimum(idx, len(dist_cum) - 1)


def _lehmer_codes(table: _BallTable, d: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Uniform Lehmer codes, one per row: row k sums to d[k] and draws its
    entry at position i with uniform u[k, i]."""
    m, n = u.shape
    codes = np.empty((m, n), dtype=np.int64)
    rem = np.array(d, dtype=np.int64)
    for i in range(n):
        x = u[:, i] * table.code_total[i][rem]
        v = np.count_nonzero(table.code_cum[i][rem] <= x[:, None], axis=1)
        v = np.minimum(v, np.minimum(rem, n - 1 - i))
        codes[:, i] = v
        rem -= v
    return codes


def _decode_lehmer(codes: np.ndarray) -> np.ndarray:
    """Permutations of 0..n-1 whose i-th entry is the codes[:, i]-th smallest
    item not placed before it."""
    perms = codes.copy()
    n = perms.shape[1]
    for i in range(n - 2, -1, -1):
        tail = perms[:, i + 1 :]
        tail += tail >= perms[:, i : i + 1]
    return perms


def _sample_ball(center: np.ndarray, D: int, out: np.ndarray, rng: np.random.Generator) -> None:
    """Fill each row of out with a uniform draw from the Kendall ball of
    radius D around the permutation center.

    Consumes, row by row, one uniform for the distance, then one per Lehmer
    code entry unless the distance is 0, so the draws do not depend on how
    the rows are split into calls.  Each chunk draws the most it could
    need, walks the draws to find where each ranking starts, and then
    rewinds the generator and redraws the count it actually used.
    """
    n = len(center)
    if D == 0:
        out[:] = center
        return
    table = _ball_table(n, D)
    chunk = max(1, _CHUNK_CELLS // (n + 1))
    for lo in range(0, len(out), chunk):
        m = min(chunk, len(out) - lo)
        state = rng.bit_generator.state
        block = rng.random(m * (n + 1))
        d_at = _draw_distances(table.dist_cum, block)
        step = np.where(d_at == 0, 1, n + 1).tolist()
        starts, pos = [], 0
        for _ in range(m):
            starts.append(pos)
            pos += step[pos]
        rng.bit_generator.state = state
        rng.random(pos)
        first = np.array(starts)
        u = block[first[:, None] + np.arange(1, n + 1)]
        perms = _decode_lehmer(_lehmer_codes(table, d_at[first], u))
        out[lo : lo + m] = center[perms]


def sample_within_ball(
    center: LinearOrder, D: int, rng: np.random.Generator
) -> LinearOrder:
    """Uniform draw from the Kendall ball of radius D around center; the
    one-ranking form of _sample_ball, consuming the same uniforms."""
    n = center.n
    if not 0 <= D <= num_pairs(n):
        raise InvalidInput(f"D must be in [0, {num_pairs(n)}], got {D}")
    if D == 0:
        return center
    out = np.empty((1, n), dtype=np.int64)
    _sample_ball(np.array(center.perm), D, out, rng)
    return LinearOrder(tuple(out[0]))


def _separation_impossible(n: int, g_true: int, min_separation: int) -> str | None:
    """Why no g_true >= 2 orders can lie at pairwise distance >= min_separation,
    or None when neither the packing bound nor the distance-sum bound rules
    it out and, up to n = EXACT_SEPARATION_N, an exhaustive search does not
    either."""
    if g_true < 2:
        return None
    if min_separation > num_pairs(n):
        return f"the largest Kendall distance is {num_pairs(n)}"
    # balls of radius t around orders at distance >= 2t + 1 are disjoint
    # (Kendall distance is a metric), so g_true of them must fit among n!
    t = (min_separation - 1) // 2
    need = g_true * sum(mahonian_counts(n)[: t + 1])
    if need > math.factorial(n):
        return (
            f"{g_true} disjoint balls of radius {t} would hold {need} "
            f"of the {math.factorial(n)} orders"
        )
    # on one item pair, g_true orders disagree in at most
    # floor(g/2) * ceil(g/2) of their C(g, 2) order pairs
    most, need = num_pairs(n) * (g_true * g_true // 4), math.comb(g_true, 2) * min_separation
    if most < need:
        return f"their pairwise distances sum to at most {most}, not {need}"
    # min_separation 0 admits repeated centers, so any number of them
    if n <= EXACT_SEPARATION_N and min_separation:
        found = _most_separated(n, min_separation, g_true)
        if found < g_true:
            return f"an exhaustive search finds at most {found}"
    return None


def _most_separated(n: int, min_separation: int, enough: int) -> int:
    """The most orders of n >= 2 items at pairwise distance >= min_separation
    >= 1, or enough once that many are found: a branch and bound over bit
    sets of rows of the vertex table (Carraghan and Pardalos 1990) that
    grows a set only while the orders left to it could make it larger."""
    _, X = enumerate_vertices(n)
    far = (((X[:, None] != X).sum(axis=2) >= min_separation) @ (1 << np.arange(len(X)))).tolist()

    def grow(size: int, cand: int) -> int:
        best = size
        while best < enough and cand and size + cand.bit_count() > best:
            i = cand.bit_length() - 1
            cand ^= 1 << i
            best = max(best, grow(size + 1, cand & far[i]))
        return best

    return grow(0, (1 << len(X)) - 1)


def sample_centers(
    n: int,
    g_true: int,
    min_separation: int,
    rng: np.random.Generator,
) -> list[LinearOrder]:
    """Uniform rejection sampling of g_true central orders with pairwise
    Kendall distance >= min_separation.  Infeasible separations are reported,
    never silently relaxed: at once, before any draw, when a packing bound
    proves them impossible or, up to n = EXACT_SEPARATION_N, a search over
    sets of orders does; otherwise after MAX_CENTER_ATTEMPTS draws."""
    reason = _separation_impossible(n, g_true, min_separation)
    if reason:
        raise SeparationInfeasible(
            f"no {g_true} centers at pairwise distance >= {min_separation} "
            f"exist for n={n}: {reason}"
        )
    for _ in range(MAX_CENTER_ATTEMPTS):
        cands = [LinearOrder(tuple(int(v) for v in rng.permutation(n))) for _ in range(g_true)]
        if all(kendall_distance(a, b) >= min_separation for a, b in combinations(cands, 2)):
            return cands
    raise SeparationInfeasible(
        f"no {g_true} centers at pairwise distance >= {min_separation} "
        f"found in {MAX_CENTER_ATTEMPTS} attempts (n={n})"
    )


def _simplex_weights(weights) -> tuple[float, ...]:
    """weights as floats, refused unless they are finite, nonnegative and sum
    to 1 within 1e-9."""
    weights = tuple(float(w) for w in weights)
    if not all(math.isfinite(w) for w in weights):
        raise InvalidInput(f"weights must be finite, got {weights}")
    if min(weights, default=0.0) < 0 or abs(sum(weights) - 1.0) > 1e-9:
        raise InvalidInput("weights must lie on the probability simplex")
    return weights


def allocate_counts(weights, N: int) -> list[int]:
    """Largest-remainder apportionment of N rankings to the groups, whose
    weights must lie on the probability simplex.  The counts are nonnegative
    and sum to N."""
    w = np.asarray(_simplex_weights(weights))
    if N < 1:
        raise InvalidInput(f"N must be >= 1, got {N}")
    quotas = w * N
    if not N - len(w) <= np.floor(quotas).sum() <= N:
        # the simplex test admits weights summing to 1 within 1e-9, which from
        # N of about 1e9 on is whole rankings: scale the quotas to sum to N
        quotas *= N / quotas.sum()
    base = np.floor(quotas).astype(np.int64)
    remainder = N - int(base.sum())
    order = np.argsort(-(quotas - base), kind="stable")  # ties: lower index first
    for i in order[:remainder]:
        base[i] += 1
    return [int(v) for v in base]


def _ranking_array(rankings) -> np.ndarray:
    """A list of LinearOrders as an (N, n) permutation array."""
    rankings = list(rankings)
    if not rankings:
        raise InvalidInput("cannot aggregate an empty list of rankings")
    n = rankings[0].n
    if any(o.n != n for o in rankings):
        raise InvalidInput("all rankings must cover the same items")
    return np.array([o.perm for o in rankings], dtype=np.min_scalar_type(n - 1))


def _pair_counts(perms: np.ndarray) -> tuple[int, int, np.ndarray]:
    """(n, N, a) of an (N, n) permutation array: item count, ranking count,
    and per pair (r, s), r < s, the number of rows placing r before s."""
    N, n = perms.shape
    rows, cols = pair_rows_cols(n)
    counts = np.zeros(num_pairs(n), dtype=np.int64)
    chunk = max(1, _CHUNK_CELLS // max(num_pairs(n), 1))
    for lo in range(0, N, chunk):
        block = perms[lo : lo + chunk]
        pos = np.empty_like(block)
        pos[np.arange(len(block))[:, None], block] = np.arange(n, dtype=block.dtype)
        counts += np.count_nonzero(pos[:, rows] < pos[:, cols], axis=0)
    return n, N, counts


def _full_counts(n: int, N: int, counts: np.ndarray) -> np.ndarray:
    rows, cols = pair_rows_cols(n)
    A = np.zeros((n, n), dtype=np.int64)
    A[rows, cols] = counts
    A[cols, rows] = N - counts
    return A


def aggregate(rankings) -> PreferenceMatrix:
    """Pairwise proportions c_rs = a_rs / N over complete rankings."""
    n, N, counts = _pair_counts(_ranking_array(rankings))
    return PreferenceMatrix(n, counts / N)


def generate_instance(spec: GeneratorSpec) -> tuple[RankingSample, PreferenceMatrix]:
    """Run the full generation recipe for a spec; reproducible per seed."""
    rng = np.random.default_rng(spec.seed)
    centers = sample_centers(spec.n, spec.g_true, spec.resolved_min_separation, rng)
    counts = allocate_counts(spec.weights, spec.num_rankings)
    rankings = np.empty((spec.num_rankings, spec.n), dtype=np.min_scalar_type(spec.n - 1))
    lo = 0
    for center, count in zip(centers, counts):
        perm = np.array(center.perm, dtype=rankings.dtype)
        _sample_ball(perm, spec.resolved_D, rankings[lo : lo + count], rng)
        lo += count
    labels = np.repeat(np.arange(spec.g_true), counts).astype(np.min_scalar_type(spec.g_true - 1))
    rankings.flags.writeable = False
    labels.flags.writeable = False
    n, N, a = _pair_counts(rankings)
    return RankingSample(rankings, labels, tuple(centers)), PreferenceMatrix(n, a / N)


def parse_ranking_line(line: str, line_no: int, n: int | None) -> LinearOrder:
    tokens = line.split()
    try:
        if _NOT_DIGIT.search(line):
            raise ValueError
        items = [int(t) for t in tokens]
    except ValueError:  # also a numeral past int()'s digit limit
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


def _parse_ranking_array(lines: list[str]) -> np.ndarray | None:
    """The ranking lines as an (N, n) array of 0-based permutations, or None
    when some line is malformed.  Tokens are split off twice rather than
    held, so the parse never keeps more than one line's strings."""
    n = len(lines[0].split())
    if any(_NOT_DIGIT.search(line) or len(line.split()) != n for line in lines):
        return None
    try:
        flat = np.fromiter(map(int, chain.from_iterable(map(str.split, lines))),
                           dtype=np.int64, count=n * len(lines))
    except (ValueError, OverflowError):  # a numeral past int()'s digit limit or int64
        return None
    if flat.min() < 1 or flat.max() > n:
        return None
    perms = (flat - 1).astype(np.min_scalar_type(n - 1)).reshape(-1, n)
    if not np.array_equal(np.sort(perms, axis=1), np.broadcast_to(np.arange(n), perms.shape)):
        return None
    return perms


def _ranking_lines(text: str):
    """(line number, stripped line) of each line of text that holds a ranking."""
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield line_no, line


def ingest_rankings(path) -> tuple[PreferenceMatrix, np.ndarray]:
    """Parse a ranking file into (preference matrix, raw count matrix A)."""
    text = Path(path).read_text(encoding="utf-8")
    lines = [line for _, line in _ranking_lines(text)]
    if not lines:
        raise RankingFormatError(0, "file contains no rankings")
    perms = _parse_ranking_array(lines)
    if perms is None:
        # the per-line parser names the first malformed line and its fault
        orders: list[LinearOrder] = []
        for line_no, line in _ranking_lines(text):
            orders.append(parse_ranking_line(line, line_no, orders[0].n if orders else None))
        perms = _ranking_array(orders)
    n, N, counts = _pair_counts(perms)
    return PreferenceMatrix(n, counts / N), _full_counts(n, N, counts)
