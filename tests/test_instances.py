import itertools
from collections import Counter

import numpy as np
import pytest

from mlop import (
    ExactConfig,
    GeneratorSpec,
    InvalidInput,
    LinearOrder,
    aggregate,
    allocate_counts,
    dispersion_from_percentage,
    generate_instance,
    ingest_rankings,
    kendall_distance,
    num_pairs,
    sample_centers,
    sample_within_ball,
    solve_exact,
)
from mlop import instances
from mlop.instances import (
    RankingFormatError,
    SeparationInfeasible,
    _full_counts,
    _most_separated,
    _pair_counts,
    _ranking_array,
    _sample_ball,
    mahonian_counts,
)

from _oracles import inversion_counts, random_order


def test_dispersion_from_percentage():
    assert dispersion_from_percentage(12, 1) == 1
    assert dispersion_from_percentage(12, 5) == 4
    assert dispersion_from_percentage(12, 10) == 7  # ceil(6.6)
    assert dispersion_from_percentage(12, 0) == 0
    assert dispersion_from_percentage(5, 100) == 10
    assert dispersion_from_percentage(5, 50) == 5  # exact product stays put
    with pytest.raises(InvalidInput):
        dispersion_from_percentage(12, -1)
    with pytest.raises(InvalidInput):
        dispersion_from_percentage(12, 101)


def test_mahonian_counts_known_values():
    assert mahonian_counts(3) == (1, 2, 2, 1)
    assert mahonian_counts(4) == (1, 3, 5, 6, 5, 3, 1)
    assert mahonian_counts(5)[:3] == (1, 4, 9)
    assert sum(mahonian_counts(6)) == 720


def test_sample_centers_single_group():
    rng = np.random.default_rng(0)
    centers = sample_centers(6, 1, 0, rng)
    assert len(centers) == 1


def test_sample_centers_max_separation_forces_reverses():
    rng = np.random.default_rng(1)
    centers = sample_centers(4, 2, 6, rng)
    assert centers[0].perm == tuple(reversed(centers[1].perm))


def test_sample_centers_pairwise_separation():
    rng = np.random.default_rng(2)
    centers = sample_centers(8, 3, 14, rng)
    for i in range(3):
        for j in range(i + 1, 3):
            assert kendall_distance(centers[i], centers[j]) >= 14


def test_sample_centers_infeasible_raises(monkeypatch):
    # no 6 orders of 5 items lie at pairwise distance >= 6 (an exhaustive
    # search finds at most 5), yet both counting bounds pass it, and n = 5
    # is past the exact search, so only the draws run out
    monkeypatch.setattr(instances, "MAX_CENTER_ATTEMPTS", 50)
    rng = np.random.default_rng(3)
    with pytest.raises(SeparationInfeasible, match=r"found in 50 attempts \(n=5\)"):
        sample_centers(5, 6, 6, rng)


@pytest.mark.parametrize(
    "n, g_true, min_separation",
    [
        (3, 4, 3),  # 4 disjoint radius-1 balls of 3 orders each need 12 > 3!
        (3, 2, 4),  # beyond the largest distance C(3,2) = 3
        (5, 3, 10),  # three pairwise reverses: 3 balls of 49 orders need 147 > 5!
        (6, 40, 5),  # 40 radius-2 balls of 20 orders need 800 > 6!
        # the distance sum: C(n,2) floor(g^2/4) < C(g,2) s
        (5, 3, 8),  # 10 * 2 = 20 < 3 * 8
        (6, 3, 11),  # 15 * 2 = 30 < 3 * 11
        (8, 4, 19),  # 28 * 4 = 112 < 6 * 19
        # both bounds pass, the exhaustive search up to n = 4 refuses: by
        # parity the 6 orders of 3 items form two classes of 3, and two
        # orders of different classes lie at distance 1 unless they are
        # reverses, so 4 centers would need an order that two others reverse
        (3, 4, 2),
        (4, 13, 2),  # at most the 12 orders of one parity
        (4, 6, 3),  # at most 5
        (4, 4, 4),  # at most 3
    ],
)
def test_separation_certificate_raises_before_any_draw(n, g_true, min_separation):
    rng = np.random.default_rng(3)
    before = rng.bit_generator.state
    with pytest.raises(SeparationInfeasible, match=f"exist for n={n}"):
        sample_centers(n, g_true, min_separation, rng)
    assert rng.bit_generator.state == before


def test_separation_certificate_admits_feasible_requests():
    # the bound is tight at n = 4, g = 2, s = 6 (a pair of reverses) and never
    # applies to a single center
    assert len(sample_centers(4, 2, 6, np.random.default_rng(1))) == 2
    assert len(sample_centers(3, 1, 99, np.random.default_rng(1))) == 1
    # separation 0 admits repeated centers, more of them than there are orders
    assert len(sample_centers(3, 7, 0, np.random.default_rng(1))) == 7


def test_exact_separation_search_counts():
    # the most orders at pairwise distance >= s for s = 1..C(n, 2); at n = 3
    # against every set of orders
    assert [_most_separated(4, s, 24) for s in range(1, 7)] == [24, 12, 5, 3, 2, 2]
    assert _most_separated(4, 2, 3) == 3  # the search stops once it has enough
    orders = [LinearOrder(p) for p in itertools.permutations(range(3))]
    for s in (1, 2, 3):
        sizes = [len(group) for k in range(1, 7) for group in itertools.combinations(orders, k)
                 if all(kendall_distance(a, b) >= s for a, b in itertools.combinations(group, 2))]
        assert _most_separated(3, s, 6) == max(sizes)


def test_ball_radius_zero_returns_center():
    rng = np.random.default_rng(4)
    center = LinearOrder((3, 1, 4, 0, 2))
    assert sample_within_ball(center, 0, rng) is center


def test_ball_samples_stay_in_ball():
    rng = np.random.default_rng(5)
    center = LinearOrder((2, 0, 1, 3, 4))
    for _ in range(500):
        s = sample_within_ball(center, 3, rng)
        assert kendall_distance(s, center) <= 3


def _ball_draws(center, D, trials, seed):
    """trials draws around center in one _sample_ball call; the same draws
    as that many sample_within_ball calls on the same seed."""
    out = np.empty((trials, len(center)), dtype=np.uint8)
    _sample_ball(np.array(center, dtype=np.uint8), D, out, np.random.default_rng(seed))
    return out


def test_ball_distance_frequencies_follow_mahonian():
    trials = 30_000
    counts = Counter(inversion_counts(_ball_draws((0, 1, 2, 3, 4), 2, trials, 6)).tolist())
    for d, expect in enumerate((1 / 14, 4 / 14, 9 / 14)):
        assert counts[d] / trials == pytest.approx(expect, abs=0.02)


def test_full_radius_ball_is_uniform():
    from scipy.stats import chisquare

    counts = Counter(map(tuple, _ball_draws((1, 3, 0, 2), 6, 100_000, 7).tolist()))
    assert len(counts) == 24
    stat, pvalue = chisquare(list(counts.values()))
    assert pvalue >= 0.01


def test_allocate_counts_fixtures():
    assert allocate_counts((0.667, 0.333), 1000) == [667, 333]
    assert allocate_counts((0.5, 0.5), 1001) == [501, 500]
    assert allocate_counts((0.334, 0.333, 0.333), 1000) == [334, 333, 333]
    assert sum(allocate_counts((0.571, 0.286, 0.143), 997)) == 997


@pytest.mark.parametrize("weights", [(0.5 + 5e-10, 0.5 - 1e-12), (0.3 + 6e-10, 0.3, 0.4),
                                     (0.5 - 5e-10, 0.5 - 4e-10)])
def test_allocate_counts_sums_to_n_at_the_simplex_tolerance(weights):
    # weights summing to 1 within the simplex test's 1e-9, whose counts
    # summed to 10,000,000,004, 10,000,000,006 and 9,999,999,993
    counts = allocate_counts(weights, 10**10)
    assert min(counts) >= 0 and sum(counts) == 10**10


@pytest.mark.parametrize("weights", [(0.1, 0.1), (2.0, -1.0), (np.nan, 1.0), (0.5, np.inf)])
def test_allocate_counts_refuses_weights_off_the_simplex(weights):
    # (0.1, 0.1) gave [101, 101] for 1000 rankings, (2, -1) gave [20, -10]
    # and a NaN a huge negative count
    with pytest.raises(InvalidInput, match="weights must"):
        allocate_counts(weights, 1000)


def test_aggregate_single_ranking():
    o = LinearOrder((2, 0, 1, 3))
    C = aggregate([o])
    assert np.array_equal(C.upper, o.prec.astype(float))


def test_aggregate_mix_matches_direct_counting():
    a = LinearOrder((0, 1, 2, 3))
    b = LinearOrder((3, 2, 1, 0))
    C = aggregate([a] * 900 + [b] * 100)
    assert np.allclose(C.upper, [0.9] * 6, atol=1e-12)
    A = _full_counts(*_pair_counts(_ranking_array([a] * 900 + [b] * 100)))
    assert A[0, 1] == 900 and A[1, 0] == 100


def test_aggregate_half_reverses_is_indifferent():
    a = LinearOrder((0, 1, 2))
    C = aggregate([a] * 50 + [LinearOrder(tuple(reversed(a.perm)))] * 50)
    assert np.allclose(C.upper, 0.5, atol=1e-12)


def test_aggregate_counts_are_integral():
    rng = np.random.default_rng(8)
    rankings = [random_order(5, rng) for _ in range(137)]
    C = aggregate(rankings)
    scaled = C.upper * 137
    assert np.allclose(scaled, np.round(scaled), atol=1e-9)


def test_aggregate_empty_raises():
    with pytest.raises(InvalidInput):
        aggregate([])


def test_generate_reproducible():
    spec = GeneratorSpec(n=6, g_true=2, weights=(0.667, 0.333), p=5.0, seed=42)
    s1, C1 = generate_instance(spec)
    s2, C2 = generate_instance(spec)
    assert s1 == s2
    assert np.array_equal(C1.upper, C2.upper)


def test_generated_rankings_respect_radius():
    spec = GeneratorSpec(n=6, g_true=2, weights=(0.5, 0.5), D=2, num_rankings=200, seed=9)
    sample, _ = generate_instance(spec)
    assert len(sample.rankings) == 200
    for row, label in zip(sample.rankings, sample.labels):
        assert kendall_distance(LinearOrder(tuple(row)), sample.centers[label]) <= 2


def test_ranking_sample_holds_compact_read_only_arrays():
    spec = GeneratorSpec(n=6, g_true=2, weights=(0.667, 0.333), p=5.0, num_rankings=30, seed=42)
    sample, C = generate_instance(spec)
    assert sample.rankings.shape == (30, 6) and sample.rankings.dtype == np.uint8
    assert sample.labels.tolist() == [0] * 20 + [1] * 10
    assert not sample.rankings.flags.writeable and not sample.labels.flags.writeable
    orders = [LinearOrder(tuple(row)) for row in sample.rankings]
    assert np.array_equal(aggregate(orders).upper, C.upper)


@pytest.mark.parametrize("n", [2, 5, 9])
def test_sampler_and_counts_agree_across_chunk_sizes(monkeypatch, n):
    spec = GeneratorSpec(n=n, g_true=2, weights=(0.5, 0.5), D=1, num_rankings=300, seed=n)
    whole, C = generate_instance(spec)
    # three rankings per sampling chunk; at most three per counting chunk
    monkeypatch.setattr(instances, "_CHUNK_CELLS", 3 * (n + 1))
    chunked, C_chunked = generate_instance(spec)
    assert chunked == whole
    assert np.array_equal(C_chunked.upper, C.upper)
    centers = np.array([whole.centers[k].perm for k in whole.labels])
    assert np.any(np.all(whole.rankings == centers, axis=1))  # distance-0 draws


def test_generator_spec_validation():
    with pytest.raises(InvalidInput):
        GeneratorSpec(n=5, g_true=2, weights=(0.7, 0.2), D=1)  # not a simplex
    with pytest.raises(InvalidInput):
        GeneratorSpec(n=5, g_true=2, weights=(0.5, 0.5))  # neither p nor D
    with pytest.raises(InvalidInput):
        GeneratorSpec(n=5, g_true=2, weights=(0.5, 0.5), D=99)
    spec = GeneratorSpec(n=12, g_true=2, weights=(0.5, 0.5), p=10.0, D=8)
    assert spec.resolved_D == 8  # explicit D is authoritative over p


def test_noise_free_identifiability():
    spec = GeneratorSpec(n=4, g_true=2, weights=(0.6, 0.4), D=0, num_rankings=100, seed=11)
    sample, C = generate_instance(spec)
    sol, obj, _ = solve_exact(C, ExactConfig(g=2))
    assert obj == pytest.approx(0.0, abs=1e-9)
    assert {o.perm for o in sol.orders} == {o.perm for o in sample.centers}


def test_ingest_single_and_pair(tmp_path):
    f = tmp_path / "r.txt"
    f.write_text("1 2 3\n")
    C, A = ingest_rankings(f)
    assert np.array_equal(C.upper, [1.0, 1.0, 1.0])
    f.write_text("# comment\n1 2 3\n\n3 2 1\n")
    C, A = ingest_rankings(f)
    assert np.allclose(C.upper, [0.5, 0.5, 0.5])
    assert A[0, 1] == 1 and A[1, 0] == 1


def test_ingest_errors_carry_line_numbers(tmp_path):
    f = tmp_path / "bad.txt"
    f.write_text("1 2 3\n1 2 x\n")
    with pytest.raises(RankingFormatError, match="line 2"):
        ingest_rankings(f)
    f.write_text("1 2 3\n1 2\n")
    with pytest.raises(RankingFormatError, match="line 2"):
        ingest_rankings(f)
    f.write_text("1 2 2\n")
    with pytest.raises(RankingFormatError, match="repeated"):
        ingest_rankings(f)
    f.write_text("0 1 2\n")
    with pytest.raises(RankingFormatError):
        ingest_rankings(f)
    f.write_text("\n")
    with pytest.raises(RankingFormatError):
        ingest_rankings(f)


def _long_file() -> str:
    """4,000 rankings of 5 items, one per line, no trailing newline."""
    return "\n".join(
        " ".join(str(v + 1) for v in np.random.default_rng(k).permutation(5)) for k in range(4000)
    )


LONG = _long_file()


@pytest.mark.parametrize(
    "text, message",
    [
        (LONG + "\n1 2 x 4 5\n" + LONG + "\n",
         "line 4001: non-integer token in ['1', '2', 'x', '4', '5']"),
        (LONG + "\n1 2 2 4 5\n", "line 4001: repeated item within a ranking"),
        (LONG + "\n1 2 3 4\n", "line 4001: expected 5 items per ranking, got 4"),
        (LONG + "\n1 2 3 4 5 6\n", "line 4001: expected 5 items per ranking, got 6"),
        (LONG + "\n1 2 3 4 6\n", "line 4001: items must be exactly 1..5, got [1, 2, 3, 4, 6]"),
        (LONG + "\n0 1 2 3 4\n", "line 4001: items must be exactly 1..5, got [0, 1, 2, 3, 4]"),
        ("1 2 3\n1 2 3 4\n", "line 2: expected 3 items per ranking, got 4"),
        ("1 3\n", "line 1: items must be exactly 1..2, got [1, 3]"),
        (LONG.replace("\n", "\r\n") + "\r\n5 4 3 3 1\r\n",
         "line 4001: repeated item within a ranking"),
        ("1\t2\t3\n3\t2\n", "line 2: expected 3 items per ranking, got 2"),
        ("# header\n\n  # indented\n1 2 3\n\n\n2 3 1 # trailing\n",
         "line 7: non-integer token in ['2', '3', '1', '#', 'trailing']"),
        ("# a\n\n   \n# b\n", "line 0: file contains no rankings"),
        ("1 2 3\n99999999999999999999 1 2\n",
         "line 2: items must be exactly 1..3, got [99999999999999999999, 1, 2]"),
        ("1 2 3\n1.0 2 3\n", "line 2: non-integer token in ['1.0', '2', '3']"),
        ("1 2 3\n" + "1" * 5000 + " 2 3\n",
         f"line 2: non-integer token in {['1' * 5000, '2', '3']!r}"),
        ("1 2 3\n1 2\x0c3 1 2\n", "line 2: expected 3 items per ranking, got 2"),
        ("1 2 3\n1 1 3\n1 2\n", "line 2: repeated item within a ranking"),
    ],
    ids=[
        "deep-non-integer", "deep-repeated", "deep-short", "deep-long", "deep-out-of-range",
        "deep-zero", "count-set-by-first-line", "first-line-gap", "crlf", "tabs",
        "comments-and-blanks", "only-comments", "huge-integer", "float-token",
        "numeral-past-int-digit-limit",
        "form-feed-splits-a-line", "first-of-two-errors",
    ],
)
def test_ingest_names_the_first_bad_line(tmp_path, text, message):
    f = tmp_path / "r.txt"
    f.write_bytes(text.encode("utf-8"))
    with pytest.raises(RankingFormatError) as err:
        ingest_rankings(f)
    assert str(err.value) == message
    assert err.value.line_no == int(message.split(":")[0].removeprefix("line "))


@pytest.mark.parametrize("token", ["+3", "\uff13", "\u0663", "3_0"],
                         ids=["plus", "fullwidth", "arabic-indic", "underscore"])
@pytest.mark.parametrize("before", ["", "3 2 1\n2 3 1\n"], ids=["first-line", "later-line"])
def test_ingest_takes_only_ascii_digits(tmp_path, token, before):
    # int() reads each of these tokens as a number: 3, or 30 for "3_0"
    f = tmp_path / "r.txt"
    f.write_text(before + f"1 2 {token}\n3 1 2\n", encoding="utf-8")
    with pytest.raises(RankingFormatError) as err:
        ingest_rankings(f)
    line_no = before.count("\n") + 1
    assert str(err.value) == f"line {line_no}: non-integer token in {['1', '2', token]!r}"


def test_ingest_layout_variants_give_the_same_counts(tmp_path):
    f = tmp_path / "r.txt"
    expected = _full_counts(*_pair_counts(
        np.array([[int(t) - 1 for t in line.split()] for line in LONG.splitlines()])
    ))
    for text in (
        LONG,
        LONG + "\n",
        LONG.replace("\n", "\r\n") + "\r\n",
        LONG.replace(" ", "\t"),
        "# votes\n\n" + LONG.replace("\n", "\n  \n# next voter\n"),
        "  " + LONG.replace("\n", "  \n  ").replace("1", "01"),
    ):
        f.write_bytes(text.encode("utf-8"))
        C, A = ingest_rankings(f)
        assert np.array_equal(A, expected)
        assert np.array_equal(C.upper, A[np.triu_indices(5, k=1)] / 4000)


def test_default_min_separation():
    spec = GeneratorSpec(n=5, g_true=1, weights=(1.0,), D=0)
    assert spec.resolved_min_separation == (num_pairs(5) + 1) // 2
