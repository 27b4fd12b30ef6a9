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
from mlop.instances import (
    RankingFormatError,
    SeparationInfeasible,
    count_matrix,
    mahonian_counts,
)

from _oracles import random_order


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


def test_sample_centers_infeasible_raises():
    rng = np.random.default_rng(3)
    with pytest.raises(SeparationInfeasible):
        sample_centers(3, 4, 3, rng, max_attempts=2000)


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


def test_ball_distance_frequencies_follow_mahonian():
    rng = np.random.default_rng(6)
    center = LinearOrder((0, 1, 2, 3, 4))
    counts = Counter()
    trials = 30_000
    for _ in range(trials):
        counts[kendall_distance(sample_within_ball(center, 2, rng), center)] += 1
    for d, expect in enumerate((1 / 14, 4 / 14, 9 / 14)):
        assert counts[d] / trials == pytest.approx(expect, abs=0.02)


def test_full_radius_ball_is_uniform():
    from scipy.stats import chisquare

    rng = np.random.default_rng(7)
    center = LinearOrder((1, 3, 0, 2))
    counts = Counter()
    trials = 100_000
    for _ in range(trials):
        counts[sample_within_ball(center, 6, rng).perm] += 1
    assert len(counts) == 24
    stat, pvalue = chisquare(list(counts.values()))
    assert pvalue >= 0.01


def test_allocate_counts_fixtures():
    assert allocate_counts((0.667, 0.333), 1000) == [667, 333]
    assert allocate_counts((0.5, 0.5), 1001) == [501, 500]
    assert allocate_counts((0.334, 0.333, 0.333), 1000) == [334, 333, 333]
    assert sum(allocate_counts((0.571, 0.286, 0.143), 997)) == 997


def test_aggregate_single_ranking():
    o = LinearOrder((2, 0, 1, 3))
    C = aggregate([o])
    assert np.array_equal(C.upper, o.prec.astype(float))


def test_aggregate_mix_matches_direct_counting():
    a = LinearOrder((0, 1, 2, 3))
    b = LinearOrder((3, 2, 1, 0))
    C = aggregate([a] * 900 + [b] * 100)
    assert np.allclose(C.upper, [0.9] * 6, atol=1e-12)
    A = count_matrix([a] * 900 + [b] * 100)
    assert A[0, 1] == 900 and A[1, 0] == 100


def test_aggregate_half_reverses_is_indifferent():
    a = LinearOrder((0, 1, 2))
    C = aggregate([a] * 50 + [a.reverse()] * 50)
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
    with pytest.raises(InvalidInput):
        count_matrix([])


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
    for order, label in zip(sample.rankings, sample.labels):
        assert kendall_distance(order, sample.centers[label]) <= 2


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


def test_default_min_separation():
    spec = GeneratorSpec(n=5, g_true=1, weights=(1.0,), D=0)
    assert spec.resolved_min_separation == (num_pairs(5) + 1) // 2
