import numpy as np
import pytest

from mlop import BenefitMatrix, LinearOrder, PreferenceMatrix, lop_exact, lop_heuristic, num_pairs
from mlop.lop import order_value

from _oracles import is_insertion_local_optimal, lop_enumeration_max, random_preference_matrix

EX1 = PreferenceMatrix(4, [0.9, 0.9, 0.9, 0.5, 0.9, 0.9])


def test_exact_running_example():
    order, value, proven = lop_exact(BenefitMatrix.from_preferences(EX1))
    assert order.perm == (0, 1, 2, 3)
    assert value == pytest.approx(5.0, abs=1e-12)
    assert proven


def test_exact_lexicographic_tie_rule():
    # 1>3>2>4 also scores 5 on the running example (the middle pair is 0.5);
    # the lexicographically smaller optimum must win
    alt = LinearOrder((0, 2, 1, 3))
    assert order_value(alt.perm, BenefitMatrix.from_preferences(EX1).b) == pytest.approx(5.0)
    order, _, _ = lop_exact(BenefitMatrix.from_preferences(EX1))
    assert order.perm < alt.perm


def test_exact_all_zero_matrix():
    for n in (1, 2, 5):
        order, value, proven = lop_exact(BenefitMatrix(np.zeros((n, n))))
        assert order.perm == tuple(range(n))
        assert value == 0.0
        assert proven


def test_exact_matches_enumeration_oracle():
    rng = np.random.default_rng(17)
    for _ in range(10):
        b = rng.normal(size=(6, 6))
        np.fill_diagonal(b, 0.0)
        _, best = lop_enumeration_max(b)
        _, value, proven = lop_exact(BenefitMatrix(b))
        assert proven
        assert value == pytest.approx(best, abs=1e-12)


def test_exact_small_n_enumeration_equality():
    rng = np.random.default_rng(23)
    for n in (2, 3, 4, 7):
        b = rng.random((n, n))
        np.fill_diagonal(b, 0.0)
        _, best = lop_enumeration_max(b)
        _, value, _ = lop_exact(BenefitMatrix(b))
        assert value == pytest.approx(best, abs=1e-12)


def test_exact_budget_exhaustion_returns_incumbent():
    rng = np.random.default_rng(3)
    b = rng.random((8, 8))
    np.fill_diagonal(b, 0.0)
    order, value, proven = lop_exact(BenefitMatrix(b), budget=3)
    assert not proven
    _, opt, _ = lop_exact(BenefitMatrix(b))
    assert value <= opt + 1e-12
    assert order_value(order.perm, b) == pytest.approx(value, abs=1e-12)


def test_exact_warm_start_never_hurts():
    rng = np.random.default_rng(4)
    b = rng.random((7, 7))
    np.fill_diagonal(b, 0.0)
    warm = LinearOrder(tuple(rng.permutation(7)))
    order, value, proven = lop_exact(BenefitMatrix(b), budget=1, warm_start=warm)
    assert not proven
    assert value >= order_value(warm.perm, b) - 1e-12


def test_exact_deterministic():
    rng = np.random.default_rng(9)
    b = rng.normal(size=(7, 7))
    res1 = lop_exact(BenefitMatrix(b), budget=500)
    res2 = lop_exact(BenefitMatrix(b), budget=500)
    assert res1[0].perm == res2[0].perm and res1[1] == res2[1] and res1[2] == res2[2]


def test_preference_optimum_at_least_half():
    rng = np.random.default_rng(31)
    for _ in range(10):
        C = random_preference_matrix(6, rng)
        _, value, _ = lop_exact(BenefitMatrix.from_preferences(C))
        assert value >= num_pairs(6) / 2 - 1e-9


def test_heuristic_running_example():
    order, value = lop_heuristic(BenefitMatrix.from_preferences(EX1))
    assert value == pytest.approx(5.0, abs=1e-12)


def test_heuristic_consistent_matrix():
    n = 8
    b = np.zeros((n, n))
    for r in range(n):
        for s in range(r + 1, n):
            b[r, s] = 1.0
    order, value = lop_heuristic(BenefitMatrix(b))
    assert order.perm == tuple(range(n))
    assert value == num_pairs(n)


def test_heuristic_close_to_budgeted_exact_on_n12():
    rng = np.random.default_rng(12)
    C = random_preference_matrix(12, rng)
    B = BenefitMatrix.from_preferences(C)
    h_order, h_value = lop_heuristic(B)
    _, e_value, proven = lop_exact(B, budget=500_000)
    assert h_value <= e_value + 1e-9
    assert h_value >= 0.95 * e_value
    assert is_insertion_local_optimal(h_order, B)


def test_heuristic_insertion_local_optimality():
    rng = np.random.default_rng(13)
    for _ in range(10):
        b = rng.normal(size=(7, 7))
        np.fill_diagonal(b, 0.0)
        order, value = lop_heuristic(BenefitMatrix(b))
        assert is_insertion_local_optimal(order, BenefitMatrix(b))
        assert order_value(order.perm, b) == pytest.approx(value, abs=1e-12)
