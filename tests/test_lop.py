import numpy as np
import pytest

from mlop import BenefitMatrix, LinearOrder, PreferenceMatrix, lop_exact, lop_heuristic, num_pairs
from mlop.lop import LOP_DP_MAX_N, _branch_and_bound, _dp_tables, _subset_dp, benefit_for_pairs, order_value

from _oracles import (
    is_insertion_local_optimal,
    lop_enumeration_max,
    lop_lex_smallest_optimum,
    random_order,
    random_preference_matrix,
)

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
    # above the DP limit, so the budgeted branch and bound runs
    n = LOP_DP_MAX_N + 1
    rng = np.random.default_rng(3)
    b = rng.random((n, n))
    np.fill_diagonal(b, 0.0)
    order, value, proven = lop_exact(BenefitMatrix(b), budget=3)
    assert not proven
    opt = order_value(_subset_dp(b), b)
    assert value <= opt + 1e-12
    assert order_value(order.perm, b) == pytest.approx(value, abs=1e-12)


def test_exact_warm_start_never_hurts():
    n = LOP_DP_MAX_N + 1
    rng = np.random.default_rng(4)
    b = rng.random((n, n))
    np.fill_diagonal(b, 0.0)
    warm = LinearOrder(tuple(rng.permutation(n)))
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


def heuristic_shaped_benefits(n, rng, g=3):
    """Benefits of one group's reduced LOP in the heuristic's ranking step."""
    C = random_preference_matrix(n, rng)
    w = rng.dirichlet(np.ones(g))
    X = np.stack([random_order(n, rng).prec for _ in range(g)]).astype(np.float64)
    a = C.upper - (w @ X - w[0] * X[0])
    b_rs = np.abs(a) - np.abs(a - w[0])
    a_sr = w[0] - a
    return benefit_for_pairs(n, b_rs, np.abs(a_sr) - np.abs(a_sr - w[0])).b


def dp_test_matrices(n, rng):
    normal = rng.normal(size=(n, n))
    quarter = rng.integers(-4, 5, size=(n, n)) / 4  # many tied orders
    for b in (normal, quarter):
        np.fill_diagonal(b, 0.0)
    shaped = [heuristic_shaped_benefits(n, rng)] if n >= 2 else []
    return [normal, quarter, np.zeros((n, n))] + shaped


@pytest.mark.parametrize("n", range(1, 9))
def test_dp_is_lex_smallest_optimum(n):
    rng = np.random.default_rng(100 + n)
    for b in dp_test_matrices(n, rng):
        order, value, proven = lop_exact(BenefitMatrix(b))
        perm, best = lop_lex_smallest_optimum(b)
        assert proven
        assert order.perm == perm
        assert value == pytest.approx(lop_enumeration_max(b)[1], abs=1e-12)
        assert value == pytest.approx(best, abs=1e-12)
        if not b.any():
            assert order.perm == tuple(range(n))


@pytest.mark.parametrize("n", (9, 10, 11))
def test_dp_agrees_with_unbudgeted_branch_and_bound(n):
    rng = np.random.default_rng(200 + n)
    for b in dp_test_matrices(n, rng):
        B = BenefitMatrix(b)
        _, bb_value, bb_proven = _branch_and_bound(B, 10**9, None)
        _, value, proven = lop_exact(B)
        assert bb_proven and proven
        assert value == pytest.approx(bb_value, abs=1e-9)


def test_dp_tables_built_once_per_n_and_small():
    _dp_tables.cache_clear()
    rng = np.random.default_rng(5)
    for _ in range(3):
        lop_exact(BenefitMatrix(rng.normal(size=(12, 12))))
    assert _dp_tables.cache_info().misses == 1
    # README: the cached tables stay under 256 KiB at the DP limit
    tables = _dp_tables(LOP_DP_MAX_N)
    assert sum(a.nbytes for half in tables for layer in half for a in layer) < 256 * 1024
