import math
import warnings

import numpy as np
import pytest

from mlop import (
    DimensionMismatch,
    InvalidInput,
    LinearOrder,
    MixtureSolution,
    PreferenceMatrix,
    canonicalize,
    fit,
    fit_from_objective,
    kendall_distance,
    l1_objective,
    lop_value,
    mixture_point,
    num_pairs,
)
from mlop.core import pair_index

from _oracles import kendall_double_loop, random_order, random_preference_matrix

EX1 = PreferenceMatrix(4, [0.9, 0.9, 0.9, 0.5, 0.9, 0.9])
EX1_ORDER = LinearOrder((0, 1, 2, 3))


def test_pair_index_roundtrip():
    n = 6
    k = 0
    for r in range(n - 1):
        for s in range(r + 1, n):
            assert pair_index(n, r, s) == k
            k += 1
    assert k == num_pairs(n)


def test_preference_matrix_rejects_bad_input():
    with pytest.raises(InvalidInput):
        PreferenceMatrix(4, [0.5, 0.5, 0.5])  # wrong length
    with pytest.raises(InvalidInput):
        PreferenceMatrix(3, [0.5, 1.2, 0.5])  # out of range
    with pytest.raises(InvalidInput):
        PreferenceMatrix.from_full([[0.0, 0.7], [0.2, 0.0]])  # 0.7 + 0.2 != 1


def test_preference_matrix_from_full_and_value():
    C = PreferenceMatrix.from_full([[99.0, 0.7, 0.8], [0.3, -5.0, 0.4], [0.2, 0.6, 0.0]])
    assert np.allclose(C.upper, [0.7, 0.8, 0.4])
    assert C.value(1, 0) == pytest.approx(0.3)
    with pytest.raises(IndexError):
        C.value(1, 1)


@pytest.mark.parametrize("hole", [math.nan, math.inf, -math.inf])
def test_from_full_rejects_non_finite_off_diagonal(hole):
    for r, s in ((1, 0), (0, 2)):  # lower and upper triangle
        full = [[math.nan, 0.7, 0.8], [0.3, math.nan, 0.4], [0.2, 0.6, math.nan]]
        full[r][s] = hole
        with pytest.raises(InvalidInput, match="not normalized"):
            PreferenceMatrix.from_full(full)


def test_from_full_rejects_overflowing_entries_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # 1e308 + 1e308 overflows to inf
        with pytest.raises(InvalidInput, match="not normalized"):
            PreferenceMatrix.from_full([[0.0, 1e308], [1e308, 0.0]])


def test_linear_order_validation_and_prec():
    o = LinearOrder((2, 0, 1))
    # item 2 first: pairs (0,1)=1, (0,2)=0, (1,2)=0
    assert o.prec.tolist() == [1, 0, 0]
    with pytest.raises(InvalidInput):
        LinearOrder((0, 0, 1))
    with pytest.raises(InvalidInput):
        LinearOrder((1, 2, 3))


def test_mixture_solution_rejects_non_finite_weights():
    orders = (LinearOrder((0, 1, 2)), LinearOrder((2, 1, 0)))
    for weights in ((math.nan, math.nan), (math.inf, 0.0), (1.0, math.nan)):
        with pytest.raises(InvalidInput, match="finite"):
            MixtureSolution(orders, weights)


def test_linear_order_from_prec_roundtrip():
    rng = np.random.default_rng(5)
    for _ in range(20):
        o = random_order(6, rng)
        assert LinearOrder.from_prec(o.prec, 6) == o
    with pytest.raises(InvalidInput):
        LinearOrder.from_prec([1, 0, 1], 3)  # 3-cycle, not transitive


def test_prec_is_transitive():
    rng = np.random.default_rng(1)
    for _ in range(20):
        o = random_order(5, rng)
        x = o.prec.astype(int)
        for r in range(3):
            for s in range(r + 1, 4):
                for t in range(s + 1, 5):
                    res = x[pair_index(5, r, s)] - x[pair_index(5, r, t)] + x[pair_index(5, s, t)]
                    assert res in (0, 1)


def test_lop_value_running_example():
    assert lop_value(EX1_ORDER, EX1) == pytest.approx(5.0, abs=1e-12)


def test_lop_value_indifferent_matrix():
    for n in (3, 5, 7):
        C = PreferenceMatrix(n, np.full(num_pairs(n), 0.5))
        rng = np.random.default_rng(n)
        o = random_order(n, rng)
        assert lop_value(o, C) == pytest.approx(0.5 * num_pairs(n), abs=1e-12)


def test_lop_value_matches_double_loop_oracle():
    rng = np.random.default_rng(11)
    for _ in range(25):
        C = random_preference_matrix(5, rng)
        o = random_order(5, rng)
        full = C.full()
        np.fill_diagonal(full, 0.0)
        from _oracles import lop_value_double_loop

        assert lop_value(o, C) == pytest.approx(
            lop_value_double_loop(o.perm, full), abs=1e-12
        )


def test_lop_value_reverse_complement():
    rng = np.random.default_rng(2)
    for _ in range(20):
        C = random_preference_matrix(6, rng)
        o = random_order(6, rng)
        assert lop_value(o, C) + lop_value(o.reverse(), C) == pytest.approx(
            num_pairs(6), abs=1e-9
        )


def test_lop_value_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        lop_value(LinearOrder((0, 1, 2)), EX1)


def test_mixture_point_single_vertex():
    sol = MixtureSolution((EX1_ORDER,), (1.0,))
    assert np.array_equal(mixture_point(sol).p, EX1_ORDER.prec.astype(float))


def test_mixture_point_two_vertices_n3():
    # 0.7*(1,1,0) + 0.3*(0,0,1) = (0.7, 0.7, 0.3)
    sol = MixtureSolution(
        (LinearOrder((0, 2, 1)), LinearOrder((1, 2, 0))), (0.7, 0.3)
    )
    assert np.allclose(mixture_point(sol).p, [0.7, 0.7, 0.3], atol=1e-12)


def _example3_solution():
    return MixtureSolution(
        (LinearOrder((0, 1, 2, 3)), LinearOrder((0, 2, 1, 3)), LinearOrder((3, 2, 1, 0))),
        (0.5, 0.4, 0.1),
    )


def test_mixture_point_reconstructs_running_example():
    assert np.allclose(mixture_point(_example3_solution()).p, EX1.upper, atol=1e-12)


def test_l1_objective_fixtures():
    assert l1_objective(MixtureSolution((EX1_ORDER,), (1.0,)), EX1) == pytest.approx(
        1.0, abs=1e-12
    )
    assert l1_objective(_example3_solution(), EX1) == pytest.approx(0.0, abs=1e-12)
    C3 = PreferenceMatrix(3, [0.7, 0.8, 0.4])
    sol = MixtureSolution(
        (LinearOrder((0, 1, 2)), LinearOrder((0, 2, 1)), LinearOrder((2, 1, 0))),
        (0.4, 0.4, 0.2),
    )
    # mixture point (0.8, 0.8, 0.4) against c -> 0.1
    assert l1_objective(sol, C3) == pytest.approx(0.1, abs=1e-12)


def test_l1_objective_group_permutation_invariant():
    rng = np.random.default_rng(3)
    for _ in range(10):
        C = random_preference_matrix(5, rng)
        orders = tuple(random_order(5, rng) for _ in range(3))
        w = rng.dirichlet(np.ones(3))
        sol = MixtureSolution(orders, tuple(w))
        perm = rng.permutation(3)
        shuffled = MixtureSolution(
            tuple(orders[i] for i in perm), tuple(w[i] for i in perm)
        )
        assert l1_objective(sol, C) == pytest.approx(l1_objective(shuffled, C), abs=1e-12)


def test_max_form_identity():
    # C(n,2) - L1 objective equals sum over pairs of (1 - |c - p|)
    rng = np.random.default_rng(4)
    for _ in range(10):
        C = random_preference_matrix(5, rng)
        orders = tuple(random_order(5, rng) for _ in range(2))
        sol = MixtureSolution(orders, tuple(rng.dirichlet(np.ones(2))))
        p = mixture_point(sol).p
        max_form = float(np.sum(1.0 - np.abs(C.upper - p)))
        assert num_pairs(5) - l1_objective(sol, C) == pytest.approx(max_form, abs=1e-9)


def test_fit_values_reference_fixtures():
    assert fit_from_objective(12.144, 12) == pytest.approx(0.81600, abs=1e-5)
    assert fit_from_objective(15.390, 10) == pytest.approx(0.65800, abs=1e-5)
    assert fit_from_objective(0.0, 9) == 1.0


def test_fit_is_one_iff_exact_reconstruction():
    sol = _example3_solution()
    assert fit(sol, EX1) == pytest.approx(1.0, abs=1e-12)
    other = MixtureSolution((EX1_ORDER,), (1.0,))
    assert fit(other, EX1) < 1.0
    assert 0.0 <= fit(other, EX1) <= 1.0


def test_kendall_distance_basics():
    a = LinearOrder((0, 1, 2, 3))
    assert kendall_distance(a, a) == 0
    assert kendall_distance(a, a.reverse()) == 6
    with pytest.raises(DimensionMismatch):
        kendall_distance(a, LinearOrder((0, 1, 2)))


def test_kendall_distance_matches_oracle():
    rng = np.random.default_rng(6)
    for _ in range(30):
        a, b = random_order(6, rng), random_order(6, rng)
        assert kendall_distance(a, b) == kendall_double_loop(a.perm, b.perm)


def test_kendall_distance_is_a_metric():
    rng = np.random.default_rng(7)
    for _ in range(40):
        n = int(rng.integers(2, 9))
        a, b, c = (random_order(n, rng) for _ in range(3))
        assert kendall_distance(a, b) == kendall_distance(b, a)
        assert (kendall_distance(a, b) == 0) == (a.perm == b.perm)
        assert kendall_distance(a, c) <= kendall_distance(a, b) + kendall_distance(b, c)


def test_canonicalize_sorts_by_weight():
    o1, o2 = LinearOrder((0, 1, 2)), LinearOrder((2, 1, 0))
    sol = MixtureSolution((o1, o2), (0.3, 0.7))
    canon = canonicalize(sol)
    assert canon.weights == (0.7, 0.3)
    assert canon.orders == (o2, o1)
    assert l1_objective(canon, PreferenceMatrix(3, [0.5, 0.5, 0.5])) == pytest.approx(
        l1_objective(sol, PreferenceMatrix(3, [0.5, 0.5, 0.5])), abs=1e-12
    )


def test_canonicalize_tie_breaks_lexicographically():
    o_small = LinearOrder((2, 1, 0))  # prec (0,0,0)
    o_big = LinearOrder((0, 1, 2))  # prec (1,1,1)
    sol = MixtureSolution((o_big, o_small), (0.5, 0.5))
    canon = canonicalize(sol)
    assert canon.orders == (o_small, o_big)


def test_canonicalize_idempotent():
    rng = np.random.default_rng(8)
    for _ in range(20):
        orders = tuple(random_order(4, rng) for _ in range(3))
        sol = MixtureSolution(orders, tuple(rng.dirichlet(np.ones(3))))
        once = canonicalize(sol)
        assert canonicalize(once) == once


def test_mixture_solution_validation():
    o = LinearOrder((0, 1, 2))
    with pytest.raises(InvalidInput):
        MixtureSolution((o,), (0.5,))  # does not sum to 1
    with pytest.raises(InvalidInput):
        MixtureSolution((o, o), (1.2, -0.2))
    with pytest.raises(DimensionMismatch):
        MixtureSolution((o, LinearOrder((0, 1))), (0.5, 0.5))
