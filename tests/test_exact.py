import itertools
import math

import numpy as np
import pytest

from mlop import (
    BenefitMatrix,
    ExactConfig,
    InvalidInput,
    LinearOrder,
    PreferenceMatrix,
    SizeGuardExceeded,
    fit,
    l1_objective,
    lop_exact,
    num_pairs,
    opt_curve,
    solve_exact,
)
from mlop.exact import _iter_multisets, enumerate_vertices, enumeration_size

from _oracles import exact_min_by_enumeration, random_preference_matrix

EX1 = PreferenceMatrix(4, [0.9, 0.9, 0.9, 0.5, 0.9, 0.9])


def test_running_example_g1():
    sol, obj, proven = solve_exact(EX1, ExactConfig(g=1))
    assert obj == pytest.approx(1.0, abs=1e-9)
    assert sol.orders[0].perm == (0, 1, 2, 3)
    assert proven


def test_running_example_g3_perfect():
    sol, obj, proven = solve_exact(EX1, ExactConfig(g=3))
    assert obj == pytest.approx(0.0, abs=1e-9)
    assert fit(sol, EX1) == pytest.approx(1.0, abs=1e-9)
    assert proven


def test_n3_example_curves():
    cfg = ExactConfig(max_g=4)
    curve = opt_curve(PreferenceMatrix(3, [0.7, 0.8, 0.4]), 4, cfg)
    assert [g for g, _ in curve] == [1, 2, 3, 4]
    for (g, obj), expect in zip(curve, (0.9, 0.2, 0.1, 0.0)):
        assert obj == pytest.approx(expect, abs=1e-9)
    curve = opt_curve(PreferenceMatrix(3, [0.3, 0.9, 0.2]), 4, cfg)
    for (g, obj), expect in zip(curve, (1.0, 0.6, 0.4, 0.4)):
        assert obj == pytest.approx(expect, abs=1e-9)


def test_vertex_data_is_perfectly_decomposed():
    o = LinearOrder((2, 0, 3, 1))
    C = PreferenceMatrix(4, o.prec.astype(float))
    for g, obj in opt_curve(C, 3):
        assert obj == pytest.approx(0.0, abs=1e-12)


def test_curve_non_increasing_on_random_instances():
    rng = np.random.default_rng(50)
    for _ in range(5):
        C = random_preference_matrix(4, rng)
        curve = opt_curve(C, 3)
        objs = [obj for _, obj in curve]
        for a, b in zip(objs, objs[1:]):
            assert b <= a + 1e-9


def test_g1_matches_classical_lop():
    rng = np.random.default_rng(51)
    for _ in range(10):
        C = random_preference_matrix(5, rng)
        _, obj, _ = solve_exact(C, ExactConfig(g=1))
        _, value, _ = lop_exact(BenefitMatrix.from_preferences(C))
        assert obj == pytest.approx(num_pairs(5) - value, abs=1e-9)


def test_size_guards():
    with pytest.raises(SizeGuardExceeded):
        solve_exact(random_preference_matrix(7, np.random.default_rng(0)), ExactConfig(g=1))
    with pytest.raises(SizeGuardExceeded):
        solve_exact(EX1, ExactConfig(g=4))
    with pytest.raises(InvalidInput):
        ExactConfig(g=0)


def test_vertex_table_built_once_and_never_for_g1():
    enumerate_vertices.cache_clear()
    solve_exact(random_preference_matrix(9, np.random.default_rng(1)), ExactConfig(g=1, max_n=10))
    assert enumerate_vertices.cache_info().currsize == 0
    opt_curve(EX1, 3)
    info = enumerate_vertices.cache_info()
    assert (info.misses, info.currsize) == (1, 1)
    assert enumerate_vertices(4).vertices.dtype == np.float64


def test_enumeration_visits_each_multiset_once():
    for n in (2, 3, 4):
        orders = enumerate_vertices(n).orders
        for g in (1, 2, 3):
            seen = list(_iter_multisets(len(orders), g))
            assert len(seen) == enumeration_size(n, g)
            assert len(set(seen)) == len(seen)
            assert all(tuple(sorted(t)) == t for t in seen)
            assert enumeration_size(n, g) == math.comb(math.factorial(n) + g - 1, g)


def test_orders_in_lexicographic_order():
    orders = enumerate_vertices(3).orders
    perms = [o.perm for o in orders]
    assert perms == sorted(perms)
    assert perms == list(itertools.permutations(range(3)))


def test_solution_is_canonical_and_consistent():
    rng = np.random.default_rng(52)
    for _ in range(5):
        C = random_preference_matrix(4, rng)
        sol, obj, _ = solve_exact(C, ExactConfig(g=2))
        assert all(
            sol.weights[i] >= sol.weights[i + 1] - 1e-12 for i in range(sol.g - 1)
        )
        assert l1_objective(sol, C) == pytest.approx(obj, abs=1e-9)


def test_early_exit_at_zero_still_optimal():
    # the search stops at the first zero-objective multiset; a full
    # enumeration outside the solver must agree on the optimum, and the
    # returned mixture must really reach it (weights 1/4 and 3/4 lie on the
    # oracle's quarter grid, so its minimum is exact)
    mixed = 0.75 * LinearOrder((3, 1, 0, 2)).prec + 0.25 * LinearOrder((2, 3, 1, 0)).prec
    for upper, g in (
        (LinearOrder((1, 3, 0, 2)).prec.astype(float), 2),
        (mixed, 2),
        (mixed, 3),
    ):
        C = PreferenceMatrix(4, upper)
        sol, obj, proven = solve_exact(C, ExactConfig(g=g))
        assert proven
        assert exact_min_by_enumeration(C.upper, 4, g, milli=4) == pytest.approx(0.0, abs=1e-12)
        assert obj == pytest.approx(0.0, abs=1e-12)
        assert l1_objective(sol, C) == pytest.approx(0.0, abs=1e-12)


def test_stabilization_at_full_projection_for_n3():
    # beyond C(n,2)+1 = 4 groups nothing can improve at n=3
    C = PreferenceMatrix(3, [0.3, 0.9, 0.2])
    cfg = ExactConfig(max_g=5)
    curve = dict(opt_curve(C, 5, cfg))
    assert curve[4] == pytest.approx(curve[3], abs=1e-9)
    assert curve[5] == pytest.approx(curve[3], abs=1e-9)
