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
from mlop.exact import (
    MULTISET_GUARD,
    _iter_multisets,
    check_guards,
    enumerate_vertices,
    enumeration_size,
)

from _oracles import exact_min_by_enumeration, exact_scan_reference, random_preference_matrix

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
    curve = opt_curve(PreferenceMatrix(3, [0.7, 0.8, 0.4]), 4)
    assert [g for g, _ in curve] == [1, 2, 3, 4]
    for (g, obj), expect in zip(curve, (0.9, 0.2, 0.1, 0.0)):
        assert obj == pytest.approx(expect, abs=1e-9)
    curve = opt_curve(PreferenceMatrix(3, [0.3, 0.9, 0.2]), 4)
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


@pytest.mark.parametrize("n,g,admitted", [
    (20, 1, True), (21, 1, False),  # one classical LOP, solved by the subset DP
    (7, 2, True), (8, 2, False),  # the vertex table stops at 7!
    (5, 3, True), (6, 3, False),  # g >= 3: at most MULTISET_GUARD multisets
    (4, 5, True), (4, 6, False),
    (3, 29, True), (3, 30, False),
    (2, 29, True), (2, 30, False), (2, 100_000, False),  # n = 2 counts as n = 3
])
def test_check_guards_admits_by_cost(n, g, admitted):
    if admitted:
        check_guards(n, g)
    else:
        with pytest.raises(SizeGuardExceeded):
            check_guards(n, g)


def test_check_guards_is_monotone_in_g():
    # a sweep checks only its largest g, so admitting g must admit every smaller g
    for n in (*range(2, 10), 20, 21):
        admitted = []
        for g in range(1, 40):
            try:
                check_guards(n, g)
                admitted.append(True)
            except SizeGuardExceeded:
                admitted.append(False)
        assert admitted == sorted(admitted, reverse=True)


def test_size_guards():
    C = random_preference_matrix(8, np.random.default_rng(0))
    assert solve_exact(C, ExactConfig(g=1))[2]  # proven by the subset DP
    with pytest.raises(SizeGuardExceeded):
        solve_exact(C, ExactConfig(g=2))
    with pytest.raises(SizeGuardExceeded):
        solve_exact(EX1, ExactConfig(g=6))
    with pytest.raises(InvalidInput):
        ExactConfig(g=0)


def test_vertex_table_built_once_and_never_for_g1():
    enumerate_vertices.cache_clear()
    solve_exact(random_preference_matrix(9, np.random.default_rng(1)), ExactConfig(g=1))
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
    curve = dict(opt_curve(C, 5))
    assert curve[4] == pytest.approx(curve[3], abs=1e-9)
    assert curve[5] == pytest.approx(curve[3], abs=1e-9)


def _mixture_3_1(n):
    # two orders with small lexicographic indices, so the plain scan reaches
    # the zero-objective multiset early even at n = 5, g = 3
    a = LinearOrder(tuple(range(n)))
    b = LinearOrder((1, 0) + tuple(range(n - 1, 1, -1)))
    return 0.75 * a.prec + 0.25 * b.prec


@pytest.mark.parametrize("n,g", [(3, 2), (3, 3), (4, 2), (4, 3), (5, 2), (5, 3)])
def test_matches_reference_scan(n, g):
    rng = np.random.default_rng(100 * n + g)
    # a 1e-6 share of the order that swaps the top two items of the reversed
    # order: the zero-objective pair beats an earlier 1e-6 incumbent by less
    # than any screen resolution coarser than that would notice
    near_tie = np.zeros(num_pairs(n))
    near_tie[-1] = 1e-6
    uppers = [
        LinearOrder(tuple(rng.permutation(n))).prec.astype(float),  # early exit at zero
        _mixture_3_1(n),
        near_tie,
    ]
    if (n, g) != (5, 3):  # the plain scan takes about a minute there
        uppers += [rng.random(num_pairs(n)) for _ in range(3)]
        # quarter-grid data: many multisets tie on the objective
        uppers += [rng.integers(0, 5, num_pairs(n)) / 4 for _ in range(3)]
    for upper in uppers:
        C = PreferenceMatrix(n, upper)
        assert solve_exact(C, ExactConfig(g=g)) == exact_scan_reference(C, g)


def test_agreement_screen_skips_weight_lps(monkeypatch):
    import mlop.exact

    calls = []
    real = mlop.exact._fit_simplex_l1

    def counting(X, c):
        calls.append(1)
        return real(X, c)

    monkeypatch.setattr(mlop.exact, "_fit_simplex_l1", counting)
    for C in (EX1, random_preference_matrix(4, np.random.default_rng(53))):
        calls.clear()
        solve_exact(C, ExactConfig(g=3))
        assert 0 < len(calls) < enumeration_size(4, 3)


def test_multiset_guard_refuses_before_enumerating():
    assert MULTISET_GUARD == enumeration_size(5, 3)
    check_guards(5, 3)
    enumerate_vertices.cache_clear()
    with pytest.raises(SizeGuardExceeded, match="multisets"):
        solve_exact(random_preference_matrix(6, np.random.default_rng(2)), ExactConfig(g=3))
    with pytest.raises(SizeGuardExceeded, match="multisets"):
        solve_exact(EX1, ExactConfig(g=6))  # 475,020 multisets at n = 4
    assert enumerate_vertices.cache_info().misses == 0


def test_opt_curve_refuses_before_solving(monkeypatch):
    import mlop.exact

    calls = []
    monkeypatch.setattr(mlop.exact, "solve_exact", lambda *a: calls.append(a))
    with pytest.raises(SizeGuardExceeded, match="multisets"):
        opt_curve(EX1, 6)
    assert calls == []
