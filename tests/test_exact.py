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
    _STACK_MAX,
    MULTISET_GUARD,
    _iter_multisets,
    check_guards,
    enumerate_vertices,
    enumeration_size,
)
from mlop.instances import GeneratorSpec, generate_instance

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
    (20, 1, True), (21, 1, True), (100, 1, True),  # one LOP: the subset DP decides
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


def test_g1_past_the_dense_limit_is_proven():
    # a chain of 50 blocks of one item: the subset DP proves it at once
    _, C = generate_instance(GeneratorSpec(n=50, g_true=1, weights=(1.0,), p=1, seed=1))
    sol, obj, proven = solve_exact(C, ExactConfig(g=1))
    order, _, lop_proven = lop_exact(BenefitMatrix.from_preferences(C))
    assert proven and lop_proven
    assert sol.orders[0] == order
    assert obj == float(np.abs(C.upper - order.prec).sum())


def test_g1_refused_only_when_the_subset_dp_gives_up():
    # every order ties on the all-0.5 matrix, so no subset is ever pruned and
    # the 21-item block passes the layer budget
    C = PreferenceMatrix(21, [0.5] * 210)
    check_guards(21, 1)
    with pytest.raises(SizeGuardExceeded, match="heuristic") as exc:
        solve_exact(C, ExactConfig(g=1))
    assert exc.traceback[-1].name == "solve_exact"  # not check_guards


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
    # the scans slice rows, so each row is contiguous
    assert enumerate_vertices(4).vertices.flags.c_contiguous


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


@pytest.mark.parametrize("n,g", [
    (3, 2), (3, 3), (4, 2), (4, 3), (5, 2), (5, 3),
    (4, 4), (3, 4), (3, 5), (3, 6), (3, 7), (3, 8),
])
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
    # the plain scan takes about a minute at n = 5, g = 3 and 5 s per
    # instance at n = 4, g = 4
    draws = {(5, 3): 0, (4, 4): 1}.get((n, g), 3)
    uppers += [rng.random(num_pairs(n)) for _ in range(draws)]
    # quarter-grid data: many multisets tie on the objective
    uppers += [rng.integers(0, 5, num_pairs(n)) / 4 for _ in range(draws)]
    for upper in uppers:
        C = PreferenceMatrix(n, upper)
        assert solve_exact(C, ExactConfig(g=g)) == exact_scan_reference(C, g)


def test_breakpoint_screen_skips_weight_lps(monkeypatch):
    import mlop.exact

    stacks, refits = [], []
    real_stack, real_fit = mlop.exact._fit_simplex_stack, mlop.exact._fit_simplex_l1

    def counting_stack(V, idx, c):
        stacks.append(idx.shape[0])
        return real_stack(V, idx, c)

    def counting_fit(X, c):
        refits.append(1)
        return real_fit(X, c)

    monkeypatch.setattr(mlop.exact, "_fit_simplex_stack", counting_stack)
    monkeypatch.setattr(mlop.exact, "_fit_simplex_l1", counting_fit)
    # the scan is deterministic, so the counts are exact: of the 2,600
    # multisets at n = 4, g = 3, the class bound sends these to the stacked LP
    for C, problems in ((EX1, 46), (random_preference_matrix(4, np.random.default_rng(53)), 83)):
        stacks.clear()
        refits.clear()
        solve_exact(C, ExactConfig(g=3))
        assert sum(stacks) == problems
        assert max(stacks) <= _STACK_MAX
        assert len(refits) == 0  # the winner keeps its stack's weights


def test_first_order_bound_skips_whole_batches(monkeypatch):
    import mlop.exact

    batches, fits = [], []
    real_bound, real_fit = mlop.exact._pair_bound, mlop.exact._breakpoint_g2

    def counting_bound(d, residual, dist):
        batches.append(len(d))
        return real_bound(d, residual, dist)

    def counting_fit(X, c):
        fits.append(1)
        return real_fit(X, c)

    monkeypatch.setattr(mlop.exact, "_pair_bound", counting_bound)
    monkeypatch.setattr(mlop.exact, "_breakpoint_g2", counting_fit)
    _, C = generate_instance(GeneratorSpec(n=6, g_true=2, weights=(0.5, 0.5), p=10, seed=1))
    # the scan is deterministic, so the counts are exact: the first-order
    # bound skips 665 of the 720 first orders, so the class bound screens
    # 25,762 of the 259,560 pairs, and 34 of them get a breakpoint fit
    assert solve_exact(C, ExactConfig(g=2))[1] == pytest.approx(1.356, abs=1e-9)
    assert (len(batches), sum(batches), len(fits)) == (55, 25_762, 34)


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
