import numpy as np
import pytest

from mlop import LinearOrder
from mlop.exact import _breakpoint_g2
from mlop.geometry import MEMBERSHIP_TOL, l1_projection_full
from mlop.simplex_fit import _fit_simplex_l1

from _oracles import grid_min_objective, l1_fit_by_highs, random_order, random_preference_matrix


def _problem(orders, c):
    """(X, c) of a weight fit: one precedence vector per row of X."""
    X = np.stack([o.prec for o in orders]).astype(float)
    return X, np.asarray(c, dtype=float)


def test_single_group_is_trivial():
    rng = np.random.default_rng(0)
    o = random_order(4, rng)
    c = rng.random(6)
    w, obj = _fit_simplex_l1(*_problem([o], c))
    assert w.tolist() == [1.0]
    assert obj == pytest.approx(float(np.abs(c - o.prec).sum()), abs=1e-12)


def test_three_item_fixture():
    # vertices (1,1,0) and (0,0,1) against c=(0.7,0.8,0.4)
    prob = _problem([LinearOrder((0, 2, 1)), LinearOrder((1, 2, 0))], [0.7, 0.8, 0.4])
    w, obj = _fit_simplex_l1(*prob)
    assert np.allclose(w, [0.7, 0.3], atol=1e-9)
    assert obj == pytest.approx(0.2, abs=1e-9)
    w2, obj2 = _breakpoint_g2(*prob)
    assert np.allclose(w2, [0.7, 0.3], atol=1e-12)
    assert obj2 == pytest.approx(0.2, abs=1e-12)


def test_grid_oracle_n4_g3():
    rng = np.random.default_rng(10)
    for _ in range(10):
        C = random_preference_matrix(4, rng)
        orders = [random_order(4, rng) for _ in range(3)]
        _, obj = _fit_simplex_l1(*_problem(orders, C.upper))
        grid = grid_min_objective(np.stack([o.prec for o in orders]), C.upper)
        assert obj <= grid + 1e-9
        assert abs(obj - grid) <= 0.002


def test_breakpoint_identical_columns():
    o = LinearOrder((1, 0, 2))
    w, obj = _breakpoint_g2(*_problem([o, o], [0.4, 0.6, 0.1]))
    assert w.tolist() == [1.0, 0.0]
    lp_w, lp_obj = _fit_simplex_l1(*_problem([o, o], [0.4, 0.6, 0.1]))
    assert lp_w.tolist() == [1.0, 0.0]
    assert obj == pytest.approx(lp_obj, abs=1e-12)


def test_breakpoint_running_example_reverse_pair():
    # orders 1>2>3>4 and 4>3>2>1: five pairs pull toward 0.9, one toward 0.5
    prob = _problem(
        [LinearOrder((0, 1, 2, 3)), LinearOrder((3, 2, 1, 0))],
        [0.9, 0.9, 0.9, 0.5, 0.9, 0.9],
    )
    w, obj = _breakpoint_g2(*prob)
    assert np.allclose(w, [0.9, 0.1], atol=1e-12)
    assert obj == pytest.approx(0.4, abs=1e-12)


def test_breakpoint_matches_lp_on_random_problems():
    rng = np.random.default_rng(21)
    degenerate = 0
    for _ in range(100):
        n = int(rng.integers(3, 7))
        C = random_preference_matrix(n, rng)
        orders = [random_order(n, rng) for _ in range(2)]
        X, c = _problem(orders, C.upper)
        w_lp, obj_lp = _fit_simplex_l1(X, c)
        w_bp, obj_bp = _breakpoint_g2(X, c)
        assert obj_bp == pytest.approx(obj_lp, abs=1e-9)
        if np.allclose(w_bp, w_lp, atol=1e-7):
            continue
        # flat optimal segment: both vertices must evaluate to the optimum
        degenerate += 1
        f_lp = float(np.abs(c - w_lp @ X).sum())
        f_bp = float(np.abs(c - w_bp @ X).sum())
        assert f_lp == pytest.approx(f_bp, abs=1e-9)
    # an even number of differing pairs yields a flat optimal segment (the
    # weighted median is an interval), so ties are expected but must stay a
    # minority for the weight comparison to carry weight
    assert degenerate <= 40


def test_objective_never_worse_than_best_vertex():
    rng = np.random.default_rng(22)
    for _ in range(20):
        n = int(rng.integers(3, 6))
        C = random_preference_matrix(n, rng)
        orders = [random_order(n, rng) for _ in range(3)]
        _, obj = _fit_simplex_l1(*_problem(orders, C.upper))
        best_vertex = min(float(np.abs(C.upper - o.prec).sum()) for o in orders)
        assert obj <= best_vertex + 1e-9


def test_zero_objective_iff_in_hull():
    rng = np.random.default_rng(23)
    hits = 0
    for _ in range(20):
        orders = [random_order(4, rng) for _ in range(3)]
        X = np.stack([o.prec for o in orders]).astype(float)
        w_true = rng.dirichlet(np.ones(3))
        c_inside = w_true @ X
        _, obj = _fit_simplex_l1(X, c_inside)
        assert obj <= 1e-9
        C = random_preference_matrix(4, rng)
        _, obj2 = _fit_simplex_l1(X, C.upper)
        if obj2 > 1e-9:
            hits += 1
            # a positive gap over all n! vertices certifies the point is
            # genuinely outside the full polytope, hence outside conv(X)
            if l1_projection_full(C.upper, 4)[1] > MEMBERSHIP_TOL:
                assert obj2 > 1e-9
    assert hits > 0


def test_duplicate_column_does_not_change_objective():
    rng = np.random.default_rng(24)
    for _ in range(10):
        C = random_preference_matrix(4, rng)
        orders = [random_order(4, rng) for _ in range(2)]
        _, obj2 = _fit_simplex_l1(*_problem(orders, C.upper))
        _, obj3 = _fit_simplex_l1(*_problem(orders + [orders[0]], C.upper))
        assert obj3 == pytest.approx(obj2, abs=1e-9)


def test_objective_invariant_under_column_permutation():
    rng = np.random.default_rng(25)
    for _ in range(10):
        C = random_preference_matrix(5, rng)
        orders = [random_order(5, rng) for _ in range(4)]
        _, obj = _fit_simplex_l1(*_problem(orders, C.upper))
        perm = rng.permutation(4)
        _, obj_p = _fit_simplex_l1(*_problem([orders[i] for i in perm], C.upper))
        assert obj_p == pytest.approx(obj, abs=1e-9)


def test_lp_matches_independent_solver():
    rng = np.random.default_rng(33)
    for _ in range(50):
        n = int(rng.integers(3, 7))
        g = int(rng.integers(2, 6))
        orders = [random_order(n, rng) for _ in range(g)]
        C = random_preference_matrix(n, rng)
        X = np.stack([o.prec for o in orders]).astype(float)
        _, obj = _fit_simplex_l1(X, C.upper)
        assert obj == pytest.approx(l1_fit_by_highs(X, C.upper), abs=1e-9)


def test_weights_are_simplex():
    rng = np.random.default_rng(26)
    for _ in range(20):
        C = random_preference_matrix(5, rng)
        orders = [random_order(5, rng) for _ in range(4)]
        w, _ = _fit_simplex_l1(*_problem(orders, C.upper))
        assert w.min() >= 0.0
        assert w.sum() == pytest.approx(1.0, abs=1e-9)
