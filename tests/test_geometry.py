import math

import numpy as np
import pytest

from mlop import LinearOrder, PreferenceMatrix, SizeGuardExceeded, opt_curve
from mlop.geometry import (
    caratheodory_saturation,
    cycle_residuals,
    cycle_violations,
    enumerate_vertices,
    l1_projection_full,
    polytope_membership,
)

from _oracles import random_order

# the six n=3 orders and their incidence vectors (x12, x13, x23)
N3_TABLE = {
    (0, 1, 2): (1, 1, 1),
    (0, 2, 1): (1, 1, 0),
    (1, 0, 2): (0, 1, 1),
    (1, 2, 0): (0, 0, 1),
    (2, 0, 1): (1, 0, 0),
    (2, 1, 0): (0, 0, 0),
}


def test_vertices_n3_match_reference_table():
    V = enumerate_vertices(3)
    assert len(V.orders) == 6
    got = {o.perm: tuple(int(v) for v in vec) for o, vec in zip(V.orders, V.vertices)}
    assert got == N3_TABLE


def test_vertices_n2():
    V = enumerate_vertices(2)
    assert sorted(tuple(int(x) for x in v) for v in V.vertices) == [(0,), (1,)]


def test_vertices_n4_complete_and_transitive():
    V = enumerate_vertices(4)
    assert V.vertices.shape == (24, 6)
    assert len({v.tobytes() for v in V.vertices}) == 24
    for vec in V.vertices:
        for _, res in cycle_residuals(vec.astype(float), 4):
            assert res in (0.0, 1.0)


def test_vertices_guard():
    with pytest.raises(SizeGuardExceeded):
        enumerate_vertices(8)  # one limit, VERTEX_GUARD_N = 7, for g = 2 and projection


def test_cycle_residuals_fixtures():
    residuals = cycle_residuals([0.3, 0.9, 0.2], 3)
    assert len(residuals) == 1
    assert residuals[0][0] == (0, 1, 2)
    assert residuals[0][1] == pytest.approx(-0.4, abs=1e-12)
    assert cycle_residuals([0.7, 0.8, 0.4], 3)[0][1] == pytest.approx(0.3, abs=1e-12)
    assert cycle_violations([0.3, 0.9, 0.2], 3)
    assert not cycle_violations([0.7, 0.8, 0.4], 3)


def test_membership_fixtures():
    assert polytope_membership([0.7, 0.8, 0.4], 3) is True
    assert polytope_membership([0.3, 0.9, 0.2], 3) is False
    rng = np.random.default_rng(1)
    a, b = random_order(4, rng), random_order(4, rng)
    mid = (a.prec.astype(float) + b.prec.astype(float)) / 2
    assert polytope_membership(mid, 4) is True


def test_membership_implies_residuals_in_range():
    rng = np.random.default_rng(2)
    for _ in range(20):
        w = rng.dirichlet(np.ones(3))
        orders = [random_order(4, rng) for _ in range(3)]
        point = w @ np.stack([o.prec for o in orders]).astype(float)
        assert polytope_membership(point, 4)
        for _, res in cycle_residuals(point, 4):
            assert -1e-9 <= res <= 1 + 1e-9


def test_n3_residuals_characterize_membership():
    # at n=3 the box plus the single 3-cycle constraint is exact
    rng = np.random.default_rng(3)
    for _ in range(30):
        point = rng.random(3)
        expected = not cycle_violations(point, 3, tol=1e-12)
        assert polytope_membership(point, 3) == expected


def test_projection_fixtures():
    _, dist = l1_projection_full([0.7, 0.8, 0.4], 3)
    assert dist == pytest.approx(0.0, abs=1e-9)
    point, dist = l1_projection_full([0.3, 0.9, 0.2], 3)
    assert dist == pytest.approx(0.4, abs=1e-9)
    assert not cycle_violations(point, 3, tol=1e-9)
    v = LinearOrder((1, 0, 2)).prec.astype(float)
    point, dist = l1_projection_full(v, 3)
    assert dist == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(point, v, atol=1e-9)


def test_projection_lower_bounds_opt_curve():
    rng = np.random.default_rng(4)
    for _ in range(5):
        c = rng.random(3)
        _, dist = l1_projection_full(c, 3)
        curve = opt_curve(PreferenceMatrix(3, c), 4)
        for g, obj in curve:
            assert dist <= obj + 1e-9
        assert curve[-1][1] == pytest.approx(dist, abs=1e-9)  # g = C(3,2)+1


def test_saturation_fixtures():
    assert caratheodory_saturation([0.3, 0.9, 0.2], 3) == 3
    assert caratheodory_saturation([0.7, 0.8, 0.4], 3) == 4
    v = LinearOrder((2, 0, 1)).prec.astype(float)
    assert caratheodory_saturation(v, 3) == 1


def test_saturation_solves_projection_lp_once(monkeypatch):
    import mlop.geometry

    calls = []
    real = mlop.geometry._fit_simplex_l1

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(mlop.geometry, "_fit_simplex_l1", counting)
    assert caratheodory_saturation([0.3, 0.9, 0.2], 3) == 3
    assert len(calls) == 1


def test_saturation_two_vertex_mixture_n4():
    a = LinearOrder((0, 1, 2, 3)).prec.astype(float)
    b = LinearOrder((3, 2, 1, 0)).prec.astype(float)
    point = 0.6 * a + 0.4 * b
    assert caratheodory_saturation(point, 4) == 2


def test_saturation_bound_outside_polytope():
    g_star = caratheodory_saturation([0.3, 0.9, 0.2], 3)
    assert g_star <= math.comb(3, 2)  # projection sits on a proper face


def test_outside_points_saturate_at_npairs_n3():
    # with a violated 3-cycle facet, OPT_g reaches the full projection no
    # later than g = C(n,2) = 3
    rng = np.random.default_rng(5)
    checked = 0
    while checked < 5:
        c = rng.random(3)
        if not cycle_violations(c, 3, tol=1e-6):
            continue
        checked += 1
        _, dist = l1_projection_full(c, 3)
        curve = dict(opt_curve(PreferenceMatrix(3, c), 3))
        assert curve[3] == pytest.approx(dist, abs=1e-9)


def test_guards():
    with pytest.raises(SizeGuardExceeded):
        l1_projection_full(np.full(28, 0.5), 8)
    with pytest.raises(SizeGuardExceeded):
        caratheodory_saturation(np.full(10, 0.5), 5)
