import json
import math

import numpy as np
import pytest

import mlop.geometry
from mlop import LinearOrder, PreferenceMatrix, SizeGuardExceeded, num_pairs, opt_curve
from mlop.cli import main
from mlop.exact import enumerate_vertices
from mlop.geometry import (
    MEMBERSHIP_TOL,
    PROJECTION_GUARD_N,
    caratheodory_saturation,
    cycle_residuals,
    l1_projection_full,
    violates_cycle,
)
from mlop.lop import benefit_for_pairs, lop_exact

from _oracles import l1_fit_by_highs, random_order

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
    assert violates_cycle(residuals[0][1])
    inside = cycle_residuals([0.7, 0.8, 0.4], 3)[0][1]
    assert inside == pytest.approx(0.3, abs=1e-12)
    assert not violates_cycle(inside)


def test_membership_fixtures():
    assert l1_projection_full([0.7, 0.8, 0.4], 3)[1] <= MEMBERSHIP_TOL
    assert l1_projection_full([0.3, 0.9, 0.2], 3)[1] > MEMBERSHIP_TOL
    rng = np.random.default_rng(1)
    a, b = random_order(4, rng), random_order(4, rng)
    mid = (a.prec.astype(float) + b.prec.astype(float)) / 2
    assert l1_projection_full(mid, 4)[1] <= MEMBERSHIP_TOL


def test_membership_implies_residuals_in_range():
    rng = np.random.default_rng(2)
    for _ in range(20):
        w = rng.dirichlet(np.ones(3))
        orders = [random_order(4, rng) for _ in range(3)]
        point = w @ np.stack([o.prec for o in orders]).astype(float)
        assert l1_projection_full(point, 4)[1] <= MEMBERSHIP_TOL
        for _, res in cycle_residuals(point, 4):
            assert -1e-9 <= res <= 1 + 1e-9


def test_n3_residuals_characterize_membership():
    # at n=3 the box plus the single 3-cycle constraint is exact
    rng = np.random.default_rng(3)
    for _ in range(30):
        point = rng.random(3)
        expected = not violates_cycle(cycle_residuals(point, 3)[0][1], tol=1e-12)
        assert (l1_projection_full(point, 3)[1] <= MEMBERSHIP_TOL) == expected


def test_projection_fixtures():
    _, dist = l1_projection_full([0.7, 0.8, 0.4], 3)
    assert dist == pytest.approx(0.0, abs=1e-9)
    point, dist = l1_projection_full([0.3, 0.9, 0.2], 3)
    assert dist == pytest.approx(0.4, abs=1e-9)
    assert not violates_cycle(cycle_residuals(point, 3)[0][1], tol=1e-9)
    v = LinearOrder((1, 0, 2)).prec.astype(float)
    point, dist = l1_projection_full(v, 3)
    assert dist == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(point, v, atol=1e-9)


@pytest.mark.xfail(strict=True, raises=ArithmeticError,
                   reason="the edge walk cycles on tiny weights at a degenerate vertex")
@pytest.mark.parametrize("n, point, distance", [
    (6, [0, .5, 1, 1, 0, .5, .5, 0, 0, .25, 1, 0, 1e-12, 1, 1], 3.0),
    (7, [-1, 1, 0, 0, 1, 0, -1, 0, 0, 1, 1, 1, .25, 0, 0, 1, 0, 1, 0, 0, 1e-12], 7.0),
])
def test_projection_of_a_projected_boundary_point(n, point, distance):
    # the second projection of each point hits the walk's step cap today;
    # a walk that terminates passes this, and strict makes that a failure
    # until the mark is removed
    projected, first = l1_projection_full(point, n)
    assert first == pytest.approx(distance, abs=1e-9)
    _, second = l1_projection_full(projected, n)
    assert second == pytest.approx(0.0, abs=1e-9)


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
    calls = []
    real = mlop.geometry._fit_simplex_l1

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(mlop.geometry, "_fit_simplex_l1", counting)
    assert caratheodory_saturation([0.3, 0.9, 0.2], 3) == 3
    assert len(calls) == 1


@pytest.fixture
def solved(monkeypatch):
    """The g of every exact solve the saturation search runs, in order."""
    gs = []
    real = mlop.geometry.solve_exact

    def recording(C, cfg):
        gs.append(cfg.g)
        return real(C, cfg)

    monkeypatch.setattr(mlop.geometry, "solve_exact", recording)
    return gs


def test_saturation_stops_below_the_projection_support(solved):
    # the projection of the README point has three support vertices, so
    # g = 3 is returned without a solve
    assert caratheodory_saturation([0.3, 0.9, 0.2], 3) == 3
    assert solved == [1, 2]
    solved.clear()
    assert caratheodory_saturation(LinearOrder((2, 0, 3, 1)).prec.astype(float), 4) == 1
    assert solved == []


def test_saturation_skips_the_solve_at_the_support(solved):
    # five support vertices prove g_star = 5 once g = 4 falls short, without
    # the solve at g = 5, the dearest one admitted at n = 4
    point = [0.131, 0.081, 0.906, 0.269, 0.306, 0.833]
    assert caratheodory_saturation(point, 4) == 5
    assert solved == [1, 2, 3, 4]


def test_saturation_refuses_an_interior_n4_point_before_solving(solved):
    # a mixture of all 24 vertices lies inside the n = 4 polytope, and its
    # projection weights 7 of them, so the search could need g = 6
    V = enumerate_vertices(4).vertices
    point = np.random.default_rng(0).dirichlet(np.ones(24)) @ V
    with pytest.raises(SizeGuardExceeded, match="weights 7 vertices, so g_star may need g=6"):
        caratheodory_saturation(point, 4)
    assert solved == []


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
        if not violates_cycle(cycle_residuals(c, 3)[0][1], tol=1e-6):
            continue
        checked += 1
        _, dist = l1_projection_full(c, 3)
        curve = dict(opt_curve(PreferenceMatrix(3, c), 3))
        assert curve[3] == pytest.approx(dist, abs=1e-9)


def test_guards():
    n = PROJECTION_GUARD_N + 1
    with pytest.raises(SizeGuardExceeded, match=f"projection is guarded to n <= {n - 1}"):
        l1_projection_full(np.full(num_pairs(n), 0.5), n)
    assert main(["verify", "--point", ",".join(["0.5"] * num_pairs(n)), "--no-saturation"]) == 0
    with pytest.raises(SizeGuardExceeded):
        caratheodory_saturation(np.full(10, 0.5), 5)


def test_projection_and_verify_build_no_vertex_table(tmp_path, capsys):
    enumerate_vertices.cache_clear()
    point = np.random.default_rng(7).random(21)
    l1_projection_full(point, 7)
    path = tmp_path / "n7.instance.json"
    path.write_text(json.dumps({"n": 7, "c_upper": point.tolist()}))
    assert main(["verify", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["projection_distance"] is not None
    assert enumerate_vertices.cache_info().misses == 0


def test_pricing_never_reappends_a_master_vertex(monkeypatch):
    real = mlop.geometry._fit_simplex_l1
    entered = []

    def watching(X, c, price):
        entered.append(tuple(np.asarray(X[0], dtype=int)))

        def watched(y, floor):
            a = price(y, floor)
            if a is not None:
                key = tuple(np.asarray(a, dtype=int))
                assert key not in entered
                entered.append(key)
            return a

        return real(X, c, watched)

    monkeypatch.setattr(mlop.geometry, "_fit_simplex_l1", watching)
    rng = np.random.default_rng(8)
    for n in (4, 6, 7):
        entered.clear()
        l1_projection_full(rng.random(num_pairs(n)), n)
        assert len(entered) > 1


def test_pricing_stops_when_the_best_vertex_is_in_the_master(monkeypatch):
    # a pricer that keeps finding the starting vertex, here with an
    # unbounded claimed value, ends the search instead of looping
    real = mlop.geometry.lop_exact
    start = []

    def stale(B):
        if not start:
            start.append(real(B)[0])
        return start[0], math.inf, True

    monkeypatch.setattr(mlop.geometry, "lop_exact", stale)
    point = np.random.default_rng(9).random(6)
    projected, dist = l1_projection_full(point, 4)
    assert np.array_equal(projected, start[0].prec)
    assert dist == np.abs(point - start[0].prec).sum()


@pytest.mark.parametrize("n", range(8, PROJECTION_GUARD_N + 1))
def test_projection_guard_holds_at_every_admitted_n(monkeypatch, capsys, n):
    # PROJECTION_GUARD_N is the largest n up to which this passes at every n:
    # interior points report inside, with no numerical failure, and the
    # distance of exterior points matches HiGHS over the vertices the master
    # generated, with no vertex pricing positive on the final duals
    calls = []
    real = mlop.geometry._fit_simplex_l1

    def recording(X, c, price):
        def recorded(y, floor):
            calls.append((y.copy(), floor, price(y, floor)))
            return calls[-1][2]

        return real(X, c, recorded)

    monkeypatch.setattr(mlop.geometry, "_fit_simplex_l1", recording)
    rng = np.random.default_rng(n)
    for _ in range(20):
        X = np.stack([random_order(n, rng).prec for _ in range(3)]).astype(float)
        point = rng.dirichlet(np.ones(3)) @ X
        argv = ["verify", "--point", ",".join(map(repr, point.tolist())), "--no-saturation"]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["inside"] is True
    for _ in range(5):
        point = rng.random(num_pairs(n))
        calls.clear()
        w, V, dist = mlop.geometry._project(point, n)
        assert abs(dist - l1_fit_by_highs(V, point)) <= 1e-9
        y, floor, _ = calls[-1]
        _, value, proven = lop_exact(benefit_for_pairs(n, y, np.zeros(num_pairs(n))))
        assert proven and value <= floor + 1e-9
