"""Property tests: each shared kernel against an independent oracle, and
the heuristic CLI commands against their own invariants."""

import io
import json
import tempfile
from contextlib import redirect_stdout
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mlop import (
    BenefitMatrix,
    ExactConfig,
    LinearOrder,
    MixtureSolution,
    PreferenceMatrix,
    aggregate,
    canonicalize,
    lop_exact,
    num_pairs,
    solve_exact,
)
import mlop.geometry
from mlop.cli import main
from mlop.core import pair_index
from mlop.exact import (
    _SCREEN_SLACK,
    _class_bound,
    _first_order_bound,
    _breakpoint_g2,
    _pair_terms,
    enumerate_vertices,
)
from mlop.geometry import (
    MEMBERSHIP_TOL,
    caratheodory_saturation,
    cycle_residuals,
    l1_projection_full,
)
from mlop.instances import (
    _full_counts,
    _pair_counts,
    _ranking_array,
    _sample_ball,
    sample_within_ball,
)
from mlop import lop
from mlop.lop import (
    DEFAULT_LAYER_BUDGET,
    LOP_DP_MAX_N,
    _BLOCK_TOL,
    _blocks,
    _bounded_dp,
    _dp_solve,
    _insertion_value,
    _lop_exact_batch,
    _subset_dp,
    _tolerance,
    order_value,
)
from mlop.simplex_fit import _fit_simplex_l1, _fit_simplex_stack

from _oracles import (
    cycle_residuals_triple_loop,
    exact_scan_reference,
    heuristic_shaped_benefits,
    is_insertion_local_optimal,
    l1_fit_by_highs,
    lop_lex_smallest_optimum,
    prec_double_loop,
    projection_by_enumeration,
    sample_within_ball_reference,
    saturation_by_full_loop,
    tournament_benefits,
)

SETTINGS = settings(max_examples=60, deadline=None)
EXACT_SETTINGS = settings(max_examples=25, deadline=None)
CLI_SETTINGS = settings(max_examples=20, deadline=None)


@st.composite
def orders(draw, n):
    return LinearOrder(tuple(draw(st.permutations(range(n)))))


def sized(n, elements):
    """(n, list of C(n,2) draws from elements): one value per item pair."""
    return st.tuples(st.just(n), st.lists(elements, min_size=num_pairs(n), max_size=num_pairs(n)))


@SETTINGS
@given(st.integers(2, 7).flatmap(lambda n: sized(n, st.floats(0.0, 1.0))))
def test_cycle_residuals_match_triple_loop(case):
    n, x = case
    x = np.array(x)
    assert cycle_residuals(x, n) == cycle_residuals_triple_loop(x, n)


@SETTINGS
@given(st.integers(1, 8).flatmap(
    lambda n: st.lists(st.floats(-5.0, 5.0, allow_nan=False), min_size=n * n, max_size=n * n)
))
def test_lop_heuristic_is_insertion_local_optimal(values):
    n = int(round(len(values) ** 0.5))
    B = BenefitMatrix(np.array(values).reshape(n, n))
    eps = _tolerance(B.b)
    perm, _ = _insertion_value(B.b, eps)
    assert is_insertion_local_optimal(LinearOrder(perm), B, tol=eps)


@SETTINGS
@given(st.integers(1, 6).flatmap(
    # thousandths, or quarter-grid values on which many orders tie; sums of
    # distinct orders differ by 0 or by far more than the 1e-12 tie tolerance
    lambda n: st.lists(st.integers(-1000, 1000).map(lambda k: k / 1000), min_size=n * n,
                       max_size=n * n)
    | st.lists(st.integers(-4, 4).map(lambda k: k / 4), min_size=n * n, max_size=n * n)
))
def test_lop_exact_is_lex_smallest_optimum(values):
    n = int(round(len(values) ** 0.5))
    b = np.array(values).reshape(n, n)
    np.fill_diagonal(b, 0.0)
    order, value, proven = lop_exact(BenefitMatrix(b))
    perm, best = lop_lex_smallest_optimum(b)
    assert proven and order.perm == perm
    assert value == pytest.approx(best, abs=1e-12)


@st.composite
def benefit_matrices(draw, min_n=1, max_n=10):
    """Zero-diagonal benefits of min_n to max_n items: normal, quarter-grid
    (many tied orders), heuristic-shaped, a light group's +-w tournament
    with a few unsaturated pairs, or a quarter-grid planted chain of
    blocks whose pairs across blocks favour chain order by one margin: 0,
    just below or just above the block tolerance (entries stay within
    [-1, 1], so the tolerance is _BLOCK_TOL itself), or a quarter."""
    family = draw(st.sampled_from(["normal", "quarter", "shaped", "tournament", "chain"]))
    n = draw(st.integers(max(min_n, 2 if family == "shaped" else 1), max_n))
    if family in ("normal", "shaped", "tournament"):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        if family == "normal":
            b = rng.normal(size=(n, n))
        elif family == "shaped":
            b = heuristic_shaped_benefits(n, rng)
        else:
            b = tournament_benefits(n, rng, draw(st.sampled_from([1e-3, 0.01, 0.02])),
                                    loose=draw(st.integers(0, 3)))
    else:
        top = 4 if family == "quarter" else 2
        b = np.array(draw(st.lists(st.integers(-4, top), min_size=n * n, max_size=n * n)),
                     dtype=np.float64).reshape(n, n) / 4
    if family == "chain":
        labels = draw(st.permutations(range(n)))
        cuts = sorted(draw(st.sets(st.integers(1, n - 1)))) if n > 1 else []
        margin = draw(st.sampled_from([0.0, 0.999 * _BLOCK_TOL, 1.001 * _BLOCK_TOL, 0.25]))
        block = np.searchsorted(cuts, np.arange(n), side="right")
        for i, r in enumerate(labels):
            for j in range(i + 1, n):
                if block[j] > block[i]:
                    b[r, labels[j]] = b[labels[j], r] + margin
    np.fill_diagonal(b, 0.0)
    return b


@SETTINGS
@given(benefit_matrices())
def test_lop_exact_matches_whole_matrix_dp(b):
    _dp_solve.cache_clear()
    order, value, proven = lop_exact(BenefitMatrix(b))
    perm = _subset_dp(b)
    assert proven and order.perm == perm
    assert value == order_value(perm, b)
    if b.shape[0] <= 8:
        assert perm == lop_lex_smallest_optimum(b)[0]


@st.composite
def benefit_stacks(draw):
    """1 to 8 benefit matrices of one size, 1 to 11 items: each one from
    benefit_matrices, or with integer entries in [-3, 3] (exact ties) or
    those times 1e-13 (every difference inside the DP's tie tolerance)."""
    n = draw(st.integers(1, 11))
    stack = []
    for _ in range(draw(st.integers(1, 8))):
        scale = draw(st.sampled_from([None, 1.0, 1e-13] if n > 1 else [1.0, 1e-13]))
        if scale is None:
            stack.append(draw(benefit_matrices(min_n=n, max_n=n)))
            continue
        entries = draw(st.lists(st.integers(-3, 3), min_size=n * n, max_size=n * n))
        b = np.array(entries, dtype=np.float64).reshape(n, n) * scale
        np.fill_diagonal(b, 0.0)
        stack.append(b)
    return stack


@SETTINGS
@given(benefit_stacks())
def test_stacked_lop_matches_lop_exact(stack):
    matrices = [BenefitMatrix(b) for b in stack]
    _dp_solve.cache_clear()
    answers = _lop_exact_batch(matrices)
    assert len(answers) == len(matrices)
    assert _dp_solve.cache_info().misses == 0  # one stacked DP, not lop_exact
    for B, (order, proven) in zip(matrices, answers):
        _dp_solve.cache_clear()
        want_order, _, want_proven = lop_exact(B)
        assert order.perm == want_order.perm and proven == want_proven


@SETTINGS
@given(benefit_matrices(min_n=12, max_n=16))
def test_bounded_dp_matches_whole_matrix_dp(b):
    # blocks above 11 items take the bounded DP; run it on the whole matrix
    # too, whatever its blocks, so that every family reaches it
    _dp_solve.cache_clear()
    order, value, proven = lop_exact(BenefitMatrix(b))
    perm = _subset_dp(b)
    assert proven and order.perm == perm
    assert value == order_value(perm, b)
    assert _bounded_dp(b) == perm


def stepped_solve(b, py_layer_max):
    """lop_exact's answer on b and _bounded_dp's order on the whole of b,
    every bounded layer of at most py_layer_max candidates stepped in plain
    Python and the larger ones in numpy, with the subsets each bounded
    layer kept, per _bounded_values run (None for a run that gave up)."""
    kept, bounded_values = [], lop._bounded_values

    def spy(*args):
        layers = bounded_values(*args)
        kept.append(None if layers is None else
                    [len(layer) if type(layer) is dict else len(layer[0]) for layer in layers])
        return layers

    with mock.patch.object(lop, "_BOUNDED_PY_LAYER_MAX", py_layer_max), \
            mock.patch.object(lop, "_bounded_values", spy):
        _dp_solve.cache_clear()
        order, value, proven = lop_exact(BenefitMatrix(b))
        answer = (order.perm, value, proven, _bounded_dp(b))
    _dp_solve.cache_clear()
    return answer, kept


@settings(max_examples=30, deadline=None)
@given(benefit_matrices(min_n=12, max_n=16))
@example(tournament_benefits(14, np.random.default_rng(6), 0.01))  # falls back
@example(heuristic_shaped_benefits(24, np.random.default_rng(23)))
def test_layer_steppers_agree(b):
    # 0 sends every layer but the empty first one to numpy; no layer passes
    # the cap, at most DEFAULT_LAYER_BUDGET, so that value sends all to Python
    in_numpy, in_python = stepped_solve(b, 0), stepped_solve(b, DEFAULT_LAYER_BUDGET)
    assert in_numpy == in_python
    (perm, value, proven, bounded), _ = in_python
    assert value == order_value(perm, b)
    if b.shape[0] <= LOP_DP_MAX_N:
        assert proven and perm == bounded == _subset_dp(b)


@settings(max_examples=6, deadline=None)
@given(benefit_matrices(min_n=21, max_n=22))
def test_lop_exact_past_dense_limit_matches_whole_matrix_dp(b):
    _dp_solve.cache_clear()
    order, value, proven = lop_exact(BenefitMatrix(b))
    assert value == order_value(order.perm, b)
    if proven:
        assert order.perm == _subset_dp(b)
    else:
        # only a block of more than 20 items gives up, so at n <= 22 the
        # others are single items, and each block keeps its insertion order
        perm = []
        for block in _blocks(b):
            sub = b[np.ix_(block, block)]
            perm += [block[i] for i in _insertion_value(sub, _tolerance(sub))[0]]
        assert order.perm == tuple(perm)


@SETTINGS
@given(st.integers(2, 6).flatmap(lambda n: st.lists(orders(n), min_size=1, max_size=30)))
def test_aggregate_and_count_matrix_agree(rankings):
    n = rankings[0].n
    A = _full_counts(*_pair_counts(_ranking_array(rankings)))
    rows, cols = np.triu_indices(n, k=1)
    assert np.allclose(aggregate(rankings).upper * len(rankings), A[rows, cols], atol=1e-9)
    assert np.all(A[rows, cols] + A[cols, rows] == len(rankings))


@SETTINGS
@given(st.integers(2, 6).flatmap(lambda n: st.lists(orders(n), min_size=1, max_size=30)))
def test_count_matrix_matches_double_loop(rankings):
    n = rankings[0].n
    rows, cols = np.triu_indices(n, k=1)
    expected = np.sum([prec_double_loop(o.perm) for o in rankings], axis=0)
    A = _full_counts(*_pair_counts(_ranking_array(rankings)))
    assert np.array_equal(A[rows, cols], expected)


@SETTINGS
@given(
    st.integers(2, 9).flatmap(lambda n: st.tuples(
        st.permutations(range(n)), st.integers(0, num_pairs(n)))),
    st.integers(1, 300),
    st.integers(0, 2**32 - 1),
)
@example(([1, 0], 1), 50, 0)  # half the draws land at distance 0
def test_ball_sampler_matches_reference_draw_for_draw(case, count, seed):
    perm, D = case
    center = LinearOrder(tuple(perm))
    ref_rng, rng, single_rng = (np.random.default_rng(seed) for _ in range(3))
    expected = [sample_within_ball_reference(center, D, ref_rng).perm for _ in range(count)]

    out = np.empty((count, center.n), dtype=np.uint8)
    _sample_ball(np.array(perm, dtype=np.uint8), D, out, rng)
    assert [tuple(row) for row in out.tolist()] == expected
    assert rng.bit_generator.state == ref_rng.bit_generator.state

    single = [sample_within_ball(center, D, single_rng).perm for _ in range(count)]
    assert single == expected
    assert single_rng.bit_generator.state == ref_rng.bit_generator.state


@SETTINGS
@given(st.integers(2, 5).flatmap(lambda n: st.lists(orders(n), min_size=1, max_size=4)).flatmap(
    lambda os: st.tuples(
        st.just(os), st.lists(st.integers(0, 4), min_size=len(os), max_size=len(os))
    )
))
def test_canonicalize_is_idempotent(case):
    orders_, raw = case
    total = sum(raw)
    weights = [v / total for v in raw] if total else [1.0 / len(raw)] * len(raw)
    once = canonicalize(MixtureSolution(tuple(orders_), tuple(weights)))
    twice = canonicalize(once)
    assert [o.perm for o in twice.orders] == [o.perm for o in once.orders]
    assert twice.weights == once.weights


@EXACT_SETTINGS
@given(
    st.sampled_from([(3, 2), (3, 3), (4, 2), (4, 3), (5, 2)]).flatmap(
        lambda ng: st.tuples(
            st.just(ng[1]),
            # free floats, or quarter-grid values on which many multisets tie
            sized(ng[0], st.floats(0.0, 1.0))
            | sized(ng[0], st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])),
        )
    )
)
def test_solve_exact_matches_reference_scan(case):
    g, (n, upper) = case
    C = PreferenceMatrix(n, np.array(upper))
    assert solve_exact(C, ExactConfig(g=g)) == exact_scan_reference(C, g)


@st.composite
def screen_cases(draw):
    """(n, first, rest, upper) at n = 3..5: a first order of the vertex table,
    1-6 multisets of g - 1 = 1..4 later orders as offsets from it, and free
    or quarter-grid data, in half the cases with a 3-cycle on one triple of
    items, which puts the point outside the polytope."""
    n, g = draw(st.integers(3, 5)), draw(st.integers(2, 5))
    rows = len(enumerate_vertices(n)[1])
    first = draw(st.integers(0, rows - 1))
    rest = draw(st.lists(st.lists(st.integers(0, rows - 1 - first), min_size=g - 1,
                                  max_size=g - 1).map(sorted), min_size=1, max_size=6))
    _, upper = draw(sized(n, st.floats(0.0, 1.0))
                    | sized(n, st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])))
    if draw(st.booleans()):
        r, s, t = sorted(draw(st.permutations(range(n)))[:3])
        lead = float(draw(st.booleans()))
        upper[pair_index(n, r, s)] = upper[pair_index(n, s, t)] = lead
        upper[pair_index(n, r, t)] = 1.0 - lead
    return n, first, np.array(rest), upper


@SETTINGS
@given(screen_cases())
# (0, 2, 3, 1) and its reverse (1, 3, 2, 0), which agree on no pair
@example((4, 3, np.array([[8, 8], [8, 9], [8, 20]]), [0.9, 0.2, 0.6, 0.3, 0.75, 0.1]))
def test_breakpoint_screen_never_passes_the_fitted_objective(case):
    # the class bound of each drawn multiset, and at g = 2 the first-order
    # bound, least over its candidate weights, of every pair that starts
    # with the first order
    n, first, rest, upper = case
    (_, X), c = enumerate_vertices(n), np.array(upper)
    combos = np.column_stack([np.full(len(rest), first), first + rest])
    if rest.shape[1] == 1:
        residual, dist = _pair_terms(X[first : first + 1], c)
        lower = _first_order_bound(residual, dist)
        pairs = [_breakpoint_g2(X[[first, j]], c)[1] for j in range(first, X.shape[0])]
        assert lower.shape == (1, num_pairs(n) + 2)
        assert lower.min() <= min(pairs) + _SCREEN_SLACK
    else:
        bound = _class_bound(X, c)(combos)
        _, objs = _fit_simplex_stack(X, combos, c)
        assert bound.shape == (len(rest),)
        assert (bound <= objs + _SCREEN_SLACK).all()


@st.composite
def lp_stacks(draw):
    """(V, idx, c): 1-12 weight fits of g = 2..5 rows of the vertex table V
    at n = 3..5 sharing c.  Rows come from a small pool, so problems often
    repeat a row, and c is free, quarter-grid or itself a vertex."""
    n, g = draw(st.integers(3, 5)), draw(st.integers(2, 5))
    _, V = enumerate_vertices(n)
    pool = draw(st.lists(st.integers(0, len(V) - 1), min_size=1, max_size=g + 1, unique=True))
    problems = draw(st.lists(st.lists(st.sampled_from(pool), min_size=g, max_size=g),
                             min_size=1, max_size=12))
    _, upper = draw(sized(n, st.floats(0.0, 1.0))
                    | sized(n, st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])))
    c = np.array(upper)
    if draw(st.booleans()):
        c = V[draw(st.integers(0, len(V) - 1))].copy()
    return V, np.array(problems), c


@SETTINGS
@given(lp_stacks())
def test_stacked_lp_matches_the_single_problem_loop(case):
    # each problem gets the bits a stack of one gives it, and the optimum
    # the single-problem edge walk reaches; a repeated row keeps weight 0
    V, idx, c = case
    w, objs = _fit_simplex_stack(V, idx, c)
    repeated = (idx[:, :, None] == idx[:, None, :]).argmax(axis=2) != np.arange(idx.shape[1])
    assert not w[repeated].any()
    for p in range(idx.shape[0]):
        w_p, obj_p = _fit_simplex_stack(V, idx[p : p + 1], c)
        assert np.array_equal(w[p], w_p[0])
        assert objs[p] == obj_p[0]
        assert abs(objs[p] - _fit_simplex_l1(V[idx[p]], c)[1]) <= 1e-9


@st.composite
def weight_fits(draw):
    """(X, c): g = 1..8 precedence rows at n = 3..8, drawn from a pool of at
    most g orders, so rows often repeat; c is free, quarter-grid (exact
    zero residuals), a mixture of the rows, or one of them."""
    n, g = draw(st.integers(3, 8)), draw(st.integers(1, 8))
    pool = draw(st.lists(orders(n), min_size=1, max_size=g))
    X = np.stack([draw(st.sampled_from(pool)).prec for _ in range(g)]).astype(np.float64)
    kind = draw(st.sampled_from(["free", "quarter", "mixture", "vertex"]))
    if kind == "mixture":
        raw = np.array(draw(st.lists(st.integers(0, 4), min_size=g, max_size=g)), dtype=np.float64)
        raw[draw(st.integers(0, g - 1))] += 1.0
        return X, (raw / raw.sum()) @ X
    if kind == "vertex":
        return X, X[draw(st.integers(0, g - 1))].copy()
    values = st.floats(0.0, 1.0) if kind == "free" else st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])
    return X, np.array(draw(sized(n, values))[1])


@SETTINGS
@given(weight_fits())
def test_weight_fit_matches_highs(case):
    X, c = case
    w, obj = _fit_simplex_l1(X, c)
    assert abs(obj - l1_fit_by_highs(X, c)) <= 1e-9
    assert w.min() >= 0.0 and abs(w.sum() - 1.0) <= 1e-12
    assert obj == np.abs(c - w @ X).sum()
    for i in range(1, len(X)):
        if (X[:i] == X[i]).all(axis=1).any():
            assert w[i] == 0.0  # a repeated row: its weight is on the first
    w2, obj2 = _fit_simplex_l1(X, c)
    assert np.array_equal(w, w2) and obj == obj2


@st.composite
def polytope_points(draw):
    """(n, point) at n = 2..7: a mixture of random orders (inside the
    polytope), a point of the unit box, a point with at least one entry
    outside the box, or a point of grid values, with exact zeros and ties
    and one value near the simplex's zero tolerance."""
    n = draw(st.integers(2, 7))
    kind = draw(st.sampled_from(["mixture", "box", "outside", "grid"]))
    if kind == "mixture":
        orders_ = draw(st.lists(orders(n), min_size=1, max_size=4))
        raw = np.array(draw(st.lists(st.integers(1, 10), min_size=len(orders_),
                                     max_size=len(orders_))), dtype=np.float64)
        return n, (raw / raw.sum()) @ np.stack([o.prec for o in orders_]).astype(np.float64)
    if kind == "grid":
        return n, np.array(draw(sized(n, st.sampled_from([0.0, 1e-12, 0.125, 0.25, 0.5, 1.0])))[1])
    point = np.array(draw(sized(n, st.floats(0.0, 1.0) if kind == "box"
                                else st.floats(-1.0, 2.0)))[1])
    if kind == "outside":
        point[draw(st.integers(0, num_pairs(n) - 1))] = draw(
            st.floats(-1.0, -1e-3) | st.floats(1.0 + 1e-3, 2.0))
    return n, point


@settings(max_examples=60, deadline=None)
@given(polytope_points())
# 1e-9 outside the polytope: the distance is MEMBERSHIP_TOL itself
@example((3, np.array([1.0, 0.0, 1e-9])))
@example((4, np.array([0.0, 0.0, 1e-9, 0.242968712, 0.0, 0.0])))
# degenerate boundary points with an entry at the simplex's zero tolerance
@example((6, np.array([0, .5, 1, 1, 0, .5, .5, 0, 0, .25, 1, 0, 1e-12, 1, 1])))
@example((7, np.array([-1, 1, 0, 0, 1, 0, -1, 0, 0, 1, 1, 1, .25, 0, 0, 1, 0, 1, 0, 0, 1e-12])))
@example((6, np.array([0, 0, 0, 0, 0, 0, 1, 1, .125, .125, 0, 0, 0, 0, 1e-12])))
def test_projection_matches_vertex_enumeration(case):
    n, point = case
    weights, V, dist = mlop.geometry._project(point, n)
    projected = weights @ V
    expected = projection_by_enumeration(point, n)
    assert abs(dist - expected) <= 1e-9
    # two LPs that agree to float noise may still put a distance within that
    # noise of the threshold on different sides of it
    if abs(expected - MEMBERSHIP_TOL) > 1e-12:
        assert (dist <= MEMBERSHIP_TOL) == (expected <= MEMBERSHIP_TOL)
    assert abs(np.abs(point - projected).sum() - dist) <= 1e-9
    assert l1_projection_full(projected, n)[1] <= MEMBERSHIP_TOL
    assert weights.min() >= 0.0 and abs(weights.sum() - 1.0) <= 1e-12


@EXACT_SETTINGS
@given(st.integers(2, 3).flatmap(lambda n: sized(n, st.floats(0.0, 1.0))))
@example((3, [0.3, 0.9, 0.2]))
@example((3, [0.7, 0.8, 0.4]))
def test_saturation_matches_the_caratheodory_loop(case):
    n, point = case
    point = np.array(point)
    assert caratheodory_saturation(point, n) == saturation_by_full_loop(point, n)


def _run(argv):
    """(exit code, stdout) of one in-process `mlop` command."""
    with redirect_stdout(io.StringIO()) as out:
        code = main(argv)
    return code, out.getvalue()


def _heuristic_args(tmp, case, n_starts, seed):
    n, upper = case
    path = Path(tmp) / "c.instance.json"
    path.write_text(json.dumps({"n": n, "c_upper": upper}))
    return str(path), ["--method", "heuristic", "--n-starts", str(n_starts), "--seed", str(seed)]


@CLI_SETTINGS
@given(
    st.integers(3, 6).flatmap(lambda n: sized(n, st.floats(0.0, 1.0))),
    st.integers(1, 3), st.integers(1, 2), st.integers(0, 2**16),
)
def test_heuristic_solve_report_validates(case, g, n_starts, seed):
    with tempfile.TemporaryDirectory() as tmp:
        instance, solver = _heuristic_args(tmp, case, n_starts, seed)
        report = str(Path(tmp) / "report.json")
        assert _run(["solve", instance, "--g", str(g), "--out", report] + solver)[0] == 0
        code, out = _run(["validate", report, "--instance", instance])
    assert code == 0 and json.loads(out)["valid"] is True, out


@CLI_SETTINGS
@given(
    st.integers(3, 6).flatmap(lambda n: sized(n, st.floats(0.0, 1.0))),
    st.integers(1, 2), st.integers(0, 2**16),
)
def test_heuristic_sweep_never_increases(case, n_starts, seed):
    with tempfile.TemporaryDirectory() as tmp:
        instance, solver = _heuristic_args(tmp, case, n_starts, seed)
        code, out = _run(["sweep", instance, "--g-max", "3", "--format", "json"] + solver)
    assert code == 0
    objs = [row["objective"] for row in json.loads(out)["rows"]]
    assert all(b <= a for a, b in zip(objs, objs[1:])), objs
