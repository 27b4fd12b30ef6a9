"""Property tests: each shared kernel against an independent oracle, and
the heuristic CLI commands against their own invariants."""

import io
import json
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

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
from mlop.cli import main
from mlop.geometry import cycle_residuals
from mlop.instances import (
    _full_counts,
    _pair_counts,
    _ranking_array,
    _sample_ball,
    sample_within_ball,
)
from mlop.lop import (
    _BLOCK_TOL,
    _blocks,
    _bounded_dp,
    _dp_solve,
    _insertion_value,
    _subset_dp,
    _tolerance,
    order_value,
)

from _oracles import (
    cycle_residuals_triple_loop,
    exact_scan_reference,
    heuristic_shaped_benefits,
    is_insertion_local_optimal,
    lop_lex_smallest_optimum,
    prec_double_loop,
    sample_within_ball_reference,
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
    (many tied orders), heuristic-shaped, or a quarter-grid planted chain of
    blocks whose pairs across blocks favour chain order by one margin: 0,
    just below or just above the block tolerance (entries stay within
    [-1, 1], so the tolerance is _BLOCK_TOL itself), or a quarter."""
    family = draw(st.sampled_from(["normal", "quarter", "shaped", "chain"]))
    n = draw(st.integers(max(min_n, 2 if family == "shaped" else 1), max_n))
    if family in ("normal", "shaped"):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        b = rng.normal(size=(n, n)) if family == "normal" else heuristic_shaped_benefits(n, rng)
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
