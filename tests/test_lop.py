import tracemalloc

import numpy as np
import pytest

from mlop import (
    BenefitMatrix,
    HeuristicConfig,
    LinearOrder,
    PreferenceMatrix,
    lop_exact,
    num_pairs,
    solve_heuristic,
)
from mlop import lop
from mlop.lop import (
    _BLOCK_TOL,
    _DP_ONE_PART_MAX_N,
    LOP_DP_MAX_N,
    _dp_solve,
    _dp_tables,
    _insertion_value,
    _subset_dp,
    _tolerance,
    order_value,
)

from _oracles import (
    heuristic_shaped_benefits,
    is_insertion_local_optimal,
    lop_enumeration_max,
    lop_lex_smallest_optimum,
    lop_subset_dp_max,
    random_order,
    random_preference_matrix,
    tournament_benefits,
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
    # one block above the dense DP's limit, so the budget binds
    n = LOP_DP_MAX_N + 1
    rng = np.random.default_rng(3)
    b = rng.random((n, n))
    np.fill_diagonal(b, 0.0)
    order, value, proven = lop_exact(BenefitMatrix(b), budget=1)
    assert not proven
    assert value <= order_value(_subset_dp(b), b)
    assert value == order_value(order.perm, b)


def _cold_solve(B, **kwargs):
    """lop_exact with its DP memo emptied first, so the DP itself runs."""
    _dp_solve.cache_clear()
    return lop_exact(B, **kwargs)


def test_exact_deterministic():
    rng = np.random.default_rng(9)
    b = rng.normal(size=(7, 7))
    res1, res2 = (_cold_solve(BenefitMatrix(b), budget=500) for _ in range(2))
    assert res1[0].perm == res2[0].perm and res1[1] == res2[1] and res1[2] == res2[2]


def test_dp_memo_hit_matches_cold_solve():
    b = heuristic_shaped_benefits(12, np.random.default_rng(41))
    _cold_solve(BenefitMatrix(b))
    order, value, proven = lop_exact(BenefitMatrix(b.copy()))
    info = _dp_solve.cache_info()
    assert (info.hits, info.misses) == (1, 1)
    perm = _subset_dp(b.copy())
    assert order.perm == perm
    assert value == order_value(perm, b)
    assert proven


def test_dp_memo_misses_on_one_ulp():
    b = heuristic_shaped_benefits(12, np.random.default_rng(42))
    _cold_solve(BenefitMatrix(b))
    nudged = b.copy()
    nudged[0, 1] = np.nextafter(nudged[0, 1], np.inf)
    lop_exact(BenefitMatrix(nudged))
    info = _dp_solve.cache_info()
    assert (info.hits, info.misses) == (0, 2)


def test_dp_memo_keys_on_budget_above_dense_limit():
    n = LOP_DP_MAX_N + 1
    B = BenefitMatrix(np.random.default_rng(43).random((n, n)))
    first = _cold_solve(B, budget=3)
    assert lop_exact(B, budget=3) is first
    assert (_dp_solve.cache_info().hits, _dp_solve.cache_info().misses) == (1, 1)
    lop_exact(B, budget=4)
    assert (_dp_solve.cache_info().hits, _dp_solve.cache_info().misses) == (1, 2)


def test_heuristic_dp_memo_hits_repeat_exactly():
    # recorded: a fixed n = 12, g = 3 solve, whose inner LOPs are too large
    # to be stacked and so go through the memo, meets 66 of its 294 inner
    # subproblems again, and a rerun from an empty memo meets the same ones
    C = random_preference_matrix(12, np.random.default_rng(10))
    for _ in range(2):
        _dp_solve.cache_clear()
        solve_heuristic(C, 3, HeuristicConfig(base_seed=3))
        info = _dp_solve.cache_info()
        assert (info.hits, info.misses) == (66, 228)


def test_preference_optimum_at_least_half():
    rng = np.random.default_rng(31)
    for _ in range(10):
        C = random_preference_matrix(6, rng)
        _, value, _ = lop_exact(BenefitMatrix.from_preferences(C))
        assert value >= num_pairs(6) / 2 - 1e-9


def insertion_search(B):
    """The insertion search's order and value, and the tolerance it stops at."""
    eps = _tolerance(B.b)
    perm, value = _insertion_value(B.b, eps)
    return LinearOrder(perm), value, eps


def test_heuristic_running_example():
    _, value, _ = insertion_search(BenefitMatrix.from_preferences(EX1))
    assert value == pytest.approx(5.0, abs=1e-12)


def test_heuristic_consistent_matrix():
    n = 8
    b = np.zeros((n, n))
    for r in range(n):
        for s in range(r + 1, n):
            b[r, s] = 1.0
    order, value, _ = insertion_search(BenefitMatrix(b))
    assert order.perm == tuple(range(n))
    assert value == num_pairs(n)


def test_heuristic_close_to_budgeted_exact_on_n12():
    rng = np.random.default_rng(12)
    C = random_preference_matrix(12, rng)
    B = BenefitMatrix.from_preferences(C)
    h_order, h_value, eps = insertion_search(B)
    _, e_value, proven = lop_exact(B)
    assert proven
    assert h_value <= e_value + 1e-9
    assert h_value >= 0.95 * e_value
    assert is_insertion_local_optimal(h_order, B, tol=eps)


def test_heuristic_insertion_local_optimality():
    rng = np.random.default_rng(13)
    for _ in range(10):
        b = rng.normal(size=(7, 7))
        np.fill_diagonal(b, 0.0)
        order, value, eps = insertion_search(BenefitMatrix(b))
        assert is_insertion_local_optimal(order, BenefitMatrix(b), tol=eps)
        assert order_value(order.perm, b) == value


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
def test_dp_agrees_with_subset_dp_oracle(n):
    rng = np.random.default_rng(200 + n)
    for b in dp_test_matrices(n, rng):
        _, value, proven = lop_exact(BenefitMatrix(b))
        assert proven
        assert value == pytest.approx(lop_subset_dp_max(b), abs=1e-9)


def test_dp_tables_built_once_per_n_and_small():
    _dp_tables.cache_clear()
    rng = np.random.default_rng(5)
    for _ in range(3):
        _subset_dp(rng.normal(size=(12, 12)))
    assert _dp_tables.cache_info().misses == 1
    # README: the cached tables stay under 256 KiB at the DP limit
    tables = _dp_tables(LOP_DP_MAX_N)
    assert sum(a.nbytes for half in tables for layer in half for a in layer) < 256 * 1024


def _dp_sizes(monkeypatch) -> list[int]:
    """Empties the DP memo and returns the list that then records the item
    count of every matrix handed to the subset DP."""
    sizes = []
    dp = lop._subset_dp

    def recording(b):
        sizes.append(b.shape[0])
        return dp(b)

    monkeypatch.setattr(lop, "_subset_dp", recording)
    _dp_solve.cache_clear()
    return sizes


def planted_chain(rng, sizes=(4, 4, 4, 4)):
    """(benefits, blocks): items shuffled into blocks of the given sizes, each
    block a directed cycle (b = 1 along it, 0 against it, 1/2 both ways on
    its other pairs), every earlier block's items preferred to later ones'
    (1 versus 0)."""
    n = sum(sizes)
    labels = [int(v) for v in rng.permutation(n)]
    blocks, b, end = [], np.zeros((n, n)), 0
    for size in sizes:
        block, end = labels[end : end + size], end + size
        blocks.append(block)
        b[np.ix_(block, block)] = 0.5
        for r, s in zip(block, block[1:] + block[:1]):
            b[r, s], b[s, r] = 1.0, 0.0
        for s in labels[end:]:
            b[block, s], b[s, block] = 1.0, 0.0
    np.fill_diagonal(b, 0.0)
    return b, blocks


def test_planted_chain_runs_one_dp_per_block(monkeypatch):
    sizes = _dp_sizes(monkeypatch)
    b, blocks = planted_chain(np.random.default_rng(50))
    order, value, proven = lop_exact(BenefitMatrix(b))
    assert sizes == [4, 4, 4, 4]
    assert [set(order.perm[k : k + 4]) for k in range(0, 16, 4)] == [set(x) for x in blocks]
    assert order.perm == _subset_dp(b) and value == order_value(order.perm, b) and proven


def test_consistent_signs_need_no_dp(monkeypatch):
    sizes = _dp_sizes(monkeypatch)
    rng = np.random.default_rng(51)
    perm = tuple(int(v) for v in rng.permutation(12))
    b = rng.normal(size=(12, 12))
    for i, r in enumerate(perm):
        for s in perm[i + 1 :]:
            b[r, s] = b[s, r] + rng.random() + 1e-3
    order, _, _ = lop_exact(BenefitMatrix(b))
    assert sizes == [] and order.perm == perm


@pytest.mark.parametrize("gap", (0.0, _BLOCK_TOL / 2))
def test_near_tied_cross_pair_merges_its_blocks(monkeypatch, gap):
    sizes = _dp_sizes(monkeypatch)
    b, blocks = planted_chain(np.random.default_rng(52))
    r, s = blocks[1][0], blocks[2][0]
    b[r, s], b[s, r] = 0.5, 0.5 - gap
    order, value, _ = lop_exact(BenefitMatrix(b))
    assert sizes == [4, 8, 4]
    assert order.perm == _subset_dp(b) and value == order_value(order.perm, b)


def test_cross_pair_above_block_tolerance_keeps_its_blocks(monkeypatch):
    sizes = _dp_sizes(monkeypatch)
    b, blocks = planted_chain(np.random.default_rng(53))
    r, s = blocks[1][0], blocks[2][0]
    b[r, s], b[s, r] = 0.5, 0.5 - 2 * _BLOCK_TOL
    order, _, _ = lop_exact(BenefitMatrix(b))
    assert sizes == [4, 4, 4, 4]
    assert order.perm == _subset_dp(b)


def test_heuristic_shaped_block_needs_no_dense_dp(monkeypatch):
    sizes = _dp_sizes(monkeypatch)
    b = heuristic_shaped_benefits(16, np.random.default_rng(61))
    assert [len(block) for block in lop._blocks(b)] == [16]
    order, value, proven = lop_exact(BenefitMatrix(b))
    assert sizes == []
    assert order.perm == _subset_dp(b) and value == order_value(order.perm, b) and proven


def test_few_candidate_layers_step_in_python(monkeypatch):
    # kept subsets per layer: 1, 15, 53, 92, 105, 92, 67, 45, 32, 21, 13, 6,
    # 5, 3, 1, 1, 1.  Times the free items, the first layer (16 candidates)
    # and those from 11 items on (30 or fewer) are at most
    # _BOUNDED_PY_LAYER_MAX; layer 10 has 13 x 6 = 78
    stepped, python_layer = [], lop._python_layer

    def spy(masks, *args):
        stepped.append(masks[0].bit_count())
        return python_layer(masks, *args)

    monkeypatch.setattr(lop, "_python_layer", spy)
    b = heuristic_shaped_benefits(16, np.random.default_rng(61))
    assert lop._BOUNDED_PY_LAYER_MAX == 64
    assert lop._bounded_dp(b) == _subset_dp(b)
    assert stepped == [0, 11, 12, 13, 14, 15]


def test_tournament_block_needs_no_dense_dp(monkeypatch):
    # the bound prunes little on a +-w tournament, a light group's reduced
    # LOP: at 14 items a cap of 2^14 / 16 candidates per layer sent seeds
    # 0-9 all to the whole table, and under the 2^14 floor only seed 6 goes
    sizes = _dp_sizes(monkeypatch)
    b = tournament_benefits(14, np.random.default_rng(0), 0.01)
    assert [len(block) for block in lop._blocks(b)] == [14]
    order, value, proven = lop_exact(BenefitMatrix(b))
    assert sizes == []
    assert order.perm == _subset_dp(b) and value == order_value(order.perm, b) and proven


def test_uniform_normal_block_falls_back_to_dense_dp_once(monkeypatch):
    sizes = _dp_sizes(monkeypatch)
    b = np.random.default_rng(60).normal(size=(16, 16))
    np.fill_diagonal(b, 0.0)
    assert [len(block) for block in lop._blocks(b)] == [16]
    order, value, proven = lop_exact(BenefitMatrix(b))
    assert sizes == [16]
    assert order.perm == _subset_dp(b) and value == order_value(order.perm, b) and proven


@pytest.mark.parametrize("n", (_DP_ONE_PART_MAX_N, _DP_ONE_PART_MAX_N + 1))
def test_bounded_dp_runs_only_above_one_part_size(monkeypatch, n):
    sizes, bounded = [], lop._bounded_dp

    def recording(b, budget):
        sizes.append(b.shape[0])
        return bounded(b, budget)

    monkeypatch.setattr(lop, "_bounded_dp", recording)
    _dp_solve.cache_clear()
    b = np.random.default_rng(62).normal(size=(n, n))
    np.fill_diagonal(b, 0.0)
    assert [len(block) for block in lop._blocks(b)] == [n]
    order, _, _ = lop_exact(BenefitMatrix(b))
    assert sizes == ([] if n <= _DP_ONE_PART_MAX_N else [n])
    assert order.perm == _subset_dp(b)


def test_dense_fallback_costs_little_more_memory_than_dense_dp(monkeypatch):
    b = np.random.default_rng(60).normal(size=(LOP_DP_MAX_N, LOP_DP_MAX_N))
    np.fill_diagonal(b, 0.0)
    assert [len(block) for block in lop._blocks(b)] == [LOP_DP_MAX_N]
    _subset_dp(b)  # builds the cached index tables outside both peaks
    tracemalloc.start()
    try:
        _subset_dp(b)
        dense = tracemalloc.get_traced_memory()[1]
        sizes = _dp_sizes(monkeypatch)
        tracemalloc.reset_peak()
        order, _, proven = lop_exact(BenefitMatrix(b))
        fallback = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sizes == [LOP_DP_MAX_N] and proven and order.perm == _subset_dp(b)
    assert fallback <= 1.1 * dense


def test_large_block_keeps_insertion_order_in_little_memory():
    n = 100
    b = np.random.default_rng(64).random((n, n))
    np.fill_diagonal(b, 0.0)
    assert [len(block) for block in lop._blocks(b)] == [n]
    _dp_solve.cache_clear()
    tracemalloc.start()
    try:
        order, value, proven = lop_exact(BenefitMatrix(b))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not proven
    assert order.perm == _insertion_value(b, _tolerance(b))[0]
    assert value == order_value(order.perm, b)
    assert peak < 16 * 2**20
