import math

import numpy as np
import pytest

from mlop import (
    ExactConfig,
    HeuristicConfig,
    InvalidInput,
    LinearOrder,
    PreferenceMatrix,
    l1_objective,
    num_pairs,
    random_simplex_weights,
    solve_exact,
    solve_heuristic,
    step_rankings,
    step_weights,
)

import mlop.lop as lop
from mlop.lop import LOP_DP_MAX_N

from _oracles import (
    grid_min_objective,
    random_order,
    random_preference_matrix,
    sequential_heuristic_reference,
)

EX1 = PreferenceMatrix(4, [0.9, 0.9, 0.9, 0.5, 0.9, 0.9])


def test_random_simplex_weights_basics():
    rng = np.random.default_rng(1)
    assert random_simplex_weights(1, rng).tolist() == [1.0]
    w = random_simplex_weights(5, rng)
    assert w.min() >= 0 and w.sum() == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(InvalidInput):
        random_simplex_weights(0, rng)


def test_random_simplex_weights_deterministic_replay():
    a = random_simplex_weights(3, np.random.default_rng(99))
    b = random_simplex_weights(3, np.random.default_rng(99))
    assert np.array_equal(a, b)


def test_random_simplex_weights_uniform_mean():
    rng = np.random.default_rng(2)
    total = 0.0
    for _ in range(100_000):
        total += random_simplex_weights(2, rng)[0]
    assert total / 100_000 == pytest.approx(0.5, abs=0.01)


def test_step_rankings_single_group_is_classical_lop():
    incumbent = [LinearOrder((3, 0, 1, 2))]
    orders, obj, unproven = step_rankings(EX1, [1.0], incumbent)
    assert obj == pytest.approx(1.0, abs=1e-9)
    assert orders[0].perm == (0, 1, 2, 3)
    assert unproven == 0


def test_step_rankings_reaches_zero_from_known_decomposition():
    orders = [LinearOrder((0, 1, 2, 3)), LinearOrder((0, 2, 1, 3)), LinearOrder((3, 2, 1, 0))]
    new_orders, obj, _ = step_rankings(EX1, [0.5, 0.4, 0.1], orders)
    assert obj == pytest.approx(0.0, abs=1e-12)


def test_step_rankings_never_worsens():
    rng = np.random.default_rng(3)
    for seed in range(100):
        C = random_preference_matrix(5, rng)
        w = rng.dirichlet(np.ones(2))
        incumbent = [random_order(5, rng) for _ in range(2)]
        X = np.stack([o.prec for o in incumbent]).astype(float)
        before = float(np.abs(C.upper - w @ X).sum())
        _, after, _ = step_rankings(C, w, incumbent)
        assert after <= before + 1e-12


def test_step_rankings_keeps_zero_weight_groups():
    keep = LinearOrder((2, 1, 0, 3))
    orders, _, _ = step_rankings(EX1, [1.0, 0.0], [LinearOrder((0, 1, 2, 3)), keep])
    assert orders[1] is keep


def test_step_weights_fixtures():
    orders = [LinearOrder((0, 1, 2, 3)), LinearOrder((0, 2, 1, 3)), LinearOrder((3, 2, 1, 0))]
    w, obj = step_weights(EX1, orders)
    assert np.allclose(w, [0.5, 0.4, 0.1], atol=1e-9)
    assert obj == pytest.approx(0.0, abs=1e-9)
    w1, obj1 = step_weights(EX1, [LinearOrder((0, 1, 2, 3))])
    assert w1.tolist() == [1.0]


def test_step_weights_matches_grid_oracle():
    rng = np.random.default_rng(4)
    for _ in range(10):
        C = random_preference_matrix(4, rng)
        orders = [random_order(4, rng) for _ in range(2)]
        _, obj = step_weights(C, orders)
        grid = grid_min_objective(np.stack([o.prec for o in orders]), C.upper)
        assert abs(obj - grid) <= 0.002


def test_solve_running_example():
    sol, obj, _ = solve_heuristic(EX1, 3)
    assert obj == pytest.approx(0.0, abs=1e-9)
    sol, obj, _ = solve_heuristic(EX1, 1)
    assert obj == pytest.approx(1.0, abs=1e-9)
    assert sol.orders[0].perm == (0, 1, 2, 3)


def test_solution_consistent_with_reported_objective():
    rng = np.random.default_rng(5)
    for seed in range(5):
        C = random_preference_matrix(5, rng)
        sol, obj, _ = solve_heuristic(C, 2, HeuristicConfig(base_seed=seed, n_starts=3))
        assert l1_objective(sol, C) == pytest.approx(obj, abs=1e-9)
        assert all(sol.weights[i] >= sol.weights[i + 1] - 1e-12 for i in range(sol.g - 1))


def test_never_beats_exact_and_usually_matches():
    rng = np.random.default_rng(6)
    matches = 0
    for seed in range(15):
        C = random_preference_matrix(4, rng)
        _, opt, _ = solve_exact(C, ExactConfig(g=2))
        _, obj, _ = solve_heuristic(C, 2, HeuristicConfig(base_seed=seed))
        assert obj >= opt - 1e-9
        if obj <= opt + 1e-6:
            matches += 1
    assert matches >= 13  # calibration: near-always optimal at this size


def test_deterministic_bit_for_bit():
    C = random_preference_matrix(5, np.random.default_rng(77))
    cfg = HeuristicConfig(base_seed=123, n_starts=4)
    sol1, obj1, tr1 = solve_heuristic(C, 2, cfg)
    sol2, obj2, tr2 = solve_heuristic(C, 2, cfg)
    assert obj1 == obj2
    assert sol1 == sol2
    assert tr1.starts == tr2.starts


def test_trace_monotone_within_starts():
    C = random_preference_matrix(5, np.random.default_rng(88))
    _, _, trace = solve_heuristic(C, 3, HeuristicConfig(base_seed=0, n_starts=5))
    assert trace.total_iterations == sum(len(rows) for rows in trace.starts)
    for rows in trace.starts:
        assert len(rows) <= 12
        seq = []
        for it, after1, after2 in rows:
            seq.extend([after1, after2])
        for a, b in zip(seq, seq[1:]):
            assert b <= a + 1e-12
        assert seq[-1] >= 0.0


def test_global_best_is_min_over_starts():
    C = random_preference_matrix(5, np.random.default_rng(99))
    _, obj, trace = solve_heuristic(C, 2, HeuristicConfig(base_seed=1, n_starts=6))
    finals = [rows[-1][2] for rows in trace.starts]
    assert obj == pytest.approx(min(finals), abs=1e-12)


def test_no_start_refits_the_orders_it_just_fitted(monkeypatch):
    # with one start per solve, consecutive weight fits within a solve are
    # consecutive fits within a start
    import mlop.heuristic as heuristic

    fits = []

    def counting_step_weights(C, orders):
        fits.append(tuple(o.perm for o in orders))
        return step_weights(C, orders)

    monkeypatch.setattr(heuristic, "step_weights", counting_step_weights)
    C = random_preference_matrix(8, np.random.default_rng(8))
    iterations = fitted = 0
    for seed in range(6):
        fits.clear()
        _, _, trace = solve_heuristic(C, 3, HeuristicConfig(base_seed=seed, n_starts=1))
        assert all(a != b for a, b in zip(fits, fits[1:]))
        iterations += trace.total_iterations
        fitted += len(fits)
    assert fitted < iterations  # the last iteration of a start keeps its orders


# (n, g, n_starts): every n from 4 to 13, each g and every start count
# from 1 to 10; up to n = 11 the starts' inner LOPs are stacked
LOCKSTEP_CASES = [(4, 1, 10), (5, 2, 1), (6, 3, 2), (7, 1, 3), (8, 2, 4), (9, 3, 5),
                  (10, 3, 10), (11, 2, 6), (12, 3, 7), (13, 1, 8), (10, 1, 9), (11, 3, 9)]


@pytest.mark.parametrize("n, g, n_starts", LOCKSTEP_CASES)
def test_lockstep_matches_sequential_starts(n, g, n_starts):
    C = random_preference_matrix(n, np.random.default_rng(n * 100 + g))
    cfg = HeuristicConfig(n_starts=n_starts, base_seed=n + g)
    sol, obj, trace = solve_heuristic(C, g, cfg)
    ref_sol, ref_obj, ref_rows, ref_unproven = sequential_heuristic_reference(C, g, cfg)
    assert sol == ref_sol and sol.weights == ref_sol.weights
    assert obj == ref_obj
    assert trace.starts == ref_rows
    assert trace.inner_unproven == ref_unproven


def test_stack_split_into_chunks_changes_nothing(monkeypatch):
    # a ceiling of three 10-item gain tables cuts each stack of up to ten
    # starts' inner LOPs into several chunks
    C = random_preference_matrix(10, np.random.default_rng(12))
    cfg = HeuristicConfig(n_starts=10, base_seed=4)
    whole = solve_heuristic(C, 3, cfg)
    chunks = []
    table = lop._subset_table

    def recording(b):
        chunks.append(len(b))
        return table(b)

    monkeypatch.setattr(lop, "_STACK_VALUES", 3 * (1 << 10) * 10)
    monkeypatch.setattr(lop, "_subset_table", recording)
    split = solve_heuristic(C, 3, cfg)
    assert max(chunks) == 3 and chunks.count(3) > 1
    assert split[0] == whole[0] and split[1] == whole[1]
    assert split[2].starts == whole[2].starts


def test_inner_solves_proven_up_to_dp_limit():
    C = random_preference_matrix(16, np.random.default_rng(16))
    _, _, trace = solve_heuristic(C, 2, HeuristicConfig())
    assert trace.inner_unproven == 0


def test_inner_unproven_counts_budget_stops():
    C = random_preference_matrix(LOP_DP_MAX_N + 1, np.random.default_rng(21))
    cfg = HeuristicConfig(n_starts=1, it_max=1, step1_budget=1)
    _, _, trace = solve_heuristic(C, 1, cfg)
    assert trace.inner_unproven > 0


def test_config_validation():
    with pytest.raises(InvalidInput):
        HeuristicConfig(n_starts=0)
    with pytest.raises(InvalidInput):
        HeuristicConfig(it_max=0)
    with pytest.raises(InvalidInput):
        HeuristicConfig(epsilon=0.0)
    with pytest.raises(InvalidInput):
        HeuristicConfig(step1_budget=0)
