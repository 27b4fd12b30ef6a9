"""Acceptance suite: every criterion at its pinned tolerance, one PASS/FAIL
line per criterion (visible under ``pytest -s`` or in captured output on
failure).  Criterion 10 needs the external sushi ranking file and is skipped
unless MLOP_SUSHI_RANKINGS points at it; everything else runs hermetically.
"""

import json
import os
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np
import pytest

from mlop import (
    BenefitMatrix,
    ExactConfig,
    GeneratorSpec,
    HeuristicConfig,
    LinearOrder,
    PreferenceMatrix,
    WeightFitProblem,
    fit,
    fit_from_objective,
    fit_weights,
    generate_instance,
    kendall_distance,
    lop_exact,
    opt_curve,
    sample_within_ball,
    solve_exact,
    solve_heuristic,
)
from mlop.cli import cumulative_drop, main, relative_drop
from mlop.geometry import caratheodory_saturation, cycle_residuals
from mlop.lop import _dp_solve

from _oracles import grid_min_objective, random_order, random_preference_matrix

EX1 = PreferenceMatrix(4, [0.9, 0.9, 0.9, 0.5, 0.9, 0.9])


@contextmanager
def criterion(num: int, name: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:>2} [{name}]: FAIL")
        raise
    print(f"ACCEPTANCE {num:>2} [{name}]: PASS")


def test_criterion_01_classical_lop_fixture():
    with criterion(1, "classical LOP fixture"):
        B = BenefitMatrix.from_preferences(EX1)
        lop_exact(B)  # warm the caches before timing
        # empty the DP memo inside each timed call, so the bound times the DP
        # and not a lookup of the answer the warm-up left behind
        best = min(
            _timed(lambda: (_dp_solve.cache_clear(), lop_exact(B)))[1] for _ in range(5)
        )
        order, value, proven = lop_exact(B)
        assert order.perm == (0, 1, 2, 3)
        assert value == pytest.approx(5.0, abs=1e-12)
        assert proven
        assert best < 1e-3, f"runtime {best*1e3:.3f} ms exceeds 1 ms"


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def test_criterion_02_mixture_fixture():
    with criterion(2, "mixture fixture"):
        t0 = time.perf_counter()
        sol3, obj3, proven3 = solve_exact(EX1, ExactConfig(g=3))
        sol1, obj1, proven1 = solve_exact(EX1, ExactConfig(g=1))
        elapsed = time.perf_counter() - t0
        assert obj3 == pytest.approx(0.0, abs=1e-9) and proven3
        assert fit(sol3, EX1) == pytest.approx(1.0, abs=1e-9)
        assert obj1 == pytest.approx(1.0, abs=1e-9) and proven1
        assert elapsed < 10.0, f"runtime {elapsed:.2f} s exceeds 10 s"


def test_criterion_03_geometry_fixtures():
    with criterion(3, "n=3 geometry fixtures"):
        curve = opt_curve(PreferenceMatrix(3, [0.7, 0.8, 0.4]), 4)
        for (_, obj), expect in zip(curve, (0.9, 0.2, 0.1, 0.0)):
            assert obj == pytest.approx(expect, abs=1e-9)
        curve = opt_curve(PreferenceMatrix(3, [0.3, 0.9, 0.2]), 3)
        for (_, obj), expect in zip(curve, (1.0, 0.6, 0.4)):
            assert obj == pytest.approx(expect, abs=1e-9)
        assert caratheodory_saturation([0.3, 0.9, 0.2], 3) == 3
        residual = cycle_residuals([0.3, 0.9, 0.2], 3)[0][1]
        assert residual == pytest.approx(-0.4, abs=1e-12)


def test_criterion_04_monotone_opt_curves():
    with criterion(4, "OPT curve monotone on 50 random n=4"):
        rng = np.random.default_rng(2024)
        t0 = time.perf_counter()
        violations = 0
        for _ in range(50):
            C = random_preference_matrix(4, rng)
            objs = [obj for _, obj in opt_curve(C, 3)]
            violations += sum(1 for a, b in zip(objs, objs[1:]) if b > a + 1e-9)
        elapsed = time.perf_counter() - t0
        assert violations == 0
        assert elapsed < 300.0, f"runtime {elapsed:.1f} s exceeds 5 min"


def test_criterion_05_heuristic_oracle_equivalence():
    with criterion(5, "heuristic vs exact oracle (50 seeds)"):
        rng = np.random.default_rng(777)
        t0 = time.perf_counter()
        matches = 0
        for seed in range(50):
            C = random_preference_matrix(4, rng)
            _, opt, _ = solve_exact(C, ExactConfig(g=2))
            _, obj, _ = solve_heuristic(C, 2, HeuristicConfig(base_seed=seed))
            assert obj >= opt - 1e-9, f"seed {seed}: heuristic {obj} beat OPT {opt}"
            if obj <= opt + 1e-6:
                matches += 1
        elapsed = time.perf_counter() - t0
        rate = matches / 50
        print(f"    heuristic matched OPT_2 in {matches}/50 instances ({rate:.0%})")
        assert rate >= 0.90, f"match rate {rate:.0%} below the 90% calibration target"
        assert elapsed < 120.0, f"runtime {elapsed:.1f} s exceeds 2 min"


def test_criterion_06_weight_lp_correctness():
    with criterion(6, "weight LP vs grid oracle (200 problems)"):
        rng = np.random.default_rng(606)
        plan = [1] * 30 + [2] * 85 + [3] * 65 + [4] * 20
        for g in plan:
            n = int(rng.integers(3, 7))
            C = random_preference_matrix(n, rng)
            orders = [random_order(n, rng) for _ in range(g)]
            X = np.stack([o.prec for o in orders]).astype(float)
            _, obj = fit_weights(WeightFitProblem(X, C.upper))
            grid = grid_min_objective(X, C.upper)
            assert obj <= grid + 1e-9
            assert abs(obj - grid) <= 0.002
        prob = WeightFitProblem(
            np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]), np.array([0.7, 0.8, 0.4])
        )
        w, obj = fit_weights(prob)
        assert np.allclose(w, [0.7, 0.3], atol=1e-9)
        assert obj == pytest.approx(0.2, abs=1e-9)


def test_criterion_07_generator_statistics(tmp_path):
    with criterion(7, "ball sampler statistics + reproducibility"):
        rng = np.random.default_rng(1_000_003)
        center = LinearOrder((0, 1, 2, 3, 4))
        trials = 100_000
        freq = Counter()
        for _ in range(trials):
            s = sample_within_ball(center, 2, rng)
            d = kendall_distance(s, center)
            assert d <= 2
            freq[d] += 1
        for d, expect in enumerate((1 / 14, 4 / 14, 9 / 14)):
            assert freq[d] / trials == pytest.approx(expect, abs=0.02)

        args = ["gen", "--n", "5", "--g-true", "2", "--weights", "2:1",
                "--D", "2", "--seed", "99"]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        for suffix in (".instance.json", ".meta.json", ".rankings.txt"):
            assert (tmp_path / f"a{suffix}").read_bytes() == (
                tmp_path / f"b{suffix}"
            ).read_bytes()


def test_criterion_08_noise_free_identifiability():
    with criterion(8, "noise-free identifiability"):
        spec = GeneratorSpec(
            n=5, g_true=2, weights=(0.667, 0.333), D=0, num_rankings=1000, seed=8
        )
        sample, C = generate_instance(spec)
        sol, obj, proven = solve_exact(C, ExactConfig(g=2))
        assert proven
        assert obj == pytest.approx(0.0, abs=1e-9)
        assert sol.weights[0] == pytest.approx(0.667, abs=5e-4)
        assert sol.weights[1] == pytest.approx(0.333, abs=5e-4)
        assert {o.perm for o in sol.orders} == {o.perm for o in sample.centers}


def test_criterion_09_reference_value_arithmetic():
    with criterion(9, "fit/drop arithmetic vs reference values"):
        assert 100 * fit_from_objective(12.144, 12) == pytest.approx(81.600, abs=0.001)
        assert 100 * fit_from_objective(15.390, 10) == pytest.approx(65.800, abs=0.001)
        assert 100 * relative_drop(15.390, 4.253) == pytest.approx(72.365, abs=0.001)
        assert 100 * cumulative_drop(15.390, 1.210) == pytest.approx(92.138, abs=0.001)


SUSHI_ENV = "MLOP_SUSHI_RANKINGS"


@pytest.mark.skipif(
    SUSHI_ENV not in os.environ,
    reason=f"external sushi dataset not provided (set {SUSHI_ENV})",
)
def test_criterion_10_sushi_dataset(tmp_path, capsys):
    with criterion(10, "sushi dataset (optional external)"):
        rankings = os.environ[SUSHI_ENV]
        assert main(["ingest", rankings, "--out", str(tmp_path / "sushi")]) == 0
        instance = str(tmp_path / "sushi.instance.json")
        out = tmp_path / "g1.json"
        assert main(
            ["solve", instance, "--method", "exact", "--g", "1", "--out", str(out)]
        ) == 0
        report = json.loads(out.read_text())
        assert report["objective"] == pytest.approx(15.390, abs=0.001)
        assert 100 * report["fit"] == pytest.approx(65.800, abs=0.001)

        C = PreferenceMatrix(
            10, np.asarray(json.loads(open(instance).read())["c_upper"])
        )
        sol, obj, _ = solve_heuristic(C, 4, HeuristicConfig(n_starts=20, base_seed=0))
        assert obj <= 1.3
        # dominant group: fatty tuna (item 8 in the 1-based toolkit numbering
        # when items keep the dataset order) on top, weight near 0.407
        assert sol.weights[0] == pytest.approx(0.41, abs=0.05)
        assert sol.orders[0].perm[0] == 7  # 0-based item 7 == dataset's toro


def test_criterion_11_scale_substitution_note(tmp_path, capsys):
    with criterion(11, "scaled benchmark: the sweep's largest drop is at g_true"):
        # the full-scale objective values (n=12/24) come from externally seeded
        # instances and multi-hour runs; at desk scale a generated n=12,
        # g_true=2 instance must still show its elbow at g=2 (observed drops
        # there 0.93-0.95, every later drop <= 0.35)
        for seed in (1, 2, 3):
            prefix = str(tmp_path / f"s{seed}")
            assert main(
                ["gen", "--n", "12", "--g-true", "2", "--weights", "2:1", "-p", "1",
                 "--seed", str(seed), "--out", prefix]
            ) == 0
            capsys.readouterr()
            assert main(
                ["sweep", f"{prefix}.instance.json", "--method", "heuristic",
                 "--g-max", "4", "--seed", "0", "--format", "json"]
            ) == 0
            rows = json.loads(capsys.readouterr().out)["rows"]
            drops = {row["g"]: row["relative_drop"] for row in rows[1:]}
            assert max(drops, key=drops.get) == 2, drops
