import csv
import json
import math
import os
import re
import shlex
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from mlop import GeneratorSpec, HeuristicConfig
from mlop.cli import (
    EXIT_GUARD,
    EXIT_INFEASIBLE,
    EXIT_INVALID,
    EXIT_NUMERICAL,
    EXIT_OK,
    build_parser,
    cumulative_drop,
    load_instance,
    main,
    parse_weights,
    relative_drop,
)

EX1_UPPER = [0.9, 0.9, 0.9, 0.5, 0.9, 0.9]


@pytest.fixture
def ex1_path(tmp_path):
    path = tmp_path / "ex1.instance.json"
    path.write_text(json.dumps({"n": 4, "c_upper": EX1_UPPER}))
    return str(path)


def test_load_instance_full_matrix(tmp_path):
    full = [
        [None, 0.7, 0.8],
        [0.3, None, 0.4],
        [0.2, 0.6, None],
    ]
    path = tmp_path / "full.json"
    path.write_text(json.dumps({"n": 3, "c": full}))
    C = load_instance(str(path))
    assert np.allclose(C.upper, [0.7, 0.8, 0.4])


def test_load_instance_rejects_non_finite_lower_triangle(tmp_path, capsys):
    path = tmp_path / "holes.json"
    for hole in (None, math.nan):  # json.dumps writes NaN as a bare token
        full = [[None, 0.7, 0.8], [hole, None, 0.4], [0.2, 0.6, None]]
        path.write_text(json.dumps({"n": 3, "c": full}))
        assert main(["solve", str(path), "--method", "exact", "--g", "1"]) == EXIT_INVALID
        assert "not normalized" in capsys.readouterr().err


def test_load_instance_rejects_unnormalized(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 3, "c": [[0, 0.7, 0.8], [0.4, 0, 0.4], [0.2, 0.6, 0]]}))
    assert main(["solve", str(path), "--method", "exact", "--g", "1"]) == EXIT_INVALID


def test_parse_weights_forms():
    assert parse_weights("0.667,0.333", 2) == (0.667, 0.333)
    assert parse_weights("2:1", 2) == (0.667, 0.333)
    assert parse_weights("1:1:1", 3) == (0.334, 0.333, 0.333)
    assert parse_weights("4:2:1", 3) == (0.571, 0.286, 0.143)
    assert parse_weights("8:4:2:1", 4) == (0.533, 0.267, 0.133, 0.067)


def test_drop_arithmetic():
    assert relative_drop(15.390, 4.253) * 100 == pytest.approx(72.365, abs=0.001)
    assert cumulative_drop(15.390, 1.210) * 100 == pytest.approx(92.138, abs=0.001)
    assert relative_drop(0.0, 0.0) == 0.0


def test_solve_exact_g3_perfect(ex1_path, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(
        ["solve", ex1_path, "--method", "exact", "--g", "3", "--out", str(out)]
    ) == EXIT_OK
    report = json.loads(out.read_text())
    assert report["objective"] == pytest.approx(0.0, abs=1e-9)
    assert report["fit"] == pytest.approx(1.0, abs=1e-9)
    assert report["max_form_value"] == pytest.approx(6.0, abs=1e-9)
    assert report["proven"] is True
    assert sorted(report["weights"], reverse=True) == report["weights"]
    for perm in report["orders"]:
        assert sorted(perm) == [1, 2, 3, 4]


def test_solve_g1_max_form_equals_lop(ex1_path, capsys):
    assert main(["solve", ex1_path, "--method", "exact", "--g", "1"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["max_form_value"] == pytest.approx(5.0, abs=1e-9)
    assert report["orders"] == [[1, 2, 3, 4]]


def test_solve_heuristic_seed7_reaches_zero(ex1_path, capsys):
    assert main(
        ["solve", ex1_path, "--method", "heuristic", "--g", "3", "--seed", "7"]
    ) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["objective"] == pytest.approx(0.0, abs=1e-9)
    assert report["proven"] is False
    assert report["trace"]["n_starts"] == 10
    assert report["trace"]["inner_unproven"] == 0


def test_solve_guard_exit_code(tmp_path):
    rng = np.random.default_rng(0)
    upper = rng.random(28).tolist()
    path = tmp_path / "big.instance.json"
    path.write_text(json.dumps({"n": 8, "c_upper": upper}))
    assert main(["solve", str(path), "--method", "exact", "--g", "2"]) == EXIT_GUARD
    # n = 6, g = 3 visits 62.4M multisets
    path.write_text(json.dumps({"n": 6, "c_upper": rng.random(15).tolist()}))
    assert main(["solve", str(path), "--method", "exact", "--g", "3"]) == EXIT_GUARD


def test_exact_g1_needs_no_flag(tmp_path, capsys):
    path = tmp_path / "sushi_size.instance.json"
    path.write_text(json.dumps({"n": 10, "c_upper": np.random.default_rng(3).random(45).tolist()}))
    solve = ["solve", str(path), "--method", "exact", "--g", "1"]
    assert main(solve) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["proven"] is True
    big = tmp_path / "n21.instance.json"
    big.write_text(json.dumps({"n": 21, "c_upper": [0.5] * 210}))
    assert main(["solve", str(big), "--method", "exact", "--g", "1"]) == EXIT_GUARD
    assert "n <= 20" in capsys.readouterr().err
    for removed in ("n", "g"):  # the size knobs are gone; argparse refuses them
        with pytest.raises(SystemExit) as exc:
            main(solve + [f"--max-{removed}", "10"])
        assert exc.value.code == EXIT_INVALID


def test_sweep_exact_at_n2_is_held_to_the_n3_limit(tmp_path, monkeypatch, capsys):
    import mlop.cli

    calls = []
    monkeypatch.setattr(mlop.cli, "solve_exact", lambda *a: calls.append(a))
    path = tmp_path / "n2.instance.json"
    path.write_text(json.dumps({"n": 2, "c_upper": [0.3]}))
    assert main(["sweep", str(path), "--method", "exact", "--g-max", "100000"]) == EXIT_GUARD
    assert calls == []
    assert "held to n=3" in capsys.readouterr().err


@pytest.mark.parametrize("n", [3.7, "3", True])
def test_load_instance_rejects_non_integer_n(tmp_path, capsys, n):
    path = tmp_path / "bad_n.instance.json"
    path.write_text(json.dumps({"n": n, "c_upper": [0.7, 0.8, 0.4]}))
    assert main(["solve", str(path), "--method", "exact", "--g", "1"]) == EXIT_INVALID
    assert "field 'n'" in capsys.readouterr().err


def test_load_instance_accepts_integral_float_n(tmp_path):
    path = tmp_path / "float_n.instance.json"
    path.write_text(json.dumps({"n": 3.0, "c_upper": [0.7, 0.8, 0.4]}))
    assert load_instance(str(path)).n == 3


def test_sweep_rejects_zero_g_max(ex1_path, capsys):
    assert main(["sweep", ex1_path, "--method", "exact", "--g-max", "0"]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert "--g-max" in captured.err
    assert captured.out == ""


def test_sweep_exact_checks_g_max_before_solving(ex1_path, monkeypatch, capsys):
    import mlop.cli

    calls = []
    monkeypatch.setattr(mlop.cli, "solve_exact", lambda *a: calls.append(a))
    assert main(["sweep", ex1_path, "--method", "exact", "--g-max", "6"]) == EXIT_GUARD
    assert calls == []
    captured = capsys.readouterr()
    assert "multisets" in captured.err
    assert captured.out == ""


def test_negative_seed_is_named(ex1_path, tmp_path, capsys):
    gen = ["gen", "--n", "4", "--g-true", "1", "--D", "0", "--out", str(tmp_path / "x")]
    assert main(gen + ["--seed", "-1"]) == EXIT_INVALID
    assert "seed" in capsys.readouterr().err
    solve = ["solve", ex1_path, "--method", "heuristic", "--g", "2"]
    assert main(solve + ["--seed", "-1"]) == EXIT_INVALID
    assert "seed" in capsys.readouterr().err


@pytest.mark.parametrize("extra, named", [
    (["--weights", "nan,0.5"], "finite"),
    (["--weights", "inf:1"], "finite"),
    (["--weights", "nan:1"], "finite"),
    (["--min-separation", "-3"], "min_separation"),
])
def test_gen_rejects_bad_numbers_by_name(tmp_path, capsys, extra, named):
    prefix = tmp_path / "x"
    gen = ["gen", "--n", "4", "--g-true", "2", "--D", "1", "--out", str(prefix)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(gen + extra) == EXIT_INVALID
    assert named in capsys.readouterr().err
    assert not Path(f"{prefix}.meta.json").exists()


def test_parser_defaults_are_the_config_defaults():
    parser = build_parser()
    heuristic = HeuristicConfig()
    for command in ("solve", "sweep"):
        extra = ["--g", "1"] if command == "solve" else ["--g-max", "1"]
        args = parser.parse_args([command, "x.json", "--method", "heuristic"] + extra)
        assert (args.n_starts, args.it_max, args.epsilon, args.step1_budget, args.seed) == (
            heuristic.n_starts, heuristic.it_max, heuristic.epsilon,
            heuristic.step1_budget, heuristic.base_seed,
        )
    args = parser.parse_args(["gen", "--n", "4", "--g-true", "1", "--out", "x"])
    spec = {f.name: f.default for f in fields(GeneratorSpec)}
    assert (args.num_rankings, args.min_separation, args.seed) == (
        spec["num_rankings"], spec["min_separation"], spec["seed"]
    )


def test_readme_commands_parse():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"```bash\n(.*?)```", readme.read_text(encoding="utf-8"), flags=re.S)
    lines = [line for block in blocks for line in block.splitlines() if line.startswith("mlop ")]
    assert lines
    parser = build_parser()
    for line in lines:
        try:
            parser.parse_args(shlex.split(line, comments=True)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {line}")


def test_numerical_failure_exit_code(ex1_path, monkeypatch, capsys):
    import mlop.exact

    def failing(X, c):
        raise ArithmeticError("simplex failed to converge (iteration cap hit)")

    monkeypatch.setattr(mlop.exact, "_fit_simplex_l1", failing)
    assert main(["solve", ex1_path, "--method", "exact", "--g", "3"]) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert "numerical failure" in err
    assert "Traceback" not in err


def test_solve_missing_file():
    assert main(["solve", "nope.json", "--method", "exact", "--g", "1"]) == EXIT_INVALID


def test_gen_is_deterministic_byte_for_byte(tmp_path):
    args = [
        "gen", "--n", "6", "--g-true", "2", "--weights", "2:1",
        "-p", "5", "--seed", "11",
    ]
    assert main(args + ["--out", str(tmp_path / "a")]) == EXIT_OK
    assert main(args + ["--out", str(tmp_path / "b")]) == EXIT_OK
    for suffix in (".instance.json", ".meta.json", ".rankings.txt"):
        a = (tmp_path / f"a{suffix}").read_bytes()
        b = (tmp_path / f"b{suffix}").read_bytes()
        assert a == b


def test_gen_metadata_records_everything(tmp_path, capsys):
    assert main(
        [
            "gen", "--n", "12", "--g-true", "2", "--weights", "2:1",
            "-p", "1", "--seed", "0", "--out", str(tmp_path / "r1"),
        ]
    ) == EXIT_OK
    meta = json.loads((tmp_path / "r1.meta.json").read_text())
    assert meta["weights"] == [0.667, 0.333]
    assert meta["D"] == 1
    assert meta["p"] == 1
    assert meta["num_rankings"] == 1000
    assert len(meta["centers"]) == 2
    instance = json.loads((tmp_path / "r1.instance.json").read_text())
    assert len(instance["c_upper"]) == 66


def test_gen_single_ranking_degenerate(tmp_path):
    assert main(
        [
            "gen", "--n", "4", "--g-true", "1", "--D", "0",
            "--num-rankings", "1", "--seed", "5", "--out", str(tmp_path / "one"),
        ]
    ) == EXIT_OK
    instance = json.loads((tmp_path / "one.instance.json").read_text())
    ranking = (tmp_path / "one.rankings.txt").read_text().split()
    assert set(instance["c_upper"]) <= {0.0, 1.0}
    assert sorted(ranking) == ["1", "2", "3", "4"]


def test_gen_infeasible_separation(tmp_path):
    code = main(
        [
            "gen", "--n", "3", "--g-true", "4", "--min-separation", "3",
            "--D", "0", "--seed", "0", "--out", str(tmp_path / "x"),
        ]
    )
    assert code == EXIT_INFEASIBLE


def test_python_dash_m_runs_the_cli(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "mlop", *argv], capture_output=True,
                              text=True, env=env, timeout=120)

    proc = run("--help")
    assert proc.returncode == EXIT_OK
    assert proc.stdout.startswith("usage: mlop")
    proc = run("gen", "--n", "3", "--g-true", "4", "--min-separation", "3", "--D", "0",
               "--out", str(tmp_path / "x"))
    assert proc.returncode == EXIT_INFEASIBLE
    assert "exist for n=3" in proc.stderr


def test_ingest_roundtrip(tmp_path, capsys):
    rankings = tmp_path / "r.txt"
    rankings.write_text("# two voters\n1 2 3\n3 2 1\n")
    assert main(["ingest", str(rankings), "--out", str(tmp_path / "ing")]) == EXIT_OK
    instance = json.loads((tmp_path / "ing.instance.json").read_text())
    assert instance["c_upper"] == [0.5, 0.5, 0.5]
    counts = json.loads((tmp_path / "ing.counts.json").read_text())
    assert counts["num_rankings"] == 2
    assert counts["a"][0][1] == 1


def test_ingest_malformed_exit_code(tmp_path):
    rankings = tmp_path / "bad.txt"
    rankings.write_text("1 2 3\n1 1 3\n")
    assert main(["ingest", str(rankings), "--out", str(tmp_path / "x")]) == EXIT_INVALID


def test_sweep_exact_csv(ex1_path, tmp_path, capsys):
    assert main(
        [
            "sweep", ex1_path, "--method", "exact", "--g-max", "3",
            "--out", str(tmp_path / "sw"),
        ]
    ) == EXIT_OK
    csv_text = (tmp_path / "sw.sweep.csv").read_text()
    rows = list(csv.DictReader(csv_text.splitlines()))
    assert list(rows[0].keys()) == [
        "g", "objective", "fit", "relative_drop", "cumulative_drop", "time_s",
    ]
    objs = [float(r["objective"]) for r in rows]
    assert objs == sorted(objs, reverse=True)
    assert rows[0]["relative_drop"] == ""
    g2 = rows[1]
    expected = (objs[0] - objs[1]) / objs[0]
    assert float(g2["relative_drop"]) == pytest.approx(expected, abs=1e-12)
    payload = json.loads((tmp_path / "sw.sweep.json").read_text())
    assert [r["g"] for r in payload["rows"]] == [1, 2, 3]


def test_sweep_constant_objectives_have_zero_drops(tmp_path, capsys):
    # vertex data is reproduced exactly at every g, so all drops are zero
    from mlop import LinearOrder

    upper = LinearOrder((1, 0, 3, 2)).prec.astype(float).tolist()
    path = tmp_path / "vertex.instance.json"
    path.write_text(json.dumps({"n": 4, "c_upper": upper}))
    assert main(
        ["sweep", str(path), "--method", "exact", "--g-max", "2", "--format", "json"]
    ) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert [r["objective"] for r in payload["rows"]] == [0.0, 0.0]
    assert payload["rows"][1]["relative_drop"] == 0.0
    assert all(r["cumulative_drop"] == 0.0 for r in payload["rows"])


def test_pad_with_idle_group_preserves_objective(ex1_path):
    from mlop import LinearOrder, MixtureSolution, l1_objective
    from mlop.cli import _pad_with_idle_group

    C = load_instance(ex1_path)
    sol = MixtureSolution(
        (LinearOrder((0, 1, 2, 3)), LinearOrder((3, 2, 1, 0))), (0.9, 0.1)
    )
    padded = _pad_with_idle_group(sol)
    assert padded.g == 3
    assert l1_objective(padded, C) == pytest.approx(l1_objective(sol, C), abs=1e-12)
    assert padded.weights[-1] == 0.0


def test_sweep_heuristic_monotone(tmp_path, capsys):
    rng = np.random.default_rng(3)
    upper = rng.random(10).tolist()
    path = tmp_path / "inst.instance.json"
    path.write_text(json.dumps({"n": 5, "c_upper": upper}))
    assert main(
        ["sweep", str(path), "--method", "heuristic", "--g-max", "4", "--format", "json"]
    ) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    objs = [r["objective"] for r in payload["rows"]]
    for a, b in zip(objs, objs[1:]):
        assert b <= a + 1e-12


def test_verify_point_outside(capsys):
    assert main(["verify", "--point", "0.3,0.9,0.2"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["inside"] is False
    assert report["violations"][0]["residual"] == pytest.approx(-0.4, abs=1e-12)
    assert report["projection_distance"] == pytest.approx(0.4, abs=1e-9)
    assert report["g_star"] == 3


def test_verify_point_inside(capsys):
    assert main(["verify", "--point", "0.7,0.8,0.4"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["inside"] is True
    assert report["violations"] == []
    assert report["g_star"] == 4


def test_verify_vertex(capsys):
    assert main(["verify", "--point", "1,1,1"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["inside"] is True
    assert report["projection_distance"] == pytest.approx(0.0, abs=1e-12)
    assert report["g_star"] == 1


@pytest.mark.parametrize("point", ["inf,0.5,0.5", "nan,0.5,0.5"])
def test_verify_point_rejects_non_finite(capsys, point):
    assert main(["verify", "--point", point]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert "finite" in captured.err
    assert captured.out == ""


def test_verify_instance_skips_guarded_parts(tmp_path, capsys):
    rng = np.random.default_rng(1)
    upper = rng.random(28).tolist()
    path = tmp_path / "n8.instance.json"
    path.write_text(json.dumps({"n": 8, "c_upper": upper}))
    assert main(["verify", str(path)]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["inside"] is None
    assert report["g_star"] is None
    assert len(report["residuals"]) == 56


def test_validate_roundtrip(ex1_path, tmp_path, capsys):
    out = tmp_path / "rep.json"
    main(["solve", ex1_path, "--method", "exact", "--g", "2", "--out", str(out)])
    assert main(["validate", str(out), "--instance", ex1_path]) == EXIT_OK
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["valid"] is True

    report = json.loads(out.read_text())
    report["objective"] = report["objective"] + 0.5
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(report))
    assert main(["validate", str(tampered), "--instance", ex1_path]) == EXIT_INVALID
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["valid"] is False


def test_validate_flags_non_finite_numbers(ex1_path, tmp_path, capsys):
    out = tmp_path / "rep.json"
    main(["solve", ex1_path, "--method", "exact", "--g", "2", "--out", str(out)])
    report = json.loads(out.read_text())
    for key in ("weights", "objective", "fit", "max_form_value"):
        bad = dict(report, **{key: [math.nan, math.nan] if key == "weights" else math.nan})
        path = tmp_path / f"{key}.json"
        path.write_text(json.dumps(bad))
        assert main(["validate", str(path), "--instance", ex1_path]) == EXIT_INVALID
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["valid"] is False
        assert f"non-finite {key}" in verdict["problems"]


@pytest.mark.parametrize("key,value", [("n", 4.7), ("g", 2.9), ("g", "2"), ("n", True)])
def test_validate_rejects_non_integral_counts(ex1_path, tmp_path, capsys, key, value):
    out = tmp_path / "rep.json"
    main(["solve", ex1_path, "--method", "exact", "--g", "2", "--out", str(out)])
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(dict(json.loads(out.read_text()), **{key: value})))
    assert main(["validate", str(path), "--instance", ex1_path]) == EXIT_INVALID
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["valid"] is False
    assert verdict["problems"] == [f"field '{key}' must be an integer, got {value!r}"]
