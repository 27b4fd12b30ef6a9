import argparse
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

from mlop import GeneratorSpec, HeuristicConfig, num_pairs
from mlop.cli import (
    EXIT_GUARD,
    EXIT_INFEASIBLE,
    EXIT_INVALID,
    EXIT_NUMERICAL,
    EXIT_OK,
    build_parser,
    fractional_drop,
    load_instance,
    main,
    parse_weights,
)
from mlop.geometry import PROJECTION_GUARD_N

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


def test_load_instance_rejects_a_scalar_upper_triangle(tmp_path, capsys):
    path = tmp_path / "scalar.json"
    path.write_text(json.dumps({"n": 2, "c_upper": 0.5}))
    assert main(["solve", str(path), "--method", "exact", "--g", "1"]) == EXIT_INVALID
    assert "got shape ()" in capsys.readouterr().err


@pytest.mark.parametrize(
    "data, problem",
    [
        ({"n": 2, "c_upper": ["0.5"]}, "c_upper entry 0 must be a JSON number, got '0.5'"),
        ({"n": 2, "c_upper": [" 1e-1 "]}, "c_upper entry 0 must be a JSON number, got ' 1e-1 '"),
        ({"n": 2, "c_upper": [True]}, "c_upper entry 0 must be a JSON number, got True"),
        ({"n": 2, "c": [[0, "0.5"], ["0.5", 0]]}, "c[0] entry 1 must be a JSON number, got '0.5'"),
        ({"n": 2, "c_upper": [10**400]}, "c_upper holds an integer too large for a float"),
    ],
    ids=["string", "padded-string", "bool", "full-matrix-strings", "400-digit-int"],
)
def test_load_instance_takes_only_json_numbers(tmp_path, capsys, data, problem):
    path = tmp_path / "coerced.json"
    path.write_text(json.dumps(data))
    assert main(["solve", str(path), "--method", "exact", "--g", "1"]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert problem in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("diagonal", ["0.5", True, [1, 2], {"a": 1}, 10**400],
                         ids=["string", "bool", "list", "object", "400-digit-int"])
def test_load_instance_ignores_any_diagonal_value(tmp_path, capsys, diagonal):
    full = [[diagonal, 0.7, 0.8], [0.3, diagonal, 0.4], [0.2, 0.6, diagonal]]
    path = tmp_path / "diagonal.json"
    path.write_text(json.dumps({"n": 3, "c": full}))
    assert main(["solve", str(path), "--method", "exact", "--g", "1"]) == EXIT_OK
    assert np.array_equal(load_instance(str(path)).upper, [0.7, 0.8, 0.4])


def test_parse_weights_names_overflowing_ratio_parts(tmp_path, capsys):
    args = ["gen", "--n", "4", "--g-true", "2", "-p", "5", "--out", str(tmp_path / "r")]
    assert main(args + ["--weights", "1e308:1e308"]) == EXIT_INVALID
    assert "their parts sum past the float range" in capsys.readouterr().err


def test_parse_weights_forms():
    assert parse_weights("0.667,0.333", 2) == (0.667, 0.333)
    assert parse_weights("2:1", 2) == (0.667, 0.333)
    assert parse_weights("1:1:1", 3) == (0.334, 0.333, 0.333)
    assert parse_weights("4:2:1", 3) == (0.571, 0.286, 0.143)
    assert parse_weights("8:4:2:1", 4) == (0.533, 0.267, 0.133, 0.067)


def test_drop_arithmetic():
    assert fractional_drop(15.390, 4.253) * 100 == pytest.approx(72.365, abs=0.001)
    assert fractional_drop(15.390, 1.210) * 100 == pytest.approx(92.138, abs=0.001)
    assert fractional_drop(0.0, 0.0) == 0.0


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
    assert "heuristic solver" in capsys.readouterr().err
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
    for method in ("heuristic", "exact"):
        solve = ["solve", ex1_path, "--method", method, "--g", "2"]
        assert main(solve + ["--seed", "-1"]) == EXIT_INVALID
        assert "seed" in capsys.readouterr().err


@pytest.mark.parametrize("method", ["heuristic", "exact"])
@pytest.mark.parametrize("command", [["solve", "--g", "2"], ["sweep", "--g-max", "2"]])
def test_zero_starts_is_refused_under_either_method(ex1_path, capsys, command, method):
    args = [command[0], ex1_path, "--method", method, *command[1:], "--n-starts", "0"]
    assert main(args) == EXIT_INVALID
    captured = capsys.readouterr()
    assert "n_starts" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("extra, named", [
    (["--weights", "nan,0.5"], "finite"),
    (["--weights", "inf:1"], "finite"),
    (["--weights", "nan:1"], "finite"),
    (["--min-separation", "-3"], "min_separation"),
    (["--weights", "0.5,0.5,"], "--weights entry 3 of '0.5,0.5,' is empty"),
    (["--weights", "0.5, ,0.5"], "--weights entry 2 of '0.5, ,0.5' is empty"),
    (["--weights", "a,b"], "--weights entry 1 is not a number: 'a'"),
    (["--weights", "1:x"], "--weights entry 2 is not a number: 'x'"),
    (["--weights", "2::1"], "--weights entry 2 of '2::1' is empty"),
    (["--weights", ""], "--weights entry 1 of '' is empty"),  # not the equal default
])
def test_gen_rejects_bad_numbers_by_name(tmp_path, capsys, extra, named):
    prefix = tmp_path / "x"
    gen = ["gen", "--n", "4", "--g-true", "2", "--D", "1", "--out", str(prefix)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(gen + extra) == EXIT_INVALID
    assert named in capsys.readouterr().err
    assert not Path(f"{prefix}.meta.json").exists()


@pytest.mark.parametrize("g_true", ("0", "-1"))
def test_gen_rejects_g_true_below_one_by_name(tmp_path, capsys, g_true):
    prefix = tmp_path / "x"
    gen = ["gen", "--n", "4", "--g-true", g_true, "--D", "1", "--out", str(prefix)]
    assert main(gen) == EXIT_INVALID
    assert capsys.readouterr().err == f"error: need g_true >= 1, got {g_true}\n"
    assert not Path(f"{prefix}.meta.json").exists()


def test_parser_defaults_are_the_config_defaults():
    parser = build_parser()
    heuristic = HeuristicConfig()
    for command in ("solve", "sweep"):
        extra = ["--g", "1"] if command == "solve" else ["--g-max", "1"]
        args = parser.parse_args([command, "x.json", "--method", "heuristic"] + extra)
        assert (args.n_starts, args.step1_budget, args.seed) == (
            heuristic.n_starts, heuristic.step1_budget, heuristic.base_seed,
        )
    args = parser.parse_args(["gen", "--n", "4", "--g-true", "1", "--out", "x"])
    spec = {f.name: f.default for f in fields(GeneratorSpec)}
    assert (args.num_rankings, args.min_separation, args.seed) == (
        spec["num_rankings"], spec["min_separation"], spec["seed"]
    )


def test_stopping_rule_is_not_an_option(ex1_path):
    solve = ["solve", ex1_path, "--method", "heuristic", "--g", "2"]
    for flag in (["--epsilon", "inf"], ["--it-max", "1"]):
        with pytest.raises(SystemExit) as exc:
            main(solve + flag)
        assert exc.value.code == EXIT_INVALID


def _sub_commands(parser) -> list[str]:
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return list(sub.choices)


def test_main_builds_its_parser_once(monkeypatch, capsys):
    import mlop.cli

    built = []
    real = mlop.cli.build_parser
    monkeypatch.setattr(mlop.cli, "build_parser",
                        lambda command=None: built.append(command) or real(command))
    mlop.cli._parser.cache_clear()
    for point in ("0.3,0.9,0.2", "0.7,0.8,0.4"):
        assert main(["verify", "--point", point, "--no-saturation"]) == EXIT_OK
    assert main(["solve", "nope.json", "--method", "exact", "--g", "1"]) == EXIT_INVALID
    assert built == ["verify", "solve"]  # one parser per command, each built once
    assert _sub_commands(mlop.cli._parser("solve")) == ["solve"]
    assert _sub_commands(real()) == _COMMANDS


_COMMANDS = ["gen", "solve", "sweep", "verify", "ingest", "validate"]
_PARSER_CASES = [
    [], ["-h"], ["bogus"], ["solve"],
    ["solve", "x.json", "--method", "exact", "--g", "1", "--epsilon", "1"],
    ["gen", "--n", "four", "--g-true", "1", "--out", "x"],
] + [[command, "-h"] for command in _COMMANDS]


def _exit_and_output(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as e:
        code = e.code
    return (code,) + tuple(capsys.readouterr())


@pytest.mark.parametrize("argv", _PARSER_CASES, ids=lambda argv: "_".join(argv) or "none")
def test_command_parser_prints_what_the_full_parser_does(monkeypatch, capsys, argv):
    import mlop.cli

    own = _exit_and_output(argv, capsys)
    monkeypatch.setattr(mlop.cli, "_parser", lambda command: build_parser())
    assert own == _exit_and_output(argv, capsys)
    assert own[0] == (0 if "-h" in argv else EXIT_INVALID)
    # the top-level usage, which an unrecognized option after a command prints
    # too, lists every command; a sub-command's names its command after mlop
    first = (own[1] + own[2]).splitlines()[0]
    if not argv or argv[0] not in _COMMANDS or "--epsilon" in argv:
        assert first == "usage: mlop [-h] {gen,solve,sweep,verify,ingest,validate} ..."
    else:
        assert first.startswith(f"usage: mlop {argv[0]} [-h]")
    if argv == ["bogus"]:
        assert "error: argument command: invalid choice: 'bogus'" in own[2]


def test_readme_commands_parse():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"```bash\n(.*?)```", readme.read_text(encoding="utf-8"), flags=re.S)
    lines = [line for block in blocks for line in block.splitlines() if line.startswith("mlop ")]
    assert lines
    parser = build_parser()
    for line in lines:
        argv = shlex.split(line, comments=True)[1:]
        try:
            # the full parser, and the one main builds for the line's command
            assert parser.parse_args(argv) == build_parser(argv[0]).parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: {line}")


def test_readme_python_runs_and_documents_the_api(capsys):
    import mlop

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
    assert "(1, 0.9999999999999999), (2, 0.4), (3, 0.0)" in capsys.readouterr().out
    assert [name for name in mlop.__all__ if f"`{name}`" not in readme] == []


def test_numerical_failure_exit_code(ex1_path, monkeypatch, capsys):
    import mlop.heuristic

    def failing(X, c):
        raise ArithmeticError("weight fit failed to converge")

    monkeypatch.setattr(mlop.heuristic, "_fit_simplex_l1", failing)
    assert main(["solve", ex1_path, "--method", "heuristic", "--g", "3"]) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert "numerical failure" in err
    assert "Traceback" not in err


def test_numerical_failure_in_the_stacked_lp_exit_code(ex1_path, monkeypatch, capsys):
    import mlop.exact

    def failing(V, idx, c):
        raise ArithmeticError("LP column unbounded; input is inconsistent")

    monkeypatch.setattr(mlop.exact, "_fit_simplex_stack", failing)
    assert main(["solve", ex1_path, "--method", "exact", "--g", "3"]) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert "numerical failure" in err
    assert "Traceback" not in err


def test_solve_missing_file():
    assert main(["solve", "nope.json", "--method", "exact", "--g", "1"]) == EXIT_INVALID


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "{dir}", "--method", "exact", "--g", "1"],
        ["solve", "{ex1}", "--method", "exact", "--g", "1", "--out", "{dir}"],
        ["ingest", "{dir}", "--out", "{dir}/x"],
    ],
)
def test_directory_path_is_an_input_error(ex1_path, tmp_path, capsys, argv):
    argv = [a.format(dir=tmp_path, ex1=ex1_path) for a in argv]
    assert main(argv) == EXIT_INVALID
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Is a directory" in err
    assert "Traceback" not in err


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


NUMPY_ONLY_RUN = '''
import sys
for name in ("scipy", "hypothesis", "pytest"):
    sys.modules[name] = None  # any import of them raises ImportError
from mlop.cli import main

status = [
    main(["gen", "--n", "6", "--g-true", "2", "-p", "5", "--seed", "1", "--out", "r"]),
    main(["ingest", "r.rankings.txt", "--out", "i"]),
    main(["solve", "i.instance.json", "--method", "heuristic", "--g", "2", "--out", "h.json"]),
    main(["solve", "i.instance.json", "--method", "exact", "--g", "2", "--out", "e.json"]),
    main(["sweep", "r.instance.json", "--method", "heuristic", "--g-max", "3", "--out", "s"]),
    main(["verify", "r.instance.json", "--out", "v.json"]),
    main(["validate", "h.json", "--instance", "i.instance.json"]),
    main(["validate", "e.json", "--instance", "i.instance.json"]),
]
print(status)
'''


def test_runtime_needs_only_numpy(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", NUMPY_ONLY_RUN], capture_output=True,
                          text=True, env=env, cwd=tmp_path, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == str([EXIT_OK] * 8)


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
    for text in ("1 2 3\n1 1 3\n", "1 2 +3\n3 2 1\n"):
        rankings.write_text(text)
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
    # its g = 3 optimum lands 5.6e-17 above the g = 2 one, 0.0
    path = tmp_path / "n2.instance.json"
    path.write_text(json.dumps({"n": 2, "c_upper": [0.3]}))
    assert main(["sweep", str(path), "--method", "exact", "--g-max", "3",
                 "--out", str(tmp_path / "n2")]) == EXIT_OK
    rows = list(csv.DictReader((tmp_path / "n2.sweep.csv").read_text().splitlines()))
    objs = [float(r["objective"]) for r in rows]
    assert objs == sorted(objs, reverse=True)


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


# the last two wrote "Infinity" or overflowed in the inner LOP
@pytest.mark.parametrize("point", ["inf,0.5,0.5", "nan,0.5,0.5", "1e308,-1e308,1e308", "1e308,0,0"])
def test_verify_point_rejects_non_finite(capsys, point):
    assert main(["verify", "--point", point]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert "finite" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "point, problem",
    [
        ("0.3,,0.9,0.2", "--point entry 2 of '0.3,,0.9,0.2' is empty"),
        ("0.3,0.9,0.2,", "--point entry 4 of '0.3,0.9,0.2,' is empty"),
        ("", "--point is empty"),
        ("  ", "--point is empty"),
        ("0.3,x,0.2", "--point entry 2 is not a number: 'x'"),
    ],
)
def test_verify_point_rejects_empty_entries(capsys, point, problem):
    assert main(["verify", f"--point={point}"]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert problem in captured.err
    assert captured.out == ""


def _strict_json(text: str):
    def refuse(token):
        raise AssertionError(f"{token} is not JSON")

    return json.loads(text, parse_constant=refuse)


# command line, the JSON files it writes, and whether its stdout is JSON too;
# every run reads r.instance.json, r.rankings.txt and r.report.json from {d}
STRICT_JSON_RUNS = {
    "gen": ("gen --n 5 --g-true 2 -p 5 --seed 2 --out {d}/g",
            ["g.instance.json", "g.meta.json"], False),
    "ingest": ("ingest {d}/r.rankings.txt --out {d}/i",
               ["i.instance.json", "i.counts.json"], False),
    "solve": ("solve {d}/r.instance.json --method heuristic --g 2", [], True),
    "sweep": ("sweep {d}/r.instance.json --method exact --g-max 2 --format json --out {d}/w",
              ["w.sweep.json"], True),
    "validate": ("validate {d}/r.report.json --instance {d}/r.instance.json", [], True),
    "verify": ("verify {d}/r.instance.json", [], True),
}


@pytest.mark.parametrize("command", sorted(STRICT_JSON_RUNS))
def test_every_json_output_is_strict_json(tmp_path, capsys, command):
    d = str(tmp_path)
    assert main(shlex.split(f"gen --n 5 --g-true 2 -p 5 --seed 1 --out {d}/r")) == EXIT_OK
    solve = f"solve {d}/r.instance.json --method exact --g 2 --out {d}/r.report.json"
    assert main(shlex.split(solve)) == EXIT_OK
    capsys.readouterr()
    line, files, stdout_is_json = STRICT_JSON_RUNS[command]
    assert main(shlex.split(line.format(d=d))) == EXIT_OK
    out = capsys.readouterr().out
    if stdout_is_json:
        _strict_json(out)
    for name in files:
        _strict_json((tmp_path / name).read_text())


def test_verify_point_with_leading_minus(capsys):
    # argparse reads "-0.5,..." after a space as an option, so the help
    # names the --point=... form
    with pytest.raises(SystemExit):
        main(["verify", "--help"])
    assert "--point=-0.5," in " ".join(capsys.readouterr().out.split())
    assert main(["verify", "--point=-0.5, 0.9 0.2", "--no-saturation"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["point"] == [-0.5, 0.9, 0.2]
    assert report["inside"] is False


def test_verify_projects_once(monkeypatch, capsys):
    import mlop.geometry

    calls = []
    real = mlop.geometry._project_columns

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(mlop.geometry, "_project_columns", counting)
    for point, g_star in (("0.3,0.9,0.2", 3), ("0.131,0.081,0.906,0.269,0.306,0.833", 5)):
        calls.clear()
        assert main(["verify", "--point", point]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["g_star"] == g_star
        assert len(calls) == 1


def test_verify_interior_n4_point_is_refused_at_once(capsys):
    # a point inside the n = 4 polytope whose projection weights 7 vertices:
    # its search could need g = 6, which the multiset guard refuses
    assert main(["verify", "--point", "0.421,0.360,0.398,0.562,0.672,0.620"]) == EXIT_GUARD
    captured = capsys.readouterr()
    assert "7 vertices" in captured.err and "g=6" in captured.err
    assert "--no-saturation" in captured.err
    assert captured.out == ""


def test_verify_refuses_instance_and_point(ex1_path, capsys):
    assert main(["verify", ex1_path, "--point", "0.3,0.9,0.2"]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert "not both" in captured.err
    assert captured.out == ""


def test_verify_instance_skips_guarded_parts(tmp_path, capsys):
    n = PROJECTION_GUARD_N + 1
    rng = np.random.default_rng(1)
    upper = rng.random(num_pairs(n)).tolist()
    path = tmp_path / f"n{n}.instance.json"
    path.write_text(json.dumps({"n": n, "c_upper": upper}))
    assert main(["verify", str(path)]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["inside"] is None
    assert report["g_star"] is None
    assert len(report["residuals"]) == math.comb(n, 3)


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


@pytest.mark.parametrize("key", ["weights", "objective", "fit", "max_form_value", "orders"])
def test_validate_takes_only_json_numbers(ex1_path, tmp_path, capsys, key):
    out = tmp_path / "rep.json"
    main(["solve", ex1_path, "--method", "exact", "--g", "2", "--out", str(out)])
    report = json.loads(out.read_text())
    if key == "orders":
        first, second = report[key]  # True compared equal to 1 in sorted(order)
        value = [[str(v) for v in first], [True if v == 1 else v for v in second]]
    elif key == "weights":
        value = [str(w) for w in report[key]]
    else:
        value = str(report[key])
    path = tmp_path / f"{key}.json"
    path.write_text(json.dumps(dict(report, **{key: value})))
    capsys.readouterr()
    assert main(["validate", str(path), "--instance", ex1_path]) == EXIT_INVALID
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["valid"] is False
    if key == "orders":
        assert verdict["problems"] == [f"order {k} is not a permutation of 1..4" for k in (0, 1)]
    else:
        where = f"field {key!r} entry 0" if key == "weights" else f"field {key!r}"
        assert any(p.startswith(f"{where} must be a JSON number") for p in verdict["problems"])


def test_validate_names_the_missing_report_field(ex1_path, tmp_path, capsys):
    # an instance file is JSON with an 'n' but no other report field
    assert main(["validate", ex1_path, "--instance", ex1_path]) == EXIT_INVALID
    assert capsys.readouterr().err == f"error: {ex1_path}: report JSON needs 'g'\n"
    listed = tmp_path / "list.json"
    listed.write_text("[1, 2]")
    assert main(["validate", str(listed), "--instance", ex1_path]) == EXIT_INVALID
    assert "report JSON must be an object" in capsys.readouterr().err


@pytest.mark.parametrize("orders", [5, None, "1234", {"0": [1, 2, 3, 4]}],
                         ids=["int", "null", "string", "object"])
def test_validate_names_orders_that_are_not_a_list(ex1_path, tmp_path, capsys, orders):
    out = tmp_path / "rep.json"
    main(["solve", ex1_path, "--method", "exact", "--g", "2", "--out", str(out)])
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(dict(json.loads(out.read_text()), orders=orders)))
    capsys.readouterr()
    assert main(["validate", str(path), "--instance", ex1_path]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.err == ""
    verdict = json.loads(captured.out)
    assert verdict["valid"] is False
    assert verdict["problems"] == [
        f"field 'orders' must be a list of permutations, got {orders!r}",
        "group count disagrees with g",
    ]


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
