"""Command-line front end: instance generation, ingestion, exact and
heuristic solving, group-count sweeps with elbow reporting, polytope
verification, and report validation.

File formats
------------
instance JSON   {"n": int, "c_upper": [numbers]} with the row-major upper
                triangle; a full matrix {"n": int, "c": [[...]]} is also
                accepted (diagonal entries ignored, off-diagonal ones finite
                with c[r][s] + c[s][r] = 1 within 1e-6).  A number is a JSON
                int or float, never a string or a bool.
rankings text   one complete ranking per line, whitespace-separated 1-based
                item indices, most preferred first; '#' starts a comment.
report JSON     emitted by `solve`; `validate` re-checks it independently.
sweep CSV       columns: g,objective,fit,relative_drop,cumulative_drop,time_s
                (fractions, not percentages; relative_drop empty at g=1).

Exit codes: 0 success, 2 parse/validation error (non-finite numbers and
unreadable or unwritable paths included), 3 size guard (an exact g >= 2 solve
is admitted by its cost alone, see mlop.exact.check_guards, and `sweep` checks
--g-max first; an exact g = 1 solve is refused when the subset DP gives up),
4 infeasible generation, 5 numerical failure (LP cap hit or unbounded column).
Every randomized command takes --seed and defaults to a fixed constant;
nothing is ever wall-clock seeded.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
import time
from functools import lru_cache
from pathlib import Path

import numpy as np

from .core import (
    DimensionMismatch,
    InvalidInput,
    LinearOrder,
    MixtureSolution,
    PreferenceMatrix,
    _n_from_pairs,
    canonicalize,
    fit_from_objective,
    l1_objective,
    num_pairs,
)
from .exact import ExactConfig, SizeGuardExceeded, check_guards, solve_exact
from .geometry import (
    MEMBERSHIP_TOL,
    PROJECTION_GUARD_N,
    SATURATION_GUARD_N,
    _project,
    caratheodory_saturation,
    cycle_residuals,
    l1_projection_full,  # noqa: F401  bound here for perfbench/spans.py's tracer
    violates_cycle,
)
from .heuristic import HeuristicConfig, solve_heuristic
from .instances import (
    GeneratorSpec,
    RankingFormatError,
    SeparationInfeasible,
    allocate_counts,
    generate_instance,
    ingest_rankings,
)
from .lop import DEFAULT_LAYER_BUDGET, LOP_DP_MAX_N

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_GUARD = 3
EXIT_INFEASIBLE = 4
EXIT_NUMERICAL = 5

_DROP_EPS = 1e-15


def fractional_drop(base: float, obj: float) -> float:
    """Fractional drop (base - obj) / base from a reference objective, the
    previous g's for relative_drop and g = 1's for cumulative_drop; zero
    when the reference is already (near) zero."""
    if base <= _DROP_EPS:
        return 0.0
    return (base - obj) / base


def _dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _instance_id(path: str) -> str:
    stem = Path(path).stem
    if stem.endswith(".instance"):
        stem = stem[: -len(".instance")]
    return stem


def _json_int(value) -> int | None:
    """A JSON integer (3, or 3.0 as some writers emit it) as an int, else None."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        return None
    return value


def _json_floats(value, what: str) -> np.ndarray:
    """value, a JSON number or a list of them, as float64, null as NaN.  An
    int or a float is a number, a bool or a string is not: any other entry,
    or an integer past the float range, raises InvalidInput naming what."""
    entries = value if isinstance(value, list) else [value]
    for k, v in enumerate(entries):
        if v is not None and type(v) is not int and type(v) is not float:
            where = f"{what} entry {k}" if entries is value else what
            raise InvalidInput(f"{where} must be a JSON number, got {v!r:.40}")
    try:
        return np.array(value, dtype=np.float64)
    except OverflowError:
        raise InvalidInput(f"{what} holds an integer too large for a float") from None


def load_instance(path: str) -> PreferenceMatrix:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as e:
        raise InvalidInput(f"{path}: not valid JSON ({e})") from None
    if not isinstance(data, dict) or "n" not in data:
        raise InvalidInput(f"{path}: instance JSON must carry an 'n' field")
    n = _json_int(data["n"])
    if n is None:
        raise InvalidInput(f"{path}: field 'n' must be an integer, got {data['n']!r}")
    if "c_upper" in data:
        return PreferenceMatrix(n, _json_floats(data["c_upper"], f"{path}: c_upper"))
    if "c" in data:
        rows = data["c"]
        if not (isinstance(rows, list) and len(rows) == n
                and all(isinstance(row, list) and len(row) == n for row in rows)):
            raise InvalidInput(f"{path}: full matrix 'c' must be {n} lists of {n} entries")
        matrix = np.zeros((n, n))
        for r, row in enumerate(rows):  # the diagonal is ignored whatever it holds
            matrix[r] = _json_floats(row[:r] + [0.0] + row[r + 1 :], f"{path}: c[{r}]")
        return PreferenceMatrix.from_full(matrix)
    raise InvalidInput(f"{path}: instance JSON needs either 'c_upper' or 'c'")


def _orders_1based(orders) -> list[list[int]]:
    return [[p + 1 for p in o.perm] for o in orders]


def _instance_json(C: PreferenceMatrix) -> str:
    return _dump_json({"n": C.n, "c_upper": [float(v) for v in C.upper]})


def _parse_floats(tokens: list[str], option: str, arg: str) -> list[float]:
    """The values of option's argument arg, split into tokens; an empty
    entry or one that is not a number is refused by its 1-based position."""
    values = []
    for i, token in enumerate(tokens, start=1):
        if not token.strip():
            raise InvalidInput(f"{option} entry {i} of {arg!r} is empty")
        try:
            values.append(float(token))
        except ValueError:
            raise InvalidInput(f"{option} entry {i} is not a number: {token!r}") from None
    return values


def parse_weights(arg: str, g: int) -> tuple[float, ...]:
    """Weights as explicit floats '0.667,0.333' or a ratio '2:1'.

    Ratio weights are normalized and rounded onto the 0.001 grid by largest
    remainder so they sum to exactly 1 (e.g. 2:1 -> 0.667, 0.333 and
    1:1:1 -> 0.334, 0.333, 0.333), so ratio mixes read back as clean 3-decimal weights.
    """
    if ":" in arg:
        parts = _parse_floats(arg.split(":"), "--weights", arg)
        if len(parts) != g or not all(math.isfinite(v) and v > 0 for v in parts):
            raise InvalidInput(f"ratio weights need {g} positive finite parts, got {arg!r}")
        total = sum(parts)
        if not math.isfinite(total):
            raise InvalidInput(f"ratio weights {arg!r}: their parts sum past the float range")
        milli = allocate_counts([p / total for p in parts], 1000)
        return tuple(v / 1000.0 for v in milli)
    parts = _parse_floats(arg.split(","), "--weights", arg)
    if len(parts) != g:
        raise InvalidInput(f"need {g} weights, got {len(parts)} in {arg!r}")
    return tuple(parts)


def cmd_gen(args) -> int:
    g = args.g_true
    if g < 1:  # before the default weights, which need g parts
        raise InvalidInput(f"need g_true >= 1, got {g}")
    weights = parse_weights(":".join(["1"] * g) if args.weights is None else args.weights, g)
    spec = GeneratorSpec(
        n=args.n,
        g_true=g,
        weights=weights,
        p=args.p,
        D=args.D,
        num_rankings=args.num_rankings,
        min_separation=args.min_separation,
        seed=args.seed,
    )
    sample, C = generate_instance(spec)

    out = args.out
    instance_path = f"{out}.instance.json"
    meta_path = f"{out}.meta.json"
    rankings_path = f"{out}.rankings.txt"

    _write_text(instance_path, _instance_json(C))
    _write_text(
        meta_path,
        _dump_json(
            {
                "n": spec.n,
                "g_true": spec.g_true,
                "weights": list(spec.weights),
                "p": spec.p,
                "D": spec.resolved_D,
                "num_rankings": spec.num_rankings,
                "min_separation": spec.resolved_min_separation,
                "seed": spec.seed,
                "centers": _orders_1based(sample.centers),
            }
        ),
    )
    items = [str(k + 1) for k in range(spec.n)]
    lines = [" ".join(map(items.__getitem__, row)) for row in sample.rankings.tolist()]
    _write_text(rankings_path, "\n".join(lines) + "\n")
    print(
        f"wrote {instance_path}, {meta_path}, {rankings_path} "
        f"(n={spec.n}, g_true={spec.g_true}, D={spec.resolved_D})"
    )
    return EXIT_OK


def _run_solver(C: PreferenceMatrix, method: str, g: int, args):
    """Returns (solution, objective, proven, trace-dict-or-None).

    The heuristic flags are checked under either method."""
    cfg = HeuristicConfig(
        n_starts=args.n_starts,
        step1_budget=args.step1_budget,
        base_seed=args.seed,
    )
    if method == "exact":
        sol, obj, proven = solve_exact(C, ExactConfig(g))
        return sol, obj, proven, None
    sol, obj, trace = solve_heuristic(C, g, cfg)
    summary = {
        "n_starts": cfg.n_starts,
        "total_iterations": trace.total_iterations,
        "start_final_objectives": [rows[-1][2] for rows in trace.starts],
        "inner_unproven": trace.inner_unproven,
    }
    return sol, obj, False, summary


def cmd_solve(args) -> int:
    """Writes one solver run as a JSON report; orders are 1-based."""
    C = load_instance(args.instance)
    t0 = time.perf_counter()
    sol, obj, proven, trace = _run_solver(C, args.method, args.g, args)
    elapsed = time.perf_counter() - t0
    report = {
        "instance": _instance_id(args.instance),
        "method": args.method,
        "n": C.n,
        "g": args.g,
        "objective": float(obj),
        "max_form_value": float(num_pairs(C.n) - obj),
        "fit": float(fit_from_objective(obj, C.n)),
        "weights": [float(w) for w in sol.weights],
        "orders": _orders_1based(sol.orders),
        "proven": proven,
        "time_s": elapsed,
        "trace": trace,
    }
    _write_text(args.out, _dump_json(report))
    return EXIT_OK


def _pad_with_idle_group(sol: MixtureSolution) -> MixtureSolution:
    idle = LinearOrder(tuple(range(sol.n)))
    return canonicalize(
        MixtureSolution(sol.orders + (idle,), sol.weights + (0.0,))
    )


def cmd_sweep(args) -> int:
    if args.g_max < 1:
        raise InvalidInput(f"--g-max must be >= 1, got {args.g_max}")
    C = load_instance(args.instance)
    if args.method == "exact":
        # refuse before solving any g rather than after the smaller ones ran
        check_guards(C.n, args.g_max)
    rows: list[dict] = []
    prev_sol: MixtureSolution | None = None
    prev_obj = None
    first_obj = None
    for g in range(1, args.g_max + 1):
        t0 = time.perf_counter()
        sol, obj, proven, _ = _run_solver(C, args.method, g, args)
        elapsed = time.perf_counter() - t0
        if prev_sol is not None and obj > prev_obj:
            # a zero-weight idle group turns the g-1 solution into a valid
            # g-group solution, so the sweep never reports a regression: a
            # heuristic's miss, or an exact optimum a float's noise above
            sol, obj = _pad_with_idle_group(prev_sol), prev_obj
        if first_obj is None:
            first_obj = obj
        rows.append({
            "g": g,
            "objective": float(obj),
            "fit": float(fit_from_objective(obj, C.n)),
            "relative_drop": None if g == 1 else float(fractional_drop(prev_obj, obj)),
            "cumulative_drop": float(fractional_drop(first_obj, obj)),
            "time_s": elapsed,
        })
        prev_sol, prev_obj = sol, obj

    payload = {"instance": _instance_id(args.instance), "method": args.method, "rows": rows}
    csv_text = _sweep_csv(rows)
    if args.out:
        _write_text(f"{args.out}.sweep.csv", csv_text)
        _write_text(f"{args.out}.sweep.json", _dump_json(payload))
    if args.format == "json":
        sys.stdout.write(_dump_json(payload))
    else:
        sys.stdout.write(csv_text)
    return EXIT_OK


_SWEEP_COLUMNS = ("g", "objective", "fit", "relative_drop", "cumulative_drop", "time_s")


def _sweep_csv(rows: list[dict]) -> str:
    """The sweep rows as CSV: g an int, floats by repr, a None drop empty."""
    lines = [",".join(_SWEEP_COLUMNS)]
    for row in rows:
        lines.append(",".join("" if row[k] is None else repr(row[k]) for k in _SWEEP_COLUMNS))
    return "\n".join(lines) + "\n"


def _parse_point(arg: str) -> np.ndarray:
    """--point's values, separated by commas or whitespace; an empty point,
    or an empty entry between two commas, is refused rather than dropped."""
    tokens = re.split(r"\s*,\s*|\s+", arg.strip())
    if tokens == [""]:
        raise InvalidInput("--point is empty")
    return np.asarray(_parse_floats(tokens, "--point", arg), dtype=np.float64)


def cmd_verify(args) -> int:
    if args.point is not None and args.instance is not None:
        raise InvalidInput("verify takes an instance file or --point, not both")
    if args.point is not None:
        point = _parse_point(args.point)
        n, label = _n_from_pairs(point.shape[0]), "point"
    else:
        if args.instance is None:
            raise InvalidInput("verify needs an instance file or --point")
        C = load_instance(args.instance)
        point, n, label = C.upper, C.n, _instance_id(args.instance)

    residuals = [
        {"triple": [r + 1, s + 1, t + 1], "residual": res}
        for (r, s, t), res in cycle_residuals(point, n)
    ]
    inside = None
    distance = None
    if n <= PROJECTION_GUARD_N:
        weights, _, distance = _project(point, n)
        inside = bool(distance <= MEMBERSHIP_TOL)
    g_star = None
    in_unit_box = bool(point.min() >= 0.0 and point.max() <= 1.0)
    if n <= SATURATION_GUARD_N and not args.no_saturation and in_unit_box:
        try:
            projection = distance, int(np.count_nonzero(weights))
            g_star = caratheodory_saturation(point, n, projection=projection)
        except SizeGuardExceeded as e:
            raise SizeGuardExceeded(f"saturation search: {e}; --no-saturation skips it") from None

    report = {
        "instance": label,
        "n": n,
        "point": [float(v) for v in point],
        "residuals": residuals,
        "violations": [row for row in residuals if violates_cycle(row["residual"])],
        "inside": inside,
        "projection_distance": None if distance is None else float(distance),
        "g_star": g_star,
    }
    _write_text(args.out, _dump_json(report))
    return EXIT_OK


def cmd_ingest(args) -> int:
    C, A = ingest_rankings(args.rankings)
    out = args.out
    _write_text(f"{out}.instance.json", _instance_json(C))
    _write_text(
        f"{out}.counts.json",
        _dump_json(
            {
                "n": C.n,
                "num_rankings": int(A[0, 1] + A[1, 0]),
                "a": [[int(v) for v in row] for row in A],
            }
        ),
    )
    print(f"wrote {out}.instance.json, {out}.counts.json (n={C.n})")
    return EXIT_OK


_REPORT_FIELDS = ("n", "g", "orders", "weights", "objective", "fit", "max_form_value")


def cmd_validate(args) -> int:
    try:
        report = json.loads(Path(args.report).read_text(encoding="utf-8"))
    except json.JSONDecodeError as e:
        raise InvalidInput(f"{args.report}: not valid JSON ({e})") from None
    if not isinstance(report, dict):
        raise InvalidInput(f"{args.report}: report JSON must be an object")
    for key in _REPORT_FIELDS:
        if key not in report:
            raise InvalidInput(f"{args.report}: report JSON needs {key!r}")
    C = load_instance(args.instance)
    problems: list[str] = []

    n, g = _json_int(report["n"]), _json_int(report["g"])
    for key, value in (("n", n), ("g", g)):
        if value is None:
            problems.append(f"field '{key}' must be an integer, got {report[key]!r}")
    if n is not None and n != C.n:
        problems.append(f"report n={n} does not match instance n={C.n}")
    orders, listed = [], report["orders"]
    if not isinstance(listed, list):
        problems.append(f"field 'orders' must be a list of permutations, got {listed!r:.40}")
        listed = []
    for idx, perm in enumerate(listed):
        items = [_json_int(v) for v in perm] if isinstance(perm, list) else [None]
        if None in items or sorted(items) != list(range(1, C.n + 1)):
            problems.append(f"order {idx} is not a permutation of 1..{C.n}")
        else:
            orders.append(LinearOrder(tuple(v - 1 for v in items)))
    numbers = {}
    for key in ("weights", "objective", "fit", "max_form_value"):
        try:
            values = _json_floats(report[key], f"field {key!r}")
        except InvalidInput as e:
            problems.append(str(e))
            continue
        if values.ndim != (key == "weights"):
            kind = "a list of numbers" if key == "weights" else "a number"
            problems.append(f"field {key!r} must be {kind}")
            continue
        if not np.all(np.isfinite(values)):
            problems.append(f"non-finite {key}")
        numbers[key] = values.tolist()
    weights = numbers.get("weights", [])
    if g is not None and (len(weights) != g or len(listed) != g):
        problems.append("group count disagrees with g")
    if weights and (min(weights) < -1e-12 or abs(sum(weights) - 1.0) > 1e-9):
        problems.append("weights are not a probability vector")
    if any(weights[i] < weights[i + 1] - 1e-9 for i in range(len(weights) - 1)):
        problems.append("weights are not in canonical (descending) order")

    if not problems and len(orders) == g:
        sol = MixtureSolution(tuple(orders), tuple(weights))
        obj = l1_objective(sol, C)
        stated = numbers["objective"]
        if abs(obj - stated) > 1e-9:
            problems.append(f"stated objective {stated!r} != recomputed {obj!r}")
        if abs(numbers["fit"] - fit_from_objective(stated, C.n)) > 1e-12:
            problems.append("fit identity violated")
        if abs(numbers["max_form_value"] - (num_pairs(C.n) - stated)) > 1e-12:
            problems.append("max-form identity violated")

    verdict = {"valid": not problems, "problems": problems}
    sys.stdout.write(_dump_json(verdict))
    return EXIT_OK if not problems else EXIT_INVALID


def _solver_args(p):
    p.add_argument("--seed", type=int, default=HeuristicConfig.base_seed,
                   help="base RNG seed (fixed default; never wall-clock)")
    p.add_argument("--n-starts", type=int, default=HeuristicConfig.n_starts)
    p.add_argument("--step1-budget", type=int, default=HeuristicConfig.step1_budget,
                   help="cap on the candidate item sets per popcount layer of the "
                        f"subset DP on an inner LOP block of more than {LOP_DP_MAX_N} "
                        "items; a block past it keeps its insertion-search order and "
                        f"counts as unproven (default: {DEFAULT_LAYER_BUDGET:,})")


def _gen_args(p):
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--g-true", type=int, required=True)
    p.add_argument("--weights", type=str, default=None,
                   help="'0.667,0.333' or ratio '2:1' (default: equal ratio)")
    p.add_argument("-p", type=float, default=None,
                   help="dispersion as a percentage of the max Kendall distance")
    p.add_argument("--D", type=int, default=None,
                   help="explicit Kendall radius (authoritative over -p)")
    p.add_argument("--num-rankings", type=int, default=GeneratorSpec.num_rankings)
    p.add_argument("--min-separation", type=int, default=GeneratorSpec.min_separation)
    p.add_argument("--seed", type=int, default=GeneratorSpec.seed)
    p.add_argument("--out", type=str, required=True, help="output path prefix")


def _solve_args(p):
    p.add_argument("instance")
    p.add_argument("--method", choices=["exact", "heuristic"], required=True)
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--out", type=str, default=None, help="report path (default: stdout)")
    _solver_args(p)


def _sweep_args(p):
    p.add_argument("instance")
    p.add_argument("--method", choices=["exact", "heuristic"], required=True)
    p.add_argument("--g-max", type=int, required=True)
    p.add_argument("--out", type=str, default=None, help="path prefix for .sweep.csv and .sweep.json")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    _solver_args(p)


def _verify_args(p):
    p.add_argument("instance", nargs="?", default=None)
    p.add_argument("--point", type=str, default=None,
                   help="comma/space separated upper-triangle values; write a point "
                        "starting with a minus sign as --point=-0.5,...")
    p.add_argument("--no-saturation", action="store_true",
                   help="skip the g* search (it enumerates exhaustively)")
    p.add_argument("--out", type=str, default=None)


def _ingest_args(p):
    p.add_argument("rankings")
    p.add_argument("--out", type=str, required=True, help="output path prefix")


def _validate_args(p):
    p.add_argument("report")
    p.add_argument("--instance", type=str, required=True)


# command -> (help, argument adder, handler), in the order `mlop -h` lists them
_COMMANDS = {
    "gen": ("generate a synthetic instance", _gen_args, cmd_gen),
    "solve": ("solve an instance for a fixed g", _solve_args, cmd_solve),
    "sweep": ("solve for g = 1..g_max and report drops", _sweep_args, cmd_sweep),
    "verify": ("polytope geometry checks", _verify_args, cmd_verify),
    "ingest": ("aggregate a ranking file", _ingest_args, cmd_ingest),
    "validate": ("re-check a solve report", _validate_args, cmd_validate),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The `mlop` parser with every sub-command, or only the named one; usage and
    sub-command prog are spelled out so that both print the same help and errors."""
    parser = argparse.ArgumentParser(
        prog="mlop",
        usage="%(prog)s [-h] {" + ",".join(_COMMANDS) + "} ...",
        description="Mixture Linear Ordering Problem toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True, prog="mlop")
    for name in _COMMANDS if command is None else [command]:
        help_text, add_args, _ = _COMMANDS[name]
        add_args(sub.add_parser(name, help=help_text))
    return parser


@lru_cache(maxsize=None)
def _parser(command: str | None) -> argparse.ArgumentParser:
    """build_parser(command), built at most once per process: parsing leaves it as it was."""
    return build_parser(command)


def main(argv=None) -> int:
    """Runs one command line, parsed by its own command's parser if it names one."""
    argv = sys.argv[1:] if argv is None else argv
    args = _parser(argv[0] if argv and argv[0] in _COMMANDS else None).parse_args(argv)
    try:
        return _COMMANDS[args.command][2](args)
    except SizeGuardExceeded as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_GUARD
    except SeparationInfeasible as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (InvalidInput, DimensionMismatch, RankingFormatError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVALID
    except ArithmeticError as e:
        print(f"error: numerical failure ({e})", file=sys.stderr)
        return EXIT_NUMERICAL
    except (KeyError, TypeError, ValueError) as e:
        print(f"error: malformed input ({e})", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
