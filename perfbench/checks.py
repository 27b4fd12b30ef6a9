"""Output checks: every op's output is inspected after it ran, outside the
timed region.  A problem found here counts the op as failed.

The objective recomputation and the HiGHS refit use only numpy and scipy,
never `mlop` code, so a defect in the program cannot hide itself; the
program's own `validate` command is run as one check among them.
"""

from __future__ import annotations

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from workloads import Op

# the program's own tolerance for a stated objective (cli validate)
OBJ_TOL = 1e-9


@dataclass
class OpResult:
    code: int | None       # exit code; None when the command raised
    stdout: str
    stderr: str
    wall_s: float          # measured seconds
    norm_s: float          # host-normalized seconds (run.HostClock)
    error: str | None = None


@dataclass
class Inspection:
    outcome: object            # the op's output with timings removed
    fits: list[float]          # fits (1 - objective / C(n,2)) the op reported
    problems: list[str]


def load_instance(path: str) -> tuple[int, np.ndarray]:
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    return int(data["n"]), np.asarray(data["c_upper"], dtype=np.float64)


def precedence(perm_1based, n: int) -> np.ndarray:
    """0/1 vector over pairs r < s (row-major): 1 iff item r precedes s."""
    pos = np.empty(n, dtype=np.int64)
    pos[np.asarray(perm_1based, dtype=np.int64) - 1] = np.arange(n)
    rows, cols = np.triu_indices(n, k=1)
    return (pos[rows] < pos[cols]).astype(np.float64)


def l1_gap(c: np.ndarray, n: int, orders, weights) -> float:
    X = np.stack([precedence(o, n) for o in orders])
    return float(np.abs(c - np.asarray(weights, dtype=np.float64) @ X).sum())


def report_problems(report: dict, instance: str) -> list[str]:
    """Independent recomputation of a solve report against its instance."""
    n, c = load_instance(instance)
    problems = []
    orders, weights, g = report["orders"], report["weights"], int(report["g"])
    if int(report["n"]) != n:
        problems.append(f"report n={report['n']} but instance n={n}")
        return problems
    if len(orders) != g or len(weights) != g:
        problems.append("orders/weights do not match g")
        return problems
    if any(sorted(o) != list(range(1, n + 1)) for o in orders):
        problems.append("an order is not a permutation of 1..n")
        return problems
    if min(weights) < -1e-12 or abs(sum(weights) - 1.0) > OBJ_TOL:
        problems.append("weights are not a probability vector")
    objective = float(report["objective"])
    recomputed = l1_gap(c, n, orders, weights)
    if abs(recomputed - objective) > OBJ_TOL:
        problems.append(f"objective {objective!r} but recomputed {recomputed!r}")
    pairs = n * (n - 1) // 2
    if abs(float(report["max_form_value"]) - (pairs - objective)) > 1e-12:
        problems.append("max_form_value != C(n,2) - objective")
    if abs(float(report["fit"]) - (1.0 - objective / pairs)) > 1e-12:
        problems.append("fit != 1 - objective / C(n,2)")
    return problems


def program_validate(cli, report_path: str, instance: str) -> list[str]:
    """Run `mlop validate` on a report; it must exit 0 and say valid."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main(["validate", report_path, "--instance", instance])
    verdict = json.loads(out.getvalue())
    if code != 0 or verdict.get("valid") is not True:
        return [f"mlop validate rejected the report: {verdict.get('problems')}"]
    return []


def inspect(op: Op, res: OpResult, cli, expected: dict[str, float]) -> Inspection:
    """Check one op's output.  `expected` maps exact-solve labels to the
    objectives recorded for this seed (empty when the seed is not recorded)."""
    if res.error is not None:
        return Inspection(None, [], [f"raised: {res.error}"])
    if res.code != 0:
        return Inspection(None, [], [f"exit code {res.code}: {res.stderr.strip()[-300:]}"])
    try:
        return _INSPECT[op.kind](op, res, cli, expected)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as e:
        return Inspection(None, [], [f"unreadable output: {e!r}"])


def _inspect_gen(op, res, cli, expected):
    prefix = op.argv[op.argv.index("--out") + 1]
    text = Path(f"{prefix}.instance.json").read_text(encoding="utf-8")
    return Inspection(text, [], [])


def _inspect_ingest(op, res, cli, expected):
    prefix = op.argv[op.argv.index("--out") + 1]
    produced = Path(f"{prefix}.instance.json").read_bytes()
    problems = []
    if produced != Path(op.same_as).read_bytes():
        problems.append("ingested instance differs from the generated instance file")
    return Inspection(produced.decode("utf-8"), [], problems)


def _inspect_sweep(op, res, cli, expected):
    rows = json.loads(res.stdout)["rows"]
    problems = []
    if [r["g"] for r in rows] != list(range(1, len(rows) + 1)) or not rows:
        problems.append("sweep rows are not g = 1..g_max")
    objs = [float(r["objective"]) for r in rows]
    for g, (prev, cur) in enumerate(zip(objs, objs[1:]), start=2):
        if cur > prev:
            problems.append(f"sweep objective rises at g={g}: {prev!r} -> {cur!r}")
    n, _ = load_instance(op.instance)
    pairs = n * (n - 1) // 2
    if any(abs(float(r["fit"]) - (1.0 - float(r["objective"]) / pairs)) > 1e-12 for r in rows):
        problems.append("a sweep row's fit != 1 - objective / C(n,2)")
    outcome = [{k: v for k, v in r.items() if k != "time_s"} for r in rows]
    return Inspection(outcome, [float(r["fit"]) for r in rows], problems)


def _inspect_solve(op, res, cli, expected):
    report = json.loads(Path(op.report).read_text(encoding="utf-8"))
    problems = report_problems(report, op.instance)
    problems += program_validate(cli, op.report, op.instance)
    if op.label in expected:
        want = expected[op.label]
        if abs(float(report["objective"]) - want) > OBJ_TOL:
            problems.append(
                f"exact objective {report['objective']!r} != recorded {want!r}"
            )
    outcome = {k: v for k, v in report.items() if k != "time_s"}
    return Inspection(outcome, [float(report["fit"])], problems)


def _inspect_validate(op, res, cli, expected):
    verdict = json.loads(res.stdout)
    problems = [] if verdict.get("valid") is True else [f"invalid: {verdict}"]
    return Inspection(verdict, [], problems)


def _inspect_verify(op, res, cli, expected):
    report = json.loads(res.stdout)
    problems = []
    if report["inside"] is True and report["violations"]:
        problems.append("verify reports inside: true together with 3-cycle violations")
    dist = report["projection_distance"]
    if dist is not None and not (math.isfinite(dist) and dist >= 0.0):
        problems.append(f"projection distance {dist!r} is not a finite non-negative number")
    return Inspection(report, [], problems)


_INSPECT = {
    "gen": _inspect_gen,
    "ingest": _inspect_ingest,
    "sweep": _inspect_sweep,
    "solve": _inspect_solve,
    "validate": _inspect_validate,
    "verify": _inspect_verify,
}


def highs_problems(report: dict, instance: str) -> list[str]:
    """Refit the weights at the report's orders with scipy's HiGHS and check
    that the report's weights reach the same optimum within 1e-9."""
    from scipy.optimize import linprog

    n, c = load_instance(instance)
    X = np.stack([precedence(o, n) for o in report["orders"]])
    g, m = X.shape
    # variables w (g), e+ (m), e- (m): min sum e  s.t.  X^T w + e+ - e- = c, sum w = 1
    cost = np.concatenate([np.zeros(g), np.ones(2 * m)])
    A_eq = np.zeros((m + 1, g + 2 * m))
    A_eq[:m, :g] = X.T
    A_eq[:m, g:g + m] = np.eye(m)
    A_eq[:m, g + m:] = -np.eye(m)
    A_eq[m, :g] = 1.0
    b_eq = np.concatenate([c, [1.0]])
    lp = linprog(cost, A_eq=A_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if lp.status != 0:
        return [f"HiGHS refit failed: {lp.message}"]
    w = np.maximum(lp.x[:g], 0.0)
    refit = float(np.abs(c - (w / w.sum()) @ X).sum())
    stated = l1_gap(c, n, report["orders"], report["weights"])
    if abs(stated - refit) > OBJ_TOL:
        return [f"weights reach {stated!r}, HiGHS refit reaches {refit!r}"]
    return []
