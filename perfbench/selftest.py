"""The benchmark's own self-test.

    python3 perfbench/selftest.py [--workloads a,b] [--seed N]

1. The checks catch faults: a solve report whose objective is perturbed by
   1e-6, and an exact objective that differs from the recorded one, must
   each be counted as a failure, while the untouched report passes.
2. Every count of the traced run (`lop.calls`, `lop.unproven_share`,
   `exact.multisets`, `instances.ball_draws`, `heuristic.iterations`,
   `simplex_fit.*_calls`, ...) repeats exactly across two runs.

Exits 0 when every test holds.  Part 2 runs each workload twice with
--trace 1, which takes a few minutes.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

import checks
import run
import workloads

COUNT_SHARES = ("lop.unproven_share", "lop.improved_share")


def fault_checks() -> list[str]:
    """Return what went wrong; empty when the checks behave."""
    errors = []
    work = run.OUT / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        cli = run.import_mlop()
        prefix = work / "small"
        gen = workloads.Op("gen", "gen", ("gen", "--n", "4", "--g-true", "3", "-p", "10",
                                          "--seed", "1", "--out", str(prefix)))
        solve = workloads.Op(
            "exact-small", "solve",
            ("solve", f"{prefix}.instance.json", "--method", "exact", "--g", "3",
             "--out", f"{prefix}.report.json"),
            instance=f"{prefix}.instance.json", report=f"{prefix}.report.json", exact=True)
        for op in (gen, solve):
            res = run.run_op(cli, op, None, 0)
            insp = checks.inspect(op, res, cli, {})
            if insp.problems:
                return [f"{op.label} failed on an untouched run: {insp.problems}"]
        report_path = Path(solve.report)
        good = json.loads(report_path.read_text())
        if checks.highs_problems(good, solve.instance):
            errors.append("HiGHS refit rejects an untouched exact report")

        # a wrong recorded objective is a failure
        wrong = {solve.label: good["objective"] + 1e-6}
        if not checks.inspect(solve, res, cli, wrong).problems:
            errors.append("a wrong recorded exact objective was not counted as a failure")

        # a report perturbed by 1e-6, kept self-consistent, is a failure
        bad = dict(good)
        pairs = good["n"] * (good["n"] - 1) // 2
        bad["objective"] = good["objective"] + 1e-6
        bad["max_form_value"] = pairs - bad["objective"]
        bad["fit"] = 1.0 - bad["objective"] / pairs
        report_path.write_text(json.dumps(bad))
        if not checks.inspect(solve, res, cli, {}).problems:
            errors.append("a report perturbed by 1e-6 was not counted as a failure")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return errors


def traced_counts(workload: str, seed: int) -> tuple[bool, dict]:
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    counts = {k: m["value"] for k, m in result["metrics"].items()
              if m["unit"] == "count" or k in COUNT_SHARES}
    return result["correct"], counts


def count_repeats(names: list[str], seed: int) -> list[str]:
    errors = []
    for name in names:
        ok1, first = traced_counts(name, seed)
        ok2, second = traced_counts(name, seed)
        if not (ok1 and ok2):
            errors.append(f"{name}: a traced run reported correct=false")
        for key in sorted(first):
            if first[key] != second.get(key):
                errors.append(f"{name}: {key} {first[key]} then {second.get(key)}")
        print(f"{name}: {len(first)} counts compared", flush=True)
    return errors


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    run.OUT.mkdir(exist_ok=True)
    errors = fault_checks()
    print(f"fault checks: {'ok' if not errors else 'FAILED'}", flush=True)
    errors += count_repeats(args.workloads.split(","), args.seed)
    for e in errors:
        print(f"FAILED {e}")
    print("selftest: ok" if not errors else f"selftest: {len(errors)} failures")
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
