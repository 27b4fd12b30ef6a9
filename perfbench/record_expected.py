"""Record the objectives of the exact_oracle solves for a range of seeds into
expected_exact.json, which later runs compare against.

    python3 perfbench/record_expected.py --seeds 0-31

Each recorded solve must first pass every other check of the benchmark
(independent recomputation, `mlop validate`, HiGHS refit).  Re-record only
for a program whose exact answers are known to be right.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import run

WORKLOAD = "exact_oracle"


def record(seed: int) -> dict[str, float]:
    base = run.OUT / f"record-{seed}"
    bench = run.Bench(WORKLOAD, seed, False, base)
    bench.expected = {}
    try:
        bench.setup(0, traced=False)
        p = bench.run_pass(traced=False)
        bench.highs_check()
    finally:
        shutil.rmtree(base, ignore_errors=True)
    _, failed, lines = bench.failures()
    if failed:
        raise SystemExit(f"seed {seed}: checks failed, nothing recorded:\n" + "\n".join(lines))
    exact = {op.label for op in bench.ops if op.exact}
    return {label: insp.outcome["objective"] for label, insp in p.inspections.items()
            if label in exact}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True, help="inclusive range, e.g. 0-31")
    lo, hi = (int(v) for v in parser.parse_args().seeds.split("-"))
    run.OUT.mkdir(exist_ok=True)
    table = json.loads(run.EXPECTED.read_text()) if run.EXPECTED.exists() else {}
    seeds = table.setdefault(WORKLOAD, {})
    for seed in range(lo, hi + 1):
        seeds[str(seed)] = record(seed)
        print(f"seed {seed}: {seeds[str(seed)]}", flush=True)
        ordered = {w: dict(sorted(s.items(), key=lambda kv: int(kv[0]))) for w, s in table.items()}
        run.EXPECTED.write_text(json.dumps(ordered, indent=1, sort_keys=False) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
