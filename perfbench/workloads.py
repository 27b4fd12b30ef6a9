"""The benchmark's workloads: which input files a run writes during set-up and
which fixed list of `mlop` commands one timed pass runs.

Every generator seed is derived from the benchmark's --seed, so the same seed
always gives the same files; the program itself only ever sees those files.
NOTES.md says why each workload exists and which layers it is meant to load.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

# heuristic_n16: many independent n=16 instances, one start each, so that the
# heavy-tailed cost of a single instance averages out within one pass
HEURISTIC_INSTANCES = 32
HEURISTIC_RANKINGS = 250
HEURISTIC_ARGS = ("--g-max", "3", "--n-starts", "1", "--step1-budget", "1000")

# exact_oracle: one n=6, g=2 breakpoint-fit enumeration plus several n=4, g=3
# dense-LP enumerations per pass
EXACT_SMALL_INSTANCES = 6

# cli_pipeline: the README flow at sushi size, then gen+verify pairs at n=7,
# repeated on independent instances so that no single one sets the pace
PIPELINE_FLOWS = 3
PIPELINE_VERIFY_INSTANCES = 4


@dataclass(frozen=True)
class Op:
    """One `mlop` command line and what its output is checked against.

    label      stable name of the op within a pass (keys the expected table)
    kind       gen, ingest, sweep, solve, validate or verify
    instance   instance file the command reads (solve checks recompute on it)
    report     file a solve writes its JSON report to
    same_as    instance file an ingest must reproduce byte for byte
    exact      True for an exact solve (checked against the recorded table
               and a HiGHS refit)
    """

    label: str
    kind: str
    argv: tuple[str, ...]
    instance: str | None = None
    report: str | None = None
    same_as: str | None = None
    exact: bool = False


def gen_seed(seed: int, k: int) -> int:
    """Generator seed of the k-th generated file of a run."""
    return seed * 1000 + k


def _gen(label: str, prefix: Path, n: int, g_true: int, p: str, seed: int,
         num_rankings: int | None = None) -> Op:
    argv = ["gen", "--n", str(n), "--g-true", str(g_true), "-p", p,
            "--seed", str(seed), "--out", str(prefix)]
    if num_rankings is not None:
        argv += ["--num-rankings", str(num_rankings)]
    return Op(label, "gen", tuple(argv))


def _instance(prefix: Path) -> str:
    return f"{prefix}.instance.json"


def _solve(label: str, prefix: Path, method: str, g: int) -> Op:
    report = f"{prefix}.{method}-g{g}.report.json"
    argv = ("solve", _instance(prefix), "--method", method, "--g", str(g),
            "--out", report)
    return Op(label, "solve", argv, instance=_instance(prefix), report=report,
              exact=method == "exact")


def _sweep(label: str, prefix: Path, extra: tuple[str, ...]) -> Op:
    argv = ("sweep", _instance(prefix), "--method", "heuristic",
            "--format", "json") + extra
    return Op(label, "sweep", argv, instance=_instance(prefix))


def warmup_ops(work: Path) -> list[Op]:
    """Cheap commands that touch every solver path once before timing."""
    prefix = work / "warmup"
    return [
        _gen("warmup-gen", prefix, 4, 2, "10", 0, num_rankings=100),
        _solve("warmup-heuristic", prefix, "heuristic", 2),
        _solve("warmup-exact", prefix, "exact", 2),
    ]


def _heuristic_n16(seed: int, work: Path) -> tuple[list[Op], list[Op]]:
    setup, ops = [], []
    for k in range(HEURISTIC_INSTANCES):
        prefix = work / f"h16-{k:02d}"
        setup.append(_gen(f"gen-h16-{k:02d}", prefix, 16, 3, "1", gen_seed(seed, k),
                          num_rankings=HEURISTIC_RANKINGS))
        ops.append(_sweep(f"sweep-h16-{k:02d}", prefix, HEURISTIC_ARGS))
    return setup, ops


def _exact_oracle(seed: int, work: Path) -> tuple[list[Op], list[Op]]:
    big = work / "e6"
    setup = [_gen("gen-e6", big, 6, 2, "10", gen_seed(seed, 0))]
    ops = [_solve("exact-e6-g2", big, "exact", 2)]
    for k in range(EXACT_SMALL_INSTANCES):
        prefix = work / f"e4-{k}"
        setup.append(_gen(f"gen-e4-{k}", prefix, 4, 3, "10", gen_seed(seed, k + 1)))
        ops.append(_solve(f"exact-e4-{k}-g3", prefix, "exact", 3))
    return setup, ops


def _cli_pipeline(seed: int, work: Path) -> tuple[list[Op], list[Op]]:
    ops = []
    for f in range(PIPELINE_FLOWS):
        raw = work / f"sushi-{f}"
        ingested = work / f"sushi-{f}-ingested"
        solve = _solve(f"solve-sushi-{f}", ingested, "heuristic", 3)
        base = f * (PIPELINE_VERIFY_INSTANCES + 1)
        ops += [
            _gen(f"gen-sushi-{f}", raw, 10, 3, "5", gen_seed(seed, base), num_rankings=5000),
            Op(f"ingest-sushi-{f}", "ingest",
               ("ingest", f"{raw}.rankings.txt", "--out", str(ingested)),
               same_as=_instance(raw)),
            _sweep(f"sweep-sushi-{f}", ingested, ("--g-max", "3")),
            solve,
            Op(f"validate-sushi-{f}", "validate",
               ("validate", solve.report, "--instance", solve.instance)),
        ]
        for k in range(PIPELINE_VERIFY_INSTANCES):
            prefix = work / f"v7-{f}-{k}"
            ops.append(_gen(f"gen-v7-{f}-{k}", prefix, 7, 3, "5", gen_seed(seed, base + k + 1)))
            ops.append(Op(f"verify-v7-{f}-{k}", "verify", ("verify", _instance(prefix)),
                          instance=_instance(prefix)))
    return [], ops


WORKLOADS = {
    "heuristic_n16": _heuristic_n16,
    "exact_oracle": _exact_oracle,
    "cli_pipeline": _cli_pipeline,
}


def build(name: str, seed: int, work: Path) -> tuple[list[Op], list[Op]]:
    """(set-up ops that write the input files, ops of one timed pass)."""
    return WORKLOADS[name](seed, work)
