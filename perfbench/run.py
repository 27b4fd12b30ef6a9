"""mlop benchmark: runs one workload as a closed loop (one client; each `mlop`
command starts only after the previous one ended) and prints its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

It drives `mlop.cli.main` in-process, from the checkout's `src/`, on files it
generates from --seed.  A run sets up several times (fresh import of `mlop`,
writing the input files, a warm-up) and reports the median set-up time, then
repeats the workload's fixed op list ("pass") while --seconds allow, at least
once.  Every op's output is checked (checks.py).  With --trace 0 the last line
of stdout carries the end-to-end metrics; with --trace 1 it carries the
per-layer metrics of a traced set-up and pass (spans.py) and the tracing
overhead, from untraced and traced passes run alternately.

Host-normalized times.  On a shared host the speed of one core drifts by up
to 1.6x within minutes, for every program alike.  So the benchmark times a
fixed reference computation that does not involve `mlop` (`reference_s`)
right before and after every `mlop` command, and every SAMPLE_EVERY_S while
it runs (HostClock), and reports `wall_s` and `setup_s` as measured seconds
scaled by REF_S / (mean reference time): the seconds the work would take on
a host where the reference takes REF_S.  The raw measured seconds are
printed on the line before the result.
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread in this process, set before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext, redirect_stderr, redirect_stdout  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import fmean, median  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "_work"
EXPECTED = HERE / "expected_exact.json"

SETUP_REPS = 3

# nominal duration of reference_s(); normalized times are in seconds at it
REF_S = 0.015
SAMPLE_EVERY_S = 0.5


class SetupFailed(RuntimeError):
    pass


def reference_s() -> float:
    """Wall time of a fixed computation that does not involve `mlop`: small
    numpy operations driven from a Python loop, the same mix as mlop's."""
    a = np.arange(64.0)
    acc = 0.0
    t0 = perf_counter()
    for i in range(3000):
        acc += float(np.abs(a - i).sum())
        for j in range(16):
            acc += j * 0.5
    return perf_counter() - t0


class HostClock:
    """Times a stretch of work and the host's speed around and during it.

    reference_s() runs before and after the stretch and, from a timer
    signal, every SAMPLE_EVERY_S within it; the time those in-stretch samples
    take is taken out of the stretch's measured seconds again.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.sampling_s = 0.0
        self.raw_s = 0.0

    def _sample(self, signum, frame):
        t0 = perf_counter()
        self.samples.append(reference_s())
        self.sampling_s += perf_counter() - t0

    def __enter__(self):
        self.samples.append(reference_s())
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        self._t0 = perf_counter()
        return self

    def __exit__(self, *exc):
        elapsed = perf_counter() - self._t0
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.raw_s = elapsed - self.sampling_s
        self.samples.append(reference_s())
        return False

    @property
    def norm_s(self) -> float:
        return self.raw_s * REF_S / fmean(self.samples)


def import_mlop():
    """Import the checkout's `mlop` afresh and return its `cli` module."""
    for name in [m for m in sys.modules if m == "mlop" or m.startswith("mlop.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    cli = importlib.import_module("mlop.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"mlop was imported from {cli.__file__}, not from {SRC}")
    return cli


def clear_caches() -> None:
    """Empty every memo cache in `mlop`, so each command starts as cold as a
    fresh `mlop` process would (the import itself aside)."""
    for name, module in list(sys.modules.items()):
        if name == "mlop" or name.startswith("mlop."):
            for obj in vars(module).values():
                clear = getattr(obj, "cache_clear", None)
                if callable(clear):
                    clear()


def run_op(cli, op: workloads.Op, tracer: Tracer | None, op_id: int) -> checks.OpResult:
    clear_caches()
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    span = tracer.op_span(op_id) if tracer is not None else nullcontext()
    with HostClock() as clock:
        try:
            with span, redirect_stdout(out), redirect_stderr(err):
                code = cli.main(list(op.argv))
        except SystemExit as e:  # argparse rejected the command line
            code = e.code if isinstance(e.code, int) else 2
        except Exception:  # the op failed; record it and go on with the next one
            error = traceback.format_exc(limit=-2).strip().replace("\n", " | ")
    return checks.OpResult(code, out.getvalue(), err.getvalue(), clock.raw_s, clock.norm_s, error)


@dataclass
class Pass:
    traced: bool
    raw_s: dict[str, float] = field(default_factory=dict)    # op label -> seconds
    norm_s: dict[str, float] = field(default_factory=dict)   # op label -> normalized
    inspections: dict[str, checks.Inspection] = field(default_factory=dict)


class Bench:
    def __init__(self, workload: str, seed: int, trace: bool, base: Path):
        self.workload, self.seed, self.trace, self.base = workload, seed, trace, base
        self.tracer = Tracer() if trace else None
        table = json.loads(EXPECTED.read_text(encoding="utf-8")) if EXPECTED.exists() else {}
        self.expected: dict[str, float] = table.get(workload, {}).get(str(seed), {})
        self.cli = None
        self.ops: list[workloads.Op] = []
        self.setup_raw_s: list[float] = []
        self.setup_norm_s: list[float] = []
        self.passes: list[Pass] = []
        self.phases: list[tuple] = []  # (start mark, end mark, label) of traced phases
        self.op_count = 0

    def _run(self, op, traced: bool) -> checks.OpResult:
        self.op_count += 1
        return run_op(self.cli, op, self.tracer if traced else None, self.op_count)

    def setup(self, rep: int, traced: bool) -> None:
        """Fresh import, input files, warm-up; only the `mlop` work is timed."""
        with HostClock() as clock:
            self.cli = import_mlop()
        raw, norm = clock.raw_s, clock.norm_s
        if traced:
            lo = self.tracer.mark()
            self.tracer.install()
        work = self.base / f"setup{rep}"
        work.mkdir(parents=True)
        setup_ops, self.ops = workloads.build(self.workload, self.seed, work)
        try:
            for op in setup_ops + workloads.warmup_ops(work):
                res = self._run(op, traced)
                raw, norm = raw + res.wall_s, norm + res.norm_s
                problems = checks.inspect(op, res, self.cli, {}).problems
                if problems:
                    raise SetupFailed(f"{op.label}: {'; '.join(problems)}")
        finally:
            if traced:
                self.tracer.uninstall()
                self.phases.append((lo, self.tracer.mark(), "setup"))
        self.setup_raw_s.append(raw)
        self.setup_norm_s.append(norm)

    def run_pass(self, traced: bool) -> None:
        p = Pass(traced)
        if traced:
            lo = self.tracer.mark()
            self.tracer.install()
        try:
            for op in self.ops:
                res = self._run(op, traced)
                p.raw_s[op.label] = res.wall_s
                p.norm_s[op.label] = res.norm_s
                insp = checks.inspect(op, res, self.cli, self.expected)
                if self.passes and insp.outcome is not None:
                    first = self.passes[0].inspections[op.label].outcome
                    if first is not None and insp.outcome != first:
                        insp.problems.append("output differs from the first pass")
                p.inspections[op.label] = insp
        finally:
            if traced:
                self.tracer.uninstall()
                self.phases.append((lo, self.tracer.mark(), f"pass{len(self.passes)}"))
        self.passes.append(p)

    def measure(self, seconds: float) -> None:
        """Closed loop of passes (untraced, or untraced then traced) for the
        given time; at least one cycle, and no cycle that would overrun it."""
        cycle = [False, True] if self.trace else [False]
        start = perf_counter()
        while True:
            t0 = perf_counter()
            for traced in cycle:
                self.run_pass(traced)
            took = perf_counter() - t0
            if perf_counter() - start + took > seconds:
                break

    def highs_check(self) -> None:
        try:
            import scipy.optimize  # noqa: F401
        except ImportError:
            print("note: scipy missing, HiGHS refit check skipped", file=sys.stderr)
            return
        exact = {op.label: op for op in self.ops if op.exact}
        for p in self.passes:
            for label, insp in p.inspections.items():
                if label in exact and insp.outcome is not None:
                    insp.problems += checks.highs_problems(insp.outcome, exact[label].instance)

    def failures(self) -> tuple[int, int, list[str]]:
        attempted = failed = 0
        lines = []
        for i, p in enumerate(self.passes):
            for label, insp in p.inspections.items():
                attempted += 1
                if insp.problems:
                    failed += 1
                    lines.append(f"pass {i} {label}: {'; '.join(insp.problems)}")
        return attempted, failed, lines

    def op_list_s(self, traced: bool, key: str = "norm_s") -> float:
        """Each op's median over the passes, summed: a burst of load that slows
        one op of one pass is filtered out."""
        passes = [getattr(p, key) for p in self.passes if p.traced == traced]
        return sum(median(p[op.label] for p in passes) for op in self.ops)

    def end_to_end(self, peak_rss_mb: float, attempted: int, failed: int) -> dict:
        fits = [f for i in self.passes[0].inspections.values() for f in i.fits]
        return {
            "wall_s": (self.op_list_s(False), "s"),
            "setup_s": (median(self.setup_norm_s), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "fit_mean": (fmean(fits), "ratio"),
            "ok_share": ((attempted - failed) / attempted, "ratio"),
        }

    def per_layer(self) -> dict:
        # the traced set-up and the first traced pass: adjacent in the span
        # arrays, since untraced passes record nothing
        (lo, _, _), (_, hi, _) = self.phases[0], self.phases[1]
        metrics = self.tracer.layer_metrics(lo, hi)
        metrics["trace.overhead_share"] = self.op_list_s(True) / self.op_list_s(False) - 1.0
        return {k: (v, _unit(k)) for k, v in metrics.items()}

    def raw(self) -> dict:
        """Measured seconds, before host normalization."""
        return {"wall_s": self.op_list_s(False, "raw_s"),
                "setup_s": median(self.setup_raw_s),
                "passes": len(self.passes)}


def _unit(name: str) -> str:
    if name.endswith("_share"):
        return "ratio"
    if name.endswith("_s") or "_s_" in name:
        return "s"
    return "count"


def host_info(workload: str, seed: int) -> dict:
    model = platform.processor() or ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "workload": workload,
        "seed": seed,
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    OUT.mkdir(exist_ok=True)
    base = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    bench = Bench(args.workload, args.seed, bool(args.trace), base)
    try:
        for rep in range(SETUP_REPS):
            bench.setup(rep, traced=bench.trace and rep == SETUP_REPS - 1)
        bench.measure(args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        bench.highs_check()
    except (ImportError, SetupFailed) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(base, ignore_errors=True)

    attempted, failed, lines = bench.failures()
    for line in lines:
        print(f"FAILED {line}", file=sys.stderr)
    metrics = bench.per_layer() if bench.trace else bench.end_to_end(peak_rss_mb, attempted, failed)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    info = {"host": host_info(args.workload, args.seed), "raw": bench.raw()}
    record = {**info, "passes": [{"raw_s": p.raw_s, "norm_s": p.norm_s} for p in bench.passes],
              "setup_raw_s": bench.setup_raw_s, "setup_norm_s": bench.setup_norm_s, **result}
    (OUT / f"last-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if bench.trace:
        bench.tracer.write_csv(OUT / f"spans-{args.workload}.csv", bench.phases)
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
