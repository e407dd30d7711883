"""Closed-loop benchmark of the phase-amp command line: one client, one thread.

    python3 bench/run.py --workload paper-figures --seed 1 --seconds 40 --trace 0

Each operation is one in-process call of ``phaseamp.cli.main(argv)`` with
stdout and stderr captured in memory. A run repeats whole rounds of the
workload's seeded operation list until ``--seconds`` have passed and the
workload's minimum round count is reached, checks every output against the
independent references in ``checks.py``, writes a result file under
``bench/results/``, and prints one JSON line: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

import os
import sys

# One BLAS/OpenMP thread, set before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# Nothing is written into the source tree; phaseamp is compiled at each set-up.
sys.dont_write_bytecode = True

import gc
import importlib
import time

import numpy as np

# Set-up times phaseamp's own import: every module loaded after this point
# is dropped and loaded again on each set-up.
BASE_MODULES = frozenset(sys.modules)

import argparse
import contextlib
import io
import json
import math
import platform
import resource
import shutil
from pathlib import Path

import checks
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path("bench")
# Set-up is timed once before the first round and again between rounds
# whenever this many seconds have passed, so its median samples the same
# stretch of time as the operations.
SETUP_INTERVAL_S = 3.0


def time_set_up(workload: workloads.Workload, seed: int, scratch: Path) -> float:
    """Seconds to import phaseamp.cli afresh, build its parser and make the inputs.

    Every module loaded after numpy is dropped first and put back afterwards,
    so the operations keep running on the module objects they started with.
    """
    kept = {name: module for name, module in sys.modules.items() if name not in BASE_MODULES}
    for name in kept:
        del sys.modules[name]
    importlib.invalidate_caches()
    gc.collect()
    start = time.perf_counter()
    importlib.import_module("phaseamp.cli").build_parser()
    workload.build(seed, scratch)
    elapsed = time.perf_counter() - start
    for name in [name for name in sys.modules if name not in BASE_MODULES]:
        del sys.modules[name]
    sys.modules.update(kept)
    return elapsed


def read_outputs(out_dir: Path | None) -> dict[str, str]:
    if out_dir is None or not out_dir.is_dir():
        return {}
    return {p.name: p.read_text() for p in sorted(out_dir.iterdir())}


def percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


class Tally:
    """Latencies and counts of one kind of round (traced or not)."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.busy_s = 0.0
        self.rounds = 0

    def ops_per_s(self) -> float:
        return len(self.latencies) / self.busy_s if self.busy_s else 0.0


def run_rounds(cli, ops, workload, seed: int, scratch: Path, seconds: float, tracer, checker):
    """The closed loop. Only the ``cli.main`` call is timed; capture checks,
    file removal, garbage collection and the set-up repeats happen between
    operations."""
    setups = [time_set_up(workload, seed, scratch)]
    last_setup = time.perf_counter()
    tallies = {False: Tally(), True: Tally()}
    by_kind: dict[str, list[float]] = {}
    failures: dict[str, dict] = {}
    attempted = failed = rounds = 0
    start = time.perf_counter()
    while rounds < workload.min_rounds or time.perf_counter() - start < seconds:
        traced = tracer is not None and rounds % 2 == 1
        tally = tallies[traced]
        if traced:
            tracer.install()
        for op in ops:
            out, err = io.StringIO(), io.StringIO()
            began = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    status = cli.main(list(op.argv))
            except (Exception, SystemExit) as exc:
                status = exc
            elapsed = time.perf_counter() - began
            if traced:
                tracer.end_op(len(out.getvalue()))
            attempted += 1
            tally.busy_s += elapsed
            if status == 0:
                tally.latencies.append(elapsed)
                by_kind.setdefault(op.kind, []).append(elapsed)
                checker.add(op, out.getvalue(), read_outputs(op.out_dir))
            else:
                failed += 1
                entry = failures.setdefault(op.kind, {"count": 0})
                entry["count"] += 1
                entry["error"] = (
                    f"{type(status).__name__}: {status}"
                    if isinstance(status, BaseException)
                    else f"exit {status}: {err.getvalue().strip()[:200]}"
                )
            if op.out_dir is not None:
                shutil.rmtree(op.out_dir, ignore_errors=True)
        if traced:
            tracer.uninstall()
        checker.end_round()
        gc.collect()
        tally.rounds += 1
        rounds += 1
        if time.perf_counter() - last_setup >= SETUP_INTERVAL_S:
            setups.append(time_set_up(workload, seed, scratch))
            last_setup = time.perf_counter()
    return setups, tallies, by_kind, failures, attempted, failed


def git_sha() -> str:
    """The checked-out commit, read from .git when there is one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    os.chdir(ROOT)
    if not (Path("src") / "phaseamp" / "cli.py").is_file():
        print(f"error: no phaseamp source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workload = workloads.WORKLOADS[args.workload]
    scratch = BENCH / "scratch" / args.workload
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)

    gc.disable()
    cli = importlib.import_module("phaseamp.cli")
    ops = workload.build(args.seed, scratch)
    gc.collect()
    gc.freeze()
    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: imported phaseamp from {cli.__file__}", file=sys.stderr)
        return 2

    tracer = tracing.Tracer() if args.trace else None
    checker = checks.Checker()
    setups, tallies, by_kind, failures, attempted, failed = run_rounds(
        cli, ops, workload, args.seed, scratch, args.seconds, tracer, checker
    )
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    shutil.rmtree(scratch, ignore_errors=True)

    plain = tallies[False]
    latencies = sorted(plain.latencies)
    if args.trace:
        traced = tallies[True]
        metrics = tracer.layer_metrics(traced.rounds)
        metrics["trace.ops_per_s_untraced"] = (plain.ops_per_s(), "ops/s")
        metrics["trace.ops_per_s_traced"] = (traced.ops_per_s(), "ops/s")
        metrics["trace.overhead_pct"] = (
            100.0 * (1.0 - traced.ops_per_s() / plain.ops_per_s()), "%"
        )
    else:
        metrics = {
            "setup_s": (percentile(sorted(setups), 50), "s"),
            "ops_per_s": (plain.ops_per_s(), "ops/s"),
            "op_p50_ms": (1e3 * percentile(latencies, 50), "ms"),
            "op_tail_ms": (1e3 * percentile(latencies, workload.tail_pct), "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    correct = not checker.errors
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "rounds": plain.rounds + tallies[True].rounds,
        "ops_per_round": len(ops),
        "latency_samples": len(latencies),
        "tail_percentile": workload.tail_pct,
        "setup_s_repeats": setups,
        "median_ms_by_kind": {
            kind: 1e3 * sorted(v)[len(v) // 2] for kind, v in sorted(by_kind.items())
        },
        "failures": failures,
        "outputs_checked": checker.checked,
        "check_errors": checker.errors[:20],
        **result,
    }
    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if tracer is not None:
        traces = BENCH / "traces"
        traces.mkdir(exist_ok=True)
        with open(traces / f"{args.workload}-seed{args.seed}.json", "w") as fh:
            json.dump({
                "fields": ["id", "parent", "name", "start_s", "end_s", "op"],
                "spans": tracer.spans,
            }, fh)
    for error in checker.errors[:5]:
        print(f"check failed: {error}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
