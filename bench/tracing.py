"""Spans around phaseamp's layers, recorded from outside the program.

Each traced function is replaced at every place a caller looks it up: a
module that did ``from .encoding import build_histogram`` holds its own
reference, so that name is wrapped there too. A span records its id, its
parent span, its name, start and end, and the operation it belongs to (the
operation is the trace id). Spans stay in memory until the run ends.
A layer's self time is its spans' duration minus the part its child spans
cover.
"""

from __future__ import annotations

import sys
import time
from collections import Counter


def _edge_evals(args, result) -> dict:
    g = args[0]
    return {"edge_evals": (1 << g.n_vertices) * g.edge_count}


def _class_table(args, result) -> dict:
    # One int32 level and one int64 member index per assignment, plus offsets.
    entries = int(result.levels.size)
    members = int(result.class_sizes().sum())
    return {
        "entries": entries,
        "bytes_computed": 4 * entries + 8 * members + 8 * (result.n_levels + 1),
    }


def _written(args, result) -> dict:
    return {"files": len(result), "bytes_written": sum(p.stat().st_size for p in result)}


ANALYTICS_FUNCTIONS = (
    "bound_from_success_run", "band_bound", "two_peak_stats",
    "two_peak_required_measurements", "uniform_run_probability", "uniform_step_success",
    "uniform_run_probability_exact", "central_binomial_norm", "gaussian_tail_estimate",
)

# (module, attribute, counter). A counter turns a call's arguments and result
# into counts; it runs after the operation, outside every timed region.
TARGETS = (
    ("graphs", "objective_values", lambda a, r: {"assignments": len(r)}),
    ("encoding", "build_histogram", _edge_evals),
    ("encoding", "build_class_table", _class_table),
    ("amplifier", "step", None),
    ("amplifier", "sequence_probability", None),
    ("amplifier", "sample_assignment", None),
    ("fullsim", "compare_with_class_weights", lambda a, r: {"cases": r.n_cases}),
    ("fullsim", "run_sequence_fullsim", None),
    *(("analytics", name, None) for name in ANALYTICS_FUNCTIONS),
    ("analytics", "TwoPeakModel.from_gains", None),
    ("analytics", "TwoPeakModel.from_angles", None),
    ("experiments", "success_trajectory", lambda a, r: {"rows": len(r.records)}),
    ("experiments", "emit_svg", lambda a, r: {"bytes": len(r)}),
    ("experiments", "run_experiment", _written),
    ("cli", "main", None),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.self_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.failed: Counter = Counter()
        self.counts: Counter = Counter()
        self.op = 0
        self._stack: list[list] = []
        self._deferred: list[tuple] = []
        self._patches: list[tuple] = []

    def _wrap(self, name: str, fn, counter):
        stack, spans = self._stack, self.spans

        def traced(*args, **kwargs):
            sid = len(spans) + len(stack)
            parent = stack[-1][0] if stack else None
            frame = [sid, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.failed[name] += 1
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                self.self_s[name] += (end - start) - frame[1]
                if stack:
                    stack[-1][1] += end - start
                self.calls[name] += 1
                spans.append((sid, parent, name, start, end, self.op))
            if counter is not None:
                self._deferred.append((name, counter, args, result))
            return result

        return traced

    def install(self) -> None:
        """Wrap every target wherever a phaseamp module holds a reference to it."""
        modules = [m for key, m in sys.modules.items() if key.partition(".")[0] == "phaseamp"]
        for module_name, attr, counter in TARGETS:
            owner = sys.modules[f"phaseamp.{module_name}"]
            name = f"{module_name}.{attr}"
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                wrapper = self._wrap(name, getattr(cls, method), counter)
                self._patches.append((cls, method, cls.__dict__[method]))
                setattr(cls, method, staticmethod(wrapper))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, counter)
            for module in modules:
                for key in [k for k, v in vars(module).items() if v is original]:
                    self._patches.append((module, key, original))
                    setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def end_op(self, stdout_bytes: int) -> None:
        """Close the operation: run the deferred counters, count its stdout."""
        for name, counter, args, result in self._deferred:
            for key, value in counter(args, result).items():
                self.counts[f"{name}.{key}"] += value
        self._deferred.clear()
        self.counts["cli.main.stdout_bytes"] += stdout_bytes
        self.op += 1

    def layer_metrics(self, rounds: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, each per traced round (us_per_call per call)."""
        per = 1.0 / rounds
        out: dict[str, tuple[float, str]] = {}

        def put(metric, value, unit):
            out[metric] = (value, unit)

        for name in (
            "graphs.objective_values", "encoding.build_histogram",
            "encoding.build_class_table", "amplifier.step", "amplifier.sequence_probability",
            "amplifier.sample_assignment", "fullsim.compare_with_class_weights",
            "fullsim.run_sequence_fullsim", "experiments.success_trajectory",
            "experiments.emit_svg", "experiments.run_experiment", "cli.main",
        ):
            put(f"{name}.self_s", self.self_s[name] * per, "s/round")
        for name in (
            "encoding.build_histogram", "amplifier.step", "amplifier.sample_assignment",
        ):
            put(f"{name}.calls", self.calls[name] * per, "count/round")
        put("amplifier.sequence_probability.failed",
            self.failed["amplifier.sequence_probability"] * per, "count/round")
        calls = self.calls["amplifier.step"]
        put("amplifier.step.us_per_call",
            1e6 * self.self_s["amplifier.step"] / calls if calls else 0.0, "us")
        put("analytics.self_s",
            sum(v for k, v in self.self_s.items() if k.startswith("analytics.")) * per, "s/round")
        for key, unit in (
            ("graphs.objective_values.assignments", "count/round"),
            ("encoding.build_histogram.edge_evals", "count/round"),
            ("encoding.build_class_table.entries", "count/round"),
            ("encoding.build_class_table.bytes_computed", "B/round"),
            ("fullsim.compare_with_class_weights.cases", "count/round"),
            ("experiments.success_trajectory.rows", "count/round"),
            ("experiments.emit_svg.bytes", "B/round"),
            ("experiments.run_experiment.files", "count/round"),
            ("experiments.run_experiment.bytes_written", "B/round"),
            ("cli.main.stdout_bytes", "B/round"),
        ):
            put(key, self.counts[key] * per, unit)
        put("trace.spans", len(self.spans) * per, "count/round")
        return out
