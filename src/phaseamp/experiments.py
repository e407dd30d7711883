"""Benchmark experiment regeneration.

Produces the success-trajectory tables for the benchmark graphs, the
phase-distribution exports, the amplified 4x4-grid distribution, and the
summary table of headline numbers, each as CSV/JSON data files plus a
self-rendered SVG chart. All outputs are pure functions of their inputs so
regenerated files are byte-identical across runs.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Collection, Iterable, Mapping, Sequence
from xml.sax.saxutils import escape

import numpy as np

from .amplifier import initial_state, step, success_run, tail_probability
from .encoding import PhaseHistogram, build_histogram
from .errors import InvalidParameterError, ResourceLimitError
from .graphs import ObjectiveKind, parse_graph_spec
from .meta import SCHEMA_VERSION, __version__

FIG1A_GRAPHS = ("line:6", "line:8", "line:10", "line:12")
FIG1BC_GRAPHS = ("line:10", "grid:3x3", "grid:4x4", "starring:16")
FIG2_GRAPHS = ("line:12", "grid:4x4", "starring:16")

# Trajectory experiments enumerate every assignment once per graph.
TRAJECTORY_VERTEX_LIMIT = 20

_CSV_HEADER = "m,p_individual,P_sequence,p_optimal_conditional"


def _fnum(v: float) -> str:
    return format(float(v), ".12g")


@dataclass(frozen=True)
class IterationRecord:
    """One row of a success trajectory.

    ``p_individual`` is the branch probability of the m-th success (1.0 on
    the m = 0 row), ``p_sequence`` the cumulative probability of the all-ones
    record so far, ``p_optimal_conditional`` the conditional weight of the
    top populated level. The two tails are conditional masses at angles at
    least pi/2, respectively at least 3*pi/4.
    """

    m: int
    p_individual: float
    p_sequence: float
    p_optimal_conditional: float
    tail_ge_half_pi: float
    tail_ge_three_quarter_pi: float

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "p_individual": self.p_individual,
            "P_sequence": self.p_sequence,
            "p_optimal_conditional": self.p_optimal_conditional,
            "tail": {
                "ge_half_pi": self.tail_ge_half_pi,
                "ge_three_quarter_pi": self.tail_ge_three_quarter_pi,
            },
        }


@dataclass(frozen=True)
class RunReport:
    """Success trajectory on one graph plus provenance."""

    label: str
    objective: str
    n_vertices: int
    n_edges: int
    support: int
    optimal_level: int
    records: tuple[IterationRecord, ...]

    def to_csv(self) -> str:
        lines = [_CSV_HEADER]
        lines.extend(
            f"{r.m},{_fnum(r.p_individual)},{_fnum(r.p_sequence)},"
            f"{_fnum(r.p_optimal_conditional)}"
            for r in self.records
        )
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "generator": f"phaseamp {__version__}",
            "graph": self.label,
            "objective": self.objective,
            "n_vertices": self.n_vertices,
            "n_edges": self.n_edges,
            "support": self.support,
            "optimal_level": self.optimal_level,
            "records": [r.to_json_dict() for r in self.records],
        }


def success_trajectory(
    h: PhaseHistogram,
    m_max: int,
    label: str = "",
    objective: str = "maxcut",
    n_vertices: int = 0,
) -> RunReport:
    """Iterate all-ones measurements, recording one row per count."""
    if m_max < 0:
        raise InvalidParameterError("iteration range must be nonnegative")
    optimal_level = int(np.max(np.nonzero(h.counts)[0]))
    state = initial_state(h)
    records = [
        IterationRecord(
            0,
            1.0,
            1.0,
            float(state.weights[optimal_level]),
            tail_probability(state, math.pi / 2),
            tail_probability(state, 3 * math.pi / 4),
        )
    ]
    for m in range(1, m_max + 1):
        state, p = step(state, 1)
        records.append(
            IterationRecord(
                m,
                p,
                state.probability,
                float(state.weights[optimal_level]),
                tail_probability(state, math.pi / 2),
                tail_probability(state, 3 * math.pi / 4),
            )
        )
    return RunReport(
        label,
        objective,
        n_vertices,
        h.denominator if h.denominator is not None else 0,
        h.support,
        optimal_level,
        tuple(records),
    )


def _trajectory_for_spec(spec: str, m_max: int) -> RunReport:
    g = parse_graph_spec(spec)
    if g.n_vertices > TRAJECTORY_VERTEX_LIMIT:
        raise ResourceLimitError(
            f"trajectory experiments capped at {TRAJECTORY_VERTEX_LIMIT} vertices, "
            f"got {g.n_vertices} from {spec!r}"
        )
    h = build_histogram(g, ObjectiveKind.MAXCUT)
    return success_trajectory(h, m_max, label=spec, n_vertices=g.n_vertices)


def _trajectories(specs: Sequence[str], m_max: int) -> dict[str, RunReport]:
    return {spec: _trajectory_for_spec(spec, m_max) for spec in specs}


def fig1a(graph_specs: Sequence[str] = FIG1A_GRAPHS, m_max: int = 60) -> dict[str, RunReport]:
    """Conditional optimal probability vs success count across line sizes."""
    return _trajectories(tuple(graph_specs), m_max)


def fig1b_fig1c(
    graph_specs: Sequence[str] = FIG1BC_GRAPHS, m_max: int = 60
) -> dict[str, RunReport]:
    """Individual and sequence success probabilities on the benchmark graphs."""
    specs = tuple(graph_specs)
    unknown = [s for s in specs if s not in FIG1BC_GRAPHS]
    if unknown:
        raise InvalidParameterError(
            f"benchmark trajectories cover {FIG1BC_GRAPHS}, got {unknown}"
        )
    return _trajectories(specs, m_max)


def fig2(graph_specs: Sequence[str] = FIG2_GRAPHS) -> dict[str, PhaseHistogram]:
    """Phase distributions of the showcase graphs (all-zeros assignment excluded)."""
    specs = tuple(graph_specs)
    unknown = [s for s in specs if s not in FIG2_GRAPHS]
    if unknown:
        raise InvalidParameterError(
            f"phase distribution exports cover {FIG2_GRAPHS}, got {unknown}"
        )
    return {
        spec: build_histogram(parse_graph_spec(spec), ObjectiveKind.MAXCUT)
        for spec in specs
    }


@dataclass(frozen=True)
class AmplifiedDistribution:
    """Conditional level distribution after a run, scaled back to counts.

    ``scaled_weights`` holds support * conditional weight per level, so at
    m = 0 the values coincide with the raw level counts and stay directly
    comparable to them for m > 0.
    """

    label: str
    m: int
    scale: int
    thetas: np.ndarray
    scaled_weights: np.ndarray

    @property
    def mode_theta(self) -> float:
        return float(self.thetas[int(np.argmax(self.scaled_weights))])

    def to_csv(self) -> str:
        lines = ["theta,scaled_weight"]
        lines.extend(
            f"{_fnum(t)},{_fnum(w)}" for t, w in zip(self.thetas, self.scaled_weights)
        )
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "generator": f"phaseamp {__version__}",
            "graph": self.label,
            "successes": self.m,
            "scale": self.scale,
            "mode_theta": self.mode_theta,
            "levels": [
                {"theta": float(t), "scaled_weight": float(w)}
                for t, w in zip(self.thetas, self.scaled_weights)
            ],
        }


def fig3(grid_spec: str = "grid:4x4", m: int = 10) -> AmplifiedDistribution:
    """Phase distribution of the grid after ``m`` successes, count-scaled.

    At m = 0 the output equals the unamplified distribution exactly.
    """
    if m < 0:
        raise InvalidParameterError("success count must be nonnegative")
    g = parse_graph_spec(grid_spec)
    h = build_histogram(g, ObjectiveKind.MAXCUT)
    state, _ = success_run(h, m)
    return AmplifiedDistribution(
        grid_spec, m, h.support, h.thetas, h.support * state.weights
    )


@dataclass(frozen=True)
class GridTableReport:
    """Headline numbers for one graph: hit rates and work comparison."""

    label: str
    m: int
    initial_optimal_probability: float
    conditional_optimal_probability: float
    run_probability: float

    @property
    def checks_direct(self) -> float:
        """Expected direct draws per optimal hit."""
        return 1.0 / self.initial_optimal_probability

    @property
    def checks_amplified(self) -> float:
        """Expected post-run draws per optimal hit."""
        return 1.0 / self.conditional_optimal_probability

    def to_json_dict(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "generator": f"phaseamp {__version__}",
            "graph": self.label,
            "successes": self.m,
            "initial_optimal_probability": self.initial_optimal_probability,
            "conditional_optimal_probability": self.conditional_optimal_probability,
            "run_probability": self.run_probability,
            "checks_direct": self.checks_direct,
            "checks_amplified": self.checks_amplified,
            "checks_saved_factor": self.checks_direct / self.checks_amplified,
        }

    def to_csv(self) -> str:
        doc = self.to_json_dict()
        lines = ["key,value"]
        lines.extend(
            f"{k},{doc[k] if isinstance(doc[k], (str, int)) else _fnum(doc[k])}"
            for k in (
                "graph",
                "successes",
                "initial_optimal_probability",
                "conditional_optimal_probability",
                "run_probability",
                "checks_direct",
                "checks_amplified",
                "checks_saved_factor",
            )
        )
        return "\n".join(lines) + "\n"


def grid_table(grid_spec: str = "grid:4x4", m: int = 10) -> GridTableReport:
    """Initial and amplified optimal hit rates plus the work comparison."""
    if m < 0:
        raise InvalidParameterError("success count must be nonnegative")
    g = parse_graph_spec(grid_spec)
    h = build_histogram(g, ObjectiveKind.MAXCUT)
    optimal_level = int(np.max(np.nonzero(h.counts)[0]))
    initial = float(h.counts[optimal_level] / h.support)
    state, p_run = success_run(h, m)
    return GridTableReport(
        grid_spec, m, initial, float(state.weights[optimal_level]), p_run
    )


# ---------------------------------------------------------------------------
# SVG rendering


@dataclass(frozen=True)
class Series:
    """One named curve or bar group."""

    name: str
    xs: tuple[float, ...]
    ys: tuple[float, ...]
    kind: str = "line"

    def __post_init__(self) -> None:
        if self.kind not in ("line", "bar"):
            raise InvalidParameterError(f"unknown series kind: {self.kind!r}")
        if len(self.xs) != len(self.ys) or not self.xs:
            raise InvalidParameterError("series needs matching nonempty xs and ys")


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _svgnum(v: float) -> str:
    s = format(float(v), ".6g")
    return "0" if s == "-0" else s


def _ticks(lo: float, hi: float, target: int = 5) -> list[float]:
    span = hi - lo
    raw = span / max(target - 1, 1)
    magnitude = 10.0 ** math.floor(math.log10(raw))
    step = 10.0 * magnitude
    for mult in (1.0, 2.0, 2.5, 5.0):
        if span / (mult * magnitude) <= target + 0.5:
            step = mult * magnitude
            break
    first = math.ceil(lo / step - 1e-9) * step
    out = []
    t = first
    while t <= hi + 1e-9 * max(span, 1.0):
        out.append(0.0 if abs(t) < step * 1e-9 else t)
        t += step
    return out


def emit_svg(
    series: Sequence[Series],
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
    width: int = 720,
    height: int = 480,
) -> str:
    """Render a deterministic, self-contained line or bar chart."""
    if not series:
        raise InvalidParameterError("nothing to plot: empty series set")
    left, right, top, bottom = 64, 16, 36, 48
    plot_w = width - left - right
    plot_h = height - top - bottom

    x_lo = min(min(s.xs) for s in series)
    x_hi = max(max(s.xs) for s in series)
    y_lo = min(min(s.ys) for s in series)
    y_hi = max(max(s.ys) for s in series)
    has_bars = any(s.kind == "bar" for s in series)
    if has_bars:
        y_lo = min(y_lo, 0.0)
        spacing = min(
            (min(b - a for a, b in zip(s.xs, s.xs[1:])) for s in series if s.kind == "bar" and len(s.xs) > 1),
            default=1.0,
        )
        x_lo -= spacing
        x_hi += spacing
    if x_hi == x_lo:
        x_lo -= 0.5
        x_hi += 0.5
    if y_hi == y_lo:
        y_lo -= 0.5
        y_hi += 0.5
    pad = 0.04 * (y_hi - y_lo)
    y_hi += pad
    if y_lo != 0.0:
        y_lo -= pad

    def sx(v: float) -> float:
        return left + (v - x_lo) / (x_hi - x_lo) * plot_w

    def sy(v: float) -> float:
        return top + plot_h - (v - y_lo) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="#ffffff"/>',
    ]
    if title:
        parts.append(
            f'<text x="{_svgnum(width / 2)}" y="22" text-anchor="middle" '
            f'font-family="sans-serif" font-size="15" fill="#222222">{escape(title)}</text>'
        )
    # Gridlines and axis labels.
    for t in _ticks(x_lo, x_hi):
        x = _svgnum(sx(t))
        parts.append(
            f'<line x1="{x}" y1="{top}" x2="{x}" y2="{top + plot_h}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{x}" y="{top + plot_h + 16}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11" fill="#222222">{_svgnum(t)}</text>'
        )
    for t in _ticks(y_lo, y_hi):
        y = _svgnum(sy(t))
        parts.append(
            f'<line x1="{left}" y1="{y}" x2="{left + plot_w}" y2="{y}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{left - 6}" y="{y}" text-anchor="end" dominant-baseline="middle" '
            f'font-family="sans-serif" font-size="11" fill="#222222">{_svgnum(t)}</text>'
        )
    parts.append(
        f'<rect x="{left}" y="{top}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#222222" stroke-width="1"/>'
    )
    if xlabel:
        parts.append(
            f'<text x="{_svgnum(left + plot_w / 2)}" y="{height - 10}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12" fill="#222222">{escape(xlabel)}</text>'
        )
    if ylabel:
        parts.append(
            f'<text x="16" y="{_svgnum(top + plot_h / 2)}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12" fill="#222222" '
            f'transform="rotate(-90 16 {_svgnum(top + plot_h / 2)})">{escape(ylabel)}</text>'
        )

    n_bar_series = sum(1 for s in series if s.kind == "bar")
    bar_slot = 0
    for idx, s in enumerate(series):
        color = _PALETTE[idx % len(_PALETTE)]
        if s.kind == "bar":
            if len(s.xs) > 1:
                spacing = min(b - a for a, b in zip(s.xs, s.xs[1:]))
            else:
                spacing = 1.0
            group_w = 0.8 * spacing * plot_w / (x_hi - x_lo)
            bar_w = group_w / n_bar_series
            base_y = sy(max(0.0, y_lo))
            for xv, yv in zip(s.xs, s.ys):
                x0 = sx(xv) - group_w / 2 + bar_slot * bar_w
                y1 = sy(yv)
                h = abs(base_y - y1)
                parts.append(
                    f'<rect class="bar-{idx}" x="{_svgnum(x0)}" y="{_svgnum(min(y1, base_y))}" '
                    f'width="{_svgnum(bar_w)}" height="{_svgnum(h)}" fill="{color}" '
                    f'fill-opacity="0.85"/>'
                )
            bar_slot += 1
        else:
            points = " ".join(f"{_svgnum(sx(xv))},{_svgnum(sy(yv))}" for xv, yv in zip(s.xs, s.ys))
            parts.append(
                f'<polyline class="line-{idx}" points="{points}" fill="none" '
                f'stroke="{color}" stroke-width="1.5"/>'
            )
            for xv, yv in zip(s.xs, s.ys):
                parts.append(
                    f'<circle class="pt-{idx}" cx="{_svgnum(sx(xv))}" cy="{_svgnum(sy(yv))}" '
                    f'r="2.5" fill="{color}"/>'
                )
    if len(series) > 1:
        lx = left + plot_w - 150
        for idx, s in enumerate(series):
            color = _PALETTE[idx % len(_PALETTE)]
            ly = top + 14 + 16 * idx
            parts.append(
                f'<line class="legend-{idx}" x1="{lx}" y1="{ly}" x2="{lx + 20}" y2="{ly}" '
                f'stroke="{color}" stroke-width="2"/>'
            )
            parts.append(
                f'<text x="{lx + 26}" y="{ly + 4}" font-family="sans-serif" '
                f'font-size="11" fill="#222222">{escape(s.name)}</text>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# Report output, shared with the command line

FORMATS = ("csv", "json", "svg")


def slug(label: str) -> str:
    """File-name stem of a label: 'grid:4x4' -> 'grid_4x4'."""
    return re.sub(r"[^a-z0-9]+", "_", label.lower()).strip("_")


def json_text(doc: dict) -> str:
    """The text of every JSON report: indented, and strict (no NaN or Infinity)."""
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def write_files(
    out_dir: str | Path,
    files: Iterable[tuple[str, Mapping[str, Callable[[], str]]]],
    formats: Collection[str] | None = None,
) -> list[Path]:
    """Write ``(stem, {format: render})`` files in the selected formats (all when None).

    Only the selected formats are rendered. Returns the paths in write order.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    for stem, renders in files:
        for fmt, render in renders.items():
            if formats is None or fmt in formats:
                path = out / f"{stem}.{fmt}"
                path.write_text(render())
                written.append(path)
    return written


def _data(report, head: dict) -> dict[str, Callable[[], str]]:
    """CSV and JSON renderers of a report; ``head`` leads its JSON document."""
    return {"csv": report.to_csv, "json": lambda: json_text({**head, **report.to_json_dict()})}


def _bar_chart(name: str, xs, ys, title: str, ylabel: str) -> Callable[[], str]:
    def chart() -> str:
        bars = Series(name, tuple(map(float, xs)), tuple(map(float, ys)), kind="bar")
        return emit_svg((bars,), title=title, xlabel="phase (rad)", ylabel=ylabel)

    return chart


def _trajectory_files(exp: str, reports: Mapping[str, RunReport], y_field: str, ylabel: str):
    """CSV and JSON per graph, then one chart of ``y_field`` over all graphs."""

    def chart() -> str:
        series = tuple(
            Series(
                label,
                tuple(float(r.m) for r in report.records),
                tuple(float(getattr(r, y_field)) for r in report.records),
            )
            for label, report in reports.items()
        )
        return emit_svg(series, title=exp, xlabel="successful measurements", ylabel=ylabel)

    data = [
        (f"{exp}_{slug(label)}", _data(report, {"experiment": exp}))
        for label, report in reports.items()
    ]
    return [*data, (exp, {"svg": chart})]


def _fig2_files(exp: str, histograms: Mapping[str, PhaseHistogram]):
    """CSV, JSON and a bar chart per graph."""
    files = []
    for label, h in histograms.items():
        chart = _bar_chart(label, h.thetas, h.counts, f"fig2 {label}", "assignments per level")
        head = {"experiment": exp, "graph": label}
        files.append((f"fig2_{slug(label)}", {**_data(h, head), "svg": chart}))
    return files


def _fig3_files(exp: str, dist: AmplifiedDistribution):
    name, title = f"{dist.label} after {dist.m} successes", f"fig3 {dist.label}"
    ylabel = "count-scaled conditional weight"
    chart = _bar_chart(name, dist.thetas, dist.scaled_weights, title, ylabel)
    return [("fig3", {**_data(dist, {"experiment": exp}), "svg": chart})]


def _grid_table_files(exp: str, table: GridTableReport):
    return [("grid_table", {"json": lambda: json_text(table.to_json_dict()), "csv": table.to_csv})]


def _first_spec(config: ExperimentConfig) -> str:
    return (config.graph_specs or ("grid:4x4",))[0]


_CONDITIONAL_OPTIMAL = partial(
    _trajectory_files, y_field="p_optimal_conditional", ylabel="conditional optimal probability"
)

# Experiment id -> (builder of its reports from the config, the files they go to).
_EXPERIMENTS = {
    "fig1a": (lambda c: fig1a(c.graph_specs or FIG1A_GRAPHS, c.m_max), _CONDITIONAL_OPTIMAL),
    "fig1b": (
        lambda c: fig1b_fig1c(c.graph_specs or FIG1BC_GRAPHS, c.m_max),
        partial(_trajectory_files, y_field="p_sequence", ylabel="sequence probability"),
    ),
    "fig1c": (
        lambda c: fig1b_fig1c(c.graph_specs or FIG1BC_GRAPHS, c.m_max),
        partial(
            _trajectory_files, y_field="p_individual", ylabel="individual success probability"
        ),
    ),
    "fig2": (lambda c: fig2(c.graph_specs or FIG2_GRAPHS), _fig2_files),
    "fig3": (lambda c: fig3(_first_spec(c), c.successes), _fig3_files),
    "grid-table": (lambda c: grid_table(_first_spec(c), c.successes), _grid_table_files),
    "custom": (lambda c: _trajectories(c.graph_specs, c.m_max), _CONDITIONAL_OPTIMAL),
}

EXPERIMENT_IDS = tuple(_EXPERIMENTS)


@dataclass(frozen=True)
class ExperimentConfig:
    """What to regenerate, where, and in which formats."""

    experiment: str
    graph_specs: tuple[str, ...] | None = None
    m_max: int = 60
    successes: int = 10
    out_dir: str = "out"
    formats: tuple[str, ...] = FORMATS

    def __post_init__(self) -> None:
        if self.experiment not in EXPERIMENT_IDS:
            raise InvalidParameterError(
                f"unknown experiment {self.experiment!r}; choose from {EXPERIMENT_IDS}"
            )
        if self.m_max < 0 or self.successes < 0:
            raise InvalidParameterError("iteration range must be nonnegative")
        formats = tuple(dict.fromkeys(self.formats))
        if not formats or not set(formats) <= set(FORMATS):
            raise InvalidParameterError(
                f"output formats must be some of {FORMATS}, got {self.formats}"
            )
        if self.experiment == "custom" and not self.graph_specs:
            raise InvalidParameterError("custom experiments need explicit graph specs")
        object.__setattr__(self, "formats", formats)
        if self.graph_specs is not None:
            object.__setattr__(self, "graph_specs", tuple(self.graph_specs))


def run_experiment(config: ExperimentConfig) -> list[Path]:
    """Regenerate one experiment; returns the files written, in write order."""
    build, files = _EXPERIMENTS[config.experiment]
    return write_files(config.out_dir, files(config.experiment, build(config)), config.formats)
