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
from dataclasses import dataclass, field
from functools import partial
from operator import itemgetter
from pathlib import Path
from typing import Callable, Collection, Iterable, Mapping, Sequence
from xml.sax.saxutils import escape

import numpy as np

from .amplifier import _block_rows, _condition, initial_state
from .encoding import PhaseHistogram, build_histogram
from .errors import InvalidParameterError, check_limit
from .graphs import ObjectiveKind, parse_graph_spec
from .meta import SCHEMA_VERSION, __version__

FIG1A_GRAPHS = ("line:6", "line:8", "line:10", "line:12")
FIG1BC_GRAPHS = ("line:10", "grid:3x3", "grid:4x4", "starring:16")
FIG2_GRAPHS = ("line:12", "grid:4x4", "starring:16")

def report_probability(value: float, positive: bool) -> float | None:
    """A probability as a report prints it: None where a positive value
    underflowed to 0.0, so JSON prints null and CSV an empty cell."""
    return None if value == 0.0 and positive else value


class Table:
    """Rows with the same keys, given key by key: :func:`json_text` prints it as
    the list of the rows ``{k: columns[k][i] for k in columns}``. A column that
    is itself a table prints as each row's nested object; the columns must be of
    one length. A report's rows are one table, and its CSV prints some of the
    table's columns through :func:`csv_text`."""

    __slots__ = ("columns",)

    def __init__(self, columns: Mapping[str, Sequence | Table]) -> None:
        self.columns = columns

    def __len__(self) -> int:
        return len(next(iter(self.columns.values()), ()))


@dataclass(frozen=True)
class RunReport:
    """Success trajectory on one graph, its provenance, and its final level weights.

    The rows m = 0, 1, ... are held as columns. ``p_individual`` is the branch
    probability of the m-th success (1.0 on row 0), ``p_sequence`` the
    probability of the all-ones record of length m (0.0 where it underflowed),
    ``p_optimal_conditional`` the conditional weight of the top populated
    level. The two tails are conditional masses at angles at least pi/2,
    respectively at least 3*pi/4.
    """

    label: str
    objective: str
    n_vertices: int
    n_edges: int
    support: int
    optimal_level: int
    p_individual: tuple[float, ...]
    p_sequence: tuple[float, ...]
    p_optimal_conditional: tuple[float, ...]
    tail_ge_half_pi: tuple[float, ...]
    tail_ge_three_quarter_pi: tuple[float, ...]
    weights: np.ndarray = field(compare=False, repr=False)

    @property
    def records(self) -> Table:
        """The rows as JSON prints them; the table's length is the row count."""
        p_sequence = self.p_sequence
        if not all(p_sequence):
            p_sequence = [report_probability(p, True) for p in p_sequence]
        return Table(
            {
                "m": range(len(self.p_individual)),
                "p_individual": self.p_individual,
                "P_sequence": p_sequence,
                "p_optimal_conditional": self.p_optimal_conditional,
                "tail": Table(
                    {
                        "ge_half_pi": self.tail_ge_half_pi,
                        "ge_three_quarter_pi": self.tail_ge_three_quarter_pi,
                    }
                ),
            }
        )

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
            "records": self.records,
        }


def success_trajectory(
    h: PhaseHistogram,
    m_max: int,
    label: str = "",
    objective: str = "maxcut",
    n_vertices: int = 0,
) -> RunReport:
    """The rows of all-ones records of length m = 0 ... m_max, from the closed form.

    After m successes, occupied level k holds the weight g_k a_k^m / (N P_m),
    with a_k its factor of outcome 1 and P_m = sum_k g_k a_k^m / N the run
    probability. A block of rows is one matrix of logs
    L[m, k] = log(g_k / N) + m log a_k, bounded as the fold's block is; a
    log-sum-exp over each row gives log P_m and the weights, and the branch
    probability of the m-th success is sum_k w_{m-1, k} a_k. Row 0 is the
    initial state exactly. A record the fold would refuse at its first step
    raises the fold's error.
    """
    if m_max < 0:
        raise InvalidParameterError("iteration range must be nonnegative")
    w0 = initial_state(h).weights
    occupied = np.flatnonzero(h.counts)
    optimal_level = int(occupied[-1])
    half, three_quarters = h.tail_start(math.pi / 2), h.tail_start(3 * math.pi / 4)
    p_individual, p_sequence = [1.0], [1.0]
    p_optimal = [float(w0[optimal_level])]
    tail_half, tail_three_quarters = [float(w0[half:].sum())], [float(w0[three_quarters:].sum())]
    weights = w0
    if m_max:
        # The fold's first step, for its refusal of an impossible record.
        _condition(h, w0, 0.0, 1, None)
        a = h.branch_factors[1][occupied]
        # log 0 is -inf, so a level with a = 0 holds no weight after a success.
        log_a = np.log(a, out=np.full(a.shape, -math.inf), where=a > 0)
        log_w0 = np.log(w0[occupied])
        half, three_quarters = np.searchsorted(occupied, (half, three_quarters))
        block = _block_rows(m_max, occupied.size)
        # Row 0 of the buffer holds the weights of the row before the block.
        buffer = np.empty((block + 1, occupied.size))
        buffer[0] = w0[occupied]
        products = np.empty((block, occupied.size))
        for first in range(1, m_max + 1, block):
            n = min(block, m_max + 1 - first)
            rows = buffer[1 : n + 1]
            np.multiply.outer(np.arange(first, first + n), log_a, out=rows)
            rows += log_w0
            top = rows.max(axis=1)
            rows -= top[:, None]
            np.exp(rows, out=rows)
            sums = rows.sum(axis=1)
            rows /= sums[:, None]
            p_individual += np.multiply(buffer[:n], a, out=products[:n]).sum(axis=1).tolist()
            p_sequence += np.exp(top + np.log(sums)).tolist()
            p_optimal += rows[:, -1].tolist()
            tail_half += rows[:, half:].sum(axis=1).tolist()
            tail_three_quarters += rows[:, three_quarters:].sum(axis=1).tolist()
            buffer[0] = buffer[n]
        weights = np.zeros(h.n_levels)
        weights[occupied] = buffer[0]
        weights.flags.writeable = False
    return RunReport(
        label,
        objective,
        n_vertices,
        h.denominator if h.denominator is not None else 0,
        h.support,
        optimal_level,
        tuple(p_individual),
        tuple(p_sequence),
        tuple(p_optimal),
        tuple(tail_half),
        tuple(tail_three_quarters),
        weights,
    )


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

    def to_json_dict(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "generator": f"phaseamp {__version__}",
            "graph": self.label,
            "successes": self.m,
            "scale": self.scale,
            "mode_theta": self.mode_theta,
            "levels": Table(
                {"theta": self.thetas.tolist(), "scaled_weight": self.scaled_weights.tolist()}
            ),
        }


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
            "run_probability": report_probability(self.run_probability, True),
            "checks_direct": self.checks_direct,
            "checks_amplified": self.checks_amplified,
            "checks_saved_factor": self.checks_direct / self.checks_amplified,
        }


def histogram_renders(h: PhaseHistogram, head: dict) -> dict[str, Callable[[], str]]:
    """CSV and JSON renderers of a histogram's report; ``head`` leads its JSON.

    Its levels are a table of ``k`` (None off an exact grid), ``theta`` and
    ``count``; the CSV prints the last two.
    """
    ks = h.numerators if h.numerators is not None else [None] * h.n_levels
    doc = {
        "schema": SCHEMA_VERSION,
        "denominator": h.denominator,
        "levels": Table({"k": ks, "theta": h.thetas.tolist(), "count": h.counts.tolist()}),
        "support": h.support,
        "includes_zero": h.includes_zero,
    }
    return _data(head, doc, "levels", ("theta", "count"))


class _Products:
    """Each graph's histogram and (graph, length) trajectory, built once per call."""

    def __init__(self) -> None:
        self.graphs: dict[str, tuple[int, PhaseHistogram]] = {}
        self.trajectories: dict[tuple[str, int], RunReport] = {}

    def histogram(self, spec: str) -> PhaseHistogram:
        if spec not in self.graphs:
            g = parse_graph_spec(spec)
            self.graphs[spec] = g.n_vertices, build_histogram(g, ObjectiveKind.MAXCUT)
        return self.graphs[spec][1]

    def trajectory(self, spec: str, m_max: int) -> RunReport:
        if (spec, m_max) not in self.trajectories:
            h, n_vertices = self.histogram(spec), self.graphs[spec][0]
            run = success_trajectory(h, m_max, label=spec, n_vertices=n_vertices)
            self.trajectories[spec, m_max] = run
        return self.trajectories[spec, m_max]


def _trajectories(products: _Products, specs: Sequence[str], config: ExperimentConfig):
    return {spec: products.trajectory(spec, config.m_max) for spec in specs}


def _histograms(products: _Products, specs: Sequence[str], config: ExperimentConfig):
    return {spec: products.histogram(spec) for spec in specs}


def _amplified(products: _Products, specs: Sequence[str], config: ExperimentConfig):
    """Distribution after ``successes`` successes; at 0 it is the unamplified one exactly."""
    (spec,), m = specs, config.successes
    h, weights = products.histogram(spec), products.trajectory(spec, m).weights
    return AmplifiedDistribution(spec, m, h.support, h.thetas, h.support * weights)


def _grid_table(products: _Products, specs: Sequence[str], config: ExperimentConfig):
    """Initial and amplified optimal hit rates: rows 0 and m of the trajectory."""
    (spec,), m = specs, config.successes
    run = products.trajectory(spec, m)
    optimal = run.p_optimal_conditional
    return GridTableReport(spec, m, optimal[0], optimal[-1], run.p_sequence[-1])


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
# Chart size in pixels, and the number of axis ticks aimed for.
_WIDTH, _HEIGHT = 720, 480
_TICKS = 5


def _svgnum(v: float) -> str:
    s = format(float(v), ".6g")
    return "0" if s == "-0" else s


def _ticks(lo: float, hi: float) -> list[float]:
    span = hi - lo
    raw = span / (_TICKS - 1)
    magnitude = 10.0 ** math.floor(math.log10(raw))
    step = 10.0 * magnitude
    for mult in (1.0, 2.0, 2.5, 5.0):
        if span / (mult * magnitude) <= _TICKS + 0.5:
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
) -> str:
    """Render a deterministic, self-contained line or bar chart."""
    if not series:
        raise InvalidParameterError("nothing to plot: empty series set")
    left, right, top, bottom = 64, 16, 36, 48
    plot_w = _WIDTH - left - right
    plot_h = _HEIGHT - top - bottom

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
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="#ffffff"/>',
    ]
    if title:
        parts.append(
            f'<text x="{_svgnum(_WIDTH / 2)}" y="22" text-anchor="middle" '
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
            f'<text x="{_svgnum(left + plot_w / 2)}" y="{_HEIGHT - 10}" text-anchor="middle" '
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
            # Each point's text, formatted once for the polyline and its circle.
            cxs = [_svgnum(sx(xv)) for xv in s.xs]
            cys = [_svgnum(sy(yv)) for yv in s.ys]
            points = " ".join(f"{cx},{cy}" for cx, cy in zip(cxs, cys))
            parts.append(
                f'<polyline class="line-{idx}" points="{points}" fill="none" '
                f'stroke="{color}" stroke-width="1.5"/>'
            )
            parts.extend(
                f'<circle class="pt-{idx}" cx="{cx}" cy="{cy}" r="2.5" fill="{color}"/>'
                for cx, cy in zip(cxs, cys)
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
    """The text of every JSON report: the bytes of ``json.dumps(doc, indent=2,
    allow_nan=False)`` and a newline, where each :class:`Table` is given as its
    list of row dicts.

    It is strict: NaN and infinities raise ``InvalidParameterError`` (a
    ``ValueError``) with json.dumps's message; a value JSON cannot hold and a key
    that is not a ``str`` raise ``TypeError``.
    """
    return _texts([doc], "\n")[0] + "\n"


_escape = json.encoder.encode_basestring_ascii
_NON_FINITE = "Out of range float values are not JSON compliant: "


def _texts(values: Sequence, pad: str) -> list[str]:
    """The JSON text of each value, its inner lines indented two spaces past ``pad``
    (a newline and the indent of the line the value starts on).

    Values of one exact type are encoded as a column. Dicts with the same keys in
    the same order are encoded as a table, key by key, and lists as one column of
    all their items. Anything else goes one value at a time, by the rules of
    ``json.dumps``.
    """
    kinds = set(map(type, values))
    # Mixed values fall through to the one-at-a-time loop, as objects do.
    kind = kinds.pop() if len(kinds) == 1 else object
    if kind is float:
        if not all(map(math.isfinite, values)):
            bad = next(v for v in values if not math.isfinite(v))
            raise InvalidParameterError(_NON_FINITE + repr(bad))
        return list(map(float.__repr__, values))
    if kind is int:
        return list(map(int.__repr__, values))
    if kind is str:
        return list(map(_escape, values))
    inner = pad + "  "
    if issubclass(kind, dict):
        keys = tuple(values[0])
        if all(tuple(v) == keys for v in values):
            if not keys:
                return ["{}"] * len(values)
            return _rows({k: list(map(itemgetter(k), values)) for k in keys}, pad)
    if kind is Table:
        return [_bracketed(_rows(t.columns, inner), pad) for t in values]
    if issubclass(kind, (list, tuple)):
        items = _texts([item for v in values for item in v], inner)
        out, start = [], 0
        for v in values:
            out.append(_bracketed(items[start : start + len(v)], pad))
            start += len(v)
        return out
    out = []
    for v in values:
        if isinstance(v, str):
            out.append(_escape(v))
        elif v is None:
            out.append("null")
        elif v is True:
            out.append("true")
        elif v is False:
            out.append("false")
        elif isinstance(v, int):
            out.append(int.__repr__(v))
        elif isinstance(v, float):
            if not math.isfinite(v):
                raise InvalidParameterError(_NON_FINITE + repr(v))
            out.append(float.__repr__(v))
        elif isinstance(v, (dict, list, tuple, Table)):
            out.extend(_texts([v], pad))
        else:
            raise TypeError(f"Object of type {type(v).__name__} is not JSON serializable")
    return out


def _rows(columns: Mapping[str, Sequence | Table], pad: str) -> list[str]:
    """The text of each row of a table given key by key, as ``_texts`` gives a
    dict's: every row is filled from one template, the values column by column."""
    inner = pad + "  "
    for k in columns:
        if not isinstance(k, str):
            raise TypeError(f"keys must be str, not {type(k).__name__}")
    fields = ("," + inner).join(_escape(k).replace("%", "%%") + ": %s" for k in columns)
    template = "{" + inner + fields + pad + "}"
    texts = [
        _rows(c.columns, inner) if type(c) is Table else _texts(c, inner)
        for c in columns.values()
    ]
    return [template % row for row in zip(*texts, strict=True)]


def _bracketed(items: list[str], pad: str) -> str:
    """The text of a list whose items' texts are given, at ``pad``."""
    inner = pad + "  "
    return "[" + inner + ("," + inner).join(items) + pad + "]" if items else "[]"


# The text of a CSV cell of each type, as a %-template.
_CELLS = {float: "%.12g", int: "%d", str: "%s"}


def csv_text(columns: Mapping[str, Sequence]) -> str:
    """The text of every CSV report: a header of the keys, then one line per row.

    Each row is filled from one ``%`` template. A cell is ``%.12g`` for a
    float, ``%d`` for an int, the text itself for a str, and empty for None.
    A column of one exact type of these is formatted by the template; any
    other column is formatted value by value first.
    """
    specs, cells = [], []
    for column in columns.values():
        kinds = set(map(type, column))
        spec = _CELLS.get(kinds.pop()) if len(kinds) == 1 else None
        if spec is None:
            spec, column = "%s", list(map(_cell, column))
        specs.append(spec)
        cells.append(column)
    template = ",".join(specs)
    return "\n".join([",".join(columns), *(template % row for row in zip(*cells))]) + "\n"


def _cell(v: float | int | str | None) -> str:
    """The text of one cell of a column of mixed types."""
    if v is None:
        return ""
    return _CELLS[str if isinstance(v, str) else int if isinstance(v, int) else float] % v


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


def _data(
    head: dict, doc: dict, rows: str, csv_keys: Sequence[str]
) -> dict[str, Callable[[], str]]:
    """CSV and JSON renderers of the report ``doc``: ``head`` leads its JSON, and
    its CSV prints the ``csv_keys`` columns of its table ``doc[rows]``."""
    columns = doc[rows].columns
    return {
        "csv": lambda: csv_text({k: columns[k] for k in csv_keys}),
        "json": lambda: json_text({**head, **doc}),
    }


def _bar_chart(name: str, xs, ys, title: str, ylabel: str) -> Callable[[], str]:
    def chart() -> str:
        bars = Series(name, tuple(map(float, xs)), tuple(map(float, ys)), kind="bar")
        return emit_svg((bars,), title=title, xlabel="phase (rad)", ylabel=ylabel)

    return chart


# The columns of a trajectory's records that its CSV prints: all but the tails.
_TRAJECTORY_CSV = ("m", "p_individual", "P_sequence", "p_optimal_conditional")


def _trajectory_files(y_field: str, ylabel: str, exp: str, reports: Mapping[str, RunReport]):
    """CSV and JSON per graph, then one chart of ``y_field`` over all graphs."""

    def chart() -> str:
        series = tuple(
            Series(
                label,
                tuple(map(float, range(len(report.p_individual)))),
                getattr(report, y_field),
            )
            for label, report in reports.items()
        )
        return emit_svg(series, title=exp, xlabel="successful measurements", ylabel=ylabel)

    head = {"experiment": exp}
    data = [
        (f"{exp}_{slug(label)}", _data(head, report.to_json_dict(), "records", _TRAJECTORY_CSV))
        for label, report in reports.items()
    ]
    return [*data, (exp, {"svg": chart})]


def _fig2_files(exp: str, histograms: Mapping[str, PhaseHistogram]):
    """CSV, JSON and a bar chart per graph."""
    files = []
    for label, h in histograms.items():
        chart = _bar_chart(label, h.thetas, h.counts, f"fig2 {label}", "assignments per level")
        head = {"experiment": exp, "graph": label}
        files.append((f"fig2_{slug(label)}", {**histogram_renders(h, head), "svg": chart}))
    return files


def _fig3_files(exp: str, dist: AmplifiedDistribution):
    name, title = f"{dist.label} after {dist.m} successes", f"fig3 {dist.label}"
    ylabel = "count-scaled conditional weight"
    chart = _bar_chart(name, dist.thetas, dist.scaled_weights, title, ylabel)
    data = _data({"experiment": exp}, dist.to_json_dict(), "levels", ("theta", "scaled_weight"))
    return [("fig3", {**data, "svg": chart})]


def _grid_table_files(exp: str, table: GridTableReport):
    """The JSON document, and a CSV of its keys and values past schema and generator."""
    doc = table.to_json_dict()
    keys = [k for k in doc if k not in ("schema", "generator")]
    csv = {"key": keys, "value": [doc[k] for k in keys]}
    return [("grid_table", {"json": lambda: json_text(doc), "csv": lambda: csv_text(csv)})]


_OPTIMAL = partial(_trajectory_files, "p_optimal_conditional", "conditional optimal probability")
_SEQUENCE = partial(_trajectory_files, "p_sequence", "sequence probability")
_INDIVIDUAL = partial(_trajectory_files, "p_individual", "individual success probability")

# Experiment id -> (the graphs it draws without graph specs, the builder of its
# reports, the files they go to).
_EXPERIMENTS = {
    "fig1a": (FIG1A_GRAPHS, _trajectories, _OPTIMAL),
    "fig1b": (FIG1BC_GRAPHS, _trajectories, _SEQUENCE),
    "fig1c": (FIG1BC_GRAPHS, _trajectories, _INDIVIDUAL),
    "fig2": (FIG2_GRAPHS, _histograms, _fig2_files),
    "fig3": (("grid:4x4",), _amplified, _fig3_files),
    "grid-table": (("grid:4x4",), _grid_table, _grid_table_files),
    "custom": ((), _trajectories, _OPTIMAL),
}
# Experiments that draw only their own graphs, and those that draw exactly one.
_OWN_GRAPHS_ONLY = ("fig1b", "fig1c", "fig2")
_ONE_GRAPH = ("fig3", "grid-table")
# The formats of the experiments that do not write every format.
_WRITES_ONLY = {"grid-table": ("csv", "json")}

EXPERIMENT_IDS = (*_EXPERIMENTS, "all")


@dataclass(frozen=True)
class ExperimentConfig:
    """What to regenerate, where, and in which formats.

    ``all`` is every experiment but ``custom``. Graph specs, when given, replace
    the graphs of every selected experiment; an exact repeat counts once.
    """

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
        for m in (self.m_max, self.successes):
            check_limit("record", m, "a measurement record")
        formats = tuple(dict.fromkeys(self.formats))
        if not formats or not set(formats) <= set(FORMATS):
            raise InvalidParameterError(
                f"output formats must be some of {FORMATS}, got {self.formats}"
            )
        if self.experiment == "custom" and not self.graph_specs:
            raise InvalidParameterError("custom experiments need explicit graph specs")
        writes = {fmt for exp in self.experiments for fmt in _WRITES_ONLY.get(exp, FORMATS)}
        if writes.isdisjoint(formats):
            raise InvalidParameterError(
                f"{self.experiment} writes only {','.join(sorted(writes))}, "
                f"got formats {','.join(formats)}"
            )
        object.__setattr__(self, "formats", formats)
        if self.graph_specs is not None:
            specs = tuple(dict.fromkeys(self.graph_specs))
            _check_graphs(specs, self.experiments)
            object.__setattr__(self, "graph_specs", specs)

    @property
    def experiments(self) -> tuple[str, ...]:
        """The experiment ids this config regenerates, in table order."""
        if self.experiment == "all":
            return tuple(e for e in _EXPERIMENTS if e != "custom")
        return (self.experiment,)


def _check_graphs(specs: tuple[str, ...], experiments: Sequence[str]) -> None:
    """Refuse graph specs an experiment cannot draw, or whose files would collide."""
    stems = [slug(spec) for spec in specs]
    if len(set(stems)) < len(stems):
        raise InvalidParameterError(f"graph specs {list(specs)} give clashing file names {stems}")
    for exp in experiments:
        if exp in _ONE_GRAPH and len(specs) > 1:
            raise InvalidParameterError(f"{exp} draws one graph, got {len(specs)} graph specs")
        unknown = [spec for spec in specs if spec not in _EXPERIMENTS[exp][0]]
        if exp in _OWN_GRAPHS_ONLY and unknown:
            raise InvalidParameterError(f"{exp} draws only {_EXPERIMENTS[exp][0]}, got {unknown}")


def build_reports(config: ExperimentConfig) -> dict[str, object]:
    """Every report the config selects, by experiment id, in table order.

    Within the call each graph's histogram is built once and each (graph,
    length) trajectory computed once; nothing is kept between calls, so a graph
    file is read again on the next one.
    """
    products = _Products()
    reports = {}
    for exp in config.experiments:
        graphs, build, _ = _EXPERIMENTS[exp]
        reports[exp] = build(products, config.graph_specs or graphs, config)
    return reports


def run_experiment(config: ExperimentConfig) -> list[Path]:
    """Regenerate the selected experiments; returns the files written, in write order.

    Every report is built before the first file is written.
    """
    files = [
        file
        for exp, reports in build_reports(config).items()
        for file in _EXPERIMENTS[exp][2](exp, reports)
    ]
    return write_files(config.out_dir, files, config.formats)
