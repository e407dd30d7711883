"""Independent reference implementations used to cross-check the package.

Everything here is deliberately plain Python written in a different style
from the package (string bit fiddling, Counter bookkeeping, per-assignment
loops, direct summation), so agreement between the two routes actually
means something. The exceptions are :func:`ref_validating_step`, the
package's former fold step, :func:`ref_success_trajectory`, the former
state-per-row trajectory loop, with its :class:`IterationRecord` rows and
:func:`ref_trajectory_csv`, their CSV writer,
:func:`ref_compare_with_class_weights`, the dense oracle's former
from-scratch loop, :func:`ref_json_text`, the former report writer, and the
former per-report writers (:func:`ref_histogram_json_dict`,
:func:`ref_histogram_csv`, :func:`ref_amplified_json_dict`,
:func:`ref_amplified_csv`, :func:`ref_grid_table_csv`), with
:func:`ref_csv_text`, a cell-by-cell CSV writer, each kept as the oracle of
the code that replaced it.
"""

from __future__ import annotations

import itertools
import json
import math
from collections import Counter
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from phaseamp.amplifier import (
    ClassState,
    MeasurementSequence,
    initial_state,
    run_sequence,
    step,
)
from phaseamp.encoding import ANGLE_ATOL, PhaseHistogram, histogram_from_phases
from phaseamp.errors import ImpossibleOutcomeError
from phaseamp.experiments import (
    AmplifiedDistribution,
    GridTableReport,
    RunReport,
    Table,
    report_probability,
)
from phaseamp.fullsim import OracleComparison, run_sequence_fullsim
from phaseamp.meta import SCHEMA_VERSION, __version__


def bits_of(x: int, n: int) -> str:
    """Little-endian bit string: character i is the side of vertex i."""
    return format(x, f"0{n}b")[::-1]


def ref_cut_value(n: int, edges, x: int) -> int:
    bits = bits_of(x, n)
    return sum(1 for u, v in edges if bits[u] != bits[v])


def ref_covered_edges(n: int, edges, x: int) -> int:
    bits = bits_of(x, n)
    return sum(1 for u, v in edges if bits[u] == "1" or bits[v] == "1")


def ref_objective(kind: str, n: int, edges, x: int) -> int:
    if kind == "maxcut":
        return ref_cut_value(n, edges, x)
    if kind == "covered-edges":
        return ref_covered_edges(n, edges, x)
    raise ValueError(kind)


def ref_optima(kind: str, n: int, edges):
    """(best value, sorted maximizers) by scanning every assignment."""
    best = -1
    argmax = []
    for x in range(2**n):
        v = ref_objective(kind, n, edges, x)
        if v > best:
            best, argmax = v, [x]
        elif v == best:
            argmax.append(x)
    return best, argmax


def ref_level_counts(kind: str, n: int, edges, include_zero: bool = False) -> Counter:
    """Counter mapping objective value to the number of assignments."""
    start = 0 if include_zero else 1
    return Counter(ref_objective(kind, n, edges, x) for x in range(start, 2**n))


def ref_sequence_probability(thetas, counts, outcomes) -> float:
    """Joint outcome-record probability by direct per-level summation.

    Starting from the uniform state over the support, each level at angle
    theta picks up a factor (1 - cos theta)/2 per recorded 1 and
    (1 + cos theta)/2 per recorded 0.
    """
    terms = []
    support = 0
    for theta, count in zip(thetas, counts):
        term = float(count)
        for y in outcomes:
            if y:
                term *= (1.0 - math.cos(theta)) / 2.0
            else:
                term *= (1.0 + math.cos(theta)) / 2.0
        terms.append(term)
        support += int(count)
    return math.fsum(terms) / support


def ref_log_sequence_probability(thetas, counts, q: int, m: int) -> float:
    """Log of the closed form for q ones among m outcomes, term by term in logs.

    Each occupied level contributes log(count) + q log(1 - cos) + (m - q)
    log(1 + cos); the terms are combined with a max-shifted sum, so long
    records neither overflow 2^m nor underflow the per-level products.
    """
    logs = []
    for theta, count in zip(thetas, counts):
        c = math.cos(theta)
        if count == 0 or (q and c == 1.0) or (m - q and c == -1.0):
            continue
        term = math.log(int(count))
        if q:
            term += q * math.log(1.0 - c)
        if m - q:
            term += (m - q) * math.log(1.0 + c)
        logs.append(term)
    top = max(logs)
    support = sum(int(c) for c in counts)
    shifted = math.fsum(math.exp(t - top) for t in logs)
    return top + math.log(shifted) - m * math.log(2.0) - math.log(support)


def ref_conditional_weights(thetas, counts, outcomes) -> list[float]:
    """Per-level weights after conditioning on the full outcome record."""
    raw = []
    for theta, count in zip(thetas, counts):
        term = float(count)
        for y in outcomes:
            if y:
                term *= (1.0 - math.cos(theta)) / 2.0
            else:
                term *= (1.0 + math.cos(theta)) / 2.0
        raw.append(term)
    z = math.fsum(raw)
    return [w / z for w in raw]


def ref_validating_step(state: ClassState, outcome: int) -> tuple[ClassState, float]:
    """One fold step as the package took it before its trusted path: the
    branch factors recomputed from the angles, and the new state built
    through the full ``ClassState`` check."""
    c = np.cos(state.histogram.thetas)
    factors = (1.0 - c) / 2.0 if outcome else (1.0 + c) / 2.0
    raw = state.weights * factors
    p = float(raw.sum())
    if p <= 0.0:
        raise ImpossibleOutcomeError(
            f"outcome {outcome} has probability 0 given the outcomes recorded so far"
        )
    new = ClassState(state.histogram, raw / p, state.log_sequence_probability + math.log(p))
    return new, p


def ref_validating_condition(h: PhaseHistogram, weights, log_p: float, outcome: int, out):
    """:func:`ref_validating_step` in the signature of the package's step
    helper ``amplifier._condition``: the weights ``raw / p``, copied into
    ``out`` when given, the branch probability and the new log probability."""
    new, p = ref_validating_step(ClassState(h, weights, log_p), outcome)
    if out is None:
        return new.weights, p, new.log_sequence_probability
    out[...] = new.weights
    return out, p, new.log_sequence_probability


def ref_validating_condition_rows(h: PhaseHistogram, rows, logs: list[float]):
    """:func:`ref_validating_condition` in the signature of the package's
    layer helper ``amplifier._condition_rows``: each row conditioned on
    outcome 0, then on outcome 1, one state at a time."""
    children, child_logs = [], []
    for weights, log_p in zip(rows, logs):
        for outcome in (0, 1):
            child, _, child_log = ref_validating_condition(h, weights, log_p, outcome, None)
            children.append(child)
            child_logs.append(child_log)
    return np.array(children), child_logs


class IterationRecord(NamedTuple):
    """One row of a success trajectory, as the package held it before its
    trajectories became columns."""

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
            "P_sequence": report_probability(self.p_sequence, True),
            "p_optimal_conditional": self.p_optimal_conditional,
            "tail": {
                "ge_half_pi": self.tail_ge_half_pi,
                "ge_three_quarter_pi": self.tail_ge_three_quarter_pi,
            },
        }


def ref_records(report: RunReport) -> list[IterationRecord]:
    """A trajectory's rows, one record per m."""
    return [
        IterationRecord(m, *row)
        for m, row in enumerate(
            zip(
                report.p_individual,
                report.p_sequence,
                report.p_optimal_conditional,
                report.tail_ge_half_pi,
                report.tail_ge_three_quarter_pi,
            )
        )
    ]


def ref_fnum(v) -> str:
    """A number as the former CSV writers printed it; None is an empty cell."""
    return "" if v is None else format(float(v), ".12g")


def ref_trajectory_csv(report: RunReport) -> str:
    """A trajectory's CSV as the package wrote it before its columnar writer:
    each value formatted on its own."""
    lines = ["m,p_individual,P_sequence,p_optimal_conditional"]
    lines.extend(
        f"{r.m},{ref_fnum(r.p_individual)},{ref_fnum(report_probability(r.p_sequence, True))},"
        f"{ref_fnum(r.p_optimal_conditional)}"
        for r in ref_records(report)
    )
    return "\n".join(lines) + "\n"


def ref_histogram_json_dict(h: PhaseHistogram) -> dict:
    """A histogram's JSON document as the package built it before its levels
    became a table: one dict per level."""
    ks = h.numerators if h.numerators is not None else [None] * h.n_levels
    return {
        "schema": SCHEMA_VERSION,
        "denominator": h.denominator,
        "levels": [
            {"k": k, "theta": float(t), "count": int(c)}
            for k, t, c in zip(ks, h.thetas, h.counts)
        ],
        "support": h.support,
        "includes_zero": h.includes_zero,
    }


def ref_histogram_csv(h: PhaseHistogram) -> str:
    """A histogram's CSV as the package wrote it before its one CSV writer."""
    lines = ["theta,count"]
    lines.extend(
        f"{format(float(t), '.12g')},{int(c)}" for t, c in zip(h.thetas, h.counts)
    )
    return "\n".join(lines) + "\n"


def ref_amplified_json_dict(dist: AmplifiedDistribution) -> dict:
    """An amplified distribution's JSON document as the package built it before
    its levels became a table: one dict per level."""
    return {
        "schema": SCHEMA_VERSION,
        "generator": f"phaseamp {__version__}",
        "graph": dist.label,
        "successes": dist.m,
        "scale": dist.scale,
        "mode_theta": dist.mode_theta,
        "levels": [
            {"theta": float(t), "scaled_weight": float(w)}
            for t, w in zip(dist.thetas, dist.scaled_weights)
        ],
    }


def ref_amplified_csv(dist: AmplifiedDistribution) -> str:
    """An amplified distribution's CSV as the package wrote it before its one
    CSV writer."""
    lines = ["theta,scaled_weight"]
    lines.extend(
        f"{ref_fnum(t)},{ref_fnum(w)}" for t, w in zip(dist.thetas, dist.scaled_weights)
    )
    return "\n".join(lines) + "\n"


def ref_grid_table_csv(table: GridTableReport) -> str:
    """A grid table's CSV as the package wrote it before its one CSV writer:
    ``key,value`` lines of its document, numbers formatted one by one."""
    doc = table.to_json_dict()
    lines = ["key,value"]
    lines.extend(
        f"{k},{doc[k] if isinstance(doc[k], (str, int)) else ref_fnum(doc[k])}"
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


def ref_csv_text(columns) -> str:
    """A CSV table cell by cell: ``.12g`` for a float, the digits of an int, a
    str as it is, and an empty cell for None."""

    def cell(v):
        if v is None:
            return ""
        if isinstance(v, str):
            return v
        return str(v) if isinstance(v, int) else format(v, ".12g")

    keys = list(columns)
    n_rows = len(next(iter(columns.values()), ()))
    lines = [",".join(keys)]
    lines.extend(",".join(cell(columns[k][i]) for k in keys) for i in range(n_rows))
    return "\n".join(lines) + "\n"


def ref_dict_rows(value):
    """A document with each ``Table`` given as its list of row dicts."""
    if isinstance(value, Table):
        columns = {k: ref_dict_rows(c) for k, c in value.columns.items()}
        return [{k: c[i] for k, c in columns.items()} for i in range(len(value))]
    if isinstance(value, dict):
        return {k: ref_dict_rows(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return type(value)(ref_dict_rows(v) for v in value)
    return value


def ref_success_trajectory(h: PhaseHistogram, m_max: int) -> RunReport:
    """The success trajectory as the package built it before its fold kernel:
    a state per row through ``step``, each tail summed over a boolean mask."""
    optimal_level = int(np.max(np.nonzero(h.counts)[0]))
    half = h.thetas >= math.pi / 2 - ANGLE_ATOL
    three_quarters = h.thetas >= 3 * math.pi / 4 - ANGLE_ATOL
    state, p = initial_state(h), 1.0
    records = []
    for m in range(m_max + 1):
        if m:
            state, p = step(state, 1)
        w = state.weights
        records.append(
            IterationRecord(
                m,
                p,
                state.probability,
                float(w[optimal_level]),
                float(w[half].sum()),
                float(w[three_quarters].sum()),
            )
        )
    _, *columns = zip(*records)
    return RunReport(
        "",
        "maxcut",
        0,
        h.denominator if h.denominator is not None else 0,
        h.support,
        optimal_level,
        *columns,
        state.weights,
    )


def ref_compare_with_class_weights(
    n_phase_sets: int = 50, max_support: int = 32, max_sequence: int = 6, seed: int | None = 0
) -> OracleComparison:
    """The dense oracle as the package ran it before its prefix pass: every
    sequence simulated from scratch on both routes, the same phase sets drawn."""
    gen = np.random.default_rng(seed)
    worst_p = 0.0
    worst_d = 0.0
    cases = 0
    for _ in range(n_phase_sets):
        n = int(gen.integers(2, max_support + 1))
        phases = np.sort(gen.uniform(0.01, math.pi - 0.01, size=n))
        h = histogram_from_phases(phases)
        level_of = np.searchsorted(h.thetas, phases)
        for m in range(0, max_sequence + 1):
            for bits in itertools.product((0, 1), repeat=m):
                y = MeasurementSequence(bits)
                p_dense, dist_dense = run_sequence_fullsim(phases, y)
                state, p_fold = run_sequence(h, y)
                per_x = state.weights[level_of] / h.counts[level_of]
                worst_p = max(worst_p, abs(p_dense - p_fold))
                worst_d = max(worst_d, float(np.max(np.abs(dist_dense - per_x))))
                cases += 1
    return OracleComparison(cases, worst_p, worst_d)


def ref_json_text(doc) -> str:
    """A JSON report's text as the package wrote it before its columnar writer:
    the standard library's indented, strict encoder."""
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def ref_tail_mass(thetas, counts, theta: float, atol: float = 1e-12) -> float:
    support = sum(int(c) for c in counts)
    hit = sum(int(c) for t, c in zip(thetas, counts) if t >= theta - atol)
    return hit / support


def ref_band_mass(thetas, counts, half_width: float, atol: float = 1e-12) -> float:
    support = sum(int(c) for c in counts)
    hit = sum(int(c) for t, c in zip(thetas, counts) if abs(t - math.pi / 2) <= half_width + atol)
    return hit / support


def ref_uniform_run_exact(total: int) -> Fraction:
    """Product form of the all-ones run probability on a flat spectrum."""
    p = Fraction(1)
    for j in range(1, total + 1):
        p *= Fraction(2 * j - 1, 2 * j)
    return p


def chi_square_sf(stat: float, df: int) -> float:
    """Upper tail of the chi-square distribution, by its finite series in df."""
    half = stat / 2.0
    if df % 2 == 0:
        terms = (half**i / math.factorial(i) for i in range(df // 2))
        return math.exp(-half) * math.fsum(terms)
    terms = (
        math.exp(-half + (i - 0.5) * math.log(half) - math.lgamma(i + 0.5))
        for i in range(1, (df + 1) // 2)
    )
    return math.erfc(math.sqrt(half)) + math.fsum(terms)


def chi_square_p_value(observed, expected) -> float:
    """Pearson's upper-tail p-value. Bins are pooled, smallest expectation
    first, until each expects at least 5; a short remainder joins the last."""
    bins: list[list[float]] = []
    pool = [0.0, 0.0]
    for o, e in sorted(zip(observed, expected), key=lambda pair: pair[1]):
        pool = [pool[0] + o, pool[1] + e]
        if pool[1] >= 5.0:
            bins.append(pool)
            pool = [0.0, 0.0]
    if bins:
        bins[-1] = [bins[-1][0] + pool[0], bins[-1][1] + pool[1]]
    if len(bins) < 2:
        return 1.0
    stat = math.fsum((o - e) ** 2 / e for o, e in bins)
    return chi_square_sf(stat, len(bins) - 1)


def simpson(f, a: float, b: float, n: int = 2000) -> float:
    """Composite Simpson quadrature with n (even) panels."""
    if n % 2:
        n += 1
    h = (b - a) / n
    s = f(a) + f(b)
    s += 4.0 * math.fsum(f(a + h * i) for i in range(1, n, 2))
    s += 2.0 * math.fsum(f(a + h * i) for i in range(2, n, 2))
    return s * h / 3.0


def ref_erf(z: float, n: int = 4000) -> float:
    """Error function via quadrature, for checking the closed-form tail."""
    if z < 0.0:
        return -ref_erf(-z, n)
    return 2.0 / math.sqrt(math.pi) * simpson(lambda t: math.exp(-t * t), 0.0, z, n)
