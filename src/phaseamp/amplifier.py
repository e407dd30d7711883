"""Per-level simulation of the post-selected interference measurements.

One interference round followed by the reference measurement multiplies the
mass of a level at angle ``theta`` by ``(1 - cos theta) / 2`` when the
recorded outcome is 1 and by ``(1 + cos theta) / 2`` when it is 0, up to
renormalization. Every observable in scope depends on an assignment only
through its level, so the full state collapses to one weight per level plus
the running log probability of the recorded outcomes.

For a sequence ``y`` with ``q`` ones out of ``m`` outcomes, the joint
probability has the closed form

    p(y) = sum_k g_k (1 - cos theta_k)^q (1 + cos theta_k)^(m-q) / (2^m N)

which depends on ``y`` only through ``(q, m)``; :func:`sequence_probability`
evaluates its log directly, while :func:`run_sequence` reaches the same
probability by folding :func:`step`. The two routes are kept separate on
purpose so either can check the other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .encoding import (
    ANGLE_ATOL,
    PhaseHistogram,
    _Step,
    build_class_table,
    frontier_members,
    frontier_route,
    frontier_tables,
    level_totals,
)
from .errors import ImpossibleOutcomeError, InvalidParameterError, check_limit
from .graphs import Graph, ObjectiveKind

_WEIGHT_SUM_ATOL = 1e-12


@dataclass(frozen=True)
class MeasurementSequence:
    """Chronological record of reference-measurement outcomes (1 = kept branch)."""

    outcomes: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        check_limit("record", len(self.outcomes), "a measurement record")
        if any(b not in (0, 1) for b in self.outcomes):
            raise InvalidParameterError("outcomes must be 0/1 bits")
        object.__setattr__(self, "outcomes", tuple(int(b) for b in self.outcomes))

    @classmethod
    def from_string(cls, text: str) -> "MeasurementSequence":
        s = text.strip()
        if any(ch not in "01" for ch in s):
            raise InvalidParameterError(f"sequence must be a string of 0/1 bits: {text!r}")
        return cls(tuple(int(ch) for ch in s))

    @classmethod
    def successes(cls, m: int) -> "MeasurementSequence":
        if m < 0:
            raise InvalidParameterError("sequence length must be nonnegative")
        check_limit("record", m, "a measurement record")
        return cls((1,) * m)

    @property
    def m(self) -> int:
        """Number of recorded outcomes."""
        return len(self.outcomes)

    @property
    def q(self) -> int:
        """Number of recorded ones."""
        return sum(self.outcomes)

    def __str__(self) -> str:
        return "".join(str(b) for b in self.outcomes)


@dataclass(frozen=True)
class ClassState:
    """Conditional level weights after a recorded sequence of outcomes.

    The outcomes themselves are not kept: the weights and the running log
    probability are all that later steps and every observable read.

    A state a caller builds is checked in full here. :func:`step` builds its
    states through :meth:`_after_step`, which trusts what holds by
    construction.
    """

    histogram: PhaseHistogram
    weights: np.ndarray
    log_sequence_probability: float

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=np.float64).copy()
        if w.shape != (self.histogram.n_levels,):
            raise InvalidParameterError("one weight per histogram level required")
        if not np.all(np.isfinite(w)):
            raise InvalidParameterError("weights must be finite")
        if np.any(w < 0):
            raise InvalidParameterError("weights must be nonnegative")
        if np.any(w[self.histogram.counts == 0] != 0):
            raise InvalidParameterError("weights on empty levels must be 0")
        if not math.isfinite(self.log_sequence_probability):
            raise InvalidParameterError("log probability must be finite")
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)
        self._check_sums()

    def _check_sums(self) -> None:
        """The checks that rounding can trip, written so that NaN fails them."""
        if not abs(float(self.weights.sum()) - 1.0) <= _WEIGHT_SUM_ATOL:
            raise InvalidParameterError("weights must sum to 1")
        if not self.log_sequence_probability <= ANGLE_ATOL:
            raise InvalidParameterError("log probability must be nonpositive")

    @classmethod
    def _after_step(
        cls, histogram: PhaseHistogram, weights: np.ndarray, log_sequence_probability: float
    ) -> "ClassState":
        """The state :func:`step` builds from ``raw / p``, a fresh array.

        Its shape, signs and zero weight on empty levels hold by
        construction, so only :meth:`_check_sums` runs.
        """
        state = object.__new__(cls)
        weights.flags.writeable = False
        object.__setattr__(state, "histogram", histogram)
        object.__setattr__(state, "weights", weights)
        object.__setattr__(state, "log_sequence_probability", log_sequence_probability)
        state._check_sums()
        return state

    @property
    def probability(self) -> float:
        """Joint probability of the recorded outcomes."""
        return math.exp(self.log_sequence_probability)


def initial_state(h: PhaseHistogram) -> ClassState:
    """Uniform state over the support, before any measurement."""
    return ClassState(h, h.counts / h.support, 0.0)


def step(state: ClassState, outcome: int) -> tuple[ClassState, float]:
    """Condition the state on one more recorded outcome.

    Returns the new state and the branch probability of that outcome.
    """
    if outcome not in (0, 1):
        raise InvalidParameterError("outcome must be 0 or 1")
    zero, one = state.histogram.branch_factors
    raw = state.weights * (one if outcome else zero)
    p = float(raw.sum())
    if not p > 0.0:
        raise ImpossibleOutcomeError(
            f"outcome {outcome} has probability 0 given the outcomes recorded so far"
        )
    log_p = state.log_sequence_probability + math.log(p)
    return ClassState._after_step(state.histogram, raw / p, log_p), p


def run_sequence(h: PhaseHistogram, y: MeasurementSequence) -> tuple[ClassState, float]:
    """Fold :func:`step` over a whole sequence; returns the state and p(y)."""
    state = initial_state(h)
    for outcome in y.outcomes:
        state, _ = step(state, outcome)
    return state, state.probability


def success_run(h: PhaseHistogram, m: int) -> tuple[ClassState, float]:
    """Run an all-ones sequence of length ``m``."""
    return run_sequence(h, MeasurementSequence.successes(m))


def _scaled_log1p(exponent: int, x: np.ndarray) -> np.ndarray:
    """``exponent * log(1 + x)``, taking ``0 * log 0`` as 0."""
    if exponent == 0:
        return np.zeros_like(x)
    with np.errstate(divide="ignore"):
        return exponent * np.log1p(x)


def sequence_probability(h: PhaseHistogram, y: MeasurementSequence) -> float:
    """Closed-form log p(y); depends on the sequence only through (ones, length).

    The sum runs in log space (a log-sum-exp over the occupied levels), so
    neither ``2^m`` nor the moments overflow or underflow on long records,
    and a record far below the float range keeps a finite log. An impossible
    record gives ``-inf``.
    """
    q, r = y.q, y.m - y.q
    live = h.counts > 0
    c = np.cos(h.thetas[live])
    log_terms = np.log(h.counts[live]) + _scaled_log1p(q, -c) + _scaled_log1p(r, c)
    top = float(log_terms.max())
    if top == -math.inf:
        return -math.inf
    log_moment = top + math.log(float(np.exp(log_terms - top).sum()))
    return log_moment - y.m * math.log(2.0) - math.log(h.support)


def tail_probability(state: ClassState, theta: float) -> float:
    """Conditional probability of the levels at angles >= theta."""
    return float(state.weights[state.histogram.tail_levels(theta)].sum())


def unconditional_tail_probability(state: ClassState, theta: float) -> float:
    """Joint probability of the recorded outcomes and a level at >= theta."""
    return state.probability * tail_probability(state, theta)


def sampling_route(graph: Graph) -> list[_Step] | None:
    """The frontier DP's steps when sampling reads members from its tables
    (:func:`frontier_route` with every table kept), else None for a class
    table. Refuses a graph past its route's cap, before any work."""
    check_limit("histogram", graph.n_vertices, "assignment sampling")
    steps = frontier_route(graph, keep_tables=True)
    if steps is None:
        check_limit("class_table", graph.n_vertices, "class tables")
    return steps


def sample_assignment(
    state: ClassState,
    graph: Graph,
    objective: ObjectiveKind | str,
    count: int,
    rng: np.random.Generator | int | None = None,
) -> np.ndarray:
    """Draw ``count`` assignments of ``graph``: each a level per the state
    weights, then a uniform member of that level. The draws are one batch.

    Each member is named by a uniform integer rank below its level's count
    and read by the reader of the route :func:`sampling_route` picks,
    :func:`frontier_members` or :meth:`ClassTable.members`. Either route's
    level counts must equal the state's histogram.
    """
    if count < 0:
        raise InvalidParameterError(f"sample count must be nonnegative, got {count}")
    h = state.histogram
    is_cut = ObjectiveKind.coerce(objective) is ObjectiveKind.MAXCUT
    steps = sampling_route(graph)
    if steps is None:
        table = build_class_table(graph, objective)
        sizes, members = table.class_sizes(), table.members
    else:
        tables = list(frontier_tables(steps, is_cut))
        sizes = level_totals(tables[-1])
        members = partial(frontier_members, steps, tables, is_cut=is_cut)
    sizes[0] -= not h.includes_zero
    if not np.array_equal(sizes, h.counts):
        raise InvalidParameterError("the graph's level counts do not match the histogram")
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    cumulative = np.cumsum(state.weights)
    drawn = np.searchsorted(cumulative, gen.random(count) * cumulative[-1], side="right")
    # A draw that rounds up to the total lands on the last level of positive weight.
    levels = np.minimum(drawn, np.flatnonzero(state.weights)[-1])
    # Rank 0 of level 0 is the all-zeros assignment, which an excluded zero skips.
    ranks = gen.integers(h.counts[levels]) + ((levels == 0) & (not h.includes_zero))
    return members(levels, ranks)
