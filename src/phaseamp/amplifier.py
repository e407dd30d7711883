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
probability by the step-by-step :func:`fold`. The two routes are kept
separate on purpose so either can check the other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Sequence

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
# The characters "0" and "1" as the bytes 0 and 1, and back.
_BIT_VALUES = bytes.maketrans(b"01", b"\x00\x01")
_BIT_CHARS = bytes.maketrans(b"\x00\x01", b"01")
# The fold's block buffer: at most this many rows, and at most this many floats.
_BLOCK_ROWS = 1024
_BLOCK_FLOATS = 1 << 17


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
    def _of_bits(cls, outcomes: tuple[int, ...]) -> "MeasurementSequence":
        """A record of 0/1 ints already checked against the record cap."""
        y = object.__new__(cls)
        object.__setattr__(y, "outcomes", outcomes)
        return y

    @classmethod
    def from_string(cls, text: str) -> "MeasurementSequence":
        s = text.strip()
        if not set(s) <= {"0", "1"}:
            raise InvalidParameterError(f"sequence must be a string of 0/1 bits: {text!r}")
        check_limit("record", len(s), "a measurement record")
        return cls._of_bits(tuple(s.encode().translate(_BIT_VALUES)))

    @classmethod
    def successes(cls, m: int) -> "MeasurementSequence":
        if m < 0:
            raise InvalidParameterError("sequence length must be nonnegative")
        check_limit("record", m, "a measurement record")
        return cls._of_bits((1,) * m)

    @property
    def m(self) -> int:
        """Number of recorded outcomes."""
        return len(self.outcomes)

    @property
    def q(self) -> int:
        """Number of recorded ones."""
        return sum(self.outcomes)

    def __str__(self) -> str:
        return bytes(self.outcomes).translate(_BIT_CHARS).decode()


@dataclass(frozen=True)
class ClassState:
    """Conditional level weights after a recorded sequence of outcomes.

    The outcomes themselves are not kept: the weights and the running log
    probability are all that later steps and every observable read.

    A state a caller builds is checked in full here. :func:`step` and
    :func:`run_sequence` build theirs through :meth:`_after_step`, which
    trusts what holds by construction.
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
        _check_sums(float(w.sum()), self.log_sequence_probability)

    @classmethod
    def _after_step(
        cls, histogram: PhaseHistogram, weights: np.ndarray, log_sequence_probability: float
    ) -> "ClassState":
        """The state :func:`step` or :func:`fold` builds from ``raw / p``, a fresh array.

        Its shape, signs and zero weight on empty levels hold by
        construction, so only :func:`_check_sums` runs.
        """
        state = object.__new__(cls)
        weights.flags.writeable = False
        object.__setattr__(state, "histogram", histogram)
        object.__setattr__(state, "weights", weights)
        object.__setattr__(state, "log_sequence_probability", log_sequence_probability)
        _check_sums(float(weights.sum()), log_sequence_probability)
        return state

    @property
    def probability(self) -> float:
        """Joint probability of the recorded outcomes."""
        return math.exp(self.log_sequence_probability)


def _check_sums(weight_sum: float, log_p: float) -> None:
    """The checks that rounding can trip, written so that NaN fails them."""
    if not abs(weight_sum - 1.0) <= _WEIGHT_SUM_ATOL:
        raise InvalidParameterError("weights must sum to 1")
    if not log_p <= ANGLE_ATOL:
        raise InvalidParameterError("log probability must be nonpositive")


def _check_rows(rows: np.ndarray, logs: list[float]) -> None:
    """:func:`_check_sums` on every row at once; the first failing row raises.

    ``rows.sum(axis=1)`` adds each C-ordered row as ``row.sum()`` does, so
    the sums checked are the ones a state per row would check.
    """
    sums = rows.sum(axis=1)
    ok = (np.abs(sums - 1.0) <= _WEIGHT_SUM_ATOL) & (np.asarray(logs) <= ANGLE_ATOL)
    if not ok.all():
        i = int(ok.argmin())
        _check_sums(float(sums[i]), logs[i])


def _condition_rows(
    h: PhaseHistogram, rows: np.ndarray, logs: list[float]
) -> tuple[np.ndarray, list[float]]:
    """Both children of each state in ``rows``, as :func:`_condition` conditions one.

    Row ``i`` conditioned on outcome 0 becomes child ``2i``, on outcome 1
    child ``2i + 1``. Returns the children's weights, each C-ordered row
    summed and divided as :func:`_condition` sums and divides one state,
    and their running logs, checked by :func:`_check_rows`. The earliest
    impossible child is refused after the children before it are checked.
    """
    raw = (rows[:, None, :] * np.stack(h.branch_factors)).reshape(-1, rows.shape[1])
    p = raw.sum(axis=1)
    impossible = ~(p > 0.0)
    n_ok = int(impossible.argmax()) if impossible.any() else p.size
    children = np.divide(raw[:n_ok], p[:n_ok, None], raw[:n_ok])
    child_logs = [logs[i >> 1] + math.log(q) for i, q in enumerate(p[:n_ok].tolist())]
    _check_rows(children, child_logs)
    if n_ok < p.size:
        raise ImpossibleOutcomeError(
            f"outcome {n_ok & 1} has probability 0 given the outcomes recorded so far"
        )
    return children, child_logs


def _condition(
    h: PhaseHistogram, weights: np.ndarray, log_p: float, outcome: int, out: np.ndarray | None
) -> tuple[np.ndarray, float, float]:
    """One step of the fold, shared by :func:`step` and :func:`fold`.

    Returns the new weights ``raw / p`` (computed in ``out`` when given,
    else in a fresh array), the branch probability ``p`` and the new
    running log probability.
    """
    zero, one = h.branch_factors
    raw = np.multiply(weights, one if outcome else zero, out)
    p = float(raw.sum())
    if not p > 0.0:
        raise ImpossibleOutcomeError(
            f"outcome {outcome} has probability 0 given the outcomes recorded so far"
        )
    return np.divide(raw, p, raw), p, log_p + math.log(p)


def initial_state(h: PhaseHistogram) -> ClassState:
    """Uniform state over the support, before any measurement."""
    return ClassState(h, h.counts / h.support, 0.0)


def step(state: ClassState, outcome: int) -> tuple[ClassState, float]:
    """Condition the state on one more recorded outcome.

    Returns the new state and the branch probability of that outcome.
    """
    if outcome not in (0, 1):
        raise InvalidParameterError("outcome must be 0 or 1")
    h = state.histogram
    weights, p, log_p = _condition(h, state.weights, state.log_sequence_probability, outcome, None)
    return ClassState._after_step(h, weights, log_p), p


def _block_rows(n_rows: int, width: int) -> int:
    """Rows of a block of ``width`` floats per row: at most ``_BLOCK_ROWS`` rows
    and ``_BLOCK_FLOATS`` floats, at least one row, no more than ``n_rows``."""
    return max(1, min(_BLOCK_ROWS, _BLOCK_FLOATS // width, n_rows))


def fold(h: PhaseHistogram, outcomes: Sequence[int]) -> tuple[np.ndarray, float]:
    """Condition the uniform state on each outcome in turn, as :func:`step` does.

    Returns the final weights (a fresh read-only array) and the log
    probability of the outcomes. No state is built per step: the weights of
    successive states are written into one buffer of fixed size, a block.
    Each block's weight sums and running logs are checked at once, as each
    state's would be; when a step is impossible, the rows before it are
    checked first, so the earliest step's error is the one raised.
    """
    if not set(outcomes) <= {0, 1}:
        raise InvalidParameterError("outcome must be 0 or 1")
    condition = _condition
    weights, log_p = initial_state(h).weights, 0.0
    n_states = len(outcomes) + 1
    block = _block_rows(n_states, h.n_levels)
    rows = np.empty((block, h.n_levels))
    rows[0] = weights
    for first in range(0, n_states, block):
        # The block holds states first, first + 1, ...; state s follows outcome s - 1.
        logs = [0.0] if first == 0 else []
        try:
            for outcome in outcomes[max(first - 1, 0) : first + block - 1]:
                weights, _, log_p = condition(h, weights, log_p, outcome, rows[len(logs)])
                logs.append(log_p)
        except ImpossibleOutcomeError:
            _check_rows(rows[: len(logs)], logs)
            raise
        _check_rows(rows[: len(logs)], logs)
    weights = weights.copy()
    weights.flags.writeable = False
    return weights, log_p


def run_sequence(h: PhaseHistogram, y: MeasurementSequence) -> tuple[ClassState, float]:
    """:func:`fold` over a whole sequence; returns the final state and p(y)."""
    state = ClassState._after_step(h, *fold(h, y.outcomes))
    return state, state.probability


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
    return float(state.weights[state.histogram.tail_start(theta) :].sum())


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
