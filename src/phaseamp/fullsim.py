"""Dense two-register simulator, kept as an independent cross-check.

The dynamics never leave the 2N-dimensional subspace spanned by the pairs
``|x, 0>`` (data register holds x, reference register empty) and ``|0, x>``
(data register empty, reference register holds x), for x = 1..N. The state
vector therefore stores the two blocks back to back: slots ``0..N-1`` hold
the ``|x, 0>`` amplitudes (the A block), slots ``N..2N-1`` the ``|0, x>``
amplitudes (the B block).

On that subspace one interference round is

    A, B  ->  (A - B) / sqrt(2), (A + B) / sqrt(2)      pairing
    A     ->  exp(i phase_x) * A                        phase kick
    A, B  ->  (A - B) / sqrt(2), (A + B) / sqrt(2)      pairing again

and the reference measurement projects onto the A block (outcome 1) or the
B block (outcome 0); after outcome 0 the reference register takes over as
the new data register, which is a block swap here.

This module deliberately shares no code with the per-level amplifier: it
tracks one amplitude per assignment and register instead of one weight per
level, so agreement between the two is a real check.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .amplifier import MeasurementSequence, run_sequence
from .encoding import histogram_from_phases
from .errors import ImpossibleOutcomeError, InvalidParameterError, check_limit

_NORM_ATOL = 1e-12


@dataclass(frozen=True)
class DoubledState:
    """Normalized state over the paired-register subspace."""

    amplitudes: np.ndarray
    n_support: int

    def __post_init__(self) -> None:
        amp = np.asarray(self.amplitudes, dtype=np.complex128).copy()
        if amp.ndim != 1 or amp.size != 2 * self.n_support or self.n_support < 1:
            raise InvalidParameterError("need 2 * n_support amplitudes")
        norm = float(np.sum(np.abs(amp) ** 2))
        if abs(norm - 1.0) > _NORM_ATOL:
            raise InvalidParameterError(f"state norm {norm} is not 1")
        amp.flags.writeable = False
        object.__setattr__(self, "amplitudes", amp)

    @property
    def a_block(self) -> np.ndarray:
        """Amplitudes of |x, 0>, x = 1..N."""
        return self.amplitudes[: self.n_support]

    @property
    def b_block(self) -> np.ndarray:
        """Amplitudes of |0, x>, x = 1..N."""
        return self.amplitudes[self.n_support :]


def _check_phases(phases: Sequence[float]) -> np.ndarray:
    arr = np.asarray(phases, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 1:
        raise InvalidParameterError("need a nonempty 1-d list of phases")
    return arr


def prepare(phases: Sequence[float]) -> DoubledState:
    """Uniform superposition over the support, reference register empty."""
    arr = _check_phases(phases)
    n = arr.size
    amp = np.zeros(2 * n, dtype=np.complex128)
    amp[:n] = 1.0 / math.sqrt(n)
    return DoubledState(amp, n)


def apply_interference_round(state: DoubledState, phases: Sequence[float]) -> DoubledState:
    """Pairing, phase kick on the data register, pairing again."""
    arr = _check_phases(phases)
    n = state.n_support
    if arr.size != n:
        raise InvalidParameterError("one phase per supported assignment required")
    inv = 1.0 / math.sqrt(2.0)
    a = state.a_block
    b = state.b_block
    a1 = (a - b) * inv
    b1 = (a + b) * inv
    a1 = np.exp(1j * arr) * a1
    a2 = (a1 - b1) * inv
    b2 = (a1 + b1) * inv
    return DoubledState(np.concatenate([a2, b2]), n)


def measure_reference(state: DoubledState, outcome: int) -> tuple[DoubledState, float]:
    """Project on the reference register being empty (1) or occupied (0).

    After outcome 0 the occupied reference register becomes the new data
    register. Returns the post-measurement state and the branch probability.
    """
    if outcome not in (0, 1):
        raise InvalidParameterError("outcome must be 0 or 1")
    n = state.n_support
    kept = state.a_block if outcome else state.b_block
    p = float(np.sum(np.abs(kept) ** 2))
    if p <= 0.0:
        raise ImpossibleOutcomeError(f"outcome {outcome} has probability 0")
    amp = np.zeros(2 * n, dtype=np.complex128)
    amp[:n] = kept / math.sqrt(p)
    return DoubledState(amp, n), p


def run_sequence_fullsim(
    phases: Sequence[float], y: MeasurementSequence
) -> tuple[float, np.ndarray]:
    """Joint probability of ``y`` and the conditional per-assignment distribution."""
    arr = _check_phases(phases)
    check_limit("dense_support", arr.size, "dense simulation")
    check_limit("dense_sequence", y.m, "dense simulation")
    state = prepare(arr)
    log_p = 0.0
    for outcome in y.outcomes:
        state = apply_interference_round(state, arr)
        state, p = measure_reference(state, outcome)
        log_p += math.log(p)
    distribution = np.abs(state.a_block) ** 2
    return math.exp(log_p), distribution


@dataclass(frozen=True)
class OracleComparison:
    """Worst-case disagreement between the dense and the per-level routes."""

    n_cases: int
    max_probability_deviation: float
    max_distribution_deviation: float


def compare_with_class_weights(
    n_phase_sets: int = 50,
    max_support: int = 32,
    max_sequence: int = 6,
    seed: int | None = 0,
) -> OracleComparison:
    """Run both simulators over random phase sets and all short sequences.

    For each random phase set every sequence of length <= ``max_sequence`` is
    run through the dense simulator and through the per-level fold, comparing
    both the joint sequence probability and the conditional per-assignment
    distribution (a level weight spread uniformly over the level's members).
    """
    if n_phase_sets < 1 or max_support < 2 or max_sequence < 0:
        raise InvalidParameterError(
            "need n_phase_sets >= 1, max_support >= 2 and max_sequence >= 0, "
            f"got {n_phase_sets}, {max_support} and {max_sequence}"
        )
    check_limit("dense_support", max_support, "dense simulation")
    check_limit("dense_sequence", max_sequence, "dense simulation")
    gen = np.random.default_rng(seed)
    worst_p = 0.0
    worst_d = 0.0
    cases = 0
    for _ in range(n_phase_sets):
        n = int(gen.integers(2, max_support + 1))
        # Interior angles keep every branch probability strictly positive.
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
