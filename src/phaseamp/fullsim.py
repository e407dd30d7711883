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
level, so agreement between the two is a real check. It calls the fold only
to compare against it, never to compute a dense amplitude.

:func:`compare_with_class_weights` walks the sequences as a prefix tree, one
layer per length, with every prefix of a length held as a row of one array:
a ``(P, 2N)`` array of dense states, a ``(P, K)`` array of fold weights and
a running log probability per row on each route. One interference round on
the whole layer followed by both measurement outcomes gives the next layer,
row ``i``'s outcome 0 then its outcome 1, so the rows stay in lexicographic
order. A phase set with sequences of length up to L therefore costs L layer
steps, not a replay of every prefix inside each longer sequence, and each
case gets the same float operations as a from-scratch run of that sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import amplifier
from .amplifier import MeasurementSequence, initial_state
from .encoding import histogram_from_phases
from .errors import ImpossibleOutcomeError, InvalidParameterError, check_limit

_NORM_ATOL = 1e-12
_INV_SQRT2 = 1.0 / math.sqrt(2.0)


@dataclass(frozen=True)
class DoubledState:
    """Normalized state over the paired-register subspace.

    A state a caller builds is copied and checked in full here. The
    simulator builds its states through :meth:`_built`, which trusts the
    shape and type of the fresh array it is given.
    """

    amplitudes: np.ndarray
    n_support: int

    def __post_init__(self) -> None:
        amp = np.asarray(self.amplitudes, dtype=np.complex128).copy()
        if amp.ndim != 1 or amp.size != 2 * self.n_support or self.n_support < 1:
            raise InvalidParameterError("need 2 * n_support amplitudes")
        amp.flags.writeable = False
        object.__setattr__(self, "amplitudes", amp)
        _check_norms(amp)

    @classmethod
    def _built(cls, amplitudes: np.ndarray, n_support: int) -> "DoubledState":
        """A state the simulator builds: a fresh complex128 array of
        ``2 * n_support`` amplitudes. Only :func:`_check_norms` runs."""
        state = object.__new__(cls)
        amplitudes.flags.writeable = False
        object.__setattr__(state, "amplitudes", amplitudes)
        object.__setattr__(state, "n_support", n_support)
        _check_norms(amplitudes)
        return state

    @property
    def a_block(self) -> np.ndarray:
        """Amplitudes of |x, 0>, x = 1..N."""
        return self.amplitudes[: self.n_support]

    @property
    def b_block(self) -> np.ndarray:
        """Amplitudes of |0, x>, x = 1..N."""
        return self.amplitudes[self.n_support :]


def _check_norms(amplitudes: np.ndarray) -> None:
    """The check that rounding can trip, written so that NaN fails it, on one
    state or on each row of a layer; the earliest failing row raises."""
    norms = np.sum(np.abs(amplitudes) ** 2, axis=-1)
    ok = np.abs(norms - 1.0) <= _NORM_ATOL
    if not ok.all():
        norm = float(norms.flat[ok.argmin()])
        raise InvalidParameterError(f"state norm {norm} is not 1")


def _check_phases(phases: Sequence[float]) -> np.ndarray:
    arr = np.asarray(phases, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 1:
        raise InvalidParameterError("need a nonempty 1-d list of phases")
    return arr


def _uniform(n: int) -> np.ndarray:
    """Amplitudes of the uniform superposition over n assignments, reference empty."""
    amp = np.zeros(2 * n, dtype=np.complex128)
    amp[:n] = 1.0 / math.sqrt(n)
    return amp


def prepare(phases: Sequence[float]) -> DoubledState:
    """Uniform superposition over the support, reference register empty."""
    n = _check_phases(phases).size
    return DoubledState._built(_uniform(n), n)


def _round(
    amplitudes: np.ndarray, n: int, kick: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """One interference round on one state or on each row of a layer;
    ``kick`` holds exp(i phase_x). Returns both blocks."""
    a = amplitudes[..., :n]
    b = amplitudes[..., n:]
    a1 = (a - b) * _INV_SQRT2
    b1 = (a + b) * _INV_SQRT2
    a1 = kick * a1
    return (a1 - b1) * _INV_SQRT2, (a1 + b1) * _INV_SQRT2


def _measure(
    kept: np.ndarray, outcome: int | Sequence[int]
) -> tuple[np.ndarray, np.ndarray]:
    """Keep one block after the reference measurement, as the new data block.

    ``kept`` is one block or a stack of them, and ``outcome`` the outcome of
    each (an int, or an array that broadcasts to the stack). Returns the new
    amplitudes, each block renormalised by its own ``sqrt(p)``, and each
    branch probability ``p``, summed over its own contiguous block. The
    earliest block of probability 0 is refused.
    """
    n = kept.shape[-1]
    p = np.sum(np.abs(kept) ** 2, axis=-1)
    impossible = p <= 0.0
    if impossible.any():
        bad = np.broadcast_to(outcome, p.shape).flat[impossible.argmax()]
        raise ImpossibleOutcomeError(f"outcome {bad} has probability 0")
    amp = np.zeros((*kept.shape[:-1], 2 * n), dtype=np.complex128)
    np.divide(kept, np.sqrt(p)[..., None], out=amp[..., :n])
    return amp, p


def apply_interference_round(state: DoubledState, phases: Sequence[float]) -> DoubledState:
    """Pairing, phase kick on the data register, pairing again."""
    arr = _check_phases(phases)
    n = state.n_support
    if arr.size != n:
        raise InvalidParameterError("one phase per supported assignment required")
    a, b = _round(state.amplitudes, n, np.exp(1j * arr))
    return DoubledState._built(np.concatenate([a, b]), n)


def measure_reference(state: DoubledState, outcome: int) -> tuple[DoubledState, float]:
    """Project on the reference register being empty (1) or occupied (0).

    After outcome 0 the occupied reference register becomes the new data
    register. Returns the post-measurement state and the branch probability.
    """
    if outcome not in (0, 1):
        raise InvalidParameterError("outcome must be 0 or 1")
    amp, p = _measure(state.a_block if outcome else state.b_block, outcome)
    return DoubledState._built(amp, state.n_support), float(p)


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
    The sequences of each length come in lexicographic order, each one the
    extension of a prefix of the previous length.
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
        members = h.counts[level_of]
        kick = np.exp(1j * phases)
        # Row i of each layer is the i-th prefix of its length: its dense
        # state, dense log p, fold weights and fold log p.
        dense = _uniform(n)[None, :]
        _check_norms(dense)
        dense_logs = [0.0]
        weights = initial_state(h).weights[None, :]
        fold_logs = [0.0]
        for m in range(max_sequence + 1):
            if m:
                a, b = _round(dense, n, kick)
                dense, p = _measure(np.stack((b, a), axis=1), (0, 1))
                dense = dense.reshape(-1, 2 * n)
                _check_norms(dense)
                dense_logs = [
                    dense_logs[i >> 1] + math.log(q) for i, q in enumerate(p.ravel().tolist())
                ]
                weights, fold_logs = amplifier._condition_rows(h, weights, fold_logs)
            dist_dense = np.abs(dense[:, :n]) ** 2
            per_x = weights[:, level_of] / members
            for log_dense, log_fold in zip(dense_logs, fold_logs):
                worst_p = max(worst_p, abs(math.exp(log_dense) - math.exp(log_fold)))
            worst_d = max(worst_d, float(np.max(np.abs(dist_dense - per_x))))
            cases += len(dense_logs)
    return OracleComparison(cases, worst_p, worst_d)
