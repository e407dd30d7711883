"""Dense two-register simulator and its agreement with the per-level fold."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from phaseamp import amplifier, fullsim
from phaseamp.amplifier import MeasurementSequence, run_sequence
from phaseamp.encoding import histogram_from_phases
from phaseamp.errors import (
    LIMITS,
    ImpossibleOutcomeError,
    InvalidParameterError,
    ResourceLimitError,
)
from phaseamp.fullsim import (
    DoubledState,
    apply_interference_round,
    compare_with_class_weights,
    measure_reference,
    prepare,
    run_sequence_fullsim,
)

from .oracles import ref_compare_with_class_weights


class TestDoubledState:
    @pytest.mark.parametrize("build", [DoubledState, DoubledState._built])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
    def test_non_finite_amplitudes_are_refused_on_both_build_paths(self, build, bad):
        with pytest.raises(InvalidParameterError, match="norm"):
            build(np.array([bad, 0.0], dtype=np.complex128), 1)

    @pytest.mark.parametrize("build", [DoubledState, DoubledState._built])
    def test_unnormalized_amplitudes_are_refused_on_both_build_paths(self, build):
        with pytest.raises(InvalidParameterError, match="norm"):
            build(np.array([1.0, 1.0], dtype=np.complex128), 1)

    def test_caller_array_is_copied_and_frozen(self):
        amp = np.array([1.0, 0.0])
        state = DoubledState(amp, 1)
        amp[0] = 0.0
        assert state.amplitudes[0] == 1.0
        assert not state.amplitudes.flags.writeable


class TestPrepare:
    def test_uniform_data_block(self):
        state = prepare([0.1, 0.2, 0.3, 0.4])
        assert np.allclose(state.a_block, 0.5)
        assert np.allclose(state.b_block, 0.0)

    def test_rejects_empty(self):
        with pytest.raises(InvalidParameterError):
            prepare([])


class TestInterferenceRound:
    def test_preserves_norm(self):
        rng = np.random.default_rng(0)
        phases = rng.uniform(0.0, math.pi, size=16)
        state = prepare(phases)
        for _ in range(5):
            state = apply_interference_round(state, phases)
            state, _ = measure_reference(state, 1)
            norm = float(np.sum(np.abs(state.amplitudes) ** 2))
            assert abs(norm - 1.0) < 1e-12

    def test_closed_form_after_one_round(self):
        phases = np.array([0.3, 1.1, 2.4])
        state = apply_interference_round(prepare(phases), phases)
        n = phases.size
        expected_a = (np.exp(1j * phases) - 1.0) / (2.0 * math.sqrt(n))
        expected_b = (np.exp(1j * phases) + 1.0) / (2.0 * math.sqrt(n))
        assert np.allclose(state.a_block, expected_a, atol=1e-12)
        assert np.allclose(state.b_block, expected_b, atol=1e-12)

    def test_rejects_phase_count_mismatch(self):
        state = prepare([0.1, 0.2])
        with pytest.raises(InvalidParameterError):
            apply_interference_round(state, [0.1, 0.2, 0.3])


class TestMeasureReference:
    def test_branch_probabilities_sum_to_one(self):
        phases = np.array([0.4, 0.9, 1.7, 2.8])
        state = apply_interference_round(prepare(phases), phases)
        _, p1 = measure_reference(state, 1)
        _, p0 = measure_reference(state, 0)
        assert p1 + p0 == pytest.approx(1.0, abs=1e-12)

    def test_success_probability_closed_form(self):
        phases = np.array([0.4, 0.9, 1.7, 2.8])
        state = apply_interference_round(prepare(phases), phases)
        _, p1 = measure_reference(state, 1)
        assert p1 == pytest.approx(
            float(np.mean((1.0 - np.cos(phases)) / 2.0)), abs=1e-12
        )

    def test_impossible_outcome(self):
        phases = np.zeros(4)  # no phase kick: the data register never entangles
        state = apply_interference_round(prepare(phases), phases)
        with pytest.raises(ImpossibleOutcomeError):
            measure_reference(state, 1)

    def test_rejects_bad_outcome(self):
        state = prepare([0.1])
        with pytest.raises(InvalidParameterError):
            measure_reference(state, 2)


class TestRunSequenceFullsim:
    def test_agrees_with_per_level_fold(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            n = int(rng.integers(2, 17))
            phases = np.sort(rng.uniform(0.05, math.pi - 0.05, size=n))
            h = histogram_from_phases(phases)
            for bits in itertools.product((0, 1), repeat=3):
                y = MeasurementSequence(bits)
                p_dense, dist = run_sequence_fullsim(phases, y)
                state, p_fold = run_sequence(h, y)
                assert p_dense == pytest.approx(p_fold, abs=1e-12)
                # Every assignment carries its level weight split evenly.
                level_of = np.searchsorted(h.thetas, phases)
                per_x = state.weights[level_of] / h.counts[level_of]
                assert np.max(np.abs(dist - per_x)) < 1e-12

    def test_distribution_normalizes(self):
        phases = np.array([0.5, 1.0, 2.0, 3.0])
        _, dist = run_sequence_fullsim(phases, MeasurementSequence((1, 0, 1)))
        assert float(dist.sum()) == pytest.approx(1.0, abs=1e-12)

    def test_repeated_levels_share_mass(self):
        phases = np.array([0.7, 0.7, 0.7, 2.2])
        _, dist = run_sequence_fullsim(phases, MeasurementSequence((1, 1)))
        assert dist[0] == pytest.approx(dist[1], abs=1e-15)
        assert dist[0] == pytest.approx(dist[2], abs=1e-15)

    def test_support_cap(self):
        with pytest.raises(ResourceLimitError):
            run_sequence_fullsim(np.linspace(0.1, 3.0, 1025), MeasurementSequence((1,)))

    def test_sequence_cap(self):
        with pytest.raises(ResourceLimitError):
            run_sequence_fullsim(np.array([0.5, 1.5]), MeasurementSequence((1,) * 9))


class TestOracleComparison:
    def test_small_sweep_is_tight(self):
        report = compare_with_class_weights(
            n_phase_sets=5, max_support=16, max_sequence=4, seed=123
        )
        assert report.n_cases == 5 * (2**5 - 1)
        assert report.max_probability_deviation < 1e-10
        assert report.max_distribution_deviation < 1e-10

    @pytest.mark.parametrize(
        "plan",
        [
            *({"n_phase_sets": 10, "max_support": 32, "max_sequence": 4, "seed": seed}
              for seed in (0, 7, 12345)),
            *({"n_phase_sets": 10, "max_support": 32, "max_sequence": length, "seed": 3}
              for length in (0, 8)),
            *({"n_phase_sets": 1, "max_support": support, "seed": 5} for support in (2, 1024)),
            {},
        ],
    )
    def test_prefix_pass_equals_the_from_scratch_oracle(self, plan):
        # Same float operations per case, so every field is equal, not close.
        assert compare_with_class_weights(**plan) == ref_compare_with_class_weights(**plan)

    def test_replays_no_sequence_from_scratch(self, monkeypatch):
        def replay(*args):
            raise AssertionError("a sequence was replayed from scratch")

        monkeypatch.setattr(fullsim, "run_sequence_fullsim", replay)
        monkeypatch.setattr(fullsim, "run_sequence", replay, raising=False)
        monkeypatch.setattr(amplifier, "run_sequence", replay)
        report = compare_with_class_weights(n_phase_sets=2, max_support=8, max_sequence=3)
        assert report.n_cases == 2 * (2**4 - 1)

    def test_rejects_overlong_sequences(self):
        with pytest.raises(ResourceLimitError):
            compare_with_class_weights(max_sequence=9)

    def test_rejects_oversized_support_before_drawing(self):
        # Refused up front, whatever support sizes the seed would draw.
        for seed in range(5):
            with pytest.raises(ResourceLimitError):
                compare_with_class_weights(
                    n_phase_sets=1, max_support=LIMITS["dense_support"][0] + 1, max_sequence=0, seed=seed
                )

    def test_rejects_empty_plan(self):
        with pytest.raises(InvalidParameterError):
            compare_with_class_weights(n_phase_sets=0)

    @pytest.mark.parametrize(
        "plan", [{"max_support": 1}, {"max_support": 0}, {"max_sequence": -1}]
    )
    def test_rejects_plans_without_cases(self, plan):
        with pytest.raises(InvalidParameterError):
            compare_with_class_weights(n_phase_sets=2, **plan)
