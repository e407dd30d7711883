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
from phaseamp.fullsim import compare_with_class_weights, run_sequence_fullsim
from phaseamp.graphs import ObjectiveKind, objective_values, parse_graph_spec

from .oracles import ref_compare_with_class_weights


def _after_round(phases: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both blocks after one round on the uniform start state."""
    return fullsim._round(fullsim._uniform(phases.size), phases.size, np.exp(1j * phases))


class TestNormCheck:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
    def test_non_finite_amplitudes_are_refused(self, bad):
        with pytest.raises(InvalidParameterError, match="norm"):
            fullsim._check_norms(np.array([bad, 0.0], dtype=np.complex128))

    @pytest.mark.parametrize("amp", [[1.0, 1.0], [0.5, 0.0]], ids=["above_one", "below_one"])
    def test_unnormalized_amplitudes_are_refused(self, amp):
        with pytest.raises(InvalidParameterError, match="norm"):
            fullsim._check_norms(np.array(amp, dtype=np.complex128))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_a_non_finite_phase_is_refused_after_its_round(self, bad):
        phases = np.array([bad, 1.0])
        with np.errstate(invalid="ignore"):
            p, dist = run_sequence_fullsim(phases, MeasurementSequence())
            assert p == 1.0 and np.allclose(dist, 0.5)
            with pytest.raises(InvalidParameterError, match="^state norm nan is not 1$"):
                run_sequence_fullsim(phases, MeasurementSequence((1,)))


class TestPrepare:
    def test_uniform_data_block(self):
        assert np.array_equal(fullsim._uniform(4), [0.5] * 4 + [0.0] * 4)
        p, dist = run_sequence_fullsim([0.1, 0.2, 0.3, 0.4], MeasurementSequence())
        assert p == 1.0
        assert np.allclose(dist, 0.25)

    def test_rejects_empty(self):
        for phases in ([], [[0.1, 0.2]]):
            with pytest.raises(InvalidParameterError, match="^need a nonempty 1-d list of phases$"):
                run_sequence_fullsim(phases, MeasurementSequence())


class TestInterferenceRound:
    def test_preserves_norm(self):
        rng = np.random.default_rng(0)
        phases = rng.uniform(0.0, math.pi, size=16)
        amp = fullsim._uniform(16)
        for _ in range(5):
            a, b = fullsim._round(amp, 16, np.exp(1j * phases))
            full = float(np.sum(np.abs(a) ** 2) + np.sum(np.abs(b) ** 2))
            assert abs(full - 1.0) < 1e-12
            amp, _ = fullsim._measure(a, 1)
            norm = float(np.sum(np.abs(amp) ** 2))
            assert abs(norm - 1.0) < 1e-12

    def test_closed_form_after_one_round(self):
        phases = np.array([0.3, 1.1, 2.4])
        a, b = _after_round(phases)
        n = phases.size
        expected_a = (np.exp(1j * phases) - 1.0) / (2.0 * math.sqrt(n))
        expected_b = (np.exp(1j * phases) + 1.0) / (2.0 * math.sqrt(n))
        assert np.allclose(a, expected_a, atol=1e-12)
        assert np.allclose(b, expected_b, atol=1e-12)


class TestMeasureReference:
    def test_branch_probabilities_sum_to_one(self):
        a, b = _after_round(np.array([0.4, 0.9, 1.7, 2.8]))
        _, p1 = fullsim._measure(a, 1)
        _, p0 = fullsim._measure(b, 0)
        assert p1 + p0 == pytest.approx(1.0, abs=1e-12)

    def test_success_probability_closed_form(self):
        phases = np.array([0.4, 0.9, 1.7, 2.8])
        _, p1 = fullsim._measure(_after_round(phases)[0], 1)
        assert p1 == pytest.approx(
            float(np.mean((1.0 - np.cos(phases)) / 2.0)), abs=1e-12
        )

    def test_impossible_outcome(self):
        phases = np.zeros(4)  # no phase kick: the data register never entangles
        with pytest.raises(ImpossibleOutcomeError, match="^outcome 1 has probability 0$"):
            fullsim._measure(_after_round(phases)[0], 1)
        with pytest.raises(ImpossibleOutcomeError, match="^outcome 1 has probability 0$"):
            run_sequence_fullsim(phases, MeasurementSequence((0, 1)))


class TestLayerKernels:
    """The row kernels of the oracle's prefix tree check each row as one state
    is checked, and report the earliest failing row of the layer."""

    @staticmethod
    def _layer(n_rows: int, n: int = 3) -> np.ndarray:
        rng = np.random.default_rng(n_rows)
        amp = np.zeros((n_rows, 2 * n), dtype=np.complex128)
        amp[:, :n] = rng.normal(size=(n_rows, n)) + 1j * rng.normal(size=(n_rows, n))
        return amp / np.sqrt(np.sum(np.abs(amp) ** 2, axis=-1))[:, None]

    def test_normalised_layer_passes(self):
        fullsim._check_norms(self._layer(6))

    @pytest.mark.parametrize("first, second", [(1, 4), (4, 1)])
    def test_earliest_bad_norm_is_reported(self, first, second):
        layer = self._layer(6)
        layer[first, 0] = np.nan
        layer[second] *= math.sqrt(1.0 + 1e-9)
        norm = float(np.sum(np.abs(layer[second]) ** 2))
        expected = "nan" if first < second else repr(norm)
        with pytest.raises(InvalidParameterError, match=f"^state norm {expected} is not 1$"):
            fullsim._check_norms(layer)

    def test_a_row_is_checked_as_its_state(self):
        # Each row's norm is the one checked on that row alone.
        layer = self._layer(5)
        layer[2] *= 1.0 + 1e-9
        for row in layer:
            try:
                fullsim._check_norms(row)
            except InvalidParameterError as err:
                with pytest.raises(InvalidParameterError, match=f"^{err}$"):
                    fullsim._check_norms(layer)
                break
        else:
            pytest.fail("the scaled row passed")

    @pytest.mark.parametrize("zeros, outcome", [((3, 4), 1), ((5, 2), 0), ((0,), 0)])
    def test_earliest_zero_kept_block_is_refused(self, zeros, outcome):
        # A layer's kept blocks, (prefix, outcome 0 then 1); flat index 2i + outcome.
        kept = self._layer(6)[:, :3].reshape(3, 2, 3).copy()
        for flat in zeros:
            kept[flat // 2, flat % 2] = 0.0
        with pytest.raises(ImpossibleOutcomeError, match=f"^outcome {outcome} has probability 0$"):
            fullsim._measure(kept, (0, 1))

    def test_layer_measure_is_the_one_state_measure(self):
        phases = np.array([0.3, 1.2, 2.9])
        kick = np.exp(1j * phases)
        state, _ = fullsim._measure(_after_round(phases)[0], 1)
        a, b = fullsim._round(state[None, :], 3, kick)
        children, p = fullsim._measure(np.stack((b, a), axis=1), (0, 1))
        a, b = fullsim._round(state, 3, kick)
        for outcome in (0, 1):
            child, q = fullsim._measure(a if outcome else b, outcome)
            assert children[0, outcome].tobytes() == child.tobytes()
            assert p[0, outcome] == q

    def test_fold_rows_are_the_one_state_steps(self):
        h = histogram_from_phases([0.4, 0.4, 1.3, 2.6])
        state = amplifier.step(amplifier.initial_state(h), 1)[0]
        rows, logs = amplifier._condition_rows(
            h, state.weights[None, :], [state.log_sequence_probability]
        )
        for outcome in (0, 1):
            child = amplifier.step(state, outcome)[0]
            assert rows[outcome].tobytes() == child.weights.tobytes()
            assert logs[outcome] == child.log_sequence_probability

    def test_fold_rows_check_before_refusing(self):
        h = histogram_from_phases([0.5, 1.5, 2.5])
        weights = np.tile(h.counts / h.support, (3, 1))
        weights[2] = 0.0  # both children of row 2 are impossible
        with pytest.raises(ImpossibleOutcomeError, match="^outcome 0 has probability 0 given"):
            amplifier._condition_rows(h, weights, [0.0, 0.0, 0.0])
        # A positive log on child 3 (row 1, outcome 1) is raised first.
        with pytest.raises(InvalidParameterError, match="log probability must be nonpositive"):
            amplifier._condition_rows(h, weights, [0.0, 1.0, 0.0])
        weights[0, 0] = np.inf  # its children's weights are inf / inf
        with np.errstate(invalid="ignore"), pytest.raises(
            InvalidParameterError, match="weights must sum to 1"
        ):
            amplifier._condition_rows(h, weights, [0.0, 0.0, 0.0])


def _graph_phases(spec: str) -> np.ndarray:
    """The phase pi f(x) / |E| of every assignment x of a graph's MaxCut."""
    g = parse_graph_spec(spec)
    values = objective_values(g, ObjectiveKind.MAXCUT, np.arange(1 << g.n_vertices))
    return math.pi * values / g.edge_count


class TestConservation:
    """Summed over every record of a length, p(y) times the conditional
    distribution is the initial one: the round and the measurement are
    diagonal in the assignment register, and the two branch factors add up
    to 1. A graph's phases repeat levels, which the oracle's random phase
    sets never do."""

    GRAPHS = ("line:6", "grid:2x3", "starring:8", "line:10")

    @pytest.mark.parametrize("spec", GRAPHS)
    def test_fold_layers_keep_the_initial_weights(self, spec):
        h = histogram_from_phases(_graph_phases(spec))
        start = h.counts / h.support
        weights, logs = start[None, :], [0.0]
        for _ in range(8):
            weights, logs = amplifier._condition_rows(h, weights, logs)
            total = np.exp(logs) @ weights
            assert np.max(np.abs(total - start)) <= 1e-13

    @pytest.mark.parametrize("spec", GRAPHS)
    def test_dense_layers_keep_the_uniform_distribution(self, spec):
        phases = _graph_phases(spec)
        n = phases.size
        kick = np.exp(1j * phases)
        dense, probs = fullsim._uniform(n)[None, :], np.ones(1)
        for _ in range(8):
            a, b = fullsim._round(dense, n, kick)
            dense, p = fullsim._measure(np.stack((b, a), axis=1), (0, 1))
            dense = dense.reshape(-1, 2 * n)
            probs = (probs[:, None] * p).ravel()
            total = probs @ (np.abs(dense[:, :n]) ** 2)
            assert np.max(np.abs(total - 1.0 / n)) <= 1e-13


class TestRunSequenceFullsim:
    def test_one_record_is_its_row_of_the_layer(self):
        # One record from scratch runs the layer's kernels on one state, so it
        # gives its row's distribution and probability bit for bit.
        phases = np.array([0.2, 0.2, 1.3, 2.5, math.pi])
        n = phases.size
        kick = np.exp(1j * phases)
        layer, logs = fullsim._uniform(n)[None, :], [0.0]
        for m in range(1, 5):
            a, b = fullsim._round(layer, n, kick)
            layer, p = fullsim._measure(np.stack((b, a), axis=1), (0, 1))
            layer = layer.reshape(-1, 2 * n)
            logs = [logs[i >> 1] + math.log(q) for i, q in enumerate(p.ravel().tolist())]
            for row, bits in enumerate(itertools.product((0, 1), repeat=m)):
                p_record, dist = run_sequence_fullsim(phases, MeasurementSequence(bits))
                assert p_record == math.exp(logs[row])
                assert dist.tobytes() == (np.abs(layer[row, :n]) ** 2).tobytes()

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
            *({"n_phase_sets": 10, "max_support": 32, "max_sequence": 4, "seed": seed}
              for seed in (1, 2, 11, 29)),
            *({"n_phase_sets": 5, "max_support": 8, "max_sequence": 8, "seed": seed}
              for seed in (4, 19)),
            # Both caps at once: up to 256 rows of up to 2048 amplitudes a layer.
            *({"n_phase_sets": 1, "max_support": 1024, "max_sequence": 8, "seed": seed}
              for seed in (6, 8)),
        ],
    )
    def test_prefix_pass_equals_the_from_scratch_oracle(self, plan):
        # Same float operations per case, so every field is equal, not close.
        assert compare_with_class_weights(**plan) == ref_compare_with_class_weights(**plan)

    def test_builds_no_state_per_prefix(self, monkeypatch):
        def per_prefix(*args, **kwargs):
            raise AssertionError("a state was built for one prefix")

        expected = ref_compare_with_class_weights(3, 8, 5, 2)
        measured = []
        measure = fullsim._measure

        def per_layer(kept, outcome):
            measured.append(kept.shape[:-1])
            return measure(kept, outcome)

        monkeypatch.setattr(fullsim, "_measure", per_layer)
        monkeypatch.setattr(amplifier, "step", per_prefix)
        monkeypatch.setattr(amplifier, "_condition", per_prefix)
        assert compare_with_class_weights(3, 8, 5, 2) == expected
        # One measurement per layer, of every prefix of the layer at once.
        assert measured == [(2**m, 2) for m in range(5)] * 3

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
