"""Per-level measurement dynamics: stepping, folding, and the closed form."""

from __future__ import annotations

import dataclasses
import itertools
import math

import numpy as np
import pytest

from phaseamp import (
    ClassState,
    ImpossibleOutcomeError,
    InvalidParameterError,
    MeasurementSequence,
    ObjectiveKind,
    build_class_table,
    build_histogram,
    histogram_from_phases,
    initial_state,
    make_line,
    parse_graph_spec,
    run_sequence,
    sample_assignment,
    sequence_probability,
    step,
    success_run,
    tail_probability,
    unconditional_tail_probability,
    uniform_histogram,
)

from .oracles import (
    chi_square_p_value,
    ref_conditional_weights,
    ref_log_sequence_probability,
    ref_sequence_probability,
)


class TestMeasurementSequence:
    def test_from_string_round_trip(self):
        y = MeasurementSequence.from_string("1101")
        assert y.outcomes == (1, 1, 0, 1)
        assert str(y) == "1101"
        assert y.m == 4
        assert y.q == 3

    def test_successes(self):
        y = MeasurementSequence.successes(5)
        assert y.outcomes == (1,) * 5
        assert MeasurementSequence.successes(0).m == 0

    def test_rejects_non_bits(self):
        with pytest.raises(InvalidParameterError):
            MeasurementSequence((1, 2))
        with pytest.raises(InvalidParameterError):
            MeasurementSequence.from_string("10x")
        with pytest.raises(InvalidParameterError):
            MeasurementSequence.successes(-1)


class TestClassState:
    def test_initial_state(self, grid44_histogram):
        state = initial_state(grid44_histogram)
        assert np.allclose(state.weights, grid44_histogram.weights())
        assert state.log_sequence_probability == 0.0
        assert state.probability == 1.0

    def test_holds_only_what_the_dynamics_read(self):
        names = [f.name for f in dataclasses.fields(ClassState)]
        assert names == ["histogram", "weights", "log_sequence_probability"]

    def test_weights_must_normalize(self, grid44_histogram):
        w = grid44_histogram.weights() * 0.5
        with pytest.raises(InvalidParameterError):
            ClassState(grid44_histogram, w, 0.0)

    def test_weights_on_empty_levels_must_vanish(self, grid44_histogram):
        w = np.zeros(grid44_histogram.n_levels)
        w[23] = 1.0  # level 23 holds no assignments
        with pytest.raises(InvalidParameterError):
            ClassState(grid44_histogram, w, 0.0)

    def test_log_probability_must_be_nonpositive(self, grid44_histogram):
        with pytest.raises(InvalidParameterError):
            ClassState(grid44_histogram, grid44_histogram.weights(), 0.5)


class TestStep:
    def test_branch_probabilities_sum_to_one(self, benchmark_histograms):
        for h in benchmark_histograms.values():
            state = initial_state(h)
            for _ in range(4):
                (after_one, p1), (_, p0) = step(state, 1), step(state, 0)
                assert p1 + p0 == pytest.approx(1.0, abs=1e-12)
                state = after_one

    def test_step_reweights_levels(self):
        h = histogram_from_phases([math.pi / 3, math.pi])
        state, p = step(initial_state(h), 1)
        # factors (1 - cos)/2: 1/4 at pi/3 and 1 at pi, equal initial weights
        assert p == pytest.approx((0.25 + 1.0) / 2)
        assert state.weights[1] / state.weights[0] == pytest.approx(4.0)

    def test_step_rejects_bad_outcome(self, grid44_histogram):
        state = initial_state(grid44_histogram)
        with pytest.raises(InvalidParameterError):
            step(state, 2)

    def test_impossible_outcome(self):
        # A single level at pi makes outcome 0 impossible.
        h = uniform_histogram(1)
        with pytest.raises(ImpossibleOutcomeError):
            step(initial_state(h), 0)
        # A single level at 0 makes outcome 1 impossible.
        h0 = histogram_from_phases([0.0, 0.0, 0.0])
        with pytest.raises(ImpossibleOutcomeError):
            step(initial_state(h0), 1)


class TestRunSequence:
    @pytest.mark.parametrize("bits", ["1", "0", "11", "10", "1101", "0011"])
    def test_matches_reference_summation(self, benchmark_histograms, bits):
        y = MeasurementSequence.from_string(bits)
        for h in benchmark_histograms.values():
            state, p = run_sequence(h, y)
            assert p == pytest.approx(
                ref_sequence_probability(h.thetas, h.counts, y.outcomes), rel=1e-12
            )
            ref_w = ref_conditional_weights(h.thetas, h.counts, y.outcomes)
            assert np.allclose(state.weights, ref_w, atol=1e-13)

    def test_empty_sequence(self, grid44_histogram):
        state, p = run_sequence(grid44_histogram, MeasurementSequence())
        assert p == 1.0
        assert np.allclose(state.weights, grid44_histogram.weights())

    def test_success_run_is_all_ones(self, grid44_histogram):
        state_a, p_a = success_run(grid44_histogram, 6)
        state_b, p_b = run_sequence(grid44_histogram, MeasurementSequence((1,) * 6))
        assert p_a == p_b
        assert np.array_equal(state_a.weights, state_b.weights)

    def test_long_success_run_matches_log_closed_form(self, grid44_histogram):
        # Each step does O(levels) work, so twenty thousand steps stay quick.
        h = grid44_histogram
        state, p = success_run(h, 20000)
        expected = ref_log_sequence_probability(h.thetas, h.counts, 20000, 20000)
        assert state.log_sequence_probability == pytest.approx(expected, rel=1e-10)
        log_p = sequence_probability(h, MeasurementSequence.successes(20000))
        assert math.exp(log_p) == pytest.approx(p, rel=1e-9)

    def test_probability_equals_product_of_steps(self, grid44_histogram):
        state = initial_state(grid44_histogram)
        product = 1.0
        for outcome in (1, 1, 0, 1):
            state, p = step(state, outcome)
            product *= p
        assert state.probability == pytest.approx(product, rel=1e-12)


class TestClosedForm:
    @pytest.mark.parametrize("bits", ["1", "10", "110", "0101", "11111"])
    def test_closed_form_matches_fold(self, benchmark_histograms, bits):
        y = MeasurementSequence.from_string(bits)
        for h in benchmark_histograms.values():
            _, p_fold = run_sequence(h, y)
            assert math.exp(sequence_probability(h, y)) == pytest.approx(p_fold, rel=1e-12)

    def test_depends_only_on_ones_count(self, grid44_histogram):
        h = grid44_histogram
        probs = {
            sequence_probability(h, MeasurementSequence(bits))
            for bits in itertools.permutations((1, 1, 0, 0, 0))
        }
        assert len(probs) == 1  # closed form is exactly order-invariant

    def test_long_records_stay_finite(self, grid44_histogram):
        # 2^m overflows a float from m = 1024 on; the log-space sum does not.
        h = grid44_histogram
        for bits in ("1" * 1100, "1" * 1500 + "0", "0" * 1500):
            y = MeasurementSequence.from_string(bits)
            expected = ref_log_sequence_probability(h.thetas, h.counts, y.q, y.m)
            assert sequence_probability(h, y) == pytest.approx(expected, rel=1e-12)

    def test_log_stays_finite_below_the_float_range(self):
        # p(y) is about e^-971.5 here: exp underflows to 0.0, the log does not.
        h = build_histogram(parse_graph_spec("starring:5"), ObjectiveKind.MAXCUT)
        y = MeasurementSequence.from_string("10" * 700)
        expected = ref_log_sequence_probability(h.thetas, h.counts, y.q, y.m)
        log_p = sequence_probability(h, y)
        assert log_p == pytest.approx(expected, rel=1e-12)
        assert math.exp(log_p) == 0.0
        state, _ = run_sequence(h, y)
        assert state.log_sequence_probability == pytest.approx(log_p, rel=1e-12)

    def test_impossible_record_has_log_minus_infinity(self):
        # Every assignment sits at angle 0, where outcome 1 never happens.
        h = histogram_from_phases([0.0, 0.0, 0.0])
        assert sequence_probability(h, MeasurementSequence((1,))) == -math.inf

    def test_fold_order_invariance(self, benchmark_histograms):
        for h in benchmark_histograms.values():
            _, p_a = run_sequence(h, MeasurementSequence((1, 1, 0, 0)))
            _, p_b = run_sequence(h, MeasurementSequence((0, 1, 0, 1)))
            assert p_a == pytest.approx(p_b, rel=1e-12)


class TestTails:
    def test_tail_probability_includes_threshold_level(self, grid44_histogram):
        state, _ = success_run(grid44_histogram, 3)
        mask = grid44_histogram.thetas >= math.pi / 2 - 1e-12
        assert tail_probability(state, math.pi / 2) == pytest.approx(
            float(state.weights[mask].sum())
        )

    def test_unconditional_tail_factorizes(self, grid44_histogram):
        state, p = success_run(grid44_histogram, 5)
        tail = tail_probability(state, 3 * math.pi / 4)
        assert unconditional_tail_probability(state, 3 * math.pi / 4) == pytest.approx(
            p * tail, rel=1e-12
        )

    def test_initial_tail_is_histogram_tail(self, grid44_histogram):
        state = initial_state(grid44_histogram)
        for theta in (0.5, math.pi / 2, math.pi):
            assert tail_probability(state, theta) == pytest.approx(
                grid44_histogram.tail_mass(theta)
            )


class TestSampling:
    def test_samples_follow_the_weights(self):
        g = parse_graph_spec("grid:4x5")
        h = build_histogram(g, ObjectiveKind.MAXCUT)
        table = build_class_table(g, ObjectiveKind.MAXCUT)
        state, _ = success_run(h, 10)
        draws = sample_assignment(state, table, 20_000, np.random.default_rng(42))
        assert draws.dtype == np.int64 and draws.shape == (20_000,)
        observed = np.bincount(table.levels[draws], minlength=h.n_levels)
        live = state.weights > 0
        p = chi_square_p_value(observed[live], draws.size * state.weights[live])
        assert p >= 1e-6
        assert observed[~live].sum() == 0

    def test_members_are_drawn_uniformly_within_a_level(self):
        g = parse_graph_spec("line:6")
        h = build_histogram(g, ObjectiveKind.MAXCUT)
        table = build_class_table(g, ObjectiveKind.MAXCUT)
        state, _ = success_run(h, 1)
        draws = sample_assignment(state, table, 20_000, 8)
        for level in range(h.n_levels):
            members = table.members(level)
            hits = draws[table.levels[draws] == level]
            observed = [int((hits == x).sum()) for x in members]
            assert sum(observed) == hits.size
            expected = [hits.size / members.size] * members.size
            assert chi_square_p_value(observed, expected) >= 1e-6

    def test_sampled_assignments_live_on_their_level(self):
        g = parse_graph_spec("grid:2x3")
        h = build_histogram(g, ObjectiveKind.MAXCUT)
        table = build_class_table(g, ObjectiveKind.MAXCUT)
        state, _ = run_sequence(h, MeasurementSequence((1, 0, 1)))
        draws = sample_assignment(state, table, 200, np.random.default_rng(3))
        assert np.all((draws > 0) & (draws < 1 << 6))
        assert np.all(state.weights[table.levels[draws]] > 0.0)

    def test_seed_reproducibility(self):
        g = make_line(5)
        h = build_histogram(g, ObjectiveKind.MAXCUT)
        table = build_class_table(g, ObjectiveKind.MAXCUT)
        state, _ = success_run(h, 1)
        a = sample_assignment(state, table, 50, 11)
        assert np.array_equal(a, sample_assignment(state, table, 50, 11))
        assert not np.array_equal(a, sample_assignment(state, table, 50, 12))

    def test_zero_and_negative_counts(self):
        g = make_line(5)
        table = build_class_table(g, ObjectiveKind.MAXCUT)
        state = initial_state(build_histogram(g, ObjectiveKind.MAXCUT))
        empty = sample_assignment(state, table, 0, 0)
        assert empty.dtype == np.int64 and empty.shape == (0,)
        with pytest.raises(InvalidParameterError, match="got -1"):
            sample_assignment(state, table, -1, 0)

    def test_rejects_mismatched_table(self, grid44_histogram):
        g = make_line(5)
        table = build_class_table(g, ObjectiveKind.MAXCUT)
        state = initial_state(grid44_histogram)
        with pytest.raises(InvalidParameterError):
            sample_assignment(state, table, 1, 0)

    def test_rejects_support_disagreement(self):
        g = make_line(5)
        h = build_histogram(g, ObjectiveKind.MAXCUT, include_zero=True)
        table = build_class_table(g, ObjectiveKind.MAXCUT, include_zero=False)
        with pytest.raises(InvalidParameterError):
            sample_assignment(initial_state(h), table, 1, 0)
