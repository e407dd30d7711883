"""Per-level measurement dynamics: stepping, folding, and the closed form."""

from __future__ import annotations

import dataclasses
import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest

from phaseamp import amplifier
from phaseamp.amplifier import (
    ClassState,
    MeasurementSequence,
    fold,
    initial_state,
    run_sequence,
    sample_assignment,
    sequence_probability,
    step,
    tail_probability,
    unconditional_tail_probability,
)
from phaseamp.encoding import (
    build_class_table,
    build_histogram,
    histogram_from_phases,
    uniform_histogram,
)
from phaseamp.errors import (
    LIMITS,
    ImpossibleOutcomeError,
    InvalidParameterError,
    ResourceLimitError,
)
from phaseamp.experiments import success_trajectory
from phaseamp.graphs import (
    Graph,
    ObjectiveKind,
    frontier_order,
    make_grid,
    make_line,
    objective_values,
    parse_graph_spec,
)

from .oracles import (
    chi_square_p_value,
    ref_conditional_weights,
    ref_log_sequence_probability,
    ref_objective,
    ref_sequence_probability,
    ref_success_trajectory,
    ref_tail_mass,
    ref_validating_step,
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

    def test_accepts_bits_of_any_number_type(self):
        outcomes = (True, np.int64(0), 1.0, np.uint8(1))
        y = MeasurementSequence(outcomes)
        assert y.outcomes == (1, 0, 1, 1) and all(type(b) is int for b in y.outcomes)
        assert str(y) == "1011"

    def test_rejects_non_bits(self):
        with pytest.raises(InvalidParameterError):
            MeasurementSequence((1, 2))
        for outcome in (1.9, 0.2, -1, "1"):
            with pytest.raises(InvalidParameterError, match="0/1 bits"):
                MeasurementSequence((1, outcome))
        with pytest.raises(InvalidParameterError):
            MeasurementSequence.from_string("10x")
        with pytest.raises(InvalidParameterError):
            MeasurementSequence.successes(-1)

    def test_from_string_reads_each_bit_once(self):
        y = MeasurementSequence.from_string(" 0110\n")
        assert y == MeasurementSequence((0, 1, 1, 0))
        assert all(type(b) is int for b in y.outcomes)
        assert MeasurementSequence.from_string("").outcomes == ()

    def test_from_string_refusals(self):
        cap = LIMITS["record"][0]
        for text in ("10x", "1 0", "2", "１", "0b1", "1" * cap + "x"):
            with pytest.raises(InvalidParameterError) as info:
                MeasurementSequence.from_string(text)
            assert str(info.value) == f"sequence must be a string of 0/1 bits: {text!r}"
        assert MeasurementSequence.from_string("1" * cap).m == cap
        with pytest.raises(ResourceLimitError) as info:
            MeasurementSequence.from_string("1" * (cap + 1))
        assert str(info.value) == (
            f"a measurement record capped at {cap} outcomes, got {cap + 1}"
        )

    def test_record_length_cap(self):
        cap = LIMITS["record"][0]
        assert MeasurementSequence.successes(cap).m == cap
        with pytest.raises(ResourceLimitError, match=f"record capped at {cap} outcomes"):
            MeasurementSequence.successes(cap + 1)
        with pytest.raises(ResourceLimitError, match=f"record capped at {cap} outcomes"):
            MeasurementSequence((0,) * (cap + 1))


class TestClassState:
    def test_initial_state(self, grid44_histogram):
        state = initial_state(grid44_histogram)
        assert np.allclose(state.weights, grid44_histogram.counts / grid44_histogram.support)
        assert state.log_sequence_probability == 0.0
        assert state.probability == 1.0

    def test_holds_only_what_the_dynamics_read(self):
        names = [f.name for f in dataclasses.fields(ClassState)]
        assert names == ["histogram", "weights", "log_sequence_probability"]

    def test_weights_must_normalize(self, grid44_histogram):
        w = initial_state(grid44_histogram).weights * 0.5
        with pytest.raises(InvalidParameterError):
            ClassState(grid44_histogram, w, 0.0)

    def test_weights_on_empty_levels_must_vanish(self, grid44_histogram):
        w = np.zeros(grid44_histogram.n_levels)
        w[23] = 1.0  # level 23 holds no assignments
        with pytest.raises(InvalidParameterError):
            ClassState(grid44_histogram, w, 0.0)

    def test_log_probability_must_be_nonpositive(self, grid44_histogram):
        with pytest.raises(InvalidParameterError):
            ClassState(grid44_histogram, initial_state(grid44_histogram).weights, 0.5)

    def test_weights_must_be_nonnegative(self, grid44_histogram):
        w = initial_state(grid44_histogram).weights.copy()
        w[[2, 3]] += [0.25, -0.25]
        with pytest.raises(InvalidParameterError, match="nonnegative"):
            ClassState(grid44_histogram, w, 0.0)

    def test_one_weight_per_level(self, grid44_histogram):
        w = initial_state(grid44_histogram).weights
        for wrong in (w[:-1], np.append(w, 0.0), w.reshape(1, -1)):
            with pytest.raises(InvalidParameterError, match="one weight per"):
                ClassState(grid44_histogram, wrong, 0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_values_are_refused(self, grid44_histogram, bad):
        h = grid44_histogram
        with pytest.raises(InvalidParameterError, match="weights must be finite"):
            ClassState(h, np.full(h.n_levels, bad), bad)
        w = initial_state(h).weights.copy()
        w[5] = bad
        with pytest.raises(InvalidParameterError, match="weights must be finite"):
            ClassState(h, w, 0.0)
        with pytest.raises(InvalidParameterError, match="log probability must be finite"):
            ClassState(h, initial_state(h).weights, bad)

    def test_the_checks_kept_on_every_step_fail_on_nan(self, grid44_histogram):
        h = grid44_histogram
        with pytest.raises(InvalidParameterError, match="sum to 1"):
            ClassState._after_step(h, np.full(h.n_levels, math.nan), 0.0)
        with pytest.raises(InvalidParameterError, match="sum to 1"):
            ClassState._after_step(h, initial_state(h).weights * 0.5, 0.0)
        with pytest.raises(InvalidParameterError, match="nonpositive"):
            ClassState._after_step(h, initial_state(h).weights, math.nan)
        with pytest.raises(InvalidParameterError, match="nonpositive"):
            ClassState._after_step(h, initial_state(h).weights, 0.5)
        # A state past the boundary that still holds NaN weights cannot step.
        state = initial_state(h)
        object.__setattr__(state, "weights", np.full(h.n_levels, math.nan))
        with pytest.raises(ImpossibleOutcomeError):
            step(state, 1)

    def test_weights_are_read_only(self, grid44_histogram):
        state = initial_state(grid44_histogram)
        after, _ = step(state, 1)
        for w in (state.weights, after.weights):
            with pytest.raises(ValueError):
                w[0] = 0.5


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
        assert np.allclose(state.weights, initial_state(grid44_histogram).weights)

    def test_success_run_is_all_ones(self, grid44_histogram):
        assert MeasurementSequence.successes(6) == MeasurementSequence((1,) * 6)
        state_a, p_a = run_sequence(grid44_histogram, MeasurementSequence.successes(6))
        state_b, p_b = run_sequence(grid44_histogram, MeasurementSequence((1,) * 6))
        assert p_a == p_b
        assert np.array_equal(state_a.weights, state_b.weights)

    def test_long_success_run_matches_log_closed_form(self, grid44_histogram):
        # Each step does O(levels) work, so twenty thousand steps stay quick.
        h = grid44_histogram
        state, p = run_sequence(h, MeasurementSequence.successes(20000))
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


# The graphs of the benchmark's long runs.
LONG_RUN_SPECS = ("grid:4x4", "line:16", "starring:16", "grid:3x5", "grid:3x4", "starring:12")


# The columns of a success trajectory, each a value per row.
TRAJECTORY_COLUMNS = (
    "p_individual",
    "p_sequence",
    "p_optimal_conditional",
    "tail_ge_half_pi",
    "tail_ge_three_quarter_pi",
)
# Rows of the fold's block on these graphs, and run lengths around its boundary.
BLOCK = amplifier._BLOCK_ROWS
LENGTHS = (0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 1800)


class TestFoldAgainstValidatingStep:
    """The trusted step and the fold kernel against the former step, which
    validated every state, and the former state-per-row trajectory."""

    @pytest.fixture(scope="class")
    def long_run_histograms(self):
        return {
            (spec, objective): build_histogram(parse_graph_spec(spec), objective)
            for spec in LONG_RUN_SPECS
            for objective in ObjectiveKind
        }

    @pytest.fixture(scope="class")
    def records(self):
        rng = np.random.default_rng(14)
        mostly_ones = tuple((rng.random(1800) < 0.75).astype(int).tolist())
        return {"ones": (1,) * 1800, "mostly ones": mostly_ones}

    @pytest.fixture(scope="class")
    def validating_states(self, long_run_histograms, records):
        """Each state of the validating route, the initial one first, as
        (weight bytes, branch probability, log probability)."""
        runs = {}
        for key, h in long_run_histograms.items():
            assert h.n_levels * BLOCK <= amplifier._BLOCK_FLOATS, key
            for name, outcomes in records.items():
                state, p = initial_state(h), 1.0
                run = [(state.weights.tobytes(), p, state.log_sequence_probability)]
                for outcome in outcomes:
                    state, p = ref_validating_step(state, outcome)
                    run.append((state.weights.tobytes(), p, state.log_sequence_probability))
                runs[key, name] = run
        return runs

    def test_run_sequence_bit_for_bit(self, long_run_histograms, records, validating_states):
        for key, h in long_run_histograms.items():
            for name, outcomes in records.items():
                for m in LENGTHS:
                    state, p = run_sequence(h, MeasurementSequence(outcomes[:m]))
                    weights, _, log_p = validating_states[key, name][m]
                    assert state.weights.tobytes() == weights, (key, name, m)
                    assert state.log_sequence_probability == log_p, (key, name, m)
                    assert p == math.exp(log_p)

    def test_success_trajectory_within_its_bound_of_the_fold(
        self, long_run_histograms, validating_states
    ):
        # The trajectory comes from the closed form, the oracle from a state per
        # row. The oracle's running log adds a rounding of up to half an ulp of
        # |log P_m| per step, so P_sequence is held to (m + 2)(|log P_m| + 1)
        # ulps of 1 (8.8e-12 relative, seen at m = 1323 on starring:12). The other
        # columns differ by at most 2.4e-15 relative here; they are held to 1e-14.
        # Final weights: 1.5e-13 relative at most, where either side is at
        # least 1e-300; below that, near the subnormals, 2e-318 absolute.
        for key, h in long_run_histograms.items():
            ref = ref_success_trajectory(h, 1800)
            for m in LENGTHS:
                report = success_trajectory(h, m)
                assert report.p_individual[0] == report.p_sequence[0] == 1.0
                for name in TRAJECTORY_COLUMNS:
                    ours, theirs = getattr(report, name), getattr(ref, name)[: m + 1]
                    assert ours[0] == theirs[0], (key, name)
                    if name == "p_sequence":
                        logs = np.log(np.maximum(theirs, 1e-320))
                        rtol = (np.arange(m + 1) + 2) * (np.abs(logs) + 1) * 2.0**-52
                    else:
                        rtol = 1e-14
                    assert np.all(np.abs(np.subtract(ours, theirs)) <= rtol * np.abs(theirs)), (
                        key, name, m
                    )
                weights = np.frombuffer(validating_states[key, "ones"][m][0])
                np.testing.assert_allclose(report.weights, weights, rtol=1e-12, atol=1e-300)

    def test_bit_for_bit(self, long_run_histograms):
        rng = np.random.default_rng(14)
        mostly_ones = (rng.random(1800) < 0.75).astype(int).tolist()
        for h in long_run_histograms.values():
            for outcomes in ([1] * 1800, mostly_ones):
                fast = slow = initial_state(h)
                for outcome in outcomes:
                    fast, p_fast = step(fast, outcome)
                    slow, p_slow = ref_validating_step(slow, outcome)
                    assert p_fast == p_slow
                    assert fast.log_sequence_probability == slow.log_sequence_probability
                    assert fast.weights.tobytes() == slow.weights.tobytes()

    def test_weight_sum_drift_over_twenty_thousand_steps(self, long_run_histograms):
        # Records the drift that the per-step sum check guards against: at
        # most 1.5 ulp of 1 (3.3e-16) on these graphs, far below its 1e-12.
        drift = 0.0
        for h in long_run_histograms.values():
            state = initial_state(h)
            for _ in range(20000):
                state, _ = step(state, 1)
                drift = max(drift, abs(float(state.weights.sum()) - 1.0))
        assert drift < 1e-12


class TestFoldChecks:
    """The fold checks a block of states at once, and raises what a state per
    step would have raised first."""

    @staticmethod
    def _faulty_steps(monkeypatch, faults):
        """Step helper that goes wrong at the 1-based steps in ``faults``: its
        weights halved ("sum"), its log probability positive ("log"), or its
        outcome impossible ("impossible"). Returns the reset of its count."""
        real, calls = amplifier._condition, []

        def condition(h, weights, log_p, outcome, out):
            calls.append(outcome)
            fault = faults.get(len(calls))
            if fault == "impossible":
                raise ImpossibleOutcomeError(f"impossible at step {len(calls)}")
            weights, p, log_p = real(h, weights, log_p, outcome, out)
            if fault == "sum":
                weights *= 0.5
            if fault == "log":
                log_p = 0.5
            return weights, p, log_p

        monkeypatch.setattr(amplifier, "_condition", condition)
        return calls.clear

    @pytest.mark.parametrize(
        "faults",
        [
            {3: "sum"},
            {3: "log"},
            {3: "sum", 5: "impossible"},
            {3: "log", 5: "sum"},
            {5: "log", 3: "sum"},
            {BLOCK + 5: "impossible"},
            {BLOCK - 2: "sum", BLOCK + 3: "impossible"},
            {BLOCK + 3: "sum", BLOCK + 5: "impossible"},
            {BLOCK + 5: "impossible", 1800: "sum"},
        ],
    )
    def test_the_earliest_steps_error(self, monkeypatch, grid44_histogram, faults):
        h, outcomes = grid44_histogram, (1,) * 1800
        reset = self._faulty_steps(monkeypatch, faults)
        with pytest.raises((InvalidParameterError, ImpossibleOutcomeError)) as per_step:
            state = initial_state(h)
            for outcome in outcomes:
                state, _ = step(state, outcome)
        reset()
        with pytest.raises(per_step.type, match=f"^{re.escape(str(per_step.value))}$"):
            fold(h, outcomes)

    def test_refuses_non_bits(self, grid44_histogram):
        for outcomes in ((1, 2), (0, -1), (1, 0.5)):
            with pytest.raises(InvalidParameterError, match="outcome must be 0 or 1"):
                fold(grid44_histogram, outcomes)

    def test_holds_one_block_and_nothing_per_step(self, grid44_histogram):
        h = grid44_histogram
        block = BLOCK * h.n_levels * 8
        outcomes = (1,) * 20000
        tracemalloc.start()
        try:
            fold(h, outcomes)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # Twenty thousand floats kept per step would be 480 kB.
        assert peak < 2 * block

    def test_a_block_of_wide_rows_is_capped(self):
        h = uniform_histogram(200_000)
        tracemalloc.start()
        try:
            fold(h, (1,) * 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # A few arrays of the levels, not a block of up to 1024 rows of them.
        assert peak < 8 * h.n_levels * 8


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
        state, _ = run_sequence(grid44_histogram, MeasurementSequence.successes(3))
        mask = grid44_histogram.thetas >= math.pi / 2 - 1e-12
        assert tail_probability(state, math.pi / 2) == pytest.approx(
            float(state.weights[mask].sum())
        )

    def test_unconditional_tail_factorizes(self, grid44_histogram):
        state, p = run_sequence(grid44_histogram, MeasurementSequence.successes(5))
        tail = tail_probability(state, 3 * math.pi / 4)
        assert unconditional_tail_probability(state, 3 * math.pi / 4) == pytest.approx(
            p * tail, rel=1e-12
        )

    def test_initial_tail_is_histogram_tail(self, grid44_histogram):
        state = initial_state(grid44_histogram)
        for theta in (0.5, math.pi / 2, math.pi):
            assert tail_probability(state, theta) == pytest.approx(
                ref_tail_mass(grid44_histogram.thetas, grid44_histogram.counts, theta)
            )


# The sampler's two routes, forced whatever the cost rule would pick.
SAMPLING_ROUTES = {
    "frontier": lambda g, keep_tables=False: frontier_order(g),
    "enumeration": lambda g, keep_tables=False: None,
}


def each_route(monkeypatch):
    """Run the rest of a test's loop body once on each sampling route."""
    for name, route in SAMPLING_ROUTES.items():
        monkeypatch.setattr(amplifier, "frontier_route", route)
        yield name


class TestSampling:
    def test_samples_follow_the_weights(self, monkeypatch):
        g = parse_graph_spec("grid:4x5")
        h = build_histogram(g, ObjectiveKind.MAXCUT)
        state, _ = run_sequence(h, MeasurementSequence.successes(10))
        for route in each_route(monkeypatch):
            draws = sample_assignment(
                state, g, ObjectiveKind.MAXCUT, 20_000, np.random.default_rng(42)
            )
            assert draws.dtype == np.int64 and draws.shape == (20_000,), route
            levels = objective_values(g, ObjectiveKind.MAXCUT, draws)
            observed = np.bincount(levels, minlength=h.n_levels)
            live = state.weights > 0
            p = chi_square_p_value(observed[live], draws.size * state.weights[live])
            assert p >= 1e-6, route
            assert observed[~live].sum() == 0, route

    def test_members_are_drawn_uniformly_within_a_level(self, monkeypatch):
        g = parse_graph_spec("line:6")
        h = build_histogram(g, ObjectiveKind.MAXCUT)
        table = build_class_table(g, ObjectiveKind.MAXCUT)
        state, _ = run_sequence(h, MeasurementSequence.successes(1))
        for route in each_route(monkeypatch):
            draws = sample_assignment(state, g, ObjectiveKind.MAXCUT, 20_000, 8)
            for level in range(h.n_levels):
                # Every assignment at the level but the all-zeros one, outside the support.
                members = np.flatnonzero(table.levels[1:] == level) + 1
                hits = draws[table.levels[draws] == level]
                observed = [int((hits == x).sum()) for x in members]
                assert sum(observed) == hits.size, route
                expected = [hits.size / members.size] * members.size
                assert chi_square_p_value(observed, expected) >= 1e-6, route

    def test_sampled_assignments_live_on_their_level(self, monkeypatch):
        g = parse_graph_spec("grid:2x3")
        h = build_histogram(g, ObjectiveKind.MAXCUT)
        state, _ = run_sequence(h, MeasurementSequence((1, 0, 1)))
        for route in each_route(monkeypatch):
            draws = sample_assignment(
                state, g, ObjectiveKind.MAXCUT, 200, np.random.default_rng(3)
            )
            assert np.all((draws > 0) & (draws < 1 << 6)), route
            levels = objective_values(g, ObjectiveKind.MAXCUT, draws)
            assert np.all(state.weights[levels] > 0.0), route

    def test_seed_reproducibility(self, monkeypatch):
        g = make_line(5)
        h = build_histogram(g, ObjectiveKind.MAXCUT)
        state, _ = run_sequence(h, MeasurementSequence.successes(1))
        for route in each_route(monkeypatch):
            a = sample_assignment(state, g, ObjectiveKind.MAXCUT, 50, 11)
            assert np.array_equal(a, sample_assignment(state, g, ObjectiveKind.MAXCUT, 50, 11))
            assert not np.array_equal(
                a, sample_assignment(state, g, ObjectiveKind.MAXCUT, 50, 12)
            ), route

    def test_zero_and_negative_counts(self, monkeypatch):
        g = make_line(5)
        state = initial_state(build_histogram(g, ObjectiveKind.MAXCUT))
        for route in each_route(monkeypatch):
            empty = sample_assignment(state, g, ObjectiveKind.MAXCUT, 0, 0)
            assert empty.dtype == np.int64 and empty.shape == (0,), route
            with pytest.raises(InvalidParameterError, match="got -1"):
                sample_assignment(state, g, ObjectiveKind.MAXCUT, -1, 0)

    def test_rejects_mismatched_table(self, monkeypatch, grid44_histogram):
        state = initial_state(grid44_histogram)
        for _ in each_route(monkeypatch):
            with pytest.raises(InvalidParameterError, match="do not match"):
                sample_assignment(state, make_line(5), ObjectiveKind.MAXCUT, 1, 0)
            with pytest.raises(InvalidParameterError, match="do not match"):
                sample_assignment(state, make_grid(4, 4), ObjectiveKind.COVERED_EDGES, 1, 0)

    def test_rejects_support_disagreement(self, monkeypatch):
        # Counts with the all-zeros assignment, flagged as without it.
        g = make_line(5)
        h = build_histogram(g, ObjectiveKind.MAXCUT, include_zero=True)
        flagged = dataclasses.replace(h, includes_zero=False)
        for _ in each_route(monkeypatch):
            with pytest.raises(InvalidParameterError, match="do not match"):
                sample_assignment(initial_state(flagged), g, ObjectiveKind.MAXCUT, 1, 0)

    def test_sampling_route_refuses_past_the_cap_of_its_route(self):
        assert amplifier.sampling_route(make_line(62)) == frontier_order(make_line(62))
        assert amplifier.sampling_route(make_line(6)) is None
        with pytest.raises(ResourceLimitError, match="sampling capped at 62 vertices, got 63"):
            amplifier.sampling_route(make_line(63))
        # K_21 is too wide for the frontier DP, so it would need a class table.
        complete = Graph(21, tuple(itertools.combinations(range(21), 2)))
        with pytest.raises(ResourceLimitError, match="class tables capped at 20 vertices"):
            amplifier.sampling_route(complete)

    def test_frontier_route_reaches_past_the_class_table_cap(self):
        # grid:7x8 has no class table: draw only its rare top levels of MaxCut,
        # each member with the same weight, and count every member's draws.
        g = parse_graph_spec("grid:7x8")
        h = build_histogram(g, ObjectiveKind.MAXCUT)
        top = np.arange(h.n_levels) >= 91
        weights = np.where(top, h.counts, 0) / h.counts[top].sum()
        n_members = int(h.counts[top].sum())
        assert n_members == 2246
        draws = sample_assignment(
            ClassState(h, weights, 0.0), g, ObjectiveKind.MAXCUT, 20 * n_members, 5
        )
        members, observed = np.unique(draws, return_counts=True)
        scores = [ref_objective("maxcut", g.n_vertices, g.edges, int(x)) for x in members]
        assert min(scores) >= 91
        # The two checkerboards are the only maximizers; each is drawn.
        board = sum(1 << (r * 8 + c) for r in range(7) for c in range(8) if (r + c) % 2)
        assert {board, board ^ ((1 << 56) - 1)} == set(members[np.array(scores) == 97])
        unseen = [0] * (n_members - members.size)
        expected = [draws.size / n_members] * n_members
        assert chi_square_p_value(observed.tolist() + unseen, expected) >= 1e-6
