"""Acceptance gate: the headline numbers and guarantees, one test per criterion.

Each test prints a single ``[criterion NN] PASS/FAIL`` line (visible with
``pytest -s``) before asserting, so a red criterion still reports its
measured values.
"""

from __future__ import annotations

import itertools
import math
import time
from fractions import Fraction

import numpy as np

from phaseamp.amplifier import (
    MeasurementSequence,
    initial_state,
    run_sequence,
    sequence_probability,
    step,
    tail_probability,
    unconditional_tail_probability,
)
from phaseamp.analytics import (
    TwoPeakModel,
    band_bound,
    bound_from_success_run,
    two_peak_required_measurements,
    two_peak_stats,
    uniform_run_probability,
    uniform_run_probability_exact,
)
from phaseamp.encoding import build_histogram, histogram_from_phases, uniform_histogram
from phaseamp.experiments import ExperimentConfig, build_reports, success_trajectory
from phaseamp.fullsim import compare_with_class_weights
from phaseamp.graphs import ObjectiveKind, parse_graph_spec

from .oracles import ref_band_mass, ref_tail_mass

BENCHMARKS = ("line:10", "grid:3x3", "grid:4x4", "starring:16")


def _criterion(number: int, passed: bool, detail: str) -> None:
    tag = "PASS" if passed else "FAIL"
    print(f"[criterion {number:02d}] {tag}  {detail}")
    assert passed, f"criterion {number}: {detail}"


def _grid44():
    return build_histogram(parse_graph_spec("grid:4x4"), ObjectiveKind.MAXCUT)


def test_criterion_01_grid_initial_optimal_probability():
    start = time.perf_counter()
    h = _grid44()
    state = initial_state(h)
    p_initial = float(state.weights[24])
    elapsed = time.perf_counter() - start
    exact = 2 / (2**16 - 1)
    ok = (
        math.isclose(p_initial, exact, rel_tol=1e-12)
        and abs(p_initial - 3.1e-5) / 3.1e-5 < 0.03
        and elapsed < 1.0
    )
    _criterion(
        1,
        ok,
        f"initial optimal probability {p_initial:.6e} "
        f"(exact 2/(2^16-1), target 3.1e-5 within 3%), {elapsed:.3f}s",
    )


def test_criterion_02_grid_conditional_optimal_after_10():
    start = time.perf_counter()
    h = _grid44()
    state, _ = run_sequence(h, MeasurementSequence.successes(10))
    conditional = float(state.weights[24])
    elapsed = time.perf_counter() - start
    ok = abs(conditional - 2.5e-3) / 2.5e-3 < 0.10 and elapsed < 1.0
    _criterion(
        2,
        ok,
        f"conditional optimal probability after 10 successes {conditional:.6e} "
        f"(target 2.5e-3 within 10%), {elapsed:.3f}s",
    )


def test_criterion_03_grid_run_probability():
    h = _grid44()
    _, p_fold = run_sequence(h, MeasurementSequence.successes(10))
    p_closed = math.exp(sequence_probability(h, MeasurementSequence.successes(10)))
    ok = (
        abs(p_fold - 0.012) / 0.012 < 0.10
        and abs(p_closed - 0.012) / 0.012 < 0.10
        and math.isclose(p_fold, p_closed, rel_tol=1e-10)
    )
    _criterion(
        3,
        ok,
        f"10-success run probability fold {p_fold:.6e}, closed form {p_closed:.6e} "
        f"(target 0.012 within 10%)",
    )


def test_criterion_04_two_peak_exact_rationals():
    model = TwoPeakModel.from_gains(Fraction(1, 8), Fraction(1, 8), Fraction(2))
    s1 = two_peak_stats(model, 1)
    s2 = two_peak_stats(model, 2)
    required_1 = two_peak_required_measurements(model, Fraction(16, 7))
    required_2 = two_peak_required_measurements(model, Fraction(256, 7))
    ok = (
        s1.ratio == Fraction(16, 7)
        and s1.run_probability == Fraction(23, 128)
        and s2.ratio == Fraction(256, 7)
        and s2.run_probability == Fraction(263, 2048)
        and abs(float(s2.run_probability) - 0.128) < 5e-4
        and math.isclose(required_1, 1.0, abs_tol=1e-12)
        and math.isclose(required_2, 2.0, abs_tol=1e-12)
    )
    _criterion(
        4,
        ok,
        f"ratio(1)={s1.ratio}, p(1)={s1.run_probability}, "
        f"ratio(2)={s2.ratio}, p(2)={s2.run_probability}"
        f"={float(s2.run_probability):.6f}, "
        f"required measurements {required_1:g} and {required_2:g}",
    )


def test_criterion_05_uniform_spectrum_short_records():
    h = uniform_histogram(10_000)
    p_1 = math.exp(sequence_probability(h, MeasurementSequence((1,))))
    p_11 = math.exp(sequence_probability(h, MeasurementSequence((1, 1))))
    p_01 = math.exp(sequence_probability(h, MeasurementSequence((0, 1))))
    ok = (
        abs(p_1 - 0.5) < 1e-3
        and abs(p_11 - 3 / 8) < 1e-3
        and abs(p_01 - 1 / 8) < 1e-3
    )
    _criterion(
        5,
        ok,
        f"uniform N=10^4: p(1)={p_1:.6f} (vs 1/2), p(11)={p_11:.6f} (vs 3/8), "
        f"p(01)={p_01:.6f} (vs 1/8), all within 1e-3",
    )


def test_criterion_06_run_probability_asymptotics():
    exact = float(uniform_run_probability_exact(100))
    estimate = uniform_run_probability(100).estimate
    rel = abs(exact - estimate) / exact
    ok = rel < 0.01 and math.isclose(estimate, 1 / math.sqrt(100 * math.pi))
    _criterion(
        6,
        ok,
        f"P_100 exact {exact:.8e} vs 1/sqrt(pi*100) {estimate:.8e}, "
        f"relative gap {rel:.5f} < 1%",
    )


def test_criterion_07_dense_oracle_equivalence():
    start = time.perf_counter()
    report = compare_with_class_weights(
        n_phase_sets=50, max_support=32, max_sequence=6, seed=0
    )
    elapsed = time.perf_counter() - start
    ok = (
        report.max_probability_deviation <= 1e-10
        and report.max_distribution_deviation <= 1e-10
        and elapsed < 30.0
    )
    _criterion(
        7,
        ok,
        f"{report.n_cases} cases over 50 phase sets (support <= 32, all "
        f"sequences m <= 6): probability dev {report.max_probability_deviation:.3e}, "
        f"distribution dev {report.max_distribution_deviation:.3e} "
        f"(<= 1e-10), {elapsed:.1f}s",
    )


def test_criterion_08_sequence_probabilities_are_complete():
    worst = 0.0
    for spec in BENCHMARKS:
        h = build_histogram(parse_graph_spec(spec), ObjectiveKind.MAXCUT)
        for m in range(1, 13):
            total = math.fsum(
                math.exp(sequence_probability(h, MeasurementSequence(bits)))
                for bits in itertools.product((0, 1), repeat=m)
            )
            worst = max(worst, abs(total - 1.0))
    ok = worst <= 1e-9
    _criterion(
        8,
        ok,
        f"sum of p(y) over all sequences, m <= 12, all benchmarks: "
        f"worst |sum - 1| = {worst:.3e} (<= 1e-9)",
    )


def test_criterion_09_bounds_never_violated():
    rng = np.random.default_rng(1234)
    bracket_violations = 0
    band_violations = 0
    checked = 0
    for _ in range(200):
        n = int(rng.integers(2, 40))
        h = histogram_from_phases(np.sort(rng.uniform(0.01, math.pi, size=n)))
        p01 = math.exp(sequence_probability(h, MeasurementSequence((0, 1))))
        half_width = float(rng.uniform(0.05, math.pi / 2 - 0.05))
        if band_bound(p01, half_width) > ref_band_mass(h.thetas, h.counts, half_width) + 1e-12:
            band_violations += 1
        for m in (1, 2, 3):
            _, p_run = run_sequence(h, MeasurementSequence.successes(m))
            theta_ref = float(rng.uniform(0.05, math.pi - 0.05))
            while float(np.min(np.abs(h.thetas - theta_ref))) < 1e-6:
                theta_ref = float(rng.uniform(0.05, math.pi - 0.05))
            bounds = bound_from_success_run(p_run, m, theta_ref)
            tail = ref_tail_mass(h.thetas, h.counts, theta_ref)
            if not (bounds.lower - 1e-12 <= tail <= bounds.upper + 1e-12):
                bracket_violations += 1
            checked += 1
    ok = bracket_violations == 0 and band_violations == 0
    _criterion(
        9,
        ok,
        f"200 random histograms: {checked} tail brackets (m in 1..3) with "
        f"{bracket_violations} violations, 200 band bounds with "
        f"{band_violations} violations",
    )


def test_criterion_10_amplified_never_beats_direct_sampling():
    violations = 0
    checked = 0
    for spec in BENCHMARKS:
        h = build_histogram(parse_graph_spec(spec), ObjectiveKind.MAXCUT)
        start = initial_state(h)
        for m in range(1, 11):
            state, _ = run_sequence(h, MeasurementSequence.successes(m))
            for theta in h.thetas.tolist():
                p_amplified = unconditional_tail_probability(state, theta)
                if p_amplified > tail_probability(start, theta) + 1e-15:
                    violations += 1
                checked += 1
    ok = violations == 0
    _criterion(
        10,
        ok,
        f"p_amplified <= p_sampled at every histogram level, m in 1..10, "
        f"all benchmarks: {checked} comparisons, {violations} violations",
    )


def test_criterion_11_grid_mode_shift():
    amplified = build_reports(ExperimentConfig("fig3", successes=10))["fig3"]
    unamplified = build_reports(ExperimentConfig("fig3", successes=0))["fig3"]
    level_spacing = math.pi / 24
    ok = (
        amplified.mode_theta > 2.0
        and abs(unamplified.mode_theta - 1.5) <= level_spacing
    )
    _criterion(
        11,
        ok,
        f"4x4 grid mode after 10 successes {amplified.mode_theta:.4f} rad (> 2.0), "
        f"unamplified mode {unamplified.mode_theta:.4f} rad "
        f"(within one level of 1.5)",
    )


def test_criterion_12_line10_conditional_optimal_growth():
    h = build_histogram(parse_graph_spec("line:10"), ObjectiveKind.MAXCUT)
    report = success_trajectory(h, 240, label="line:10")
    values = report.p_optimal_conditional
    nondecreasing = all(b >= a - 1e-15 for a, b in zip(values, values[1:]))
    crossing = next((m for m, v in enumerate(values) if v >= 0.99), None)
    ok = nondecreasing and crossing is not None and crossing <= 200
    _criterion(
        12,
        ok,
        f"line:10 conditional optimal nondecreasing: {nondecreasing}; "
        f"value at m=200: {values[200]:.6f}; first m with >= 0.99: {crossing} "
        f"(required <= 200)",
    )
