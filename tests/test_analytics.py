"""Closed forms: flat-spectrum asymptotics, two-peak filter, bounds."""

from __future__ import annotations

import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from phaseamp import analytics
from phaseamp.amplifier import (
    MeasurementSequence,
    initial_state,
    run_sequence,
    sequence_probability,
    tail_probability,
    unconditional_tail_probability,
)
from phaseamp.analytics import (
    TwoPeakModel,
    band_bound,
    bound_from_success_run,
    central_binomial_norm,
    gaussian_tail_estimate,
    two_peak_required_measurements,
    two_peak_stats,
    uniform_run_probability,
    uniform_run_probability_exact,
    uniform_step_success,
)
from phaseamp.encoding import PhaseHistogram, histogram_from_phases, uniform_histogram
from phaseamp.errors import InvalidParameterError, ResourceLimitError

from .oracles import ref_band_mass, ref_erf, ref_tail_mass, ref_uniform_run_exact


class TestFlatSpectrum:
    @pytest.mark.parametrize("m,expected", [(0, 1), (1, Fraction(1, 2)), (3, Fraction(1, 20))])
    def test_central_binomial_norm_exact(self, m, expected):
        assert central_binomial_norm(m) == float(expected)

    @pytest.mark.parametrize("m", [0, 1, 3, 40, 600, 3000])
    def test_central_binomial_norm_is_the_rounded_fraction(self, m):
        assert central_binomial_norm(m) == float(Fraction(1, math.comb(2 * m, m)))

    @pytest.mark.parametrize("m", [1, 2, 7, 40, 10**5, 10**300])
    def test_step_success(self, m):
        assert uniform_step_success(m) == float(Fraction(2 * m - 1, 2 * m))

    def test_step_success_needs_positive_index(self):
        with pytest.raises(InvalidParameterError, match="^steps are numbered from 1$"):
            uniform_step_success(0)
        with pytest.raises(InvalidParameterError, match="^m must be nonnegative$"):
            central_binomial_norm(-1)

    @pytest.mark.parametrize("total", [1, 2, 5, 30])
    def test_run_probability_is_the_step_product(self, total):
        assert uniform_run_probability_exact(total) == ref_uniform_run_exact(total)

    def test_run_probability_estimate(self):
        run = uniform_run_probability(100)
        assert run.estimate == pytest.approx(1.0 / math.sqrt(math.pi * 100))
        assert abs(run.exact - run.estimate) / run.exact < 0.01

    def test_run_probability_log_branch_is_continuous(self):
        # The exact-rational and log-series branches meet at 100000; the
        # step ratio across that seam must stay (2M+1)/(2M+2).
        below = uniform_run_probability(100_000).exact
        above = uniform_run_probability(100_001).exact
        assert above / below == pytest.approx(200_001 / 200_002, rel=1e-15)

    # Gamma(M+1/2) / (sqrt(pi) Gamma(M+1)), evaluated with mpmath at 50 digits.
    @pytest.mark.parametrize(
        "total,reference",
        [
            (10**6, 5.6418951302406275121e-4),
            (10**9, 1.7841241159297556e-5),
            (2**53, 5.944703227302918917e-9),
        ],
    )
    def test_run_probability_past_the_seam_matches_the_gamma_ratio(self, total, reference):
        assert uniform_run_probability(total).exact == pytest.approx(reference, rel=1e-15, abs=0)

    def test_run_length_is_refused_where_pi_m_leaves_the_float_range(self):
        # The largest accepted M still gives positive, finite values.
        last = int(sys.float_info.max / math.pi)
        run = uniform_run_probability(last)
        assert run.exact == pytest.approx(run.estimate, rel=1e-15)
        assert 0 < run.estimate == pytest.approx(7.4583407312002e-155, rel=1e-12)
        assert gaussian_tail_estimate(1.0, last) == 1.0
        for total in (last + 1, 10**400):
            for closed_form in (uniform_run_probability, lambda m: gaussian_tail_estimate(1.0, m)):
                with pytest.raises(InvalidParameterError, match="float arithmetic on it overflows"):
                    closed_form(total)

    def test_run_probability_against_flat_histogram(self):
        # A fine flat histogram converges on the continuum closed form.
        h = uniform_histogram(10_000)
        for m in (1, 2, 3):
            _, p = run_sequence(h, MeasurementSequence.successes(m))
            assert p == pytest.approx(
                float(uniform_run_probability_exact(m)), abs=1e-3
            )

    def test_gaussian_tail_matches_quadrature(self):
        for total, theta in ((10, 2.5), (100, 3.0), (50, math.pi - 2 / math.sqrt(50))):
            z = math.sqrt(total) * (math.pi - theta) / 2.0
            assert gaussian_tail_estimate(theta, total) == pytest.approx(
                ref_erf(z), abs=1e-8
            )

    def test_gaussian_tail_boundaries(self):
        assert gaussian_tail_estimate(math.pi, 25) == 0.0
        assert gaussian_tail_estimate(0.0, 400) == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(InvalidParameterError):
            gaussian_tail_estimate(3.5, 10)
        with pytest.raises(InvalidParameterError):
            gaussian_tail_estimate(1.0, 0)


class TestTwoPeakModel:
    def test_from_gains_keeps_exact_shares(self):
        model = TwoPeakModel.from_gains(Fraction(1, 8), Fraction(1, 8), Fraction(2))
        assert model.q_l == Fraction(7, 8)
        assert model.a_u == Fraction(2)
        assert model.alpha_u == pytest.approx(math.pi)
        assert model.alpha_l == pytest.approx(math.acos(1 - 0.125))

    def test_from_angles(self):
        model = TwoPeakModel.from_angles(0.25, math.pi / 3, 2 * math.pi / 3)
        assert model.a_l == pytest.approx(0.5)
        assert model.a_u == pytest.approx(1.5)

    def test_rejects_bad_shares(self):
        with pytest.raises(InvalidParameterError):
            TwoPeakModel.from_gains(0, 0.5, 1.5)
        with pytest.raises(InvalidParameterError):
            TwoPeakModel.from_gains(1, 0.5, 1.5)

    def test_rejects_peaks_on_the_same_side(self):
        with pytest.raises(InvalidParameterError):
            TwoPeakModel.from_gains(0.5, 1.2, 1.5)
        with pytest.raises(InvalidParameterError):
            TwoPeakModel.from_gains(0.5, 0.2, 0.9)

    def test_rejects_inconsistent_angle_gain_pairs(self):
        with pytest.raises(InvalidParameterError):
            TwoPeakModel(0.5, math.pi / 3, math.pi, 0.4, 2.0)


class TestTwoPeakStats:
    @pytest.fixture()
    def worked_model(self):
        return TwoPeakModel.from_gains(Fraction(1, 8), Fraction(1, 8), Fraction(2))

    def test_exact_worked_numbers(self, worked_model):
        s1 = two_peak_stats(worked_model, 1)
        assert s1.ratio == Fraction(16, 7)
        assert s1.run_probability == Fraction(23, 128)
        assert s1.run_probability_via_ratio == Fraction(23, 128)
        s2 = two_peak_stats(worked_model, 2)
        assert s2.ratio == Fraction(256, 7)
        assert s2.run_probability == Fraction(263, 2048)
        assert s2.p_upper == Fraction(256, 263)

    def test_zero_measurements(self, worked_model):
        s0 = two_peak_stats(worked_model, 0)
        assert s0.ratio == Fraction(1, 7)
        assert s0.run_probability == 1
        assert s0.p_upper == Fraction(1, 8)

    def test_dead_lower_peak_gives_infinite_ratio(self):
        model = TwoPeakModel.from_gains(Fraction(1, 4), 0, Fraction(3, 2))
        stats = two_peak_stats(model, 1)
        assert stats.ratio == math.inf
        assert stats.run_probability_via_ratio is None
        assert stats.p_upper == 1
        assert stats.run_probability == pytest.approx(
            float(Fraction(1, 4) * Fraction(3, 2) / 2)
        )

    def test_matches_discretized_histogram(self):
        # Dyadic gains keep both routes exactly representable in floats.
        model = TwoPeakModel.from_gains(Fraction(1, 4), Fraction(1, 2), Fraction(2))
        h = PhaseHistogram([model.alpha_l, model.alpha_u], [6, 2])
        for m in range(6):
            stats = two_peak_stats(model, m)
            _, p_run = run_sequence(h, MeasurementSequence.successes(m))
            assert p_run == pytest.approx(float(stats.run_probability), rel=1e-12)

    @pytest.mark.parametrize("m", [0, 1, 2, 5, 20])
    def test_log_run_probability_is_the_log_of_the_exact_fraction(self, worked_model, m):
        stats = two_peak_stats(worked_model, m)
        assert isinstance(stats.log_run_probability, float)
        assert stats.log_run_probability == pytest.approx(
            math.log(stats.run_probability), rel=1e-14, abs=1e-15
        )

    def test_log_run_probability_where_the_probability_underflows(self):
        model = TwoPeakModel.from_angles(Fraction(1, 8), math.pi / 3, 2 * math.pi / 3)
        stats = two_peak_stats(model, 5000)
        assert stats.run_probability == 0.0
        # The same run in exact arithmetic on the gains' binary values.
        upper = Fraction(1, 8) * (Fraction(model.a_u) / 2) ** 5000
        lower = Fraction(7, 8) * (Fraction(model.a_l) / 2) ** 5000
        exact = upper + lower
        want = math.log(exact.numerator) - math.log(exact.denominator)
        assert stats.log_run_probability == pytest.approx(want, rel=1e-12)
        assert -1441 < stats.log_run_probability < -1440

    def test_digit_estimate_bounds_the_exact_results(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            q_u = Fraction(int(rng.integers(1, 16)), 16)
            a_l = Fraction(int(rng.integers(0, 21)), int(rng.integers(21, 41)))
            a_u = Fraction(int(rng.integers(41, 81)), int(rng.integers(41, 81)))
            if not 1 < a_u <= 2:
                continue
            model = TwoPeakModel.from_gains(q_u, a_l, a_u)
            m = int(rng.integers(0, 60))
            stats = two_peak_stats(model, m)
            values = (stats.ratio, stats.p_upper, stats.run_probability)
            digits = max(
                len(str(part))
                for v in values
                if isinstance(v, Fraction)
                for part in (v.numerator, v.denominator)
            )
            assert digits <= analytics._exact_digits(model, m) <= digits + 3

    def test_exact_results_past_the_digit_cap(self, worked_model):
        # The ratio 16^m / 7 has 4300 digits at m = 3570, the last run taken.
        assert two_peak_stats(worked_model, 3570).ratio == Fraction(16**3570, 7)
        for m in (3572, 1_000_000):
            with pytest.raises(ResourceLimitError, match="capped at 4300 digits"):
                two_peak_stats(worked_model, m)

    def test_required_measurements_worked_numbers(self):
        model = TwoPeakModel.from_gains(Fraction(1, 8), Fraction(1, 8), Fraction(2))
        assert two_peak_required_measurements(model, Fraction(16, 7)) == pytest.approx(1.0)
        assert two_peak_required_measurements(model, Fraction(256, 7)) == pytest.approx(2.0)

    def test_required_measurements_past_the_float_range(self):
        # Exact targets and gains go through log2 of their integer parts:
        # 10^400 and 10^-400 overflow and underflow a float.
        # The gain ratio is 16 and the start 7 * target, so m = log2(7 * target) / 4.
        model = TwoPeakModel.from_gains(Fraction(1, 8), Fraction(1, 8), Fraction(2))
        for exponent, expected in ((400, 332.8946), (-400, -331.4910)):
            required = two_peak_required_measurements(model, Fraction(10) ** exponent)
            assert required == pytest.approx((exponent * math.log2(10) + math.log2(7)) / 4)
            assert required == pytest.approx(expected, abs=1e-4)
        tiny = TwoPeakModel.from_gains(Fraction(1, 8), Fraction(10) ** -400, Fraction(2))
        assert two_peak_required_measurements(tiny, 16) == pytest.approx(
            math.log2(112) / (1 + 400 * math.log2(10))
        )

    def test_required_measurements_rejects_dead_lower_peak(self):
        model = TwoPeakModel.from_gains(Fraction(1, 4), 0, Fraction(3, 2))
        with pytest.raises(InvalidParameterError, match="lower peak dies after one measurement"):
            two_peak_required_measurements(model, 10)

    def test_required_measurements_rejects_bad_target(self):
        model = TwoPeakModel.from_gains(Fraction(1, 8), Fraction(1, 8), Fraction(2))
        with pytest.raises(InvalidParameterError):
            two_peak_required_measurements(model, 0)


class TestTailBounds:
    def test_worked_example(self):
        # p(run of 2 ones) = 3/8 on a pure pi-level histogram, ref at 2pi/3.
        bounds = bound_from_success_run(3 / 8, 2, 2 * math.pi / 3)
        assert bounds.upper == pytest.approx(2 / 3)
        assert bounds.lower == 0.0

    def test_certain_run_pins_the_tail(self):
        bounds = bound_from_success_run(1.0, 3, math.pi / 2)
        assert bounds.upper == 1.0
        assert bounds.lower == 1.0

    def test_brackets_random_histograms(self):
        rng = np.random.default_rng(20)
        for _ in range(20):
            n = int(rng.integers(2, 30))
            h = histogram_from_phases(np.sort(rng.uniform(0.02, math.pi, size=n)))
            for m in (1, 2, 3):
                _, p_run = run_sequence(h, MeasurementSequence.successes(m))
                theta_ref = float(rng.uniform(0.1, math.pi - 0.1))
                if np.min(np.abs(h.thetas - theta_ref)) < 1e-6:
                    continue
                tail = ref_tail_mass(h.thetas, h.counts, theta_ref)
                bounds = bound_from_success_run(p_run, m, theta_ref)
                assert bounds.lower - 1e-12 <= tail <= bounds.upper + 1e-12

    def test_rejects_bad_arguments(self):
        with pytest.raises(InvalidParameterError):
            bound_from_success_run(0.5, 0, 1.0)
        with pytest.raises(InvalidParameterError):
            bound_from_success_run(0.5, 1, 0.0)
        with pytest.raises(InvalidParameterError):
            bound_from_success_run(1.5, 1, 1.0)

    def test_band_bound_worked_example(self):
        # Flat sin^2 average: p(01) = 1/8 carries no information at pi/4.
        assert band_bound(1 / 8, math.pi / 4) == 0.0

    def test_band_bound_saturates_for_central_mass(self):
        # All mass exactly at pi/2 gives p(01) = 1/4.
        assert band_bound(1 / 4, math.pi / 4) == pytest.approx(1.0)
        # cos^2 + sin^2 rounds away from 1 at many widths; the bound stays a mass.
        for hw in np.linspace(1e-6, math.pi / 2 - 1e-6, 1001):
            assert 0.0 <= band_bound(1 / 4, float(hw)) <= 1.0

    @pytest.mark.parametrize("p01", [-0.1, 0.25000001, 2.0, math.nan, math.inf])
    def test_band_bound_rejects_p01_outside_its_domain(self, p01):
        # p(01) = sum_k w_k sin^2(theta_k) / 4 never leaves [0, 1/4].
        with pytest.raises(InvalidParameterError, match=r"\[0, 1/4\]"):
            band_bound(p01, math.pi / 4)

    def test_band_bound_is_a_lower_bound(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            n = int(rng.integers(2, 30))
            h = histogram_from_phases(np.sort(rng.uniform(0.02, math.pi, size=n)))
            p01 = math.exp(sequence_probability(h, MeasurementSequence((0, 1))))
            hw = float(rng.uniform(0.1, math.pi / 2 - 0.1))
            assert band_bound(p01, hw) <= ref_band_mass(h.thetas, h.counts, hw) + 1e-12

    def test_band_bound_rejects_bad_width(self):
        with pytest.raises(InvalidParameterError):
            band_bound(0.2, 0.0)
        with pytest.raises(InvalidParameterError):
            band_bound(0.2, math.pi / 2)



class TestSamplingComparison:
    def test_amplified_run_never_beats_direct_draws(self, benchmark_histograms):
        # Per preparation, surviving m successes and landing in the tail is
        # never likelier than one direct draw landing there.
        for h in benchmark_histograms.values():
            start = initial_state(h)
            for m in range(1, 6):
                state, _ = run_sequence(h, MeasurementSequence.successes(m))
                for theta in h.thetas.tolist():
                    p_amplified = unconditional_tail_probability(state, theta)
                    assert p_amplified <= tail_probability(start, theta) + 1e-15
