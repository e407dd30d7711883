"""Closed forms for the measurement dynamics.

Covers the flat-spectrum asymptotics (a continuum of angles filling (0, pi]),
the two-peak filter model, and rigorous tail and band bounds. Wherever the
inputs are exact (integers, Fractions), the arithmetic stays exact; float
inputs give float outputs.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional, Union

from .encoding import ANGLE_ATOL
from .errors import InvalidParameterError, check_limit

Number = Union[int, float, Fraction]


# ---------------------------------------------------------------------------
# Flat spectrum


def central_binomial_norm(m: int) -> float:
    """1 / C(2m, m), the normalization of the m-fold sine-power profile,
    correctly rounded."""
    if m < 0:
        raise InvalidParameterError("m must be nonnegative")
    return 1 / math.comb(2 * m, m)


def uniform_step_success(m: int) -> float:
    """Success probability of step m on a flat spectrum, (2m-1)/(2m),
    correctly rounded."""
    if m < 1:
        raise InvalidParameterError("steps are numbered from 1")
    return (2 * m - 1) / (2 * m)


def uniform_run_probability_exact(total: int) -> Fraction:
    """Exact probability of an all-ones run on a flat spectrum, C(2M, M) / 4^M."""
    if total < 0:
        raise InvalidParameterError("run length must be nonnegative")
    return Fraction(math.comb(2 * total, total), 4**total)


class UniformRunProbability(NamedTuple):
    exact: float
    estimate: float


# Past this run length, float arithmetic on it overflows: pi*M first, and
# any power or product that converts it to a float soon after.
_MAX_RUN = sys.float_info.max / math.pi


def _check_run_length(total: int, minimum: int = 1) -> None:
    if total < minimum:
        raise InvalidParameterError(f"run length must be at least {minimum}")
    if total > _MAX_RUN:
        raise InvalidParameterError(
            f"run length past {_MAX_RUN:.3g}, where float arithmetic on it overflows"
        )


def uniform_run_probability(total: int) -> UniformRunProbability:
    """All-ones run probability on a flat spectrum, with its 1/sqrt(pi*M) estimate.

    Past M = 100000 the exact value Gamma(M+1/2) / (sqrt(pi) Gamma(M+1)) comes
    from its asymptotic series, whose next term (M^-5) is below 2e-28 there.
    """
    _check_run_length(total)
    if total <= 100_000:
        exact = float(uniform_run_probability_exact(total))
    else:
        exact = math.exp(-1 / (8 * total) + 1 / (192 * total**3)) / math.sqrt(math.pi * total)
    return UniformRunProbability(exact, 1.0 / math.sqrt(math.pi * total))


def gaussian_tail_estimate(theta: float, total: int) -> float:
    """Gaussian-profile estimate of the conditional mass at angles >= theta
    after an all-ones run of length ``total`` on a flat spectrum."""
    _check_run_length(total)
    if not (0.0 <= theta <= math.pi + ANGLE_ATOL):
        raise InvalidParameterError("theta must lie in [0, pi]")
    return math.erf(math.sqrt(total) * (math.pi - theta) / 2.0)


# ---------------------------------------------------------------------------
# Two-peak filter model


def _check_gains(a_l: Number, a_u: Number) -> None:
    if not 0 <= a_l < 1 < a_u <= 2:
        raise InvalidParameterError("per-step gains must satisfy 0 <= a_l < 1 < a_u <= 2")


@dataclass(frozen=True)
class TwoPeakModel:
    """Spectrum with all mass at two angles, one below pi/2 and one above.

    ``q_u`` is the share of the support sitting at the upper angle; the lower
    share is derived so the two always sum to 1 exactly. ``a_l`` and ``a_u``
    are the per-step gains ``1 - cos(alpha)`` of the two peaks and keep the
    numeric type they were built with, so exact Fractions survive the filter
    algebra.
    """

    q_u: Number
    alpha_l: float
    alpha_u: float
    a_l: Number
    a_u: Number

    def __post_init__(self) -> None:
        if not 0 < self.q_u < 1:
            raise InvalidParameterError("q_u must be strictly between 0 and 1")
        if not 0.0 <= self.alpha_l < math.pi / 2 < self.alpha_u <= math.pi:
            raise InvalidParameterError(
                "peak angles must straddle pi/2 inside [0, pi]"
            )
        _check_gains(self.a_l, self.a_u)
        for angle, gain in ((self.alpha_l, self.a_l), (self.alpha_u, self.a_u)):
            if abs((1.0 - math.cos(angle)) - float(gain)) > 1e-9:
                raise InvalidParameterError("angles and per-step gains disagree")

    @property
    def q_l(self) -> Number:
        return 1 - self.q_u

    @classmethod
    def from_angles(cls, q_u: Number, alpha_l: float, alpha_u: float) -> "TwoPeakModel":
        return cls(
            q_u,
            float(alpha_l),
            float(alpha_u),
            1.0 - math.cos(alpha_l),
            1.0 - math.cos(alpha_u),
        )

    @classmethod
    def from_gains(cls, q_u: Number, a_l: Number, a_u: Number) -> "TwoPeakModel":
        _check_gains(a_l, a_u)  # before acos reads them as floats
        return cls(
            q_u,
            math.acos(1.0 - float(a_l)),
            math.acos(1.0 - float(a_u)),
            a_l,
            a_u,
        )


@dataclass(frozen=True)
class TwoPeakStats:
    """Filter outcome after a fixed number of all-ones measurements.

    ``run_probability_via_ratio`` evaluates the same probability through the
    mass ratio as a cross-check; it is None when the ratio is infinite.
    ``log_run_probability`` is its natural log as a float, which stays finite
    where the probability itself underflows to 0.0.
    """

    measurements: int
    ratio: Number
    p_upper: Number
    run_probability: Number
    run_probability_via_ratio: Optional[Number]
    log_run_probability: float


def _log_peak_mass(share: Number, gain: Number, steps: int) -> float:
    """``log(share * (gain / 2)**steps)``, -inf once the run has emptied the peak."""
    if steps and not gain:
        return -math.inf
    return math.log(share) + (steps * math.log(gain / 2) if steps else 0.0)


def two_peak_stats(model: TwoPeakModel, measurements: int) -> TwoPeakStats:
    """Upper/lower mass ratio and run probability after all-ones measurements.

    Exact shares and gains stay exact; any float input is evaluated in log
    space, so long runs neither overflow the gains nor underflow the peaks.
    """
    _check_run_length(measurements, minimum=0)
    if not all(isinstance(v, (int, Fraction)) for v in (model.q_u, model.a_l, model.a_u)):
        return _two_peak_stats_log(model, measurements)
    check_limit("exact_digits", _exact_digits(model, measurements), "exact two-peak results")
    upper = model.q_u * model.a_u**measurements
    lower = model.q_l * model.a_l**measurements
    run_probability = (lower + upper) / 2**measurements
    log_run = math.log(run_probability.numerator) - math.log(run_probability.denominator)
    p_upper = upper / (upper + lower)
    if lower == 0:
        return TwoPeakStats(measurements, math.inf, p_upper, run_probability, None, log_run)
    ratio = upper / lower
    via_ratio = (model.a_l**measurements * model.q_l / 2**measurements) * (1 + ratio)
    return TwoPeakStats(measurements, ratio, p_upper, run_probability, via_ratio, log_run)


def _exact_digits(model: TwoPeakModel, measurements: int) -> int:
    """Decimal digits of the largest numerator or denominator of the exact stats.

    The ratio is ``q_u/q_l * (a_u/a_l)**m``; the run probability puts
    ``q_u * (a_u/2)**m`` and ``q_l * (a_l/2)**m`` over a common denominator.
    Each grows by at most one factor of its base per measurement, so the
    estimate is ``m`` times the log of the larger base, without any power.
    """
    up, low = Fraction(model.a_u) / 2, Fraction(model.a_l) / 2
    common = math.lcm(up.denominator, low.denominator)
    base = max(common, *(f.numerator * common // f.denominator for f in (up, low)))
    if low:
        ratio = up / low
        base = max(base, ratio.numerator, ratio.denominator)
    shares = 2 * Fraction(model.q_u).denominator
    return math.floor(measurements * math.log10(base) + math.log10(shares)) + 1


def _two_peak_stats_log(model: TwoPeakModel, measurements: int) -> TwoPeakStats:
    upper = _log_peak_mass(model.q_u, model.a_u, measurements)
    lower = _log_peak_mass(model.q_l, model.a_l, measurements)
    log_run = max(upper, lower) + math.log1p(math.exp(-abs(upper - lower)))
    try:
        ratio = math.exp(upper - lower)
    except OverflowError:
        ratio = math.inf
    via_ratio = None if ratio == math.inf else math.exp(lower + math.log1p(ratio))
    p_upper = math.exp(upper - log_run)
    return TwoPeakStats(measurements, ratio, p_upper, math.exp(log_run), via_ratio, log_run)


def two_peak_required_measurements(model: TwoPeakModel, target_ratio: Number) -> float:
    """All-ones measurements needed to push the mass ratio up to ``target_ratio``."""
    if target_ratio <= 0:
        raise InvalidParameterError("target ratio must be positive")
    if model.a_l == 0:
        raise InvalidParameterError("the lower peak dies after one measurement; any count works")
    start = target_ratio * model.q_l / model.q_u
    return _log2(start) / _log2(model.a_u / model.a_l)


def _log2(x: Number) -> float:
    """log2 of a positive number; an exact rational goes through its integer
    parts, so it stays finite past the float range."""
    if isinstance(x, Fraction):
        return math.log2(x.numerator) - math.log2(x.denominator)
    return math.log2(x)


# ---------------------------------------------------------------------------
# Rigorous bounds


class TailBounds(NamedTuple):
    lower: float
    upper: float


def bound_from_success_run(p_run: float, m: int, theta_ref: float) -> TailBounds:
    """Two-sided bound on the mass at angles >= theta_ref from an all-ones run.

    Levels at or above ``theta_ref`` contribute a per-step factor of at least
    ``(1 - cos theta_ref) / 2`` and levels below at most that, which traps the
    tail mass between the two returned values.
    """
    _check_run_length(m)
    if not 0.0 < theta_ref < math.pi:
        raise InvalidParameterError("reference angle must lie strictly inside (0, pi)")
    if not 0.0 <= p_run <= 1.0:
        raise InvalidParameterError("run probability must lie in [0, 1]")
    # Run factor of a level at theta_ref; at most 1, so nothing overflows.
    g = ((1.0 - math.cos(theta_ref)) / 2.0) ** m
    lower = max(0.0, (p_run - g) / (1.0 - g)) if g < 1.0 else 0.0
    if g > 0.0:
        upper = min(1.0, p_run / g)
    else:  # g underflowed: only an impossible run says anything about the tail
        upper = 1.0 if p_run > 0.0 else 0.0
    return TailBounds(lower, upper)


def band_bound(p_single_01: float, half_width: float) -> float:
    """Lower bound on the mass with |theta - pi/2| <= half_width from p(01).

    A level at angle theta contributes sin^2(theta)/4 to the probability of
    the two-outcome record 0 then 1, so a large p(01) forces mass near pi/2.
    """
    if not 0.0 < half_width < math.pi / 2:
        raise InvalidParameterError("band half-width must lie strictly inside (0, pi/2)")
    # Each level adds sin^2(theta)/4 <= 1/4 with weight w_k, so p(01) <= 1/4.
    if not 0.0 <= p_single_01 <= 0.25:
        raise InvalidParameterError(f"p(01) must lie in [0, 1/4], got {p_single_01}")
    cos_sq = math.cos(half_width) ** 2
    sin_sq = math.sin(half_width) ** 2
    # Clamped to [0, 1]: at p(01) = 1/4 rounding can lift the quotient past 1.
    return min(1.0, max(0.0, (4.0 * p_single_01 - cos_sq) / sin_sq))
