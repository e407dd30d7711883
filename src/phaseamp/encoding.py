"""Phase encodings of assignment objectives.

An assignment scoring ``f`` out of ``|E|`` edges is encoded at angle
``pi * f / |E|``, so scores land on the grid ``k * pi / |E|`` with the
optimum at the top of ``[0, pi]``. Everything downstream only needs the
number of assignments per level, which is what :class:`PhaseHistogram`
stores. :class:`ClassTable` additionally materializes which assignment sits
at which level so individual assignments can be sampled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    InvalidGraphError,
    InvalidParameterError,
    InvalidSizeError,
    UnsupportedSizeError,
)
from .graphs import Graph, ObjectiveKind, objective_value, objective_values, scored_assignments
from .meta import SCHEMA_VERSION

# Tolerance used whenever an external angle is compared against level positions.
ANGLE_ATOL = 1e-12

# Assignment-level tables hold one entry per assignment; cap the memory.
CLASS_TABLE_LIMIT = 20


def phase_of(g: Graph, objective: ObjectiveKind | str, x: int) -> float:
    """Encoded angle of one assignment."""
    if g.edge_count < 1:
        raise InvalidGraphError("phase encoding needs at least one edge")
    return math.pi * objective_value(g, objective, x) / g.edge_count


@dataclass(frozen=True)
class PhaseHistogram:
    """Counts of assignments per phase level.

    ``thetas`` are strictly increasing angles in radians. Builders keep them
    inside ``[0, pi]``; :func:`shift_phases` may move them outside that range,
    which is fine because the weight algebra only ever uses their cosines.
    When the levels sit on an exact grid ``k * pi / denominator``, the integer
    ``k`` per level is kept in ``numerators`` so that level identity never
    rests on float equality.
    """

    thetas: np.ndarray
    counts: np.ndarray
    denominator: int | None = None
    numerators: tuple[int, ...] | None = None
    includes_zero: bool = False

    def __post_init__(self) -> None:
        thetas = np.asarray(self.thetas, dtype=np.float64).copy()
        counts = np.asarray(self.counts, dtype=np.int64).copy()
        if thetas.ndim != 1 or counts.shape != thetas.shape or thetas.size == 0:
            raise InvalidParameterError("histogram needs matching 1-d thetas and counts")
        if np.any(~np.isfinite(thetas)):
            raise InvalidParameterError("histogram angles must be finite")
        if np.any(np.diff(thetas) <= 0):
            raise InvalidParameterError("histogram angles must be strictly increasing")
        if np.any(counts < 0):
            raise InvalidParameterError("histogram counts must be nonnegative")
        if int(counts.sum()) < 1:
            raise InvalidParameterError("histogram support is empty")
        if self.numerators is not None:
            if self.denominator is None or len(self.numerators) != thetas.size:
                raise InvalidParameterError(
                    "numerators require a denominator and one entry per level"
                )
        thetas.flags.writeable = False
        counts.flags.writeable = False
        object.__setattr__(self, "thetas", thetas)
        object.__setattr__(self, "counts", counts)

    @property
    def n_levels(self) -> int:
        return int(self.thetas.size)

    @property
    def support(self) -> int:
        """Total number of assignments counted."""
        return int(self.counts.sum())

    def weights(self) -> np.ndarray:
        """Counts normalized to a probability vector."""
        return self.counts / self.support

    def tail_mass(self, theta: float) -> float:
        """Fraction of the support at angles >= theta (tolerant at boundaries)."""
        mask = self.thetas >= theta - ANGLE_ATOL
        return float(self.counts[mask].sum() / self.support)

    def band_mass(self, half_width: float) -> float:
        """Fraction of the support with |theta - pi/2| <= half_width."""
        if half_width < 0:
            raise InvalidParameterError("band half-width must be nonnegative")
        dist = np.abs(self.thetas - math.pi / 2)
        return float(self.counts[dist <= half_width + ANGLE_ATOL].sum() / self.support)

    def to_json_dict(self) -> dict:
        ks: Sequence[int | None]
        ks = self.numerators if self.numerators is not None else [None] * self.n_levels
        return {
            "schema": SCHEMA_VERSION,
            "denominator": self.denominator,
            "levels": [
                {"k": k, "theta": float(t), "count": int(c)}
                for k, t, c in zip(ks, self.thetas, self.counts)
            ],
            "support": self.support,
            "includes_zero": self.includes_zero,
        }

    def to_csv(self) -> str:
        lines = ["theta,count"]
        lines.extend(
            f"{format(float(t), '.12g')},{int(c)}"
            for t, c in zip(self.thetas, self.counts)
        )
        return "\n".join(lines) + "\n"


def _grid_thetas(denominator: int, numerators: Sequence[int]) -> np.ndarray:
    return np.array([k * math.pi / denominator for k in numerators], dtype=np.float64)


def build_histogram(
    g: Graph, objective: ObjectiveKind | str, include_zero: bool = False
) -> PhaseHistogram:
    """Count every assignment of ``g`` per objective level.

    The all-zeros assignment is dropped by default: it scores 0, carries no
    information, and the dynamics start from the uniform state over the rest.
    Levels with zero count are kept so level index equals objective score.
    """
    chunks = scored_assignments(g, objective, "histogram enumeration")
    if g.edge_count < 1:
        raise InvalidGraphError("phase encoding needs at least one edge")
    n_edges = g.edge_count
    counts = np.zeros(n_edges + 1, dtype=np.int64)
    for _, vals in chunks:
        counts += np.bincount(vals, minlength=n_edges + 1)
    if not include_zero:
        counts[0] -= 1
    numerators = tuple(range(n_edges + 1))
    return PhaseHistogram(
        _grid_thetas(n_edges, numerators),
        counts,
        denominator=n_edges,
        numerators=numerators,
        includes_zero=include_zero,
    )


def uniform_histogram(n_support: int) -> PhaseHistogram:
    """One assignment at each angle k*pi/N for k = 1..N."""
    if n_support < 1:
        raise InvalidSizeError("uniform histogram needs at least one level")
    numerators = tuple(range(1, n_support + 1))
    return PhaseHistogram(
        _grid_thetas(n_support, numerators),
        np.ones(n_support, dtype=np.int64),
        denominator=n_support,
        numerators=numerators,
        includes_zero=False,
    )


def two_peak_histogram(model, n_support: int) -> PhaseHistogram:
    """Discretize a two-peak model onto ``n_support`` assignments.

    The lower peak gets ``round(q_l * N)`` assignments and the upper peak the
    rest; both peaks must stay populated.
    """
    if n_support < 2:
        raise InvalidSizeError("a two-peak histogram needs at least 2 assignments")
    n_low = round(float(model.q_l) * n_support)
    n_high = n_support - n_low
    if n_low < 1 or n_high < 1:
        raise InvalidSizeError(
            f"support {n_support} cannot populate both peaks (split {n_low}/{n_high})"
        )
    return PhaseHistogram(
        np.array([model.alpha_l, model.alpha_u], dtype=np.float64),
        np.array([n_low, n_high], dtype=np.int64),
    )


def shift_phases(h: PhaseHistogram, offset: float) -> PhaseHistogram:
    """Shift every level by a constant angle; counts are untouched.

    A nonzero shift moves the levels off the exact grid, so the rational
    level labels are dropped. The shifted angles may leave ``[0, pi]``.
    """
    if offset == 0:
        return h
    if not math.isfinite(offset):
        raise InvalidParameterError("phase shift must be finite")
    return PhaseHistogram(
        h.thetas + offset,
        h.counts,
        denominator=None,
        numerators=None,
        includes_zero=h.includes_zero,
    )


def histogram_from_phases(phases: Sequence[float]) -> PhaseHistogram:
    """Group a raw list of angles in [0, pi] into a histogram."""
    arr = np.asarray(phases, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise InvalidParameterError("need a nonempty 1-d list of angles")
    if np.any(arr < -ANGLE_ATOL) or np.any(arr > math.pi + ANGLE_ATOL):
        raise InvalidParameterError("angles must lie in [0, pi]")
    thetas, counts = np.unique(arr, return_counts=True)
    return PhaseHistogram(thetas, counts.astype(np.int64))


class ClassTable:
    """Which assignment sits at which level, grouped for per-level sampling."""

    def __init__(self, levels: np.ndarray, n_levels: int, includes_zero: bool) -> None:
        levels = np.asarray(levels, dtype=np.int32).copy()
        if levels.ndim != 1 or levels.size < 1:
            raise InvalidParameterError("class table needs a 1-d level array")
        self.n_levels = int(n_levels)
        self.includes_zero = bool(includes_zero)
        start = 0 if self.includes_zero else 1
        included = levels[start:]
        if included.size and (included.min() < 0 or included.max() >= self.n_levels):
            raise InvalidParameterError("level indices out of range")
        order = np.argsort(included, kind="stable").astype(np.int64) + start
        sizes = np.bincount(included, minlength=self.n_levels)
        offsets = np.zeros(self.n_levels + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])
        levels.flags.writeable = False
        order.flags.writeable = False
        offsets.flags.writeable = False
        self.levels = levels
        self._order = order
        self._offsets = offsets

    def class_of(self, x: int) -> int:
        """Level index of one assignment."""
        if not (0 <= x < self.levels.size):
            raise InvalidParameterError(f"assignment {x} outside the table")
        if x == 0 and not self.includes_zero:
            raise InvalidParameterError("the all-zeros assignment is outside the support")
        return int(self.levels[x])

    def class_sizes(self) -> np.ndarray:
        """Number of supported assignments per level."""
        return np.diff(self._offsets)

    def members(self, level: int) -> np.ndarray:
        """All supported assignments at one level."""
        if not (0 <= level < self.n_levels):
            raise InvalidParameterError(f"level {level} out of range")
        return self._order[self._offsets[level] : self._offsets[level + 1]]


def build_class_table(
    g: Graph, objective: ObjectiveKind | str, include_zero: bool = False
) -> ClassTable:
    """Materialize the level of every assignment of ``g``."""
    if g.n_vertices > CLASS_TABLE_LIMIT:
        raise UnsupportedSizeError(
            f"class tables capped at {CLASS_TABLE_LIMIT} vertices, got {g.n_vertices}"
        )
    if g.edge_count < 1:
        raise InvalidGraphError("phase encoding needs at least one edge")
    xs = np.arange(1 << g.n_vertices, dtype=np.uint32)
    levels = objective_values(g, objective, xs)
    return ClassTable(levels, g.edge_count + 1, include_zero)
