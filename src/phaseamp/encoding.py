"""Phase encodings of assignment objectives.

An assignment scoring ``f`` out of ``|E|`` edges is encoded at angle
``pi * f / |E|``, so scores land on the grid ``k * pi / |E|`` with the
optimum at the top of ``[0, pi]``. Everything downstream only needs the
number of assignments per level, which is what :class:`PhaseHistogram`
stores. Assignments are sampled by rank within their level, read from the
frontier DP's tables (:func:`frontier_members`) or, on graphs it does not
take, from a :class:`ClassTable`, the level of every assignment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from .errors import LIMITS, InvalidParameterError, ResourceLimitError, check_limit
from .graphs import Graph, ObjectiveKind, scored_assignments

# Tolerance used whenever an external angle is compared against level positions.
ANGLE_ATOL = 1e-12


@dataclass(frozen=True)
class PhaseHistogram:
    """Counts of assignments per phase level.

    ``thetas`` are strictly increasing angles in radians. When the levels
    sit on an exact grid ``k * pi / denominator``, the integer ``k`` per
    level is kept in ``numerators`` so that level identity never rests on
    float equality.
    """

    thetas: np.ndarray
    counts: np.ndarray
    denominator: int | None = None
    numerators: tuple[int, ...] | None = None
    includes_zero: bool = False

    def __post_init__(self) -> None:
        thetas = np.asarray(self.thetas, dtype=np.float64).copy()
        counts = np.asarray(self.counts)
        if counts.dtype.kind == "O":  # Python ints too wide for a numpy integer type
            whole = all(isinstance(c, (int, np.integer)) for c in counts.flat)
        else:
            whole = counts.dtype.kind in "biu" or (
                counts.dtype.kind == "f"
                and np.all(np.isfinite(counts) & (counts == np.trunc(counts)))
            )
        if not whole:
            raise InvalidParameterError("histogram counts must be whole numbers")
        if np.any(counts < 0):
            raise InvalidParameterError("histogram counts must be nonnegative")
        total = sum(map(int, counts.flat))
        if total >= 1 << 63:
            raise InvalidParameterError(
                f"histogram counts past int64 are not supported: they total {total}, "
                "past 2^63 - 1"
            )
        counts = counts.astype(np.int64)
        if thetas.ndim != 1 or counts.shape != thetas.shape or thetas.size == 0:
            raise InvalidParameterError("histogram needs matching 1-d thetas and counts")
        if np.any(~np.isfinite(thetas)):
            raise InvalidParameterError("histogram angles must be finite")
        if np.any(np.diff(thetas) <= 0):
            raise InvalidParameterError("histogram angles must be strictly increasing")
        if total < 1:
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

    @cached_property
    def branch_factors(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-level factors of outcomes 0 and 1, ``(1 + cos theta) / 2`` and
        ``(1 - cos theta) / 2``; computed once per histogram, read only."""
        c = np.cos(self.thetas)
        factors = (1.0 + c) / 2.0, (1.0 - c) / 2.0
        for f in factors:
            f.flags.writeable = False
        return factors

    def tail_start(self, theta: float) -> int:
        """First level at an angle >= theta (tolerant at boundaries); the
        angles increase, so the levels from there on are the tail."""
        return int(np.searchsorted(self.thetas, theta - ANGLE_ATOL))


def _grid_thetas(denominator: int, numerators: Sequence[int]) -> np.ndarray:
    return np.array([k * math.pi / denominator for k in numerators], dtype=np.float64)


def build_histogram(
    g: Graph, objective: ObjectiveKind | str, include_zero: bool = False
) -> PhaseHistogram:
    """Count every assignment of ``g`` per objective level.

    The all-zeros assignment is dropped by default: it scores 0, carries no
    information, and the dynamics start from the uniform state over the rest.
    Levels with zero count are kept so level index equals objective score.

    The counts come from a frontier DP (:func:`frontier_tables`) when
    :func:`frontier_route` takes it; otherwise every assignment is
    enumerated, up to ``LIMITS["enumeration"]`` vertices.
    """
    check_limit("histogram", g.n_vertices, "histograms")
    if g.edge_count < 1:
        raise InvalidParameterError("phase encoding needs at least one edge")
    is_cut = ObjectiveKind.coerce(objective) is ObjectiveKind.MAXCUT
    steps = frontier_route(g)
    if steps is not None:
        counts = _frontier_counts(steps, is_cut)
    else:
        vertex_cap, vertex_unit = LIMITS["enumeration"]
        if g.n_vertices > vertex_cap:
            table_cap, table_unit = LIMITS["frontier"]
            largest = _frontier_cost(g.frontier_steps)[0]
            raise ResourceLimitError(
                f"histograms capped at a frontier table of {table_cap} {table_unit}"
                f" (got {largest}) or enumeration of {vertex_cap} {vertex_unit}"
                f" (got {g.n_vertices})"
            )
        counts = np.zeros(g.edge_count + 1, dtype=np.int64)
        for _, vals in scored_assignments(g, objective, "histogram enumeration"):
            counts += np.bincount(vals, minlength=g.edge_count + 1)
    if not include_zero:
        counts[0] -= 1
    numerators = tuple(range(g.edge_count + 1))
    return PhaseHistogram(
        _grid_thetas(g.edge_count, numerators),
        counts,
        denominator=g.edge_count,
        numerators=numerators,
        includes_zero=include_zero,
    )


# One step of :func:`frontier_order`: the vertex placed, the frontier vertices
# it shares an edge with, and the frontier it leaves behind.
_Step = tuple[int, tuple[int, ...], tuple[int, ...]]

# Placing a vertex also costs its share of the greedy order and a few numpy
# calls whatever the table size: measured at about as long as 2^13 table
# entries. Below about 14 vertices this makes enumeration the faster route.
_VERTEX_WORK = 1 << 13


def _frontier_cost(steps: list[_Step]) -> tuple[int, int, int]:
    """The frontier DP's largest table and the sum of its tables, in entries,
    and its summed table work.

    A step's table has one axis per frontier vertex plus the new one, and one
    column per level reached so far; its work is that size times the number
    of passes over it, one per closed edge and one to sum vertices out, plus
    the fixed ``_VERTEX_WORK``.
    """
    largest = stored = work = 0
    n_levels = 1
    width = 0
    for _, closed, after in steps:
        n_levels += len(closed)
        size = (1 << (width + 1)) * n_levels
        largest = max(largest, size)
        stored += size
        work += size * (len(closed) + 1) + _VERTEX_WORK
        width = len(after)
    return largest, stored, work


def frontier_route(g: Graph, keep_tables: bool = False) -> list[_Step] | None:
    """The frontier DP's steps when the DP is the route for ``g``, else None.

    The DP is the route when its largest table fits ``LIMITS["frontier"]``
    and its table work is below the ``2**n * |E|`` edge scores of
    enumeration. With ``keep_tables``, as for sampling, which keeps every
    table, the tables together must fit that cap too.
    """
    steps = list(g.frontier_steps)
    largest, stored, work = _frontier_cost(steps)
    table_cap = LIMITS["frontier"][0]
    fits = largest <= table_cap and (stored <= table_cap or not keep_tables)
    return steps if fits and work < (1 << g.n_vertices) * g.edge_count else None


def frontier_tables(steps: list[_Step], is_cut: bool) -> Iterator[np.ndarray]:
    """Each step's table of a transfer-matrix pass over the frontier steps.

    A table maps each assignment of the step's frontier and its new vertex
    (one axis of length 2 each, in placement order) to its counts per level
    over the vertices placed so far, levels last. Placing a vertex adds its
    axis and shifts each row by the edges it closes; the table is yielded
    then, before the vertices that leave the frontier are summed out.
    """
    table = np.ones(1, dtype=np.int64)
    frontier: tuple[int, ...] = ()
    for v, closed, after in steps:
        table = np.stack((table, table), axis=-2)
        axes = frontier + (v,)
        for u in closed:
            n_levels = table.shape[-1]
            grown = np.zeros(table.shape[:-1] + (n_levels + 1,), dtype=np.int64)
            for xu in (0, 1):
                for xv in (0, 1):
                    block = [slice(None)] * (table.ndim - 1)
                    block[axes.index(u)], block[-1] = xu, xv
                    shift = (xu ^ xv) if is_cut else (xu | xv)
                    grown[(*block, slice(shift, shift + n_levels))] = table[tuple(block)]
            table = grown
        yield table
        leaving = tuple(i for i, u in enumerate(axes) if u not in after)
        if leaving:
            table = table.sum(axis=leaving)
        frontier = after


def level_totals(table: np.ndarray) -> np.ndarray:
    """Assignments per level counted by the last of :func:`frontier_tables`,
    the all-zeros assignment included."""
    return table.sum(axis=tuple(range(table.ndim - 1)))


def _frontier_counts(steps: list[_Step], is_cut: bool) -> np.ndarray:
    """Assignments per level by the frontier DP, keeping one table at a time."""
    for table in frontier_tables(steps, is_cut):
        pass
    return level_totals(table)


def frontier_members(
    steps: list[_Step],
    tables: list[np.ndarray],
    levels: np.ndarray,
    ranks: np.ndarray,
    is_cut: bool,
) -> np.ndarray:
    """The member of rank ``ranks[i]`` among the assignments at ``levels[i]``.

    A backward pass over every table of :func:`frontier_tables`, all draws
    at once. Each step picks the vertices that leave the frontier there, one
    at a time in placement order, 0 before 1: a rank below the count of
    members that put a 0 there picks 0, otherwise 1, less that count. What is
    left of the rank orders the members of the earlier steps, and the level
    left loses the edges the step closed. So each rank in ``[0, count)``
    names a distinct member, and rank 0 of level 0 is the all-zeros
    assignment.
    """
    values = np.zeros((len(steps), len(levels)), dtype=np.uint8)  # one per vertex and draw
    level = np.array(levels, dtype=np.int64)
    rank = np.array(ranks, dtype=np.int64)
    frontiers = [()] + [after for _, _, after in steps[:-1]]
    for (v, closed, after), frontier, table in zip(
        reversed(steps), reversed(frontiers), reversed(tables)
    ):
        axes = frontier + (v,)
        leaving = [u for u in axes if u not in after]
        fixed = [u for u in axes if u in after]
        # Known vertices first, then the leaving ones, then the levels.
        table = np.transpose(table, [axes.index(u) for u in fixed + leaving] + [len(axes)])
        partial = [table]  # partial[j]: summed over the last j leaving vertices
        for _ in leaving[1:]:
            partial.append(partial[-1].sum(axis=-2))
        known = [values[u] for u in fixed]
        for u, sums in zip(leaving, reversed(partial)):
            zeros = sums[(*known, 0, level)]
            bit = rank >= zeros
            rank -= zeros * bit
            values[u] = bit
            known.append(values[u])
        for u in closed:
            level -= (values[u] ^ values[v]) if is_cut else (values[u] | values[v])
    members = np.zeros(len(levels), dtype=np.int64)
    for u, bits in enumerate(values):
        members |= bits.astype(np.int64) << u
    return members


def uniform_histogram(n_support: int) -> PhaseHistogram:
    """One assignment at each angle k*pi/N for k = 1..N."""
    if n_support < 1:
        raise InvalidParameterError("uniform histogram needs at least one level")
    check_limit("uniform", n_support, "uniform histograms")
    numerators = tuple(range(1, n_support + 1))
    return PhaseHistogram(
        _grid_thetas(n_support, numerators),
        np.ones(n_support, dtype=np.int64),
        denominator=n_support,
        numerators=numerators,
        includes_zero=False,
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
    """The level of every assignment of a graph, indexed by the assignment."""

    def __init__(self, levels: np.ndarray, n_levels: int) -> None:
        levels = np.asarray(levels, dtype=np.int32).copy()
        if levels.ndim != 1 or levels.size < 1:
            raise InvalidParameterError("class table needs a 1-d level array")
        if levels.min() < 0 or levels.max() >= n_levels:
            raise InvalidParameterError("level indices out of range")
        levels.flags.writeable = False
        self.levels = levels
        self.n_levels = int(n_levels)

    def class_sizes(self) -> np.ndarray:
        """Number of assignments per level."""
        return np.bincount(self.levels, minlength=self.n_levels)

    def members(self, levels: np.ndarray, ranks: np.ndarray) -> np.ndarray:
        """The member of rank ``ranks[i]`` among the assignments at ``levels[i]``,
        rank 0 being the smallest; each rank must lie below its level's size."""
        sizes = self.class_sizes()
        by_level = np.argsort(self.levels, kind="stable")
        return by_level[np.cumsum(sizes)[levels] - sizes[levels] + ranks]


def build_class_table(g: Graph, objective: ObjectiveKind | str) -> ClassTable:
    """Materialize the level of every assignment of ``g``."""
    check_limit("class_table", g.n_vertices, "class tables")
    if g.edge_count < 1:
        raise InvalidParameterError("phase encoding needs at least one edge")
    chunks = scored_assignments(g, objective, "class tables")
    levels = np.concatenate([vals for _, vals in chunks], dtype=np.int32)
    return ClassTable(levels, g.edge_count + 1)
