"""Phase histograms, level tables, and their serialization."""

from __future__ import annotations

import itertools
import json
import math
import warnings

import numpy as np
import pytest

from phaseamp import encoding, graphs
from phaseamp.amplifier import initial_state, tail_probability
from phaseamp.analytics import TwoPeakModel
from phaseamp.encoding import (
    ClassTable,
    PhaseHistogram,
    build_class_table,
    build_histogram,
    histogram_from_phases,
    uniform_histogram,
)
from phaseamp.errors import LIMITS, InvalidParameterError, ResourceLimitError
from phaseamp.experiments import histogram_renders
from phaseamp.graphs import (
    Graph,
    ObjectiveKind,
    make_grid,
    make_line,
    objective_values,
    parse_graph_spec,
)
from phaseamp.meta import SCHEMA_VERSION

from .oracles import (
    ref_histogram_csv,
    ref_histogram_json_dict,
    ref_json_text,
    ref_level_counts,
    ref_objective,
    ref_tail_mass,
)


class TestPhaseOf:
    def test_grid_positions(self):
        # An assignment's angle is the angle of the level its score indexes.
        g = make_line(4)
        h = build_histogram(g, ObjectiveKind.MAXCUT, include_zero=True)
        levels = objective_values(g, ObjectiveKind.MAXCUT, [0b0101, 0b0001, 0])
        assert h.thetas[levels].tolist() == pytest.approx([math.pi, math.pi / 3, 0.0])
        assert h.thetas[0] == 0.0


class TestBuildHistogram:
    @pytest.mark.parametrize("kind", ["maxcut", "covered-edges"])
    @pytest.mark.parametrize("spec", ["line:6", "grid:2x3", "starring:5"])
    @pytest.mark.parametrize("include_zero", [False, True])
    def test_counts_match_reference(self, kind, spec, include_zero):
        g = parse_graph_spec(spec)
        h = build_histogram(g, ObjectiveKind.coerce(kind), include_zero=include_zero)
        ref = ref_level_counts(kind, g.n_vertices, g.edges, include_zero)
        assert h.n_levels == g.edge_count + 1
        for k in range(g.edge_count + 1):
            assert int(h.counts[k]) == ref.get(k, 0)

    def test_levels_on_grid(self):
        g = make_grid(3, 3)
        h = build_histogram(g, ObjectiveKind.MAXCUT)
        assert h.denominator == 12
        assert h.numerators == tuple(range(13))
        assert np.allclose(h.thetas, np.arange(13) * math.pi / 12)

    def test_support_excludes_all_zeros_by_default(self):
        g = make_grid(3, 3)
        assert build_histogram(g, ObjectiveKind.MAXCUT).support == 2**9 - 1
        assert (
            build_histogram(g, ObjectiveKind.MAXCUT, include_zero=True).support == 2**9
        )

    def test_grid44_top_level(self, grid44_histogram):
        assert grid44_histogram.support == 2**16 - 1
        assert int(grid44_histogram.counts[24]) == 2
        assert int(grid44_histogram.counts[23]) == 0

    def test_enumeration_limit(self):
        # K_29: too wide for a frontier table and past the enumeration cap.
        g = Graph(29, tuple(itertools.combinations(range(29), 2)))
        with pytest.raises(ResourceLimitError) as err:
            build_histogram(g, ObjectiveKind.MAXCUT)
        table_cap, vertex_cap = LIMITS["frontier"][0], LIMITS["enumeration"][0]
        assert f"frontier table of {table_cap} " in str(err.value)
        assert f"enumeration of {vertex_cap} vertices (got 29)" in str(err.value)

    def test_histogram_vertex_limit(self):
        # With the all-zeros assignment, 63 vertices give 2^63 assignments: past int64.
        assert LIMITS["histogram"] == (62, "vertices")
        assert build_histogram(make_line(62), ObjectiveKind.MAXCUT).support == 2**62 - 1
        with pytest.raises(ResourceLimitError, match="capped at 62 vertices"):
            build_histogram(make_line(63), ObjectiveKind.MAXCUT)

    def test_weights_sum_to_one(self, benchmark_histograms):
        for h in benchmark_histograms.values():
            assert math.fsum(initial_state(h).weights.tolist()) == pytest.approx(1.0, abs=1e-15)


class TestFrontierRoute:
    """The frontier DP against enumeration and against identities past its cap."""

    @pytest.mark.parametrize("q", [29, 40])
    def test_line_counts_are_binomial(self, q):
        # A cut of a path picks which of its q - 1 edges are cut, times 2 sides.
        h = build_histogram(make_line(q), ObjectiveKind.MAXCUT, include_zero=True)
        assert h.counts.tolist() == [2 * math.comb(q - 1, k) for k in range(q)]

    @pytest.mark.parametrize("spec", ["grid:6x6", "grid:7x8"])
    def test_grid_identities(self, spec):
        g = parse_graph_spec(spec)
        n, n_edges = g.n_vertices, g.edge_count
        cut = build_histogram(g, ObjectiveKind.MAXCUT)
        cover = build_histogram(g, ObjectiveKind.COVERED_EDGES)
        levels = range(n_edges + 1)
        for h in (cut, cover):
            assert h.support == 2**n - 1
            assert h.n_levels == n_edges + 1
        # Each edge is cut by half of all assignments and covered by three quarters.
        assert sum(k * int(c) for k, c in zip(levels, cut.counts)) == n_edges * 2 ** (n - 1)
        assert sum(k * int(c) for k, c in zip(levels, cover.counts)) == 3 * n_edges * 2 ** (n - 2)
        # Complementing an assignment keeps its cut; only level 0 loses its partner.
        assert int(cut.counts[0]) == 1 and all(int(c) % 2 == 0 for c in cut.counts[1:])
        # Without isolated vertices only the all-zeros assignment covers no edge.
        assert int(cover.counts[-1]) > 0 and int(cover.counts[0]) == 0

    def test_sparse_graphs_skip_enumeration(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("enumerated")

        monkeypatch.setattr(encoding, "scored_assignments", refuse)
        for spec in ("line:20", "grid:4x5", "starring:20", "grid:3x7", "grid:4x4"):
            g = parse_graph_spec(spec)
            for kind in ObjectiveKind:
                assert build_histogram(g, kind).support == 2**g.n_vertices - 1

    def test_small_graphs_enumerate(self, monkeypatch):
        # Below about 14 vertices the DP's fixed cost per vertex outweighs enumeration.
        def refuse(*args):
            raise AssertionError("frontier route")

        monkeypatch.setattr(encoding, "_frontier_counts", refuse)
        for spec in ("line:10", "grid:3x3", "starring:12"):
            g = parse_graph_spec(spec)
            assert build_histogram(g, ObjectiveKind.MAXCUT).support == 2**g.n_vertices - 1

    @pytest.mark.parametrize("n", [12, 16])
    def test_complete_graph_enumerates(self, monkeypatch, n):
        # K_12's table fits, but its work is past enumeration's; K_16's table does not fit.
        g = Graph(n, tuple(itertools.combinations(range(n), 2)))
        largest, _, work = encoding._frontier_cost(graphs.frontier_order(g))
        fits = largest <= LIMITS["frontier"][0]
        assert fits == (n == 12)
        assert work > (1 << n) * g.edge_count
        expected = {
            kind: build_histogram(g, kind, include_zero=True).counts for kind in ObjectiveKind
        }

        def refuse(*args):
            raise AssertionError("frontier route")

        monkeypatch.setattr(encoding, "_frontier_counts", refuse)
        for kind in ObjectiveKind:
            h = build_histogram(g, kind, include_zero=True)
            assert np.array_equal(h.counts, expected[kind])
        # An assignment of K_n with k ones cuts k(n - k) edges.
        binomial = np.zeros(g.edge_count + 1, dtype=np.int64)
        for k in range(n + 1):
            binomial[k * (n - k)] += math.comb(n, k)
        assert np.array_equal(expected[ObjectiveKind.MAXCUT], binomial)

    def test_sampling_keeps_every_table_within_the_cap(self):
        # grid:8x30's tables fit one at a time, but not all together.
        for spec, stored in (("grid:4x5", 7282), ("line:20", 838), ("grid:7x8", 434850)):
            g = parse_graph_spec(spec)
            assert encoding._frontier_cost(graphs.frontier_order(g))[1] == stored
            assert encoding.frontier_route(g, keep_tables=True) == graphs.frontier_order(g)
        g = parse_graph_spec("grid:8x30")
        largest, stored, _ = encoding._frontier_cost(graphs.frontier_order(g))
        assert largest <= LIMITS["frontier"][0] < stored
        assert encoding.frontier_route(g) is not None
        assert encoding.frontier_route(g, keep_tables=True) is None

    @pytest.mark.parametrize("spec", ["line:6", "grid:3x4", "starring:9", "grid:2x5"])
    def test_frontier_counts_match_enumeration(self, spec):
        g = parse_graph_spec(spec)
        steps = graphs.frontier_order(g)
        for kind in ObjectiveKind:
            enumerated = np.zeros(g.edge_count + 1, dtype=np.int64)
            for _, vals in graphs.scored_assignments(g, kind, "test"):
                enumerated += np.bincount(vals, minlength=g.edge_count + 1)
            counts = encoding._frontier_counts(steps, kind is ObjectiveKind.MAXCUT)
            assert np.array_equal(counts, enumerated)


class TestHistogramValidation:
    def test_rejects_unsorted_thetas(self):
        with pytest.raises(InvalidParameterError):
            PhaseHistogram(np.array([1.0, 0.5]), np.array([1, 1]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(InvalidParameterError):
            PhaseHistogram(np.array([0.5, 1.0]), np.array([1]))

    def test_rejects_negative_counts(self):
        with pytest.raises(InvalidParameterError):
            PhaseHistogram(np.array([0.5]), np.array([-1]))

    def test_rejects_empty_support(self):
        with pytest.raises(InvalidParameterError):
            PhaseHistogram(np.array([0.5, 1.0]), np.array([0, 0]))

    @pytest.mark.parametrize(
        "counts", [[1.5, 2.7], [1.0, 0.5], [1.0, math.nan], [1.0, math.inf], ["1", "2"]]
    )
    def test_rejects_counts_that_are_not_whole(self, counts):
        with pytest.raises(InvalidParameterError, match="histogram counts must be"):
            PhaseHistogram(np.array([0.5, 1.0]), np.array(counts))

    @pytest.mark.parametrize(
        "counts",
        [[1e20], [2**63], [2**70], [2**62, 2**62]],
        ids=["float", "uint64", "object", "total"],
    )
    def test_counts_past_int64_are_refused_by_name(self, counts):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidParameterError, match="past int64"):
                PhaseHistogram(np.linspace(0.5, 1.0, len(counts)), np.array(counts))

    def test_accepts_whole_float_counts(self):
        h = PhaseHistogram(np.array([0.5, 1.0]), np.array([1.0, 2.0]))
        assert h.counts.dtype == np.int64 and h.counts.tolist() == [1, 2]

    def test_rejects_nan_theta(self):
        with pytest.raises(InvalidParameterError):
            PhaseHistogram(np.array([math.nan]), np.array([1]))

    def test_numerators_need_denominator(self):
        with pytest.raises(InvalidParameterError):
            PhaseHistogram(np.array([0.5]), np.array([1]), numerators=(1,))

    def test_arrays_are_frozen(self):
        h = uniform_histogram(4)
        with pytest.raises(ValueError):
            h.thetas[0] = 0.1
        with pytest.raises(ValueError):
            h.counts[0] = 7


class TestMasses:
    def test_tail_mass_boundaries(self, grid44_histogram):
        h = grid44_histogram
        start = initial_state(h)
        assert h.tail_start(0.0) == 0
        assert tail_probability(start, 0.0) == pytest.approx(1.0, abs=1e-15)
        assert tail_probability(start, math.pi) == pytest.approx(2 / (2**16 - 1))
        # A level exactly at the threshold is included.
        expected = ref_tail_mass(h.thetas, h.counts, math.pi / 2)
        assert tail_probability(start, math.pi / 2) == pytest.approx(expected, abs=1e-15)


def histogram_report(h: PhaseHistogram, fmt: str) -> str:
    """A histogram's report text in one format, as ``hist`` and ``fig2`` write it."""
    return histogram_renders(h, {})[fmt]()


class TestSerialization:
    def test_json_dict_shape(self, grid44_histogram):
        doc = json.loads(histogram_report(grid44_histogram, "json"))
        assert doc["schema"] == SCHEMA_VERSION
        assert doc["denominator"] == 24
        assert doc["support"] == 2**16 - 1
        assert doc["includes_zero"] is False
        assert len(doc["levels"]) == 25
        assert doc["levels"][24] == {
            "k": 24,
            "theta": pytest.approx(math.pi),
            "count": 2,
        }

    def test_json_null_labels_off_grid(self):
        h = histogram_from_phases([0.3, 0.3, 1.1])
        doc = json.loads(histogram_report(h, "json"))
        assert doc["denominator"] is None
        assert [lv["k"] for lv in doc["levels"]] == [None, None]

    def test_csv_layout(self):
        h = uniform_histogram(2)
        lines = histogram_report(h, "csv").splitlines()
        assert lines[0] == "theta,count"
        assert len(lines) == 3
        theta, count = lines[1].split(",")
        assert float(theta) == pytest.approx(math.pi / 2)
        assert count == "1"

    def test_reports_print_the_former_writers(self, grid44_histogram):
        # On a grid, off a grid (null k), with the zero level, and two peaks.
        model = TwoPeakModel.from_gains(0.125, 0.125, 2)
        for h in (
            grid44_histogram,
            histogram_from_phases([0.3, 0.3, 1.1, math.pi]),
            build_histogram(make_line(5), "covered-edges", include_zero=True),
            uniform_histogram(7),
            PhaseHistogram([model.alpha_l, model.alpha_u], [35, 5]),
        ):
            assert histogram_report(h, "json") == ref_json_text(ref_histogram_json_dict(h))
            assert histogram_report(h, "csv") == ref_histogram_csv(h)


class TestUniformHistogram:
    def test_levels_and_counts(self):
        h = uniform_histogram(100)
        assert h.n_levels == 100
        assert h.support == 100
        assert h.numerators == tuple(range(1, 101))
        assert h.denominator == 100
        assert h.thetas[-1] == pytest.approx(math.pi)
        assert h.thetas[0] == pytest.approx(math.pi / 100)
        assert np.all(h.counts == 1)

    def test_rejects_empty(self):
        with pytest.raises(InvalidParameterError, match="needs at least one level"):
            uniform_histogram(0)

    def test_level_cap_is_checked_before_any_level(self, monkeypatch):
        with pytest.raises(ResourceLimitError) as refused:
            uniform_histogram(10**12)
        cap = LIMITS["uniform"][0]
        assert str(refused.value) == f"uniform histograms capped at {cap} levels, got {10**12}"
        monkeypatch.setitem(LIMITS, "uniform", (5, "levels"))
        assert uniform_histogram(5).n_levels == 5
        with pytest.raises(ResourceLimitError, match="uniform histograms capped at 5 levels, got 6"):
            uniform_histogram(6)


class TestHistogramFromPhases:
    def test_groups_duplicates(self):
        h = histogram_from_phases([1.1, 0.3, 0.3, 1.1, 2.0])
        assert h.thetas.tolist() == [0.3, 1.1, 2.0]
        assert h.counts.tolist() == [2, 2, 1]

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidParameterError):
            histogram_from_phases([0.5, 3.5])
        with pytest.raises(InvalidParameterError):
            histogram_from_phases([-0.2])

    def test_rejects_empty(self):
        with pytest.raises(InvalidParameterError):
            histogram_from_phases([])


class TestClassTable:
    """The level map of every assignment, the all-zeros one included."""

    @staticmethod
    def every_rank(table):
        """Each level's ranks from 0 up, level by level, and their members."""
        sizes = table.class_sizes()
        levels = np.repeat(np.arange(table.n_levels), sizes)
        ranks = np.concatenate([np.arange(c) for c in sizes])
        return levels, table.members(levels, ranks)

    def test_consistent_with_histogram(self):
        # The histogram drops the all-zeros assignment unless it includes zero.
        g = parse_graph_spec("grid:3x3")
        table = build_class_table(g, ObjectiveKind.MAXCUT)
        for include_zero in (False, True):
            h = build_histogram(g, ObjectiveKind.MAXCUT, include_zero=include_zero)
            sizes = table.class_sizes()
            sizes[0] -= not include_zero
            assert table.n_levels == h.n_levels
            assert np.array_equal(sizes, h.counts)

    def test_class_of_matches_objective(self):
        g = parse_graph_spec("starring:8")
        table = build_class_table(g, ObjectiveKind.MAXCUT)
        rng = np.random.default_rng(7)
        for x in rng.integers(1, 1 << 8, size=1000):
            assert table.levels[x] == ref_objective("maxcut", 8, g.edges, int(x))

    def test_members_partition_the_support(self):
        _, members = self.every_rank(build_class_table(make_line(6), ObjectiveKind.MAXCUT))
        assert sorted(members.tolist()) == list(range(1 << 6))

    def test_members_score_their_level(self):
        g = make_line(6)
        levels, members = self.every_rank(build_class_table(g, ObjectiveKind.MAXCUT))
        for x, level in zip(members.tolist(), levels.tolist()):
            assert ref_objective("maxcut", 6, g.edges, x) == level

    @pytest.mark.parametrize("kind", ["maxcut", "covered-edges"])
    @pytest.mark.parametrize("include_zero", [False, True])
    def test_members_and_sizes_match_the_oracle(self, kind, include_zero):
        # The sampler skips rank 0 of level 0, the all-zeros assignment, when
        # the histogram leaves it out; the other ranks list the rest in order.
        g = parse_graph_spec("grid:2x3")
        table = build_class_table(g, ObjectiveKind.coerce(kind))
        h = build_histogram(g, ObjectiveKind.coerce(kind), include_zero=include_zero)
        first = 0 if include_zero else 1
        for level in range(table.n_levels):
            expected = [
                x for x in range(first, 1 << 6)
                if ref_objective(kind, 6, g.edges, x) == level
            ]
            skip = int(level == 0 and not include_zero)
            ranks = np.arange(h.counts[level]) + skip
            assert table.members(np.full(ranks.size, level), ranks).tolist() == expected
            assert table.class_sizes()[level] == len(expected) + skip

    def test_levels_span_enumeration_chunks(self, monkeypatch):
        # Small chunks make the shared enumerator hand the table several pieces.
        monkeypatch.setattr(graphs, "_CHUNK", 16)
        g = parse_graph_spec("grid:2x4")
        table = build_class_table(g, ObjectiveKind.COVERED_EDGES)
        assert table.levels.tolist() == [
            ref_objective("covered-edges", 8, g.edges, x) for x in range(1 << 8)
        ]

    def test_table_is_one_read_only_level_per_assignment(self):
        table = build_class_table(make_grid(2, 4), ObjectiveKind.MAXCUT)
        assert table.levels.dtype == np.int32
        assert table.levels.nbytes == 4 * (1 << 8)
        assert not table.levels.flags.writeable
        assert set(vars(table)) == {"levels", "n_levels"}

    def test_all_zeros_outside_support(self):
        # Level 0 holds the two uncut assignments, all-zeros first; the
        # histogram keeps only all-ones, which the sampler reaches at rank 1.
        g = make_line(5)
        table = build_class_table(g, ObjectiveKind.MAXCUT)
        assert table.members(np.array([0, 0]), np.array([0, 1])).tolist() == [0, 0b11111]
        assert int(table.class_sizes().sum()) == 1 << 5
        assert build_histogram(g, ObjectiveKind.MAXCUT).counts[0] == 1

    def test_size_cap(self):
        with pytest.raises(ResourceLimitError, match="class tables capped at 20 vertices"):
            build_class_table(make_line(21), ObjectiveKind.MAXCUT)

    def test_level_out_of_range(self):
        for levels in ([0, 2], [-1, 1]):
            with pytest.raises(InvalidParameterError, match="out of range"):
                ClassTable(np.array(levels), 2)
