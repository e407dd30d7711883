"""Graph constructions, objectives, brute-force optima, and the file format."""

from __future__ import annotations

import numpy as np
import pytest

from phaseamp import (
    Graph,
    InvalidGraphError,
    InvalidParameterError,
    InvalidSizeError,
    ObjectiveKind,
    ResourceLimitError,
    brute_force_optima,
    covered_edges,
    cut_value,
    format_graph_file,
    make_grid,
    make_line,
    make_star_ring,
    objective_value,
    objective_values,
    parse_graph_spec,
    read_graph_file,
    write_graph_file,
)
from phaseamp.graphs import scored_assignments

from .oracles import ref_objective, ref_optima


class TestConstructors:
    def test_line_counts(self):
        g = make_line(10)
        assert g.n_vertices == 10
        assert g.edge_count == 9
        assert (0, 1) in g.edges and (8, 9) in g.edges

    def test_line_too_small(self):
        with pytest.raises(InvalidSizeError):
            make_line(1)

    @pytest.mark.parametrize("rows,cols,edges", [(3, 3, 12), (4, 4, 24), (1, 5, 4), (2, 2, 4)])
    def test_grid_edge_count(self, rows, cols, edges):
        g = make_grid(rows, cols)
        assert g.n_vertices == rows * cols
        assert g.edge_count == edges

    def test_grid_row_major_neighbors(self):
        g = make_grid(3, 4)
        assert (0, 1) in g.edges  # right neighbor
        assert (0, 4) in g.edges  # down neighbor
        assert (3, 7) in g.edges  # row end still has a down neighbor
        assert (3, 4) not in g.edges  # no wraparound between rows

    def test_grid_too_small(self):
        with pytest.raises(InvalidSizeError):
            make_grid(1, 1)

    def test_star_ring_structure(self):
        g = make_star_ring(16)
        assert g.n_vertices == 16
        assert g.edge_count == 30  # 15 spokes + 15 ring edges
        assert all((0, i) in g.edges for i in range(1, 16))
        assert (1, 15) in g.edges  # ring wraparound

    def test_star_ring_too_small(self):
        with pytest.raises(InvalidSizeError):
            make_star_ring(3)


class TestGraphValidation:
    def test_edges_canonicalized(self):
        g = Graph(3, ((2, 0), (1, 0)))
        assert g.edges == ((0, 1), (0, 2))

    def test_rejects_self_loop(self):
        with pytest.raises(InvalidGraphError):
            Graph(3, ((1, 1),))

    def test_rejects_duplicate_either_orientation(self):
        with pytest.raises(InvalidGraphError):
            Graph(3, ((0, 1), (1, 0)))

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidGraphError):
            Graph(3, ((0, 3),))

    def test_rejects_empty_vertex_set(self):
        with pytest.raises(InvalidGraphError):
            Graph(0, ())


class TestObjectives:
    @pytest.mark.parametrize("kind", ["maxcut", "covered-edges"])
    @pytest.mark.parametrize("spec", ["line:5", "grid:3x3", "starring:6"])
    def test_matches_bitstring_oracle(self, kind, spec):
        g = parse_graph_spec(spec)
        objective = ObjectiveKind.parse(kind)
        for x in range(1 << g.n_vertices):
            assert objective_value(g, objective, x) == ref_objective(
                kind, g.n_vertices, g.edges, x
            )

    def test_cut_value_examples(self):
        g = make_line(4)
        assert cut_value(g, 0b0101) == 3
        assert cut_value(g, 0b0000) == 0
        assert cut_value(g, 0b1111) == 0
        assert cut_value(g, 0b0001) == 1

    def test_covered_edges_examples(self):
        g = make_line(4)
        assert covered_edges(g, 0b0000) == 0
        assert covered_edges(g, 0b0010) == 2
        assert covered_edges(g, 0b1001) == 2
        assert covered_edges(g, 0b1111) == 3

    def test_assignment_out_of_range(self):
        g = make_line(3)
        with pytest.raises(InvalidParameterError):
            cut_value(g, 1 << 3)
        with pytest.raises(InvalidParameterError):
            covered_edges(g, -1)

    def test_vectorized_matches_scalar(self):
        g = make_star_ring(7)
        xs = np.arange(1 << 7, dtype=np.uint32)
        for objective in ObjectiveKind:
            vals = objective_values(g, objective, xs)
            assert vals.tolist() == [
                objective_value(g, objective, int(x)) for x in xs
            ]


class TestBruteForce:
    def test_line4_maxcut(self):
        best, maximizers = brute_force_optima(make_line(4), ObjectiveKind.MAXCUT)
        assert best == 3
        assert sorted(maximizers) == [0b0101, 0b1010]

    @pytest.mark.parametrize("kind", ["maxcut", "covered-edges"])
    @pytest.mark.parametrize("spec", ["line:6", "grid:2x3", "starring:5"])
    def test_matches_reference_scan(self, kind, spec):
        g = parse_graph_spec(spec)
        best, maximizers = brute_force_optima(g, ObjectiveKind.parse(kind))
        ref_best, ref_argmax = ref_optima(kind, g.n_vertices, g.edges)
        assert best == ref_best
        assert sorted(maximizers) == ref_argmax

    def test_grid44_two_complementary_maximizers(self):
        g = make_grid(4, 4)
        best, maximizers = brute_force_optima(g, ObjectiveKind.MAXCUT)
        assert best == 24
        assert len(maximizers) == 2
        a, b = sorted(maximizers)
        assert a ^ b == (1 << 16) - 1

    def test_star_ring16_optimum(self):
        best, maximizers = brute_force_optima(make_star_ring(16), ObjectiveKind.MAXCUT)
        assert best == 22
        assert len(maximizers) == 30

    def test_covered_edges_full_set_wins(self):
        g = make_grid(3, 3)
        best, maximizers = brute_force_optima(g, ObjectiveKind.COVERED_EDGES)
        assert best == g.edge_count
        assert (1 << 9) - 1 in maximizers

    def test_enumeration_limit(self):
        g = Graph(29, tuple((i, i + 1) for i in range(28)))
        with pytest.raises(ResourceLimitError):
            brute_force_optima(g, ObjectiveKind.MAXCUT)


class TestScoredAssignments:
    def test_covers_every_assignment_once(self):
        g = make_grid(2, 3)
        chunks = list(scored_assignments(g, ObjectiveKind.MAXCUT, "test scan"))
        xs = np.concatenate([xs for xs, _ in chunks])
        vals = np.concatenate([vals for _, vals in chunks])
        assert xs.tolist() == list(range(1 << 6))
        assert vals.tolist() == [
            ref_objective("maxcut", 6, g.edges, x) for x in range(1 << 6)
        ]

    def test_cap_is_checked_at_the_call(self):
        g = Graph(29, tuple((i, i + 1) for i in range(28)))
        with pytest.raises(ResourceLimitError, match="test scan capped at 28 vertices"):
            scored_assignments(g, ObjectiveKind.MAXCUT, "test scan")


class TestObjectiveKind:
    def test_parse_variants(self):
        assert ObjectiveKind.parse("MaxCut") is ObjectiveKind.MAXCUT
        assert ObjectiveKind.parse("max-cut") is ObjectiveKind.MAXCUT
        assert ObjectiveKind.parse("covered_edges") is ObjectiveKind.COVERED_EDGES
        assert ObjectiveKind.parse("cover") is ObjectiveKind.COVERED_EDGES

    def test_parse_unknown(self):
        with pytest.raises(InvalidParameterError):
            ObjectiveKind.parse("min-cut")

    def test_scoring_accepts_string_spellings(self):
        g = make_line(4)
        assert objective_value(g, "maxcut", 0b0101) == cut_value(g, 0b0101)
        assert objective_value(g, "cover", 0b0001) == covered_edges(g, 0b0001)
        xs = np.arange(16)
        assert np.array_equal(
            objective_values(g, "maxcut", xs),
            objective_values(g, ObjectiveKind.MAXCUT, xs),
        )

    def test_scoring_rejects_unknown_objectives(self):
        g = make_line(4)
        with pytest.raises(InvalidParameterError):
            objective_value(g, "min-cut", 0b0101)
        with pytest.raises(InvalidParameterError):
            objective_values(g, None, np.arange(4))


class TestFileFormat:
    def test_format_header_and_sorted_edges(self):
        g = Graph(3, ((1, 2), (0, 1)))
        assert format_graph_file(g) == "graph 3 2\n0 1\n1 2\n"

    def test_round_trip(self, tmp_path):
        g = make_star_ring(9)
        path = tmp_path / "ring.graph"
        write_graph_file(g, path)
        assert read_graph_file(path) == g

    def test_parse_spec_shorthands(self):
        assert parse_graph_spec("line:10") == make_line(10)
        assert parse_graph_spec("grid:4x4") == make_grid(4, 4)
        assert parse_graph_spec("starring:16") == make_star_ring(16)

    def test_parse_spec_reads_files(self, tmp_path):
        path = tmp_path / "g.graph"
        write_graph_file(make_grid(2, 3), path)
        assert parse_graph_spec(str(path)) == make_grid(2, 3)

    def test_parse_spec_rejects_garbage(self):
        with pytest.raises(InvalidParameterError):
            parse_graph_spec("torus:4x4")
        with pytest.raises(InvalidParameterError):
            parse_graph_spec("grid:4")
        with pytest.raises(InvalidParameterError):
            parse_graph_spec("line:x")

    def test_parse_spec_keeps_size_errors(self):
        with pytest.raises(InvalidSizeError):
            parse_graph_spec("line:1")

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "3 2\n0 1\n1 2\n",
            "graph 3\n0 1\n",
            "graph 3 2\n0 1\n",
            "graph 3 1\n0 1\n1 2\n",
            "graph 3 1\n0 1 2\n",
            "graph 3 1\na b\n",
        ],
    )
    def test_malformed_files(self, tmp_path, text):
        path = tmp_path / "bad.graph"
        path.write_text(text)
        with pytest.raises(InvalidGraphError):
            read_graph_file(path)
