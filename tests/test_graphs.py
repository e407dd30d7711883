"""Graph constructions, objectives, brute-force optima, and the file format."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from phaseamp import graphs
from phaseamp.errors import LIMITS, InvalidParameterError, ResourceLimitError
from phaseamp.graphs import (
    Graph,
    ObjectiveKind,
    brute_force_optima,
    format_graph_file,
    frontier_order,
    make_grid,
    make_line,
    make_star_ring,
    objective_values,
    parse_graph_spec,
    read_graph_file,
    scored_assignments,
)

from .oracles import ref_objective, ref_optima


class TestConstructors:
    def test_line_counts(self):
        g = make_line(10)
        assert g.n_vertices == 10
        assert g.edge_count == 9
        assert (0, 1) in g.edges and (8, 9) in g.edges

    def test_line_too_small(self):
        with pytest.raises(InvalidParameterError, match="line graph needs at least 2 vertices"):
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
        with pytest.raises(InvalidParameterError, match="grid needs at least two vertices"):
            make_grid(1, 1)

    def test_star_ring_structure(self):
        g = make_star_ring(16)
        assert g.n_vertices == 16
        assert g.edge_count == 30  # 15 spokes + 15 ring edges
        assert all((0, i) in g.edges for i in range(1, 16))
        assert (1, 15) in g.edges  # ring wraparound

    def test_star_ring_too_small(self):
        with pytest.raises(InvalidParameterError, match="star-ring needs at least 4 vertices"):
            make_star_ring(3)

    @pytest.mark.parametrize(
        "build,args,vertices",
        [
            (make_line, (100_000_000,), 100_000_000),
            (make_grid, (100_000, 100_000), 10_000_000_000),
            (make_star_ring, (100_000_000,), 100_000_000),
        ],
        ids=["line", "grid", "starring"],
    )
    def test_past_the_vertex_cap_is_refused_before_any_edge(self, build, args, vertices):
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError) as refused:
                build(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16
        assert str(refused.value) == (
            f"graph builders capped at {LIMITS['builder'][0]} vertices, got {vertices}"
        )

    def test_vertex_cap_is_inclusive_and_counts_grid_cells(self, monkeypatch):
        monkeypatch.setitem(LIMITS, "builder", (12, "vertices"))
        assert make_line(12).n_vertices == make_star_ring(12).n_vertices == 12
        assert make_grid(3, 4).n_vertices == 12
        for build, args in ((make_line, (13,)), (make_grid, (2, 7)), (make_star_ring, (13,))):
            with pytest.raises(ResourceLimitError, match="capped at 12 vertices, got 1[34]"):
                build(*args)


class TestGraphValidation:
    def test_edges_canonicalized(self):
        g = Graph(3, ((2, 0), (1, 0)))
        assert g.edges == ((0, 1), (0, 2))

    def test_rejects_self_loop(self):
        with pytest.raises(InvalidParameterError, match="self-loop at vertex 1"):
            Graph(3, ((1, 1),))

    def test_rejects_duplicate_either_orientation(self):
        with pytest.raises(InvalidParameterError, match=r"duplicate edge \(0, 1\)"):
            Graph(3, ((0, 1), (1, 0)))

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidParameterError, match=r"edge \(0, 3\) out of range"):
            Graph(3, ((0, 3),))

    def test_rejects_empty_vertex_set(self):
        with pytest.raises(InvalidParameterError, match="needs at least one vertex"):
            Graph(0, ())


class TestObjectives:
    @pytest.mark.parametrize("kind", ["maxcut", "covered-edges"])
    @pytest.mark.parametrize("spec", ["line:5", "grid:3x3", "starring:6"])
    def test_matches_bitstring_oracle(self, kind, spec):
        g = parse_graph_spec(spec)
        objective = ObjectiveKind.coerce(kind)
        xs = np.arange(1 << g.n_vertices)
        assert objective_values(g, objective, xs).tolist() == [
            ref_objective(kind, g.n_vertices, g.edges, int(x)) for x in xs
        ]

    def test_cut_value_examples(self):
        g = make_line(4)
        xs = [0b0101, 0b0000, 0b1111, 0b0001]
        assert objective_values(g, ObjectiveKind.MAXCUT, xs).tolist() == [3, 0, 0, 1]

    def test_covered_edges_examples(self):
        g = make_line(4)
        xs = [0b0000, 0b0010, 0b1001, 0b1111]
        assert objective_values(g, ObjectiveKind.COVERED_EDGES, xs).tolist() == [0, 2, 2, 3]

    def test_assignment_out_of_range(self):
        g = make_line(4)
        for bad in (16, -1):
            for xs in ([bad], [1, bad, 3], np.array([1, bad, 3])):
                with pytest.raises(InvalidParameterError, match=r"\[0, 2\^4\)"):
                    objective_values(g, ObjectiveKind.MAXCUT, xs)

    def test_non_integer_assignments(self):
        g = make_line(4)
        for xs in ([1.5, 2.9], np.array([1.0, np.nan]), np.array(["1"]), [1, 2.5]):
            with pytest.raises(InvalidParameterError, match="must be integers"):
                objective_values(g, ObjectiveKind.MAXCUT, xs)
        # Whole floats and the empty input (a float array) still score.
        assert objective_values(g, ObjectiveKind.MAXCUT, [5.0, 1.0]).tolist() == [3, 1]
        assert objective_values(g, ObjectiveKind.MAXCUT, []).tolist() == []

    def test_vectorized_matches_scalar(self):
        # Any shape and order of assignments scores like the per-assignment oracle.
        g = make_star_ring(7)
        xs = np.random.default_rng(5).permutation(1 << 7).reshape(8, 16)
        for objective in ObjectiveKind:
            vals = objective_values(g, objective, xs)
            assert vals.shape == xs.shape
            assert vals.ravel().tolist() == [
                ref_objective(objective.value, 7, g.edges, int(x)) for x in xs.ravel()
            ]


class TestBruteForce:
    def test_line4_maxcut(self):
        best, count, maximizers = brute_force_optima(make_line(4), ObjectiveKind.MAXCUT)
        assert best == 3 and count == 2
        assert maximizers == [0b0101, 0b1010]

    @pytest.mark.parametrize("kind", ["maxcut", "covered-edges"])
    @pytest.mark.parametrize("spec", ["line:6", "grid:2x3", "starring:5"])
    def test_matches_reference_scan(self, kind, spec, monkeypatch):
        g = parse_graph_spec(spec)
        ref_best, ref_argmax = ref_optima(kind, g.n_vertices, g.edges)
        expected = (ref_best, len(ref_argmax), ref_argmax[:64])
        assert brute_force_optima(g, ObjectiveKind.coerce(kind)) == expected
        monkeypatch.setattr(graphs, "_CHUNK", 4)  # many chunks: a later one can raise the best
        assert brute_force_optima(g, ObjectiveKind.coerce(kind)) == expected

    def test_grid44_two_complementary_maximizers(self):
        g = make_grid(4, 4)
        best, count, maximizers = brute_force_optima(g, ObjectiveKind.MAXCUT)
        assert best == 24
        assert count == 2
        a, b = maximizers
        assert a ^ b == (1 << 16) - 1

    def test_star_ring16_optimum(self):
        best, count, maximizers = brute_force_optima(make_star_ring(16), ObjectiveKind.MAXCUT)
        assert best == 22
        assert count == len(maximizers) == 30

    def test_covered_edges_full_set_wins(self):
        g = make_grid(3, 3)
        best, _, maximizers = brute_force_optima(g, ObjectiveKind.COVERED_EDGES)
        assert best == g.edge_count
        assert (1 << 9) - 1 in maximizers

    @pytest.mark.parametrize("kind", ["maxcut", "covered-edges"])
    def test_memory_stays_within_a_chunk_however_many_maximizers(self, kind, monkeypatch):
        # One edge on 20 vertices: half (maxcut) or three quarters of 2^20 maximize.
        monkeypatch.setattr(graphs, "_CHUNK", 1 << 12)
        g = Graph(20, ((0, 1),))
        tracemalloc.start()
        try:
            best, count, maximizers = brute_force_optima(g, ObjectiveKind.coerce(kind))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        ref_best, ref_argmax = ref_optima(kind, g.n_vertices, g.edges)
        assert (best, count, maximizers) == (ref_best, len(ref_argmax), ref_argmax[:64])

    def test_enumeration_limit(self):
        g = Graph(29, tuple((i, i + 1) for i in range(28)))
        with pytest.raises(ResourceLimitError):
            brute_force_optima(g, ObjectiveKind.MAXCUT)


class TestFrontierOrder:
    def test_path_is_placed_from_its_first_vertex(self):
        order = frontier_order(make_line(5))
        assert order == [
            (0, (), (0,)), (1, (0,), (1,)), (2, (1,), (2,)), (3, (2,), (3,)), (4, (3,), ()),
        ]

    @pytest.mark.parametrize("spec", ["grid:3x4", "starring:7", "line:2"])
    def test_steps_follow_the_definition(self, spec):
        g = parse_graph_spec(spec)
        order = frontier_order(g)
        assert sorted(v for v, _, _ in order) == list(range(g.n_vertices))
        placed: list[int] = []
        for v, joined, frontier in order:
            assert list(joined) == [u for u in placed if (min(u, v), max(u, v)) in g.edges]
            placed.append(v)
            open_ = [
                u for u in placed
                if any(w not in placed for e in g.edges if u in e for w in e if w != u)
            ]
            assert list(frontier) == open_

    def test_isolated_vertices_go_first(self):
        # An isolated vertex never joins the frontier, so it beats vertex 1.
        g = Graph(4, ((1, 2),))
        assert frontier_order(g) == [(0, (), ()), (3, (), ()), (1, (), (1,)), (2, (1,), ())]


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
        assert ObjectiveKind.coerce("MaxCut") is ObjectiveKind.MAXCUT
        assert ObjectiveKind.coerce("max-cut") is ObjectiveKind.MAXCUT
        assert ObjectiveKind.coerce(" covered_edges ") is ObjectiveKind.COVERED_EDGES
        assert ObjectiveKind.coerce("cover") is ObjectiveKind.COVERED_EDGES
        assert ObjectiveKind.coerce(ObjectiveKind.MAXCUT) is ObjectiveKind.MAXCUT

    def test_parse_unknown(self):
        for value in ("min-cut", None, 1):
            with pytest.raises(InvalidParameterError):
                ObjectiveKind.coerce(value)

    def test_scoring_accepts_string_spellings(self):
        g = make_line(4)
        xs = np.arange(16)
        for text, objective in (
            ("maxcut", ObjectiveKind.MAXCUT),
            ("cover", ObjectiveKind.COVERED_EDGES),
        ):
            assert np.array_equal(
                objective_values(g, text, xs), objective_values(g, objective, xs)
            )

    def test_scoring_rejects_unknown_objectives(self):
        g = make_line(4)
        with pytest.raises(InvalidParameterError):
            objective_values(g, "min-cut", [0b0101])
        with pytest.raises(InvalidParameterError):
            objective_values(g, None, np.arange(4))


class TestFileFormat:
    def test_format_header_and_sorted_edges(self):
        g = Graph(3, ((1, 2), (0, 1)))
        assert format_graph_file(g) == "graph 3 2\n0 1\n1 2\n"

    def test_round_trip(self, tmp_path):
        g = make_star_ring(9)
        path = tmp_path / "ring.graph"
        path.write_text(format_graph_file(g))
        assert read_graph_file(path) == g

    def test_parse_spec_shorthands(self):
        assert parse_graph_spec("line:10") == make_line(10)
        assert parse_graph_spec("grid:4x4") == make_grid(4, 4)
        assert parse_graph_spec("starring:16") == make_star_ring(16)

    def test_parse_spec_reads_files(self, tmp_path):
        path = tmp_path / "g.graph"
        path.write_text(format_graph_file(make_grid(2, 3)))
        assert parse_graph_spec(str(path)) == make_grid(2, 3)

    def test_parse_spec_rejects_garbage(self):
        with pytest.raises(InvalidParameterError):
            parse_graph_spec("torus:4x4")
        with pytest.raises(InvalidParameterError):
            parse_graph_spec("grid:4")
        with pytest.raises(InvalidParameterError):
            parse_graph_spec("line:x")

    def test_parse_spec_keeps_size_errors(self):
        with pytest.raises(InvalidParameterError, match="line graph needs at least 2 vertices"):
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
        with pytest.raises(InvalidParameterError, match="graph file must start|malformed|declares"):
            read_graph_file(path)
