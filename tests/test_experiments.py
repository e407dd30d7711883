"""Experiment regeneration: trajectories, distributions, tables, charts, files."""

from __future__ import annotations

import csv
import enum
import io
import json
import math
import re
import tracemalloc
import warnings
import xml.etree.ElementTree as ET
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from phaseamp.amplifier import MeasurementSequence, fold, run_sequence
from phaseamp.encoding import build_histogram, histogram_from_phases, uniform_histogram
from phaseamp.errors import ImpossibleOutcomeError, InvalidParameterError, ResourceLimitError
from phaseamp.experiments import (
    ExperimentConfig,
    Series,
    Table,
    build_reports,
    csv_text,
    emit_svg,
    json_text,
    run_experiment,
    slug,
    success_trajectory,
    write_files,
)
from phaseamp.graphs import ObjectiveKind, make_line, parse_graph_spec
from phaseamp.meta import SCHEMA_VERSION

from .oracles import (
    ref_amplified_csv,
    ref_amplified_json_dict,
    ref_csv_text,
    ref_dict_rows,
    ref_grid_table_csv,
    ref_histogram_csv,
    ref_histogram_json_dict,
    ref_json_text,
    ref_records,
    ref_trajectory_csv,
)


def reports_of(experiment: str, *graph_specs: str, **settings):
    """The reports of one experiment, built from its config."""
    config = ExperimentConfig(experiment, graph_specs or None, **settings)
    return build_reports(config)[experiment]


def files_of(out_dir, experiment: str, *graph_specs: str, **settings) -> dict[str, str]:
    """The text of each CSV and JSON file one experiment writes, by file name."""
    config = ExperimentConfig(
        experiment, graph_specs or None, out_dir=str(out_dir), formats=("csv", "json"), **settings
    )
    return {p.name: p.read_text() for p in run_experiment(config)}


class TestSuccessTrajectory:
    def test_row_zero_is_the_initial_state(self, grid44_histogram):
        h = grid44_histogram
        report = success_trajectory(h, 3, label="grid:4x4", n_vertices=16)
        w0 = h.counts / h.support
        assert report.p_individual[0] == 1.0
        assert report.p_sequence[0] == 1.0
        assert report.p_optimal_conditional[0] == w0[24] == 2 / (2**16 - 1)
        assert report.tail_ge_half_pi[0] == w0[h.tail_start(math.pi / 2) :].sum()
        assert report.tail_ge_three_quarter_pi[0] == w0[h.tail_start(3 * math.pi / 4) :].sum()
        assert len(report.records) == 4
        assert report.optimal_level == 24
        assert report.support == 2**16 - 1
        assert report.n_edges == 24

    def test_rows_match_fold(self, grid44_histogram):
        report = success_trajectory(grid44_histogram, 10)
        state, p = run_sequence(grid44_histogram, MeasurementSequence.successes(10))
        assert len(report.records) == 11
        assert report.p_sequence[-1] == pytest.approx(p, rel=1e-12)
        assert report.p_optimal_conditional[-1] == pytest.approx(
            float(state.weights[24]), rel=1e-12
        )

    def test_sequence_probability_is_the_running_product(self, benchmark_histograms):
        for h in benchmark_histograms.values():
            report = success_trajectory(h, 8)
            product = 1.0
            for p_individual, p_sequence in zip(report.p_individual[1:], report.p_sequence[1:]):
                product *= p_individual
                assert p_sequence == pytest.approx(product, rel=1e-9)

    def test_tails_are_recorded(self, grid44_histogram):
        report = success_trajectory(grid44_histogram, 2)
        state, _ = run_sequence(grid44_histogram, MeasurementSequence.successes(2))
        mask = grid44_histogram.thetas >= math.pi / 2 - 1e-12
        assert report.tail_ge_half_pi[2] == pytest.approx(
            float(state.weights[mask].sum())
        )

    def test_csv_layout(self, tmp_path):
        text = files_of(tmp_path, "custom", "grid:4x4", m_max=2)["custom_grid_4x4.csv"]
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["m", "p_individual", "P_sequence", "p_optimal_conditional"]
        assert len(rows) == 4
        assert rows[1][0] == "0"
        assert float(rows[1][3]) == pytest.approx(2 / (2**16 - 1))

    def test_json_layout(self, grid44_histogram):
        report = success_trajectory(
            grid44_histogram, 1, label="grid:4x4", n_vertices=16
        )
        doc = json.loads(json_text(report.to_json_dict()))
        assert doc["schema"] == SCHEMA_VERSION
        assert doc["graph"] == "grid:4x4"
        assert doc["objective"] == "maxcut"
        assert doc["n_vertices"] == 16
        assert doc["optimal_level"] == 24
        record = doc["records"][1]
        assert set(record) == {
            "m",
            "p_individual",
            "P_sequence",
            "p_optimal_conditional",
            "tail",
        }
        assert set(record["tail"]) == {"ge_half_pi", "ge_three_quarter_pi"}
        assert record["m"] == 1 and record["p_individual"] == report.p_individual[1]

    def test_rejects_negative_range(self, grid44_histogram):
        with pytest.raises(InvalidParameterError, match="^iteration range must be nonnegative$"):
            success_trajectory(grid44_histogram, -1)


# Histograms for the exact reference: the benchmark shapes, and one whose level 0
# (angle 0, where outcome 1 has probability 0) holds the all-zeros and all-ones
# assignments.
EXACT_CASES = (
    ("grid:3x3", False),
    ("starring:12", False),
    ("line:14", False),
    ("grid:4x4", False),
    ("grid:3x3", True),
)


class TestClosedFormTrajectory:
    """The trajectory's rows against exact sums, and its edge cases."""

    @pytest.mark.parametrize("spec, include_zero", EXACT_CASES)
    def test_rows_are_the_exact_sums(self, spec, include_zero):
        # P_m = sum_k g_k a_k^m / N in exact rationals, from the same float a_k.
        # The closed form rounds log P_m once to about an ulp of |log P_m|, so
        # P_sequence is held to (|log P_m| + 1) ulps of 1 (0.56 of that seen).
        # The ratios are held to 8 (|log P_m| + 1) ulps (2.5 of that seen).
        h = build_histogram(parse_graph_spec(spec), ObjectiveKind.MAXCUT, include_zero)
        m_max = 1800
        report = success_trajectory(h, m_max)
        a = [Fraction(float(x)) for x in h.branch_factors[1]]
        g = [int(c) for c in h.counts]
        half, three_quarters = h.tail_start(math.pi / 2), h.tail_start(3 * math.pi / 4)
        top = max(k for k in range(len(g)) if g[k])

        def moment(m):
            return [g_k * a_k**m for g_k, a_k in zip(g, a)]

        for m in (0, 1, 2, m_max // 2, m_max):
            terms = moment(m)
            total = sum(terms)
            exact = {
                "p_sequence": total / h.support,
                "p_optimal_conditional": terms[top] / total,
                "tail_ge_half_pi": sum(terms[half:]) / total,
                "tail_ge_three_quarter_pi": sum(terms[three_quarters:]) / total,
                "p_individual": total / sum(moment(m - 1)) if m else Fraction(1),
            }
            ulps = (abs(math.log(exact["p_sequence"])) + 1) * Fraction(2) ** -52
            for name, value in exact.items():
                ours = Fraction(getattr(report, name)[m])
                bound = ulps if name == "p_sequence" else 8 * ulps
                assert abs(ours - value) <= bound * value, (spec, name, m, float(value))
        # Row 0 is the initial state: its probabilities and weights are exact.
        assert report.p_sequence[0] == report.p_individual[0] == 1.0
        assert report.p_optimal_conditional[0] == g[top] / h.support

    def test_level_zero_holds_nothing_after_a_success_and_warns_nothing(self):
        # Level 0 holds the all-zeros and the all-ones assignment, each of cut 0.
        h = build_histogram(parse_graph_spec("grid:3x3"), ObjectiveKind.MAXCUT, True)
        assert h.counts[0] == 2 and h.branch_factors[1][0] == 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for m in (0, 1, 2, 50):
                weights = success_trajectory(h, m).weights
                assert weights[0] == (2 / h.support if m == 0 else 0.0)
                assert np.all(weights[1:][h.counts[1:] > 0] > 0)

    def test_an_impossible_record_raises_the_folds_error(self):
        # Every assignment sits at angle 0, where outcome 1 has probability 0.
        h = histogram_from_phases([0.0, 0.0])
        with pytest.raises(ImpossibleOutcomeError) as folded:
            fold(h, (1,))
        for m_max in (1, 2, 5000):
            with pytest.raises(ImpossibleOutcomeError, match=f"^{re.escape(str(folded.value))}$"):
                success_trajectory(h, m_max)
        report = success_trajectory(h, 0)
        assert report.p_sequence == (1.0,) and report.p_optimal_conditional == (1.0,)

    def test_row_blocks_bound_memory(self):
        # 200 levels and 100001 rows: a whole matrix of rows would take 160 MB.
        # The rows kept, five columns of Python floats at 32 B a value, take 16 MB.
        h = uniform_histogram(200)
        tracemalloc.start()
        try:
            report = success_trajectory(h, 100_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(report.records) == 100_001
        assert peak < 40e6


class TestFigureFamilies:
    def test_fig1a_covers_the_line_sizes(self):
        reports = reports_of("fig1a", m_max=5)
        assert set(reports) == {"line:6", "line:8", "line:10", "line:12"}
        for spec, report in reports.items():
            assert report.label == spec
            assert len(report.records) == 6

    def test_fig1a_smaller_lines_amplify_faster(self):
        reports = reports_of("fig1a", m_max=60)
        finals = [
            reports[spec].p_optimal_conditional[-1]
            for spec in ("line:6", "line:8", "line:10", "line:12")
        ]
        assert finals == sorted(finals, reverse=True)

    def test_fig1bc_rejects_off_benchmark_graphs(self):
        for experiment in ("fig1b", "fig1c"):
            with pytest.raises(InvalidParameterError, match=experiment):
                reports_of(experiment, "line:7", m_max=5)

    def test_fig1bc_defaults(self):
        reports = reports_of("fig1b", m_max=3)
        assert set(reports) == {"line:10", "grid:3x3", "grid:4x4", "starring:16"}

    def test_fig1b_and_fig1c_share_their_reports(self):
        reports = build_reports(ExperimentConfig("all", m_max=3))
        assert list(reports) == ["fig1a", "fig1b", "fig1c", "fig2", "fig3", "grid-table"]
        assert reports["fig1b"] == reports["fig1c"]
        for spec, report in reports["fig1b"].items():
            assert reports["fig1c"][spec] is report
        assert reports["fig1a"]["line:10"] is reports["fig1b"]["line:10"]

    def test_trajectory_graphs_are_size_capped(self):
        # Trajectories take the histogram's caps: line:40 is past enumeration,
        # not past the frontier DP; line:63 is past the histogram vertex cap.
        assert len(reports_of("fig1a", "line:40", m_max=5)["line:40"].records) == 6
        with pytest.raises(ResourceLimitError, match="capped at 62 vertices"):
            reports_of("fig1a", "line:63", m_max=5)

    def test_fig2_histograms_match_builder(self, benchmark_graphs):
        out = reports_of("fig2")
        assert set(out) == {"line:12", "grid:4x4", "starring:16"}
        direct = build_histogram(benchmark_graphs["grid:4x4"], ObjectiveKind.MAXCUT)
        assert np.array_equal(out["grid:4x4"].counts, direct.counts)

    def test_fig2_rejects_off_benchmark_graphs(self):
        with pytest.raises(InvalidParameterError, match="fig2"):
            reports_of("fig2", "line:10")


class TestFig3:
    def test_amplified_mode_moves_up(self):
        dist = reports_of("fig3", "grid:4x4", successes=10)
        assert dist.m == 10
        assert dist.scale == 2**16 - 1
        assert dist.mode_theta > 2.0

    def test_zero_successes_reproduces_the_counts(self, grid44_histogram):
        dist = reports_of("fig3", "grid:4x4", successes=0)
        assert np.array_equal(dist.scaled_weights, grid44_histogram.counts)
        assert dist.mode_theta == pytest.approx(math.pi / 2)

    def test_scaled_weights_keep_total_mass(self, grid44_histogram):
        dist = reports_of("fig3", "grid:4x4", successes=7)
        assert float(dist.scaled_weights.sum()) == pytest.approx(
            grid44_histogram.support, rel=1e-12
        )

    def test_weights_are_the_fold_after_m_successes(self, grid44_histogram):
        # The weights come from the closed form; the fold's agree to 1e-12
        # relative (7e-15 seen here), and the empty levels are 0 on both.
        dist = reports_of("fig3", successes=7)
        state, _ = run_sequence(grid44_histogram, MeasurementSequence.successes(7))
        folded = grid44_histogram.support * state.weights
        np.testing.assert_allclose(dist.scaled_weights, folded, rtol=1e-12, atol=0)
        assert np.array_equal(dist.scaled_weights == 0, folded == 0)

    def test_csv_and_json(self, tmp_path):
        files = files_of(tmp_path, "fig3", "grid:4x4", successes=1)
        lines = files["fig3.csv"].splitlines()
        assert lines[0] == "theta,scaled_weight"
        assert len(lines) == 26
        doc = json.loads(files["fig3.json"])
        assert doc["successes"] == 1
        assert doc["scale"] == 2**16 - 1
        assert len(doc["levels"]) == 25

    def test_rejects_negative_successes(self):
        with pytest.raises(InvalidParameterError):
            reports_of("fig3", "grid:4x4", successes=-1)


class TestGridTable:
    def test_headline_numbers(self):
        # Row 0 of the trajectory is the initial state exactly. Row m comes from
        # the closed form: its conditional optimal probability is held to 1e-14
        # relative of a direct fold, its run probability to (m + 2)(|log p| + 1)
        # ulps of 1, since the fold's running log rounds once per step.
        for spec in ("grid:4x4", "grid:3x3", "line:10", "starring:8", "line:5"):
            h = build_histogram(parse_graph_spec(spec), ObjectiveKind.MAXCUT)
            top = int(np.max(np.nonzero(h.counts)[0]))
            for m in (0, 1, 10, 37):
                table = reports_of("grid-table", spec, successes=m)
                state, p_run = run_sequence(h, MeasurementSequence.successes(m))
                assert table.label == spec and table.m == m
                assert table.initial_optimal_probability == float(h.counts[top] / h.support)
                optimal = float(state.weights[top])
                assert table.conditional_optimal_probability == pytest.approx(optimal, rel=1e-14)
                rel = (m + 2) * (abs(math.log(p_run)) + 1) * 2.0**-52
                assert table.run_probability == pytest.approx(p_run, rel=rel)
                if m == 0:
                    assert table.conditional_optimal_probability == optimal
                    assert table.run_probability == p_run == 1.0

    def test_checks_ratios(self):
        table = reports_of("grid-table", "grid:4x4", successes=10)
        assert table.checks_direct == pytest.approx(
            1 / table.initial_optimal_probability
        )
        assert table.checks_amplified == pytest.approx(
            1 / table.conditional_optimal_probability
        )
        doc = table.to_json_dict()
        assert doc["checks_saved_factor"] == pytest.approx(
            table.checks_direct / table.checks_amplified
        )

    def test_underflowed_run_probability_prints_null(self, tmp_path):
        # The run is possible, but its probability is below the float range.
        table = reports_of("grid-table", "starring:16", successes=10000)
        assert table.run_probability == 0.0
        assert table.to_json_dict()["run_probability"] is None
        text = files_of(tmp_path, "grid-table", "starring:16", successes=10000)["grid_table.csv"]
        assert text == ref_grid_table_csv(table)
        rows = dict(line.split(",", 1) for line in text.splitlines()[1:])
        assert rows["run_probability"] == ""
        assert float(rows["checks_saved_factor"]) > 1.0

    def test_csv_layout(self, tmp_path):
        text = files_of(tmp_path, "grid-table", "grid:4x4", successes=10)["grid_table.csv"]
        rows = dict(
            line.split(",", 1) for line in text.splitlines()[1:]
        )
        assert rows["graph"] == "grid:4x4"
        assert rows["successes"] == "10"
        assert float(rows["initial_optimal_probability"]) == pytest.approx(
            2 / (2**16 - 1)
        )


class TestEmitSvg:
    def test_line_chart_is_well_formed(self):
        series = (
            Series("a", (0.0, 1.0, 2.0), (0.1, 0.5, 0.2)),
            Series("b", (0.0, 1.0, 2.0), (0.3, 0.1, 0.4)),
        )
        svg = emit_svg(series, title="t < 1 & 2", xlabel="x", ylabel="y")
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")
        body = ET.tostring(root, encoding="unicode")
        assert 'class="line-0"' in body and 'class="line-1"' in body
        assert 'class="legend-0"' in body  # two series get a legend
        assert "t &lt; 1 &amp; 2" in svg

    def test_single_series_has_no_legend(self):
        svg = emit_svg((Series("only", (0.0, 1.0), (1.0, 2.0)),))
        assert "legend-0" not in svg
        ET.fromstring(svg)

    def test_bar_chart(self):
        svg = emit_svg(
            (Series("counts", (0.0, 0.5, 1.0), (1.0, 4.0, 2.0), kind="bar"),),
            xlabel="phase",
        )
        root = ET.fromstring(svg)
        bars = [el for el in root.iter() if el.get("class", "").startswith("bar-")]
        assert len(bars) == 3

    def test_flat_series_still_renders(self):
        ET.fromstring(emit_svg((Series("flat", (1.0, 2.0), (3.0, 3.0)),)))
        ET.fromstring(emit_svg((Series("point", (1.0,), (3.0,)),)))

    def test_deterministic(self):
        series = (Series("a", (0.0, 1.0), (0.5, 0.25)),)
        assert emit_svg(series) == emit_svg(series)

    def test_rejects_empty_input(self):
        with pytest.raises(InvalidParameterError):
            emit_svg(())
        with pytest.raises(InvalidParameterError):
            Series("bad", (), ())
        with pytest.raises(InvalidParameterError):
            Series("bad", (1.0,), (1.0, 2.0))
        with pytest.raises(InvalidParameterError):
            Series("bad", (1.0,), (1.0,), kind="area")


class TestExperimentConfig:
    def test_defaults(self):
        config = ExperimentConfig("fig2")
        assert config.formats == ("csv", "json", "svg")
        assert config.m_max == 60

    def test_format_deduplication(self):
        config = ExperimentConfig("fig2", formats=("json", "json", "csv"))
        assert config.formats == ("json", "csv")

    def test_rejects_unknown_experiment(self):
        with pytest.raises(InvalidParameterError):
            ExperimentConfig("fig9")

    def test_rejects_unknown_format(self):
        with pytest.raises(InvalidParameterError):
            ExperimentConfig("fig2", formats=("png",))

    def test_custom_needs_graphs(self):
        with pytest.raises(InvalidParameterError):
            ExperimentConfig("custom")

    def test_all_is_every_experiment_but_custom(self):
        assert ExperimentConfig("all").experiments == (
            "fig1a", "fig1b", "fig1c", "fig2", "fig3", "grid-table"
        )
        assert ExperimentConfig("fig2").experiments == ("fig2",)

    def test_exact_repeats_count_once(self):
        config = ExperimentConfig("custom", ("line:5", "line:4", "line:5"))
        assert config.graph_specs == ("line:5", "line:4")

    @pytest.mark.parametrize("specs", [("line:5", "LINE:5"), ("line:5", " line:5")])
    def test_rejects_specs_with_clashing_file_names(self, specs):
        with pytest.raises(InvalidParameterError, match="clashing file names"):
            ExperimentConfig("custom", specs)

    @pytest.mark.parametrize("experiment", ["fig3", "grid-table"])
    def test_one_graph_experiments_refuse_a_list(self, experiment):
        with pytest.raises(InvalidParameterError, match=f"^{experiment} draws one graph"):
            ExperimentConfig(experiment, ("grid:3x3", "line:5"))
        assert ExperimentConfig(experiment, ("line:5", "line:5")).graph_specs == ("line:5",)


class TestRunExperiment:
    def test_fig1a_outputs(self, tmp_path):
        config = ExperimentConfig("fig1a", m_max=3, out_dir=str(tmp_path))
        written = run_experiment(config)
        names = {p.name for p in written}
        assert "fig1a_line_6.csv" in names
        assert "fig1a_line_12.json" in names
        assert "fig1a.svg" in names
        assert len(names) == 9
        doc = json.loads((tmp_path / "fig1a_line_6.json").read_text())
        assert doc["experiment"] == "fig1a"
        assert doc["schema"] == SCHEMA_VERSION
        ET.parse(tmp_path / "fig1a.svg")

    def test_fig2_outputs(self, tmp_path):
        config = ExperimentConfig("fig2", out_dir=str(tmp_path))
        written = run_experiment(config)
        names = {p.name for p in written}
        assert names == {
            f"fig2_{slug}.{ext}"
            for slug in ("line_12", "grid_4x4", "starring_16")
            for ext in ("csv", "json", "svg")
        }

    def test_fig3_and_grid_table_outputs(self, tmp_path):
        run_experiment(ExperimentConfig("fig3", successes=2, out_dir=str(tmp_path)))
        run_experiment(
            ExperimentConfig("grid-table", successes=2, out_dir=str(tmp_path))
        )
        fig3_doc = json.loads((tmp_path / "fig3.json").read_text())
        assert fig3_doc["successes"] == 2
        table_doc = json.loads((tmp_path / "grid_table.json").read_text())
        assert table_doc["graph"] == "grid:4x4"
        assert (tmp_path / "grid_table.csv").exists()

    def test_custom_graphs(self, tmp_path):
        config = ExperimentConfig(
            "custom", graph_specs=("line:5",), m_max=2, out_dir=str(tmp_path)
        )
        written = run_experiment(config)
        assert {p.name for p in written} == {
            "custom_line_5.csv",
            "custom_line_5.json",
            "custom.svg",
        }

    def test_underflowed_sequence_probability_prints_null(self, tmp_path):
        # The all-ones record of starring:12 underflows to 0.0 at m = 3906.
        config = ExperimentConfig(
            "custom", graph_specs=("starring:12",), m_max=3906, out_dir=str(tmp_path)
        )
        run_experiment(config)
        doc = json.loads((tmp_path / "custom_starring_12.json").read_text())
        p_sequence = [r["P_sequence"] for r in doc["records"]]
        assert p_sequence[3905] > 0.0 and p_sequence[3906] is None
        rows = list(csv.DictReader(io.StringIO((tmp_path / "custom_starring_12.csv").read_text())))
        assert float(rows[3905]["P_sequence"]) > 0.0 and rows[3906]["P_sequence"] == ""
        # The chart still plots the underflowed value, as 0.
        ET.parse(tmp_path / "custom.svg")

    def test_format_filter(self, tmp_path):
        config = ExperimentConfig(
            "fig3", formats=("json",), out_dir=str(tmp_path)
        )
        written = run_experiment(config)
        assert [p.name for p in written] == ["fig3.json"]

    def test_regeneration_is_byte_identical(self, tmp_path):
        config = ExperimentConfig("fig3", successes=3, out_dir=str(tmp_path))
        first = {p.name: p.read_bytes() for p in run_experiment(config)}
        second = {p.name: p.read_bytes() for p in run_experiment(config)}
        assert first == second


class _Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


# Keys and strings with non-ASCII, quotes, newlines and the writer's template
# character %; floats include numpy's float64, ints an IntEnum.
_TEXT_CHARS = 'ab%s"\n\\é\u2603\x00'
_KEYS = st.text(_TEXT_CHARS, max_size=3)
_SCALAR_KINDS = (
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
    st.integers(),
    st.sampled_from(_Level),
    st.booleans(),
    st.none(),
    st.text(_TEXT_CHARS, max_size=6),
    st.text(max_size=3),
)
_SCALARS = st.one_of(_SCALAR_KINDS)


@st.composite
def _tables(draw, values):
    """Rows with the same keys in the same order, each with a nested dict of the
    same keys too (as a trajectory's ``tail``); one row may hold its keys in
    another order."""
    keys = draw(st.lists(_KEYS, unique=True, max_size=3))
    inner = draw(st.lists(_KEYS, unique=True, max_size=3))
    rows = [
        {**{k: draw(values) for k in keys}, "%nested": {k: draw(values) for k in inner}}
        for _ in range(draw(st.integers(0, 4)))
    ]
    if rows and draw(st.booleans()):
        i = draw(st.integers(0, len(rows) - 1))
        rows[i] = dict(reversed(rows[i].items()))
    return rows


@st.composite
def _column_tables(draw, values):
    """Tables given key by key, as a trajectory's records: columns of one kind
    or of mixed values (None cells among them), ``range`` columns, and nested
    table columns of the same length; one row is as likely as any count."""
    n = draw(st.integers(0, 4))
    column = st.one_of(
        st.lists(values, min_size=n, max_size=n),
        st.sampled_from(_SCALAR_KINDS).flatmap(lambda kind: st.lists(kind, min_size=n, max_size=n)),
        st.just(range(n)),
    )

    def table(depth):
        keys = draw(st.lists(_KEYS, unique=True, min_size=1, max_size=3))
        columns = {k: draw(column) for k in keys}
        if depth and draw(st.booleans()):
            columns["%nested"] = table(depth - 1)
        return Table(columns)

    return table(2)


_TREES = st.recursive(
    _SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=3).map(tuple),
        st.sampled_from(_SCALAR_KINDS).flatmap(lambda kind: st.lists(kind, max_size=6)),
        st.builds(dict, st.lists(st.tuples(_KEYS, children), max_size=4)),
        _tables(children),
        _column_tables(children),
    ),
    max_leaves=30,
)


@st.composite
def _csv_tables(draw):
    """CSV tables given key by key: float, int, str, None and ``range`` columns,
    and columns of mixed cells; zero and one row as likely as any count."""
    n = draw(st.integers(0, 4))
    keys = draw(st.lists(_KEYS, unique=True, max_size=4))
    kinds = (
        st.floats(),
        st.floats().map(np.float64),
        st.integers(),
        st.text(_TEXT_CHARS, max_size=4),
        st.none(),
    )
    column = st.one_of(
        st.sampled_from(kinds).flatmap(lambda kind: st.lists(kind, min_size=n, max_size=n)),
        st.lists(st.one_of(kinds), min_size=n, max_size=n),
        st.just(range(n)),
    )
    return {k: draw(column) for k in keys}


def _former_trajectory_files(exp: str, reports) -> dict[str, str]:
    """Each trajectory's CSV and JSON as the former per-row writers printed them."""
    files = {}
    for label, report in reports.items():
        doc = {"experiment": exp, **report.to_json_dict()}
        rows = [record.to_json_dict() for record in ref_records(report)]
        files[f"{exp}_{slug(label)}.csv"] = ref_trajectory_csv(report)
        files[f"{exp}_{slug(label)}.json"] = ref_json_text({**doc, "records": rows})
    return files


class TestReportOutput:
    def test_slug(self):
        assert slug("grid:4x4") == "grid_4x4"
        assert slug("  Star-Ring:16 ") == "star_ring_16"

    def test_json_text_is_strict(self):
        assert json_text({"a": 1.5, "b": [1]}) == '{\n  "a": 1.5,\n  "b": [\n    1\n  ]\n}\n'
        for bad in (math.nan, math.inf, -math.inf):
            for doc in (
                {"a": bad},
                {"a": [0.5, 1.5, bad, 2.5]},
                {"a": [{"x": 0.5, "y": {"z": 1.0}}, {"x": 1.5, "y": {"z": bad}}]},
                {"a": [1, "s", None, bad]},
            ):
                with pytest.raises(ValueError) as ours:
                    json_text(doc)
                with pytest.raises(ValueError) as stdlib:
                    ref_json_text(doc)
                assert str(ours.value) == str(stdlib.value)
        for bad in ({1.5}, np.zeros(2), object()):
            for doc in ({"a": bad}, {"a": [1.5, bad]}, {"a": [{"x": bad}, {"x": bad}]}):
                with pytest.raises(TypeError) as ours:
                    json_text(doc)
                with pytest.raises(TypeError) as stdlib:
                    ref_json_text(doc)
                assert str(ours.value) == str(stdlib.value)

    def test_json_text_takes_str_keys_only(self):
        # Every report key is a str. json.dumps would print an int key as a string.
        assert ref_json_text({1: 2}) == '{\n  "1": 2\n}\n'
        for key in (1, 1.5, True, None, ("a",)):
            for doc in ({key: 2}, {"a": [{key: 1}, {key: 2}]}):
                with pytest.raises(TypeError, match="keys must be str"):
                    json_text(doc)

    @given(st.builds(dict, st.lists(st.tuples(_KEYS, _TREES), max_size=4)))
    @example({"a": [], "b": {}, "c": [[], {}, [{}], [[]]]})
    @example({"rows": [{"m": 0, "tail": {"x": 0.5}}, {"m": 1, "tail": {"x": 0.25}}]})
    @example({"rows": [{"a": 1, "b": 2.5}, {"b": 2.5, "a": 1}, {"a": 1}]})
    @example({"a": [1, True], "b": [True, False, None], "c": [0.5, 1]})
    @example({"a": [np.float64(0.1), np.float64(-0.0), _Level.HIGH, 1e300, 10**30]})
    @example({"é%s\n\"": ["é", '"', "\n", "%s %d %%", "\u2603", "\x00"]})
    @example({"t": Table({"m": range(1), "p": [None], "%s": Table({"x": [0.5]})})})
    @example({"t": Table({"m": range(3), "p": [0.5, None, 1e-300], "q": ["a", 1, True]})})
    @example({"t": [Table({"a": []}), Table({"b": [1.5]}), {"c": Table({"d": [[], {}]})}]})
    @settings(max_examples=300, deadline=None)
    def test_json_text_prints_the_stdlib_bytes(self, doc):
        # A table prints as the list of its row dicts would.
        assert json_text(doc) == ref_json_text(ref_dict_rows(doc))

    def test_trajectory_documents_print_the_former_rows(self, tmp_path):
        # Two long trajectories, starring:12's with P_sequence underflowed from
        # m = 3906 on: the column table prints the bytes of the former per-row
        # dicts, and the CSV those of the former per-value loop.
        custom = reports_of("custom", "line:14", "starring:12", m_max=4000)
        assert custom["starring:12"].p_sequence[3905] > 0.0
        assert set(custom["starring:12"].p_sequence[3906:]) == {0.0}
        files = files_of(tmp_path, "custom", "line:14", "starring:12", m_max=4000)
        assert files == _former_trajectory_files("custom", custom)
        assert files["custom_starring_12.json"].count('"P_sequence": null') == 95
        assert files["custom_starring_12.csv"].count(",,") == 95

    def test_report_files_print_the_former_writers(self, tmp_path):
        # Every CSV and JSON file of ``figures --experiment all``, and of two
        # trajectories to m = 3906, the first row where starring:12's P_sequence
        # underflows, prints the bytes of the writer it replaced.
        reports = build_reports(ExperimentConfig("all"))
        expected = {}
        for exp in ("fig1a", "fig1b", "fig1c"):
            expected.update(_former_trajectory_files(exp, reports[exp]))
        for label, h in reports["fig2"].items():
            head = {"experiment": "fig2", "graph": label}
            expected[f"fig2_{slug(label)}.csv"] = ref_histogram_csv(h)
            expected[f"fig2_{slug(label)}.json"] = ref_json_text(
                {**head, **ref_histogram_json_dict(h)}
            )
        dist, table = reports["fig3"], reports["grid-table"]
        expected["fig3.csv"] = ref_amplified_csv(dist)
        expected["fig3.json"] = ref_json_text({"experiment": "fig3", **ref_amplified_json_dict(dist)})
        expected["grid_table.csv"] = ref_grid_table_csv(table)
        expected["grid_table.json"] = ref_json_text(table.to_json_dict())
        assert len(expected) == 34
        assert files_of(tmp_path / "all", "all") == expected
        custom = reports_of("custom", "starring:12", "line:14", m_max=3906)
        files = files_of(tmp_path / "custom", "custom", "starring:12", "line:14", m_max=3906)
        assert files == _former_trajectory_files("custom", custom)
        assert files["custom_starring_12.json"].count('"P_sequence": null') == 1

    @given(_csv_tables())
    @example({})
    @example({"m": range(0), "p": []})
    @example({"m": range(1), "p": [0.5], "s": ["a%sb"], "n": [None]})
    @example({"a": [1.5, None, 7, "x", math.nan], "b": [math.inf, -0.0, 1e300, 10**30, -1]})
    @example({"p": [0.1, None, 1e-320], "%d": [np.float64(0.1), 2, None]})
    @settings(max_examples=300, deadline=None)
    def test_csv_text_prints_each_cell(self, columns):
        assert csv_text(columns) == ref_csv_text(columns)

    def test_csv_text_layout(self):
        columns = {"m": range(3), "p": [0.5, None, 1 / 3], "label": ["a", "b", "c"], "n": [1, 2.0, None]}
        assert csv_text(columns) == "m,p,label,n\n0,0.5,a,1\n1,,b,2\n2,0.333333333333,c,\n"
        assert csv_text({"x": [], "y": ()}) == "x,y\n"

    def test_write_files_renders_only_selected_formats(self, tmp_path):
        rendered = []

        def render(name):
            return lambda: rendered.append(name) or name

        files = [
            ("a", {"csv": render("a.csv"), "svg": render("a.svg")}),
            ("b", {"json": render("b.json"), "csv": render("b.csv")}),
        ]
        written = write_files(tmp_path, files, ("json", "csv"))
        assert [p.name for p in written] == ["a.csv", "b.json", "b.csv"]
        assert rendered == ["a.csv", "b.json", "b.csv"]
        assert (tmp_path / "b.json").read_text() == "b.json"
