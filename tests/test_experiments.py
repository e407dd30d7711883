"""Experiment regeneration: trajectories, distributions, tables, charts, files."""

from __future__ import annotations

import csv
import io
import json
import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from phaseamp import (
    ExperimentConfig,
    InvalidParameterError,
    ObjectiveKind,
    ResourceLimitError,
    SCHEMA_VERSION,
    Series,
    build_histogram,
    emit_svg,
    fig1a,
    fig1b_fig1c,
    fig2,
    fig3,
    grid_table,
    make_line,
    run_experiment,
    run_sequence,
    success_run,
    success_trajectory,
    MeasurementSequence,
)
from phaseamp.experiments import json_text, slug, write_files


class TestSuccessTrajectory:
    def test_row_zero_is_the_initial_state(self, grid44_histogram):
        report = success_trajectory(grid44_histogram, 3, label="grid:4x4", n_vertices=16)
        first = report.records[0]
        assert first.m == 0
        assert first.p_individual == 1.0
        assert first.p_sequence == 1.0
        assert first.p_optimal_conditional == pytest.approx(2 / (2**16 - 1))
        assert report.optimal_level == 24
        assert report.support == 2**16 - 1
        assert report.n_edges == 24

    def test_rows_match_fold(self, grid44_histogram):
        report = success_trajectory(grid44_histogram, 10)
        state, p = success_run(grid44_histogram, 10)
        last = report.records[-1]
        assert last.m == 10
        assert last.p_sequence == pytest.approx(p, rel=1e-12)
        assert last.p_optimal_conditional == pytest.approx(
            float(state.weights[24]), rel=1e-12
        )

    def test_sequence_probability_is_the_running_product(self, benchmark_histograms):
        for h in benchmark_histograms.values():
            report = success_trajectory(h, 8)
            product = 1.0
            for record in report.records[1:]:
                product *= record.p_individual
                assert record.p_sequence == pytest.approx(product, rel=1e-9)

    def test_tails_are_recorded(self, grid44_histogram):
        report = success_trajectory(grid44_histogram, 2)
        state, _ = success_run(grid44_histogram, 2)
        mask = grid44_histogram.thetas >= math.pi / 2 - 1e-12
        assert report.records[2].tail_ge_half_pi == pytest.approx(
            float(state.weights[mask].sum())
        )

    def test_csv_layout(self, grid44_histogram):
        report = success_trajectory(grid44_histogram, 2, label="grid:4x4")
        rows = list(csv.reader(io.StringIO(report.to_csv())))
        assert rows[0] == ["m", "p_individual", "P_sequence", "p_optimal_conditional"]
        assert len(rows) == 4
        assert rows[1][0] == "0"
        assert float(rows[1][3]) == pytest.approx(2 / (2**16 - 1))

    def test_json_layout(self, grid44_histogram):
        report = success_trajectory(
            grid44_histogram, 1, label="grid:4x4", n_vertices=16
        )
        doc = report.to_json_dict()
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
        json.dumps(doc)

    def test_rejects_negative_range(self, grid44_histogram):
        with pytest.raises(InvalidParameterError):
            success_trajectory(grid44_histogram, -1)


class TestFigureFamilies:
    def test_fig1a_covers_the_line_sizes(self):
        reports = fig1a(m_max=5)
        assert set(reports) == {"line:6", "line:8", "line:10", "line:12"}
        for spec, report in reports.items():
            assert report.label == spec
            assert len(report.records) == 6

    def test_fig1a_smaller_lines_amplify_faster(self):
        reports = fig1a(m_max=60)
        finals = [
            reports[spec].records[-1].p_optimal_conditional
            for spec in ("line:6", "line:8", "line:10", "line:12")
        ]
        assert finals == sorted(finals, reverse=True)

    def test_fig1bc_rejects_off_benchmark_graphs(self):
        with pytest.raises(InvalidParameterError):
            fig1b_fig1c(("line:7",), 5)

    def test_fig1bc_defaults(self):
        reports = fig1b_fig1c(m_max=3)
        assert set(reports) == {"line:10", "grid:3x3", "grid:4x4", "starring:16"}

    def test_trajectory_graphs_are_size_capped(self):
        with pytest.raises(ResourceLimitError):
            fig1a(("line:21",), 5)

    def test_fig2_histograms_match_builder(self, benchmark_graphs):
        out = fig2()
        assert set(out) == {"line:12", "grid:4x4", "starring:16"}
        direct = build_histogram(benchmark_graphs["grid:4x4"], ObjectiveKind.MAXCUT)
        assert np.array_equal(out["grid:4x4"].counts, direct.counts)

    def test_fig2_rejects_off_benchmark_graphs(self):
        with pytest.raises(InvalidParameterError):
            fig2(("line:10",))


class TestFig3:
    def test_amplified_mode_moves_up(self):
        dist = fig3("grid:4x4", 10)
        assert dist.m == 10
        assert dist.scale == 2**16 - 1
        assert dist.mode_theta > 2.0

    def test_zero_successes_reproduces_the_counts(self, grid44_histogram):
        dist = fig3("grid:4x4", 0)
        assert np.array_equal(dist.scaled_weights, grid44_histogram.counts)
        assert dist.mode_theta == pytest.approx(math.pi / 2)

    def test_scaled_weights_keep_total_mass(self, grid44_histogram):
        dist = fig3("grid:4x4", 7)
        assert float(dist.scaled_weights.sum()) == pytest.approx(
            grid44_histogram.support, rel=1e-12
        )

    def test_csv_and_json(self):
        dist = fig3("grid:4x4", 1)
        lines = dist.to_csv().splitlines()
        assert lines[0] == "theta,scaled_weight"
        assert len(lines) == 26
        doc = dist.to_json_dict()
        assert doc["successes"] == 1
        assert doc["scale"] == 2**16 - 1
        assert len(doc["levels"]) == 25
        json.dumps(doc)

    def test_rejects_negative_successes(self):
        with pytest.raises(InvalidParameterError):
            fig3("grid:4x4", -1)


class TestGridTable:
    def test_headline_numbers(self, grid44_histogram):
        table = grid_table("grid:4x4", 10)
        assert table.initial_optimal_probability == pytest.approx(2 / (2**16 - 1))
        state, p_run = success_run(grid44_histogram, 10)
        assert table.conditional_optimal_probability == pytest.approx(
            float(state.weights[24]), rel=1e-12
        )
        assert table.run_probability == pytest.approx(p_run, rel=1e-12)

    def test_checks_ratios(self):
        table = grid_table("grid:4x4", 10)
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

    def test_csv_layout(self):
        text = grid_table("grid:4x4", 10).to_csv()
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


class TestReportOutput:
    def test_slug(self):
        assert slug("grid:4x4") == "grid_4x4"
        assert slug("  Star-Ring:16 ") == "star_ring_16"

    def test_json_text_is_strict(self):
        assert json_text({"a": 1.5, "b": [1]}) == '{\n  "a": 1.5,\n  "b": [\n    1\n  ]\n}\n'
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                json_text({"a": bad})

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
