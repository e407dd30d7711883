"""End-to-end command line behavior: verbs, outputs, exit codes."""

from __future__ import annotations

import json
import math
import re
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from phaseamp import fullsim
from phaseamp.cli import build_parser, main, parse_angle, parse_fraction
from phaseamp.encoding import CLASS_TABLE_LIMIT
from phaseamp.errors import InvalidParameterError
from phaseamp.experiments import TRAJECTORY_VERTEX_LIMIT
from phaseamp.graphs import ENUMERATION_LIMIT


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestParsers:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("pi", math.pi),
            ("pi/2", math.pi / 2),
            ("3pi/4", 3 * math.pi / 4),
            ("2*pi/3", 2 * math.pi / 3),
            ("0.5pi", math.pi / 2),
            ("1.5", 1.5),
            (" PI ", math.pi),
        ],
    )
    def test_parse_angle(self, text, expected):
        assert parse_angle(text) == pytest.approx(expected)

    def test_parse_angle_rejects_garbage(self):
        with pytest.raises(InvalidParameterError):
            parse_angle("tau/2")

    @pytest.mark.parametrize("text", ["pi/0", "3pi/0.0", "nan", "inf", "-inf", "1e400"])
    def test_parse_angle_rejects_zero_divisor_and_nonfinite(self, text):
        with pytest.raises(InvalidParameterError):
            parse_angle(text)

    def test_parse_fraction(self):
        from fractions import Fraction

        assert parse_fraction("1/8") == Fraction(1, 8)
        assert parse_fraction("2") == Fraction(2)
        with pytest.raises(InvalidParameterError):
            parse_fraction("1/0")
        with pytest.raises(InvalidParameterError):
            parse_fraction("one")


class TestGraphVerb:
    def test_prints_text_format(self, capsys):
        code, out, _ = run_cli(capsys, "graph", "line:3")
        assert code == 0
        assert out == "graph 3 2\n0 1\n1 2\n"

    def test_optima_json(self, capsys):
        doc = run_json(capsys, "graph", "line:4", "--optima")
        assert doc["best"] == 3
        assert doc["n_maximizers"] == 2
        assert sorted(doc["maximizers"]) == [5, 10]
        assert doc["n_edges"] == 3

    def test_writes_graph_file(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "graph", "grid:2x2", "--out", str(tmp_path))
        assert code == 0
        text = (tmp_path / "grid_2x2.graph").read_text()
        assert text.startswith("graph 4 4\n")

    def test_bad_spec_is_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "graph", "torus:3x3")
        assert code == 2
        assert "error:" in err


class TestHistVerb:
    def test_graph_histogram_json(self, capsys):
        doc = run_json(capsys, "hist", "--graph", "grid:3x3")
        assert doc["graph"] == "grid:3x3"
        assert doc["denominator"] == 12
        assert doc["support"] == 2**9 - 1
        assert doc["includes_zero"] is False
        assert len(doc["levels"]) == 13
        assert doc["levels"][12]["count"] == 2

    def test_include_zero(self, capsys):
        doc = run_json(capsys, "hist", "--graph", "grid:3x3", "--include-zero")
        assert doc["support"] == 2**9
        assert doc["includes_zero"] is True

    def test_covered_edges_objective(self, capsys):
        doc = run_json(
            capsys, "hist", "--graph", "line:4", "--objective", "covered-edges"
        )
        assert doc["levels"][3]["count"] == 8

    def test_uniform_source(self, capsys):
        doc = run_json(capsys, "hist", "--uniform", "16")
        assert doc["graph"] == "uniform:16"
        assert doc["denominator"] == 16
        assert doc["support"] == 16

    def test_writes_files(self, capsys, tmp_path):
        run_json(
            capsys,
            "hist",
            "--graph",
            "line:4",
            "--out",
            str(tmp_path),
            "--format",
            "csv,json",
        )
        assert (tmp_path / "hist_line_4.json").exists()
        csv_text = (tmp_path / "hist_line_4.csv").read_text()
        assert csv_text.startswith("theta,count\n")

    def test_default_formats(self, capsys, tmp_path):
        run_json(capsys, "hist", "--graph", "line:4", "--out", str(tmp_path))
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "hist_line_4.csv",
            "hist_line_4.json",
        ]

    def test_source_is_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["hist"])
        assert exc.value.code == 2


class TestAmplifyVerb:
    def test_grid_success_run(self, capsys):
        doc = run_json(
            capsys,
            "amplify",
            "--graph",
            "grid:4x4",
            "--sequence",
            "1111111111",
            "--tail-at",
            "pi",
        )
        assert doc["m"] == 10
        assert doc["q"] == 10
        assert doc["sequence"] == "1111111111"
        assert doc["probability"] == pytest.approx(0.012052514845, rel=1e-9)
        assert doc["closed_form_probability"] == pytest.approx(
            doc["probability"], rel=1e-10
        )
        assert doc["log_probability"] == pytest.approx(math.log(doc["probability"]))
        assert doc["tail"]["theta"] == pytest.approx(math.pi)
        assert doc["tail"]["conditional"] == pytest.approx(0.002532089, rel=1e-6)
        assert doc["tail"]["unconditional"] == pytest.approx(
            doc["probability"] * doc["tail"]["conditional"], rel=1e-12
        )
        assert len(doc["weights"]) == 25
        assert sum(doc["weights"]) == pytest.approx(1.0, abs=1e-9)

    def test_successes_shorthand(self, capsys):
        doc_a = run_json(capsys, "amplify", "--graph", "line:6", "--successes", "4")
        doc_b = run_json(capsys, "amplify", "--graph", "line:6", "--sequence", "1111")
        assert doc_a["probability"] == doc_b["probability"]

    def test_mixed_sequence(self, capsys):
        doc = run_json(capsys, "amplify", "--graph", "line:6", "--sequence", "1011")
        assert doc["q"] == 3

    def test_uniform_source(self, capsys):
        doc = run_json(capsys, "amplify", "--uniform", "100", "--successes", "1")
        assert doc["probability"] == pytest.approx(0.505)  # (N+1)/2N

    def test_sampling(self, capsys):
        doc = run_json(
            capsys,
            "amplify",
            "--graph",
            "line:6",
            "--successes",
            "3",
            "--sample",
            "5",
            "--seed",
            "9",
        )
        assert len(doc["samples"]) == 5
        assert all(0 < x < 2**6 for x in doc["samples"])
        repeat = run_json(
            capsys,
            "amplify",
            "--graph",
            "line:6",
            "--successes",
            "3",
            "--sample",
            "5",
            "--seed",
            "9",
        )
        assert repeat["samples"] == doc["samples"]

    def test_sampling_needs_a_graph(self, capsys):
        code, _, err = run_cli(
            capsys, "amplify", "--uniform", "8", "--successes", "1", "--sample", "2"
        )
        assert code == 2
        assert "graph" in err

    def test_impossible_outcome_is_exit_4(self, capsys):
        code, _, err = run_cli(capsys, "amplify", "--uniform", "1", "--sequence", "0")
        assert code == 4
        assert "probability 0" in err

    def test_bad_sequence_is_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "amplify", "--graph", "line:4", "--sequence", "10x")
        assert code == 2

    def test_writes_report(self, capsys, tmp_path):
        run_json(
            capsys,
            "amplify",
            "--graph",
            "line:4",
            "--successes",
            "2",
            "--out",
            str(tmp_path),
        )
        doc = json.loads((tmp_path / "amplify_line_4.json").read_text())
        assert doc["m"] == 2


class TestFiguresVerb:
    def test_single_experiment(self, capsys, tmp_path):
        doc = run_json(
            capsys,
            "figures",
            "--experiment",
            "fig3",
            "--successes",
            "2",
            "--out",
            str(tmp_path),
        )
        assert any(name.endswith("fig3.svg") for name in doc["written"])
        ET.parse(tmp_path / "fig3.svg")

    def test_all_experiments(self, capsys, tmp_path):
        doc = run_json(
            capsys,
            "figures",
            "--experiment",
            "all",
            "--m-max",
            "2",
            "--successes",
            "1",
            "--out",
            str(tmp_path),
            "--format",
            "json",
        )
        names = {name.rsplit("/", 1)[-1] for name in doc["written"]}
        assert "fig1a_line_6.json" in names
        assert "fig1b_grid_4x4.json" in names
        assert "fig1c_starring_16.json" in names
        assert "fig2_line_12.json" in names
        assert "fig3.json" in names
        assert "grid_table.json" in names

    def test_all_experiments_write_order(self, capsys, tmp_path):
        doc = run_json(
            capsys,
            "figures",
            "--experiment",
            "all",
            "--m-max",
            "2",
            "--successes",
            "1",
            "--out",
            str(tmp_path),
        )
        assert [Path(name).name for name in doc["written"]] == [
            "fig1a_line_6.csv", "fig1a_line_6.json",
            "fig1a_line_8.csv", "fig1a_line_8.json",
            "fig1a_line_10.csv", "fig1a_line_10.json",
            "fig1a_line_12.csv", "fig1a_line_12.json",
            "fig1a.svg",
            "fig1b_line_10.csv", "fig1b_line_10.json",
            "fig1b_grid_3x3.csv", "fig1b_grid_3x3.json",
            "fig1b_grid_4x4.csv", "fig1b_grid_4x4.json",
            "fig1b_starring_16.csv", "fig1b_starring_16.json",
            "fig1b.svg",
            "fig1c_line_10.csv", "fig1c_line_10.json",
            "fig1c_grid_3x3.csv", "fig1c_grid_3x3.json",
            "fig1c_grid_4x4.csv", "fig1c_grid_4x4.json",
            "fig1c_starring_16.csv", "fig1c_starring_16.json",
            "fig1c.svg",
            "fig2_line_12.csv", "fig2_line_12.json", "fig2_line_12.svg",
            "fig2_grid_4x4.csv", "fig2_grid_4x4.json", "fig2_grid_4x4.svg",
            "fig2_starring_16.csv", "fig2_starring_16.json", "fig2_starring_16.svg",
            "fig3.csv", "fig3.json", "fig3.svg",
            "grid_table.json", "grid_table.csv",
        ]

    def test_custom_with_graphs(self, capsys, tmp_path):
        doc = run_json(
            capsys,
            "figures",
            "--experiment",
            "custom",
            "--graphs",
            "line:4,line:5",
            "--m-max",
            "2",
            "--out",
            str(tmp_path),
            "--format",
            "csv",
        )
        names = {name.rsplit("/", 1)[-1] for name in doc["written"]}
        assert names == {"custom_line_4.csv", "custom_line_5.csv"}

    def test_custom_without_graphs_is_exit_2(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys, "figures", "--experiment", "custom", "--out", str(tmp_path)
        )
        assert code == 2

    def test_unknown_experiment_is_argparse_error(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["figures", "--experiment", "fig9", "--out", str(tmp_path)])
        assert exc.value.code == 2


class TestBoundsVerb:
    def test_tail_bounds(self, capsys):
        doc = run_json(
            capsys,
            "bounds",
            "--p-run",
            "0.375",
            "--m",
            "2",
            "--theta-ref",
            "2pi/3",
        )
        assert doc["tail_upper_bound"] == pytest.approx(2 / 3)
        assert doc["tail_lower_bound"] == 0.0

    def test_band_section(self, capsys):
        doc = run_json(
            capsys,
            "bounds",
            "--p-run",
            "0.375",
            "--m",
            "2",
            "--theta-ref",
            "2pi/3",
            "--p01",
            "0.25",
            "--half-width",
            "pi/4",
        )
        assert doc["band"]["lower_bound"] == pytest.approx(1.0)

    def test_invalid_angle_is_exit_2(self, capsys):
        code, _, _ = run_cli(
            capsys, "bounds", "--p-run", "0.5", "--m", "1", "--theta-ref", "0"
        )
        assert code == 2


class TestTwopeakVerb:
    def test_exact_report(self, capsys):
        doc = run_json(
            capsys,
            "twopeak",
            "--q-u",
            "1/8",
            "--a-l",
            "1/8",
            "--a-u",
            "2",
            "--measurements",
            "1",
        )
        assert doc["ratio"] == {"exact": "16/7", "value": pytest.approx(16 / 7)}
        assert doc["run_probability"]["exact"] == "23/128"
        assert doc["run_probability_via_ratio"]["exact"] == "23/128"
        assert doc["q_l"]["exact"] == "7/8"

    def test_target_ratio(self, capsys):
        doc = run_json(
            capsys,
            "twopeak",
            "--q-u",
            "1/8",
            "--a-l",
            "1/8",
            "--a-u",
            "2",
            "--target-ratio",
            "256/7",
        )
        assert doc["required_measurements"] == pytest.approx(2.0)

    def test_angle_inputs(self, capsys):
        doc = run_json(
            capsys,
            "twopeak",
            "--q-u",
            "1/4",
            "--alpha-l",
            "pi/3",
            "--alpha-u",
            "2pi/3",
        )
        assert doc["a_l"] == pytest.approx(0.5)
        assert doc["a_u"] == pytest.approx(1.5)

    def test_needs_a_full_peak_description(self, capsys):
        code, _, _ = run_cli(capsys, "twopeak", "--q-u", "1/8", "--a-l", "1/8")
        assert code == 2
        code, _, _ = run_cli(capsys, "twopeak", "--q-u", "1/8")
        assert code == 2

    def test_invalid_share_is_exit_2(self, capsys):
        code, _, _ = run_cli(
            capsys, "twopeak", "--q-u", "2", "--a-l", "1/8", "--a-u", "2"
        )
        assert code == 2


class TestUniformAsymptoticsVerb:
    def test_small_m_report(self, capsys):
        doc = run_json(capsys, "uniform-asymptotics", "--m", "100")
        assert doc["m"] == 100
        assert doc["step_success"] == pytest.approx(199 / 200)
        assert doc["run_probability_exact"] == pytest.approx(0.0563485, rel=1e-5)
        assert doc["run_probability_estimate"] == pytest.approx(
            1 / math.sqrt(100 * math.pi)
        )
        assert "run_probability_rational" in doc
        assert "central_binomial_norm" in doc

    def test_large_m_skips_the_rationals(self, capsys):
        doc = run_json(capsys, "uniform-asymptotics", "--m", "200000")
        assert "run_probability_rational" not in doc
        assert doc["run_probability_exact"] == pytest.approx(
            doc["run_probability_estimate"], rel=1e-3
        )

    def test_gaussian_tail_section(self, capsys):
        doc = run_json(
            capsys, "uniform-asymptotics", "--m", "100", "--theta", "3.0"
        )
        assert doc["gaussian_tail"]["estimate"] == pytest.approx(
            math.erf(10 * (math.pi - 3.0) / 2)
        )


class TestVerifyOracleVerb:
    def test_small_verification(self, capsys):
        doc = run_json(
            capsys,
            "verify-oracle",
            "--max-qubits",
            "3",
            "--max-seq",
            "3",
            "--sets",
            "4",
        )
        assert doc["cases"] == 4 * (2**4 - 1)
        assert doc["max_probability_deviation"] < 1e-10
        assert doc["max_distribution_deviation"] < 1e-10


class TestGridTableVerb:
    def test_report(self, capsys, tmp_path):
        doc = run_json(
            capsys, "grid-table", "--successes", "10", "--out", str(tmp_path)
        )
        assert doc["graph"] == "grid:4x4"
        assert doc["initial_optimal_probability"] == pytest.approx(2 / (2**16 - 1))
        assert doc["conditional_optimal_probability"] == pytest.approx(
            0.002532, rel=1e-3
        )
        assert (tmp_path / "grid_table.json").exists()


# A valid invocation of each verb, without output or seed flags.
MINIMAL_ARGV = {
    "graph": ["line:3"],
    "hist": ["--graph", "line:3"],
    "amplify": ["--graph", "line:3", "--successes", "1"],
    "figures": ["--experiment", "fig3"],
    "bounds": ["--p-run", "0.5", "--m", "1", "--theta-ref", "pi/2"],
    "twopeak": ["--q-u", "1/8", "--a-l", "1/8", "--a-u", "2"],
    "uniform-asymptotics": ["--m", "4"],
    "verify-oracle": [],
    "grid-table": [],
}
FLAGS_READ = {
    ("graph", "--out"),
    ("hist", "--out"),
    ("hist", "--format"),
    ("amplify", "--out"),
    ("amplify", "--seed"),
    ("figures", "--out"),
    ("figures", "--format"),
    ("verify-oracle", "--seed"),
    ("grid-table", "--out"),
}


class TestRejectedInput:
    @pytest.mark.parametrize("flag,value", [("--out", "d"), ("--format", "json"), ("--seed", "3")])
    @pytest.mark.parametrize("verb", MINIMAL_ARGV)
    def test_verbs_take_only_the_flags_they_read(self, verb, flag, value):
        argv = [verb, *MINIMAL_ARGV[verb], flag, value]
        if (verb, flag) in FLAGS_READ:
            build_parser().parse_args(argv)
        else:
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args(argv)
            assert exc.value.code == 2

    @pytest.mark.parametrize(
        "verb,formats",
        [("hist", "svg"), ("hist", "png"), ("hist", ","), ("figures", "csv,pdf")],
    )
    def test_unwritable_format_is_exit_2(self, capsys, tmp_path, verb, formats):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main([verb, *MINIMAL_ARGV[verb], "--out", str(out), "--format", formats])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["bounds", "--p-run", "0.5", "--m", "1", "--theta-ref", "pi/0"],
            ["amplify", "--graph", "line:4", "--successes", "2", "--tail-at", "nan"],
            ["amplify", "--graph", "line:4", "--successes", "2", "--tail-at", "inf"],
        ],
    )
    def test_bad_angle_is_exit_2(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


class TestTopLevel:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "phase-amp" in capsys.readouterr().out

    def test_verb_is_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_resource_limit_is_exit_3(self, capsys):
        code, _, err = run_cli(capsys, "hist", "--graph", "line:40")
        assert code == 3
        assert "error:" in err

    def test_readme_states_the_size_caps(self):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        text = " ".join(readme.read_text().split())
        caps = re.search(
            r"histograms and optima enumerate graphs of at most (\d+) vertices, "
            r"class tables and assignment sampling at most (\d+), "
            r"trajectory experiments at most (\d+); "
            r"the dense oracle is capped at N=(\d+) / (\d+) measurements",
            text,
        )
        assert caps is not None
        assert tuple(int(v) for v in caps.groups()) == (
            ENUMERATION_LIMIT,
            CLASS_TABLE_LIMIT,
            TRAJECTORY_VERTEX_LIMIT,
            fullsim.MAX_SUPPORT,
            fullsim.MAX_SEQUENCE,
        )
