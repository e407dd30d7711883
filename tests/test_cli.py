"""End-to-end command line behavior: verbs, outputs, exit codes."""

from __future__ import annotations

import ast
import hashlib
import itertools
import json
import math
import re
import runpy
import sys
import time
import types
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

import phaseamp
from phaseamp import amplifier, cli, errors, experiments, graphs, meta
from phaseamp.cli import build_parser, main, parse_angle, parse_fraction
from phaseamp.encoding import build_histogram, uniform_histogram
from phaseamp.errors import LIMITS, InvalidParameterError
from phaseamp.graphs import format_graph_file, make_line

from .oracles import (
    ref_compare_with_class_weights,
    ref_dict_rows,
    ref_histogram_csv,
    ref_histogram_json_dict,
    ref_json_text,
    ref_objective,
)
from .test_bench_targets import _load_tracing


# One line for every run length too large for float arithmetic.
PAST_THE_FLOAT_RANGE = "error: run length past 5.72e+307, where float arithmetic on it overflows\n"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def _reject_constant(name: str):
    raise ValueError(f"non-finite JSON constant {name}")


def strict_json(text: str):
    """Parse JSON that has no NaN or Infinity in it."""
    return json.loads(text, parse_constant=_reject_constant)


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

    @pytest.mark.parametrize(
        "argv,label,h",
        [
            (
                ("--graph", "grid:4x5"),
                "grid:4x5",
                lambda: build_histogram(graphs.parse_graph_spec("grid:4x5"), "maxcut"),
            ),
            (
                ("--graph", "line:7", "--objective", "covered-edges", "--include-zero"),
                "line:7",
                lambda: build_histogram(make_line(7), "covered-edges", include_zero=True),
            ),
            (("--uniform", "1000"), "uniform:1000", lambda: uniform_histogram(1000)),
        ],
        ids=["grid", "include-zero", "uniform"],
    )
    def test_files_print_the_former_writers(self, capsys, tmp_path, argv, label, h):
        code, out, err = run_cli(capsys, "hist", *argv, "--out", str(tmp_path))
        assert code == 0, err
        h = h()
        expected = ref_json_text({"graph": label, **ref_histogram_json_dict(h)})
        assert out == expected
        stem = tmp_path / f"hist_{experiments.slug(label)}"
        assert stem.with_suffix(".json").read_text() == expected
        assert stem.with_suffix(".csv").read_text() == ref_histogram_csv(h)


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

    @pytest.mark.parametrize(
        "sequence", ["0", "110", "1" * 1023 + "0", "1" * 1024 + "0", "1" * 1500 + "0"]
    )
    def test_impossible_outcome_is_one_line_wherever_it_falls(self, capsys, sequence):
        # One level at pi: every 1 is certain and the first 0 impossible, in
        # the fold's first block or past it.
        code, out, err = run_cli(capsys, "amplify", "--uniform", "1", "--sequence", sequence)
        assert (code, out) == (4, "")
        assert err == "error: outcome 0 has probability 0 given the outcomes recorded so far\n"

    def test_a_record_of_zeros_with_a_level_at_zero_is_possible(self, capsys):
        # line:7's all-ones assignment cuts nothing: its level at angle 0
        # keeps every 0 possible, so nine of them are a report, not exit 4.
        doc = run_json(capsys, "amplify", "--graph", "line:7", "--sequence", "0" * 9)
        assert doc["probability"] == pytest.approx(doc["closed_form_probability"], rel=1e-12)
        assert doc["weights"][-1] == 0.0 and doc["weights"][0] > 0.0

    def test_bad_sequence_is_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "amplify", "--graph", "line:4", "--sequence", "10x")
        assert code == 2

    def test_record_past_float_range_of_2_to_the_m(self, capsys):
        code, out, err = run_cli(capsys, "amplify", "--graph", "grid:4x4", "--successes", "1100")
        assert code == 0, err
        doc = strict_json(out)
        assert doc["closed_form_probability"] == pytest.approx(doc["probability"], rel=1e-12)

    def test_report_keys_in_order(self, capsys):
        doc = run_json(capsys, "amplify", "--graph", "line:6", "--sequence", "1011")
        assert list(doc) == [
            "schema", "graph", "sequence", "m", "q", "probability", "log_probability",
            "closed_form_probability", "closed_form_log_probability", "weights", "thetas",
            "tail",
        ]
        assert doc["closed_form_log_probability"] == pytest.approx(
            math.log(doc["closed_form_probability"]), rel=1e-12
        )

    def test_underflowed_probabilities_print_null(self, capsys):
        # p(y) is about e^-971.5: below the float range, but not zero.
        code, out, err = run_cli(
            capsys, "amplify", "--graph", "starring:5", "--sequence", "10" * 700,
            "--tail-at", "pi/2",
        )
        assert code == 0, err
        doc = strict_json(out)
        assert doc["log_probability"] == pytest.approx(-971.54, abs=0.01)
        assert doc["closed_form_log_probability"] == pytest.approx(
            doc["log_probability"], rel=1e-12
        )
        assert doc["probability"] is None
        assert doc["closed_form_probability"] is None
        assert doc["tail"]["conditional"] > 0.0
        assert doc["tail"]["unconditional"] is None

    def test_empty_tail_prints_zero(self, capsys):
        # No starring:5 assignment cuts every edge, so the tail at pi is exactly empty.
        doc = run_json(
            capsys, "amplify", "--graph", "starring:5", "--sequence", "10" * 700
        )
        assert doc["tail"]["conditional"] == 0.0
        assert doc["tail"]["unconditional"] == 0.0

    def test_negative_sample_is_exit_2_before_any_work(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("graph read before --sample was checked")

        monkeypatch.setattr(cli, "parse_graph_spec", refuse)
        code, out, err = run_cli(
            capsys, "amplify", "--graph", "line:40", "--successes", "1", "--sample", "-4"
        )
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "--sample" in err

    @pytest.mark.parametrize(
        "flags, code, message",
        [
            (
                ["--sample", "100000000000"],
                3,
                f"error: --sample capped at {LIMITS['samples'][0]} draws, got 100000000000\n",
            ),
            (["--sample", "2", "--seed", "-1"], 2, "error: --seed must be nonnegative, got -1\n"),
            (["--seed", "-3"], 2, "error: --seed must be nonnegative, got -3\n"),
        ],
    )
    def test_sample_cap_and_seed_are_checked_before_any_work(
        self, capsys, monkeypatch, flags, code, message
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("graph read before the sampling flags were checked")

        monkeypatch.setattr(cli, "parse_graph_spec", refuse)
        argv = ["amplify", "--graph", "line:4", "--successes", "1", *flags]
        assert run_cli(capsys, *argv) == (code, "", message)

    def test_class_table_cap_is_exit_3_before_any_histogram(
        self, capsys, monkeypatch, tmp_path
    ):
        # K_21 is too wide for the frontier DP, so it samples from a class table.
        path = tmp_path / "k21.graph"
        complete = graphs.Graph(21, tuple(itertools.combinations(range(21), 2)))
        path.write_text(format_graph_file(complete))

        def refuse(*args, **kwargs):
            raise AssertionError("histogram built before the class-table cap was checked")

        monkeypatch.setattr(cli, "build_histogram", refuse)
        code, out, err = run_cli(
            capsys, "amplify", "--graph", str(path), "--successes", "3", "--sample", "1"
        )
        assert code == 3
        assert out == ""
        assert err == "error: class tables capped at 20 vertices, got 21\n"

    @pytest.mark.parametrize(
        "spec, count", [("line:21", 100), ("grid:7x8", 1000), ("line:62", 10)]
    )
    def test_sampling_past_the_class_table_cap(self, capsys, spec, count):
        # Past 32 bits only the plain-Python scorer reads these assignments.
        doc = run_json(
            capsys, "amplify", "--graph", spec, "--successes", "10", "--sample", str(count)
        )
        g = graphs.parse_graph_spec(spec)
        assert len(doc["samples"]) == count
        for x in doc["samples"]:
            assert type(x) is int and 0 < x < 1 << g.n_vertices
            assert doc["weights"][ref_objective("maxcut", g.n_vertices, g.edges, x)] > 0

    @pytest.mark.parametrize("route", ["frontier", "enumeration"])
    def test_level_0_holds_the_zeros_only_with_include_zero(self, capsys, monkeypatch, route):
        # Without any measurement, level 0 of line:4 MaxCut has weight 1/15:
        # the all-ones assignment only, or 2/16 with the all-zeros one too.
        forced = {"frontier": graphs.frontier_order, "enumeration": lambda g: None}[route]
        monkeypatch.setattr(cli.amplifier, "frontier_route", lambda g, keep_tables: forced(g))
        argv = ["amplify", "--graph", "line:4", "--successes", "0", "--sample", "3000"]
        samples = run_json(capsys, *argv)["samples"]
        assert 0b1111 in samples and 0 not in samples
        samples = run_json(capsys, *argv, "--include-zero")["samples"]
        assert 0b1111 in samples and 0 in samples

    def test_sampling_is_one_draw_call_on_one_read_of_the_graph(
        self, capsys, tmp_path, monkeypatch
    ):
        calls = {"sample_assignment": 0, "read_graph_file": 0}

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counted(cli.amplifier, "sample_assignment")
        counted(graphs, "read_graph_file")
        path = tmp_path / "g.txt"
        path.write_text(format_graph_file(make_line(6)))
        argv = ["amplify", "--graph", str(path), "--successes", "3", "--sample", "500"]
        doc = run_json(capsys, *argv)
        assert calls == {"sample_assignment": 1, "read_graph_file": 1}
        assert len(doc["samples"]) == 500
        assert all(type(x) is int and 0 < x < 1 << 6 for x in doc["samples"])

    def test_sampling_orders_the_vertices_once(self, capsys, monkeypatch):
        # The pre-check, the histogram and the sampler share one frontier order.
        calls = []
        original = graphs.frontier_order

        def counted(g):
            calls.append(g)
            return original(g)

        monkeypatch.setattr(graphs, "frontier_order", counted)
        argv = ["amplify", "--graph", "grid:4x5", "--successes", "10", "--sample", "10"]
        doc = run_json(capsys, *argv, "--seed", "3")
        assert len(calls) == 1
        assert doc["samples"] == [
            796230, 889947, 513357, 87765, 953187, 952721, 554077, 95078, 664669, 681589
        ]

    def test_enumeration_route_draws_are_pinned(self, capsys):
        # grid:3x3 is below the frontier DP's break-even, so its members come
        # from a class table, by the same rank draw as on the DP route.
        assert cli.amplifier.sampling_route(graphs.parse_graph_spec("grid:3x3")) is None
        argv = ["amplify", "--graph", "grid:3x3", "--successes", "10", "--sample", "10"]
        doc = run_json(capsys, *argv, "--seed", "3")
        assert doc["samples"] == [238, 173, 426, 284, 235, 213, 342, 276, 171, 346]

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

    def test_all_experiments_are_byte_identical(self, capsys, tmp_path, monkeypatch):
        """``figures --experiment all --out out`` prints and writes pinned bytes.

        The hashes were taken with Python 3.11.7 and numpy 2.4.6; another
        libm or numpy may round a last digit differently. The file hash is
        over the 41 files concatenated in name order. It changed once, when
        trajectories moved from the fold to the closed form (it was
        ba4fbe3706cf3227473dd9b93055d1cad3f6de337d45c2bec568057bdb66e4af).
        """
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, "figures", "--experiment", "all", "--out", "out")
        assert code == 0, err
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "1ea52d3e8a38693be4d9f854c2e2c472dcac07caf04dd8d88ff761432392cc1f"
        )
        files = sorted((tmp_path / "out").iterdir(), key=lambda p: p.name)
        assert len(files) == 41
        digest = hashlib.sha256(b"".join(p.read_bytes() for p in files)).hexdigest()
        assert digest == "c5b126f420c5e45deda0523adcaec8bfe7fdb4ce0a698b764b2de53d7d68cc69"

    def test_long_trajectories_are_byte_identical(self, capsys, tmp_path, monkeypatch):
        """Two long trajectories print and write pinned bytes: line:14, and
        starring:12, whose P_sequence underflows from m = 3906 on. Taken as
        above; the file hash is over the 4 files concatenated in name order."""
        monkeypatch.chdir(tmp_path)
        argv = ["--graphs", "line:14,starring:12", "--m-max", "4000", "--format", "csv,json"]
        code, out, err = run_cli(capsys, "figures", "--experiment", "custom", *argv, "--out", "out")
        assert code == 0, err
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "6dd280f51d4f56c549248722311fa56d9ae60c605233fb76b227d50f06f33411"
        )
        files = sorted((tmp_path / "out").iterdir(), key=lambda p: p.name)
        assert len(files) == 4
        digest = hashlib.sha256(b"".join(p.read_bytes() for p in files)).hexdigest()
        assert digest == "ed44106accdb5452ace46d6e3d4e2c03ac5f844177706d28edc58b70f957d929"

    @pytest.mark.parametrize(
        "argv,names,out_hash,files_hash",
        [
            (
                ["hist", "--graph", "grid:4x5"],
                ["hist_grid_4x5.csv", "hist_grid_4x5.json"],
                "1f301c63deadd4c9985e1740f1ea2e2edcf1556e098935ef575c3b017eac848a",
                "277cdfbe3adebf6b678bb4239b7dddf39864c702126a84fce073446e0eec688c",
            ),
            (
                ["hist", "--uniform", "1000"],
                ["hist_uniform_1000.csv", "hist_uniform_1000.json"],
                "3ea88f3e7982f740f537252c939cc12aafb5de718e1446540d2e67db40bdd4a0",
                "2f066ac6beadc9da86803bf3eb0761f2eddb257fb784267dcc880c1b3723aa26",
            ),
            (
                # run_probability underflows and prints null.
                ["grid-table", "--grid", "starring:16", "--successes", "10000"],
                ["grid_table.json"],
                "8238c9b913e6c1a4aa6f5c323e4f4e63814e0c9fdc555d052198857cf68fd601",
                "8238c9b913e6c1a4aa6f5c323e4f4e63814e0c9fdc555d052198857cf68fd601",
            ),
        ],
        ids=["hist-grid", "hist-uniform", "grid-table-null"],
    )
    def test_single_reports_are_byte_identical(
        self, capsys, tmp_path, argv, names, out_hash, files_hash
    ):
        """``hist`` and ``grid-table`` print and write pinned bytes. Taken as
        above; the file hash is over the files concatenated in name order."""
        code, out, err = run_cli(capsys, *argv, "--out", str(tmp_path))
        assert code == 0, err
        assert hashlib.sha256(out.encode()).hexdigest() == out_hash
        files = sorted(tmp_path.iterdir(), key=lambda p: p.name)
        assert [p.name for p in files] == names
        digest = hashlib.sha256(b"".join(p.read_bytes() for p in files)).hexdigest()
        assert digest == files_hash

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

    def test_custom_graphs_past_the_class_table_cap(self, capsys, tmp_path):
        # Trajectories cost one histogram, so only the enumeration cap applies.
        doc = run_json(
            capsys,
            "figures",
            "--experiment",
            "custom",
            "--graphs",
            "grid:3x7",
            "--m-max",
            "5",
            "--out",
            str(tmp_path),
        )
        assert len(doc["written"]) == 3
        report = json.loads((tmp_path / "custom_grid_3x7.json").read_text())
        assert report["n_vertices"] == 21
        assert [r["m"] for r in report["records"]] == list(range(6))

    def test_custom_without_graphs_is_exit_2(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys, "figures", "--experiment", "custom", "--out", str(tmp_path)
        )
        assert code == 2

    def test_all_is_the_single_experiments_in_table_order(self, capsys, tmp_path):
        together, apart = tmp_path / "together", tmp_path / "apart"
        written = run_json(capsys, "figures", "--experiment", "all", "--out", str(together))
        singles = []
        for exp in ("fig1a", "fig1b", "fig1c", "fig2", "fig3", "grid-table"):
            doc = run_json(capsys, "figures", "--experiment", exp, "--out", str(apart))
            singles.extend(doc["written"])
        names = [Path(name).name for name in written["written"]]
        assert names == [Path(name).name for name in singles]
        assert len(names) == 41
        for name in names:
            assert (together / name).read_bytes() == (apart / name).read_bytes(), name

    def test_all_builds_each_graph_once_per_run(self, capsys, tmp_path, monkeypatch):
        calls = []
        build = experiments.build_histogram

        def counted(*args, **kwargs):
            calls.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(experiments, "build_histogram", counted)
        for _ in range(2):
            calls.clear()
            run_json(capsys, "figures", "--m-max", "2", "--out", str(tmp_path))
            assert len(calls) == 7

    def test_rewritten_graph_file_is_read_again(self, capsys, tmp_path):
        path = tmp_path / "g.graph"
        for n in (4, 6):
            path.write_text(format_graph_file(make_line(n)))
            args = ["--graphs", str(path), "--m-max", "1", "--format", "json"]
            doc = run_json(capsys, "figures", "--experiment", "custom", *args, "--out", str(tmp_path))
            (report,) = doc["written"]
            assert json.loads(Path(report).read_text())["n_vertices"] == n

    @pytest.mark.parametrize(
        "argv",
        [
            ["--graphs", "line:6"],
            ["--experiment", "custom", "--graphs", "line:5,LINE:5"],
            ["--experiment", "fig3", "--graphs", "grid:3x3,line:5"],
            ["--experiment", "grid-table", "--graphs", "grid:3x3,line:5"],
        ],
    )
    def test_refused_run_writes_nothing(self, capsys, tmp_path, argv):
        code, out, err = run_cli(capsys, "figures", *argv, "--out", str(tmp_path))
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("experiment", ["fig3", "grid-table"])
    def test_one_graph_experiment_names_itself(self, capsys, tmp_path, experiment):
        argv = ["--experiment", experiment, "--graphs", "grid:3x3,line:5", "--out", str(tmp_path)]
        code, _, err = run_cli(capsys, "figures", *argv)
        assert code == 2
        assert err.startswith(f"error: {experiment} draws one graph")

    def test_exact_repeat_is_one_graph(self, capsys, tmp_path):
        argv = ["--experiment", "custom", "--graphs", "line:5,line:5", "--m-max", "1"]
        doc = run_json(capsys, "figures", *argv, "--out", str(tmp_path))
        assert [Path(name).name for name in doc["written"]] == [
            "custom_line_5.csv", "custom_line_5.json", "custom.svg"
        ]

    def test_run_that_would_write_nothing_is_refused(self, capsys, tmp_path):
        out_dir = tmp_path / "out"
        argv = ["--experiment", "grid-table", "--format", "svg", "--out", str(out_dir)]
        code, out, err = run_cli(capsys, "figures", *argv)
        assert code == 2
        assert out == ""
        assert err == "error: grid-table writes only csv,json, got formats svg\n"
        assert not out_dir.exists()
        # Other experiments write SVG, so the same format is fine for all of them.
        assert experiments.ExperimentConfig("all", formats=("svg",)).formats == ("svg",)

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

    @pytest.mark.parametrize("p01", ["2", "0.2500001", "-0.1", "nan", "inf"])
    def test_p01_outside_its_domain_is_exit_2(self, capsys, p01):
        code, out, err = run_cli(
            capsys, "bounds", "--p-run", "0.5", "--m", "3", "--theta-ref", "pi/2",
            "--p01", p01,
        )
        assert code == 2 and out == ""
        assert "p(01) must lie in [0, 1/4]" in err

    def test_invalid_angle_is_exit_2(self, capsys):
        code, _, _ = run_cli(
            capsys, "bounds", "--p-run", "0.5", "--m", "1", "--theta-ref", "0"
        )
        assert code == 2

    @pytest.mark.parametrize(
        "p_run,m,theta_ref",
        [
            ("1e-320", "3000", "pi/2"),  # 2^m overflows a float
            ("0.1", "200", "0.01"),  # the run factor of the reference level underflows
        ],
    )
    def test_extreme_runs_stay_in_range(self, capsys, p_run, m, theta_ref):
        code, out, err = run_cli(
            capsys, "bounds", "--p-run", p_run, "--m", m, "--theta-ref", theta_ref
        )
        assert code == 0, err
        doc = strict_json(out)
        assert 0.0 <= doc["tail_lower_bound"] <= doc["tail_upper_bound"] <= 1.0

    def test_m_past_the_float_range_is_one_line(self, capsys):
        code, out, err = run_cli(
            capsys, "bounds", "--p-run", "0.5", "--theta-ref", "pi/2", "--m", "1" + "0" * 400
        )
        assert (code, out, err) == (2, "", PAST_THE_FLOAT_RANGE)


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
        assert doc["log_run_probability"] == pytest.approx(math.log(23 / 128), rel=1e-15)
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

    @pytest.mark.parametrize("target,expected", [("1e400", 332.8946), ("1e-400", -331.4910)])
    def test_target_ratio_past_the_float_range(self, capsys, target, expected):
        code, out, err = run_cli(
            capsys, "twopeak", "--q-u", "1/8", "--a-l", "1/8", "--a-u", "2",
            "--target-ratio", target,
        )
        assert code == 0, err
        doc = strict_json(out)
        assert doc["required_measurements"] == pytest.approx(expected, abs=1e-4)

    def test_lower_gain_past_the_float_range(self, capsys):
        code, out, err = run_cli(
            capsys, "twopeak", "--q-u", "1/8", "--a-l", "1e-400", "--a-u", "2",
            "--target-ratio", "16",
        )
        assert code == 0, err
        assert math.isfinite(strict_json(out)["required_measurements"])

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

    @pytest.mark.parametrize("a_l,a_u", [("1e400", "2"), ("1/8", "1e400")])
    def test_gain_past_the_float_range_is_exit_2(self, capsys, a_l, a_u):
        # The gains are checked before their angles are taken as floats.
        code, out, err = run_cli(
            capsys, "twopeak", "--q-u", "1/8", "--a-l", a_l, "--a-u", a_u
        )
        assert code == 2 and out == ""
        assert err == "error: per-step gains must satisfy 0 <= a_l < 1 < a_u <= 2\n"

    def test_dead_lower_peak_on_a_long_float_run(self, capsys):
        code, out, err = run_cli(
            capsys, "twopeak", "--q-u", "1/8", "--alpha-l", "0", "--alpha-u", "pi",
            "--measurements", "100000",
        )
        assert code == 0, err
        doc = strict_json(out)
        assert doc["ratio"] == {"exact": "infinity", "value": None}
        assert doc["p_upper"] == 1.0
        assert doc["run_probability"] == pytest.approx(0.125, rel=1e-12)
        assert doc["run_probability_via_ratio"] is None

    def test_exact_ratio_past_the_float_range(self, capsys):
        doc = run_json(
            capsys, "twopeak", "--q-u", "1/8", "--a-l", "1/8", "--a-u", "2",
            "--measurements", "300",
        )
        assert doc["ratio"] == {"exact": f"{16**300}/7", "value": None}
        assert doc["p_upper"]["value"] == 1.0

    def test_exact_result_past_the_digit_cap_is_exit_3(self, capsys):
        code, out, err = run_cli(
            capsys, "twopeak", "--q-u", "1/8", "--a-l", "1/8", "--a-u", "2",
            "--measurements", "1000000",
        )
        assert code == 3
        assert out == ""
        assert err.count("\n") == 1 and f"{LIMITS['exact_digits'][0]} digits" in err

    def test_ratio_past_the_float_range(self, capsys):
        code, out, err = run_cli(
            capsys, "twopeak", "--q-u", "1/8", "--alpha-l", "pi/3", "--alpha-u", "2pi/3",
            "--measurements", "5000",
        )
        assert code == 0, err
        doc = strict_json(out)
        # ratio = 3^5000 / 7 and run probability = 0.75^5000 / 8 leave the float range.
        assert doc["ratio"] == {"exact": "infinity", "value": None}
        assert doc["p_upper"] == 1.0
        assert 0.0 <= doc["run_probability"] < 1e-300
        assert doc["run_probability_via_ratio"] is None
        # The probability underflows; its log, about -1440 (10^-625.6), does not.
        log_p = math.log(1 / 8) + 5000 * math.log(0.75)
        assert doc["log_run_probability"] == pytest.approx(log_p, rel=1e-12)

    @pytest.mark.parametrize(
        "gains",
        [["--a-l", "1/8", "--a-u", "2"], ["--alpha-l", "pi/3", "--alpha-u", "2pi/3"]],
    )
    def test_measurements_past_the_float_range_is_one_line(self, capsys, gains):
        code, out, err = run_cli(
            capsys, "twopeak", "--q-u", "1/8", *gains, "--measurements", "1" + "0" * 400
        )
        assert (code, out, err) == (2, "", PAST_THE_FLOAT_RANGE)


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

    def test_series_branch_prints_the_gamma_ratio(self, capsys):
        doc = run_json(capsys, "uniform-asymptotics", "--m", "1000000000")
        assert doc["run_probability_exact"] == 1.7841241159297556e-05

    @pytest.mark.parametrize("theta", [[], ["--theta", "pi/2"]])
    def test_m_past_the_float_range_is_one_line(self, capsys, theta):
        code, out, err = run_cli(capsys, "uniform-asymptotics", "--m", "1" + "0" * 400, *theta)
        assert (code, out) == (2, "")
        assert err == PAST_THE_FLOAT_RANGE

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


    @pytest.mark.parametrize("qubits", ["11", "1000000"])
    def test_support_past_the_cap_is_exit_3(self, capsys, qubits):
        code, out, err = run_cli(capsys, "verify-oracle", "--max-qubits", qubits)
        assert code == 3
        assert out == ""
        assert "capped" in err
        # The message names the flag and the value given, not a clamped support.
        assert err.startswith("error: --max-qubits ") and err.endswith(f"got {qubits}\n")

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--max-qubits", "0"),
            ("--max-qubits", "-1"),
            ("--max-seq", "-1"),
            ("--sets", "0"),
            ("--sets", "-1"),
            ("--seed", "-1"),
        ],
    )
    def test_empty_plan_names_the_flag(self, capsys, flag, value):
        code, out, err = run_cli(capsys, "verify-oracle", "--sets", "2", flag, value)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and err.startswith(f"error: {flag} ")
        assert err.endswith(f"got {value}\n")

    def test_report_bytes_match_the_from_scratch_oracle(self, capsys):
        code, out, err = run_cli(
            capsys, "verify-oracle", "--sets", "10", "--max-qubits", "5", "--max-seq", "4",
            "--seed", "7",
        )
        assert code == 0, err
        ref = ref_compare_with_class_weights(
            n_phase_sets=10, max_support=32, max_sequence=4, seed=7
        )
        assert out == experiments.json_text(
            {
                "schema": meta.SCHEMA_VERSION,
                "cases": ref.n_cases,
                "max_probability_deviation": ref.max_probability_deviation,
                "max_distribution_deviation": ref.max_distribution_deviation,
            }
        )


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

    def test_underflowed_run_probability_prints_null(self, capsys, tmp_path):
        argv = ["grid-table", "--grid", "starring:16", "--successes", "10000"]
        doc = run_json(capsys, *argv, "--out", str(tmp_path))
        assert doc["run_probability"] is None
        assert doc["conditional_optimal_probability"] > 0.99
        assert json.loads((tmp_path / "grid_table.json").read_text()) == doc


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

    @pytest.mark.parametrize(
        "argv",
        [
            ["amplify", "--graph", "line:4", "--successes", "1000000000000"],
            ["figures", "--experiment", "custom", "--graphs", "line:4",
             "--m-max", "1000000000000"],
            ["grid-table", "--successes", "1000000000000"],
        ],
        ids=["amplify", "figures", "grid-table"],
    )
    def test_record_past_the_cap_is_exit_3_before_any_work(self, capsys, tmp_path, argv):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv, "--out", str(tmp_path / "out"))
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (3, "")
        assert err == (
            f"error: a measurement record capped at {LIMITS['record'][0]} outcomes, "
            "got 1000000000000\n"
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "argv,vertices",
        [
            (["graph", "line:100000000"], 100_000_000),
            (["graph", "grid:100000x100000"], 10_000_000_000),
            (["hist", "--graph", "starring:100000000"], 100_000_000),
            (["amplify", "--graph", "grid:1001x1000", "--successes", "1"], 1_001_000),
            (["figures", "--experiment", "custom", "--graphs", "line:1000001"], 1_000_001),
            (["grid-table", "--grid", "starring:1000001"], 1_000_001),
        ],
        ids=["graph-line", "graph-grid", "hist-starring", "amplify", "figures", "grid-table"],
    )
    def test_builder_graph_past_the_cap_is_exit_3_before_any_work(
        self, capsys, tmp_path, argv, vertices
    ):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv, "--out", str(tmp_path / "out"))
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (3, "")
        assert err == (
            f"error: graph builders capped at {LIMITS['builder'][0]} vertices, got {vertices}\n"
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "argv,levels",
        [
            (["hist", "--uniform", "1000000000000"], 1_000_000_000_000),
            (["amplify", "--uniform", "1000001", "--successes", "1"], 1_000_001),
        ],
        ids=["hist", "amplify"],
    )
    def test_uniform_past_the_cap_is_exit_3_before_any_work(self, capsys, tmp_path, argv, levels):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv, "--out", str(tmp_path / "out"))
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (3, "")
        assert err == (
            f"error: uniform histograms capped at {LIMITS['uniform'][0]} levels, got {levels}\n"
        )
        assert not (tmp_path / "out").exists()

    def test_unreadable_paths_are_exit_2(self, capsys, tmp_path):
        # A directory as a graph file, and an existing file as the out dir.
        taken = tmp_path / "taken"
        taken.write_text("keep\n")
        out_dir = tmp_path / "out"
        for argv, path in [
            (["hist", "--graph", str(tmp_path)], tmp_path),
            (["graph", str(tmp_path)], tmp_path),
            (["figures", "--experiment", "custom", "--graphs", str(tmp_path),
              "--out", str(out_dir)], tmp_path),
            (["figures", "--experiment", "fig3", "--out", str(taken)], taken),
        ]:
            code, out, err = run_cli(capsys, *argv)
            assert code == 2, argv
            assert out == ""
            assert err.startswith("error: ") and err.count("\n") == 1
            assert str(path) in err
        assert sorted(tmp_path.iterdir()) == [taken]
        assert taken.read_text() == "keep\n"


    @pytest.mark.parametrize(
        "argv",
        [
            ["hist", "--graph", "line:3"],
            ["amplify", "--graph", "line:3", "--successes", "2"],
            ["graph", "line:3"],
            ["graph", "line:3", "--optima"],
            ["grid-table", "--grid", "grid:2x2"],
        ],
    )
    def test_out_onto_a_file_prints_nothing(self, capsys, tmp_path, argv):
        taken = tmp_path / "taken"
        taken.write_text("keep\n")
        code, out, err = run_cli(capsys, *argv, "--out", str(taken))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert taken.read_text() == "keep\n"


class TestJsonWriter:
    """Every verb's JSON report is what the standard library's encoder prints."""

    ARGVS = {
        "hist": ("hist", "--graph", "grid:4x4", "--out", "out"),
        "hist-uniform": ("hist", "--uniform", "300"),
        "amplify-sample-dp": ("amplify", "--graph", "grid:4x5", "--successes", "5", "--sample", "400"),
        "amplify-sample-enum": (
            "amplify", "--graph", "grid:3x3", "--successes", "5", "--sample", "400", "--out", "out"
        ),
        "amplify-underflow": ("amplify", "--graph", "starring:5", "--sequence", "10" * 700),
        "figures-all": ("figures", "--experiment", "all", "--out", "out"),
        "figures-custom": (
            "figures", "--experiment", "custom", "--graphs", "line:14,grid:3x4", "--m-max", "1500",
            "--format", "csv,json", "--out", "out",
        ),
        "grid-table": ("grid-table", "--out", "out"),
        "verify-oracle": ("verify-oracle", "--sets", "5", "--max-seq", "4"),
        "twopeak": (
            "twopeak", "--q-u", "1/8", "--a-l", "1/8", "--a-u", "2", "--measurements", "20",
            "--target-ratio", "100",
        ),
        "bounds": ("bounds", "--p-run", "0.01", "--m", "10", "--theta-ref", "2pi/3", "--p01", "0.2"),
        "uniform-asymptotics": ("uniform-asymptotics", "--m", "30", "--theta", "pi/2"),
        "graph-optima": ("graph", "grid:3x4", "--optima"),
    }

    @pytest.mark.parametrize("name", ARGVS)
    def test_report_is_the_stdlib_encoders_text(self, capsys, tmp_path, monkeypatch, name):
        docs = []
        writer = experiments.json_text

        def recorded(doc):
            docs.append(doc)
            return writer(doc)

        monkeypatch.setattr(experiments, "json_text", recorded)
        monkeypatch.setattr(cli, "json_text", recorded)
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, *self.ARGVS[name])
        assert code == 0, err
        texts = [writer(doc) for doc in docs]
        assert texts == [ref_json_text(ref_dict_rows(doc)) for doc in docs]
        assert out == texts[-1]
        files = [p.read_text() for p in sorted(tmp_path.glob("out/*.json"))]
        assert set(files) <= set(texts)
        if name.startswith("figures"):
            # One document per file, then the list of files on stdout.
            assert len(texts) == len(files) + 1
        if name == "amplify-underflow":
            assert '"probability": null' in out
        if name == "figures-custom":
            assert len(files) == 2 and all(len(text) > 300_000 for text in files)

    def test_sampling_reports_cover_both_routes(self):
        assert amplifier.sampling_route(graphs.parse_graph_spec("grid:4x5")) is not None
        assert amplifier.sampling_route(graphs.parse_graph_spec("grid:3x3")) is None


def _unreached(sources: dict[str, str], traced: set[tuple[str, str]]) -> list[tuple[str, str]]:
    """Each (module, name) of a function, class or non-dunder method defined in
    ``sources`` (module name to text) that no ``Name``, ``Attribute`` or import
    alias names outside its own definition, and that ``traced`` does not list."""
    defined, named = [], []
    for module, text in sources.items():
        tree = ast.parse(text)
        for top in tree.body:
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                defined.append((module, top.name, top))
            if isinstance(top, ast.ClassDef):
                defined += [
                    (module, f"{top.name}.{node.name}", node)
                    for node in top.body
                    if isinstance(node, ast.FunctionDef) and not re.fullmatch(r"__\w+__", node.name)
                ]
        for node in ast.walk(tree):
            name = (
                node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute)
                else node.name if isinstance(node, ast.alias)
                else None
            )
            if name is not None:
                named.append((name, module, node.lineno))
    return [
        (module, qualname)
        for module, qualname, node in defined
        if (module, qualname) not in traced
        and not any(
            name == qualname.rpartition(".")[2]
            and not (where == module and node.lineno <= line <= node.end_lineno)
            for name, where, line in named
        )
    ]


class TestTopLevel:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "phase-amp" in capsys.readouterr().out

    def test_package_root_holds_only_the_version_and_submodules(self):
        # Every name has one import path: the module that defines it.
        public = {n: v for n, v in vars(phaseamp).items() if not n.startswith("_")}
        assert public
        for name, value in public.items():
            assert isinstance(value, types.ModuleType), name
            assert value.__name__ == f"phaseamp.{name}"
        assert phaseamp.__version__ == meta.__version__

    def test_one_exception_class_per_exit_code(self):
        defined = {
            name: value for name, value in vars(errors).items()
            if isinstance(value, type) and value.__module__ == errors.__name__
        }
        codes = {name: cls.exit_code for name, cls in defined.items() if name != "PhaseAmpError"}
        assert codes == {
            "InvalidParameterError": 2, "ResourceLimitError": 3, "ImpossibleOutcomeError": 4,
        }
        assert all(issubclass(cls, errors.PhaseAmpError) for cls in defined.values())

    def test_src_raises_only_the_exit_code_classes(self):
        # Every raise in the package names one of the three classes, or re-raises.
        # argparse's own error type is raised while parsing, and the JSON writer
        # raises json.dumps's TypeError for a value or key a report cannot hold:
        # a fault of the program, not of its input, so it has no exit code.
        allowed = {"InvalidParameterError", "ResourceLimitError", "ImpossibleOutcomeError"}
        others = set()
        for path in sorted(Path(phaseamp.__file__).parent.glob("*.py")):
            for top in ast.parse(path.read_text()).body:
                for node in ast.walk(top):
                    if not isinstance(node, ast.Raise) or node.exc is None:
                        continue
                    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                    if ast.unparse(exc) not in allowed:
                        others.add((path.name, getattr(top, "name", None), ast.unparse(exc)))
        assert others == {
            ("cli.py", "_add_format", "argparse.ArgumentTypeError"),
            ("experiments.py", "_texts", "TypeError"),
            ("experiments.py", "_rows", "TypeError"),
        }

    def test_src_defines_only_what_src_or_the_tracer_names(self):
        # A name only tests call is library-only code.
        sources = {
            path.stem: path.read_text()
            for path in sorted(Path(phaseamp.__file__).parent.glob("*.py"))
        }
        traced = {(module, attr) for module, attr, _ in _load_tracing().TARGETS}
        assert _unreached(sources, traced) == []

    def test_the_reach_scan_ignores_a_name_inside_its_own_definition(self):
        sources = {
            "a": "def used():\n    return helper\n\n\ndef helper():\n    return helper\n\n\n"
                 "class K:\n    def __init__(self):\n        pass\n\n"
                 "    def method(self):\n        return self.method\n",
            "b": "from .a import used\n",
        }
        assert _unreached(sources, set()) == [("a", "K"), ("a", "K.method")]
        assert _unreached(sources, {("a", "K"), ("a", "K.method")}) == []

    def test_src_prints_numbers_for_reports_in_experiments_only(self):
        # One CSV writer: only experiments.py spells the .12g format, and no
        # module but experiments.py defines a to_csv.
        spelled, to_csv = set(), set()
        for path in sorted(Path(phaseamp.__file__).parent.glob("*.py")):
            text = path.read_text()
            if ".12g" in text:
                spelled.add(path.name)
            for node in ast.walk(ast.parse(text)):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == "to_csv":
                    to_csv.add(path.name)
        assert spelled == {"experiments.py"}
        assert to_csv <= {"experiments.py"}

    def test_verb_is_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_one_parser_serves_every_call(self, capsys):
        # Defaults and earlier values must not leak from one call into the next.
        argvs = [
            ["amplify", "--graph", "line:5", "--successes", "3", "--sample", "4", "--seed", "2"],
            ["amplify", "--graph", "line:5", "--successes", "3"],
            ["hist", "--graph", "line:4", "--format", "csv"],
            ["hist", "--uniform", "3"],
            ["bounds", "--p-run", "0.5", "--m", "3", "--theta-ref", "pi/2", "--p01", "0.2"],
            ["bounds", "--p-run", "0.5", "--m", "3", "--theta-ref", "pi/2"],
            ["amplify", "--graph", "line:5"],
            ["figures", "--experiment", "nope"],
            ["hist", "--graph", "line:63"],
            ["amplify", "--uniform", "1", "--sequence", "0"],
            ["verify-oracle", "--sets", "0"],
            ["--version"],
            ["uniform-asymptotics", "--m", "4", "--theta", "pi/2"],
            ["uniform-asymptotics", "--m", "4"],
        ]

        def run(argv):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            return code, *capsys.readouterr()

        shared = [run(argv) for argv in argvs]
        assert build_parser() is build_parser()
        fresh = []
        for argv in argvs:
            build_parser.cache_clear()
            fresh.append(run(argv))
        assert shared == fresh
        assert {code for code, _, _ in shared} == {0, 2, 3, 4}

    @pytest.mark.filterwarnings("ignore:.*found in sys.modules:RuntimeWarning")
    def test_runs_as_a_module(self, capsys, monkeypatch):
        argv = ["phase-amp", "bounds", "--p-run", "0.375", "--m", "2", "--theta-ref", "2pi/3"]
        monkeypatch.setattr(sys, "argv", argv)
        with pytest.raises(SystemExit) as exc:
            runpy.run_module("phaseamp.cli", run_name="__main__")
        assert exc.value.code == 0
        assert strict_json(capsys.readouterr().out)["m"] == 2

    def test_resource_limit_is_exit_3(self, capsys):
        code, out, err = run_cli(capsys, "hist", "--graph", "line:63")
        assert code == 3
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_graphs_past_the_enumeration_cap(self, capsys, tmp_path):
        doc = run_json(capsys, "hist", "--graph", "line:40", "--include-zero")
        assert [level["count"] for level in doc["levels"]] == [
            2 * math.comb(39, k) for k in range(40)
        ]
        doc = run_json(capsys, "hist", "--graph", "grid:6x6", "--objective", "covered-edges")
        assert doc["support"] == 2**36 - 1
        assert sum(level["k"] * level["count"] for level in doc["levels"]) == 3 * 60 * 2**34
        # Too wide for a frontier table and too many vertices to enumerate.
        complete = graphs.Graph(29, tuple((u, v) for v in range(29) for u in range(v)))
        graph_file = tmp_path / "k29.graph"
        graph_file.write_text(format_graph_file(complete))
        code, out, err = run_cli(capsys, "hist", "--graph", str(graph_file))
        assert code == 3 and out == ""
        assert f"frontier table of {LIMITS['frontier'][0]} " in err
        assert f"enumeration of {LIMITS['enumeration'][0]} vertices" in err

    def test_readme_states_the_size_caps(self):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        text = " ".join(readme.read_text().split())
        caps = re.search(
            r"a histogram counts the assignments of graphs of at most (\d+) vertices: "
            r"by a frontier DP when its largest table holds at most (\d+) counts and "
            r"its table work is below the 2\^n·\|E\| edge scores of enumeration, and "
            r"otherwise by enumeration, for graphs of at most (\d+) vertices; optima "
            r"enumerate graphs of at most (\d+) vertices; assignment sampling keeps "
            r"every frontier DP table when they hold at most (\d+) counts together, "
            r"and otherwise enumerates a class table, for graphs of at most (\d+) "
            r"vertices on that route only; `--sample` draws at most (\d+) assignments; "
            r"a measurement record \(`amplify --successes`, `figures --m-max` and "
            r"`--successes`, `grid-table --successes`\) holds at most (\d+) outcomes; "
            r"a builder graph \(`line:Q`, `grid:RxC`, `starring:Q`\) has at most (\d+) "
            r"vertices, counted as R·C for a grid, checked before any edge is built; "
            r"`--uniform N` has at most (\d+) levels; the dense oracle is capped at N=(\d+) / (\d+) measurements; exact "
            r"`twopeak` results at (\d+) digits",
            text,
        )
        assert caps is not None
        budgets = (
            "histogram", "frontier", "enumeration", "enumeration", "frontier",
            "class_table", "samples", "record", "builder", "uniform", "dense_support",
            "dense_sequence", "exact_digits",
        )
        assert tuple(int(v) for v in caps.groups()) == tuple(
            LIMITS[b][0] for b in budgets
        )
        assert set(LIMITS) == set(budgets)
