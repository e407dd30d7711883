"""Fuzzing the command line: every argument vector gives a report or a one-line error.

``main`` runs in process on argument vectors drawn flag by flag, with values
inside and outside each flag's domain. ``figures`` writes files, so it has
its own test: a run writes its report or nothing. Sizes stay small so a run
takes seconds.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from phaseamp import amplifier
from phaseamp.cli import main
from phaseamp.errors import LIMITS
from phaseamp.graphs import ObjectiveKind, parse_graph_spec

from .oracles import ref_objective, ref_validating_condition

# Builder specs past the vertex cap, refused before any edge is built.
HUGE = ("line:100000000", "grid:100000x100000", "starring:100000000")
# "." is a directory, which no graph file can be.
GRAPHS = (
    "line:2", "line:7", "grid:2x3", "grid:3x3", "starring:5", "starring:9",
    "line:1", "grid:0x3", "line:29", "nosuch:4", ".", *HUGE,
)
GRIDS = ("grid:3x3", "grid:4x4", "line:10", "starring:8", "line:29", "grid:2x0", *HUGE)
OBJECTIVES = ("maxcut", "covered-edges", "cover", "bogus")
ANGLES = (
    "0", "pi", "pi/2", "pi/3", "2pi/3", "3pi/4", "0.5", "3.1", "-1", "7",
    "nan", "inf", "pi/0", "x",
)
# 1e400 and 1e-400 are exact, but past the float range either way.
FRACTIONS = (
    "0", "1", "1/16", "1/8", "1/2", "7/8", "3/2", "2", "-1/4", "1/0", "x", "1e400", "1e-400",
)
FLOATS = ("0", "1e-320", "1e-9", "0.05", "0.5", "1", "1.5", "-0.1", "nan", "inf")
LENGTHS = st.integers(min_value=-2, max_value=2000)
# Graph specs for figures: benchmark graphs, others, refused ones (a directory
# among them), and two that give the same file name.
FIGURE_GRAPHS = (
    "line:10", "grid:3x3", "grid:4x4", "line:6", "line:4", "LINE:4", "grid:2x3",
    "nosuch:4", "line:29", "", ".", *HUGE,
)
EXPERIMENTS = ("fig1a", "fig1b", "fig1c", "fig2", "fig3", "grid-table", "custom", "all", "fig9")

# Verbs whose report on stdout is JSON whatever their flags.
JSON_VERBS = {"hist", "amplify", "bounds", "twopeak", "uniform-asymptotics",
              "verify-oracle", "grid-table"}


def _text(values) -> st.SearchStrategy[str]:
    return st.sampled_from(values)


def _int(low: int, high: int) -> st.SearchStrategy[str]:
    return st.integers(min_value=low, max_value=high).map(str)


def _opt(flag: str, values: st.SearchStrategy[str]) -> st.SearchStrategy[list[str]]:
    return st.one_of(st.just([]), values.map(lambda v: [flag, v]))


def _switch(flag: str) -> st.SearchStrategy[list[str]]:
    return st.sampled_from([[], [flag]])


def _verb(name: str, *parts: st.SearchStrategy[list[str]]) -> st.SearchStrategy[list[str]]:
    return st.tuples(*parts).map(lambda ps: [name, *(a for p in ps for a in p)])


def _req(flag: str, values: st.SearchStrategy[str]) -> st.SearchStrategy[list[str]]:
    return values.map(lambda v: [flag, v])


# Uniform level counts: small, just past the cap, and far past it.
LEVELS = st.one_of(_int(-1, 40), _text((str(LIMITS["uniform"][0] + 1), str(10**12))))
SOURCE = st.one_of(_req("--graph", _text(GRAPHS)), _req("--uniform", LEVELS))
# Run lengths: small, past the flat-spectrum series seam, and past the float range.
RUN_LENGTHS = st.one_of(
    LENGTHS.map(str), _text((str(10**6), str(10**9), str(2**53), "1" + "0" * 400)),
)
RECORD = st.one_of(
    _req("--sequence", st.text(alphabet="01", max_size=40)),
    _req("--successes", LENGTHS.map(str)),
)

ARGVS = st.one_of(
    _verb(
        "graph", st.just([]), _text(GRAPHS).map(lambda s: [s]), _switch("--optima"),
        _opt("--objective", _text(OBJECTIVES)),
    ),
    _verb(
        "hist", SOURCE, _opt("--objective", _text(OBJECTIVES)), _switch("--include-zero"),
    ),
    _verb(
        "amplify", SOURCE, RECORD, _opt("--tail-at", _text(ANGLES)),
        _opt("--sample", _int(-2, 4)), _opt("--seed", _int(-2, 9)),
        _switch("--include-zero"),
    ),
    _verb(
        "bounds", _req("--p-run", _text(FLOATS)), _req("--m", RUN_LENGTHS),
        _req("--theta-ref", _text(ANGLES)), _opt("--p01", _text(FLOATS)),
        _opt("--half-width", _text(ANGLES)),
    ),
    _verb(
        "twopeak", _req("--q-u", _text(FRACTIONS)),
        st.one_of(
            st.tuples(_opt("--a-l", _text(FRACTIONS)), _opt("--a-u", _text(FRACTIONS))),
            st.tuples(_opt("--alpha-l", _text(ANGLES)), _opt("--alpha-u", _text(ANGLES))),
        ).map(lambda pair: [*pair[0], *pair[1]]),
        _opt("--measurements", RUN_LENGTHS), _opt("--target-ratio", _text(FRACTIONS)),
    ),
    _verb(
        "uniform-asymptotics", _req("--m", RUN_LENGTHS), _opt("--theta", _text(ANGLES)),
    ),
    _verb(
        "verify-oracle", _opt("--max-qubits", _int(-2, 12)), _opt("--max-seq", _int(-2, 9)),
        _req("--sets", _int(-1, 3)), _opt("--seed", _int(-2, 9)),
    ),
    _verb("grid-table", _opt("--grid", _text(GRIDS)), _opt("--successes", LENGTHS.map(str))),
)


def _reject_constant(name: str):
    raise ValueError(f"non-finite JSON constant {name}")


def _flag(argv: list[str], name: str, default: str) -> str:
    return argv[argv.index(name) + 1] if name in argv else default


def _run(argv: list[str]) -> tuple[int, str, str, bool]:
    """Exit code, stdout, stderr, and whether argparse refused the vector."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code, refused = main(argv), False
        except SystemExit as exc:
            code, refused = exc.code, True
    return code, out.getvalue(), err.getvalue(), refused


@settings(max_examples=400, deadline=None)
@given(argv=ARGVS)
@example(argv=["twopeak", "--q-u", "1/8", "--alpha-l", "0", "--alpha-u", "pi",
               "--measurements", "100000"])
@example(argv=["twopeak", "--q-u", "1/8", "--alpha-l", "pi/3", "--alpha-u", "2pi/3",
               "--measurements", "5000"])
@example(argv=["verify-oracle", "--max-seq", "-1", "--sets", "2"])
@example(argv=["verify-oracle", "--max-qubits", "0", "--sets", "2"])
@example(argv=["verify-oracle", "--max-qubits", "-1", "--sets", "2"])
@example(argv=["amplify", "--graph", "line:21", "--successes", "3", "--sample", "1"])
@example(argv=["amplify", "--graph", "line:2", "--successes", "1", "--sample", "100000000000"])
@example(argv=["verify-oracle", "--sets", "2", "--seed", "-1"])
@example(argv=["amplify", "--graph", "starring:5", "--sequence", "10" * 700])
@example(argv=["twopeak", "--q-u", "1/8", "--a-l", "1/8", "--a-u", "2",
               "--target-ratio", "1e400"])
@example(argv=["bounds", "--p-run", "0.5", "--m", "3", "--theta-ref", "pi/2", "--p01", "inf"])
@example(argv=["twopeak", "--q-u", "0", "--a-l", "0", "--a-u", "1e400"])
def test_every_argv_gives_a_report_or_a_one_line_error(argv):
    code, out, err, refused = _run(argv)
    assert code in (0, 2, 3, 4), (argv, code, err)
    verb = argv[0]
    if refused:
        assert code == 2 and out == ""
        assert ": error: " in err.splitlines()[-1]
        return
    if code != 0:
        assert out == "", argv
        assert err.count("\n") == 1 and err.startswith("error: "), (argv, err)
    if verb == "verify-oracle":
        # A plan that would compare nothing, or build past the dense cap, is
        # refused by the flag that asks for it, quoting the value given.
        qubits = int(_flag(argv, "--max-qubits", "5"))
        if qubits < 1:
            assert code == 2 and "--max-qubits" in err, (argv, err)
        elif int(_flag(argv, "--max-seq", "6")) < 0:
            assert code == 2 and "--max-seq" in err, (argv, err)
        elif int(_flag(argv, "--sets", "50")) < 1:
            assert code == 2 and "--sets" in err, (argv, err)
        elif int(_flag(argv, "--seed", "0")) < 0:
            assert code == 2 and "--seed" in err, (argv, err)
        elif 1 << qubits > LIMITS["dense_support"][0]:
            assert code == 3 and err.startswith("error: --max-qubits "), (argv, err)
            assert err.endswith(f"got {qubits}\n"), (argv, err)
    if verb == "amplify":
        sample = int(_flag(argv, "--sample", "0"))
        if sample < 0:
            assert code == 2 and "--sample" in err, (argv, err)
        elif sample > LIMITS["samples"][0]:
            assert code == 3 and err.startswith("error: --sample "), (argv, err)
        elif int(_flag(argv, "--seed", "0")) < 0:
            assert code == 2 and "--seed" in err, (argv, err)
    if verb == "hist" and _flag(argv, "--graph", None) == ".":
        assert code == 2 and "'.'" in err, (argv, err)
    if set(HUGE) & set(argv) or int(_flag(argv, "--uniform", "0")) > LIMITS["uniform"][0]:
        # Past the builder or uniform cap there is no report.
        assert code != 0, argv
    if code != 0:
        return
    assert err == "", argv
    if verb in JSON_VERBS or "--optima" in argv:
        doc = json.loads(out, parse_constant=_reject_constant)
        if verb == "verify-oracle":
            assert doc["cases"] >= 1, argv
        if verb == "amplify":
            # The fold refuses an impossible record, so neither probability
            # of an accepted one may read 0.0: it is positive, or null past
            # the float range.
            assert doc["probability"] != 0.0, argv
            assert doc["closed_form_probability"] != 0.0, argv
            if int(_flag(argv, "--sample", "0")) > 0:
                _check_samples(argv, doc)
        if verb == "bounds" and "band" in doc:
            assert 0.0 <= doc["band"]["lower_bound"] <= 1.0, argv


def _check_samples(argv: list[str], doc: dict) -> None:
    """K samples, each a supported assignment on a level of positive weight."""
    samples = doc["samples"]
    assert len(samples) == int(_flag(argv, "--sample", None)), argv
    g = parse_graph_spec(_flag(argv, "--graph", None))
    kind = ObjectiveKind.coerce(_flag(argv, "--objective", "maxcut")).value
    first = 0 if "--include-zero" in argv else 1
    for x in samples:
        assert type(x) is int and first <= x < 1 << g.n_vertices, (argv, x)
        assert doc["weights"][ref_objective(kind, g.n_vertices, g.edges, x)] > 0, (argv, x)


# The amplify and verify-oracle @examples above, and runs of each that succeed.
FOLD_ARGVS = [
    ["verify-oracle", "--max-seq", "-1", "--sets", "2"],
    ["verify-oracle", "--max-qubits", "0", "--sets", "2"],
    ["verify-oracle", "--max-qubits", "-1", "--sets", "2"],
    ["verify-oracle", "--sets", "2", "--seed", "-1"],
    ["verify-oracle", "--max-qubits", "6", "--max-seq", "8", "--sets", "3", "--seed", "5"],
    ["amplify", "--graph", "line:21", "--successes", "3", "--sample", "1"],
    ["amplify", "--graph", "line:2", "--successes", "1", "--sample", "100000000000"],
    ["amplify", "--graph", "starring:5", "--sequence", "10" * 700],
    ["amplify", "--graph", "grid:3x3", "--objective", "cover", "--sequence", "1101" * 50,
     "--sample", "20", "--seed", "4"],
    ["amplify", "--graph", "line:7", "--sequence", "0" * 9],
    ["amplify", "--uniform", "1", "--sequence", "110"],
    ["amplify", "--graph", "grid:3x3", "--successes", "40"],
    # A run past one block of the fold. (Trajectories, and so `figures` and
    # `grid-table`, come from the closed form and no longer fold.)
    ["amplify", "--graph", "grid:3x4", "--successes", "1100"],
]


@pytest.mark.parametrize("argv", FOLD_ARGVS)
def test_fold_prints_what_the_validating_step_printed(monkeypatch, tmp_path, argv):
    if argv[0] == "figures":
        argv = [*argv, "--out", str(tmp_path)]
    trusted = _run(argv), _files(tmp_path)
    # Every step of the fold kernel, of `step` and so of the dense oracle's
    # fold side goes through the step helper.
    monkeypatch.setattr(amplifier, "_condition", ref_validating_condition)
    assert (_run(argv), _files(tmp_path)) == trusted


def _files(out_dir: Path) -> dict[str, str]:
    return {path.name: path.read_text() for path in sorted(out_dir.iterdir())}


FIGURES_ARGVS = _verb(
    "figures",
    _req("--experiment", _text(EXPERIMENTS)),
    _opt("--graphs", st.lists(_text(FIGURE_GRAPHS), min_size=1, max_size=3).map(",".join)),
    _opt("--m-max", _int(-1, 4)),
    _opt("--successes", _int(-1, 4)),
    _opt("--format", _text(("csv", "json,svg", "svg", "csv,pdf", ","))),
)


@settings(max_examples=200, deadline=None)
@given(argv=FIGURES_ARGVS, out_is_a_file=st.booleans())
@example(argv=["figures", "--experiment", "all", "--graphs", "line:6"], out_is_a_file=False)
@example(argv=["figures", "--experiment", "custom", "--graphs", "line:4,LINE:4"],
         out_is_a_file=False)
@example(argv=["figures", "--experiment", "custom", "--graphs", "line:4,line:4"],
         out_is_a_file=False)
@example(argv=["figures", "--experiment", "fig3", "--graphs", "grid:3x3,line:4"],
         out_is_a_file=False)
@example(argv=["figures", "--experiment", "custom", "--graphs", "."], out_is_a_file=False)
@example(argv=["figures", "--experiment", "fig3"], out_is_a_file=True)
def test_figures_writes_its_report_or_nothing(tmp_path_factory, argv, out_is_a_file):
    out_dir = tmp_path_factory.mktemp("figures")
    target = out_dir / "taken" if out_is_a_file else out_dir
    if out_is_a_file:
        target.write_text("")
    code, out, err, refused = _run([*argv, "--out", str(target)])
    assert code in (0, 2, 3, 4), (argv, code, err)
    chosen = set(_flag(argv, "--graphs", "").split(","))
    if "." in chosen or set(HUGE) & chosen or out_is_a_file:
        # An unreadable graph file, a builder graph past the cap or an
        # unwritable out dir is never a report.
        assert code != 0, (argv, out_is_a_file)
    if code != 0:
        assert out == "", argv
        assert refused or err.count("\n") == 1 and err.startswith("error: "), (argv, err)
        assert list(out_dir.iterdir()) == ([target] if out_is_a_file else []), argv
        assert not out_is_a_file or target.read_text() == "", argv
        return
    assert not refused and err == "", argv
    written = json.loads(out, parse_constant=_reject_constant)["written"]
    assert len(set(written)) == len(written), argv
    # Every listed path exists, and nothing else was written.
    assert sorted(out_dir.iterdir()) == sorted(Path(path) for path in written), argv
