"""Command line interface.

Every verb prints a JSON report to stdout (the ``graph`` verb prints the
graph text format). ``graph``, ``hist``, ``amplify``, ``figures`` and
``grid-table`` take ``--out DIR`` to also write report files; ``hist`` and
``figures`` take ``--format`` to select their formats. Exit codes: 0 success,
2 invalid arguments, 3 resource limit exceeded, 4 impossible measurement
outcome. A path that cannot be read or written is invalid input (exit 2).
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import sys
from fractions import Fraction

from . import amplifier, analytics, experiments, fullsim
from .encoding import build_histogram, uniform_histogram
from .errors import LIMITS, InvalidParameterError, PhaseAmpError, ResourceLimitError, check_limit
from .experiments import FORMATS, json_text, report_probability, slug, write_files
from .graphs import (
    ObjectiveKind,
    brute_force_optima,
    format_graph_file,
    parse_graph_spec,
)
from .meta import SCHEMA_VERSION, __version__

_ANGLE_RE = re.compile(r"(\d+(?:\.\d+)?)?\*?pi(?:/(\d+(?:\.\d+)?))?")


def parse_angle(text: str) -> float:
    """Parse '1.5', 'pi', 'pi/2', '3pi/4', or '2*pi/3' into finite radians."""
    s = text.strip().lower().replace(" ", "")
    match = _ANGLE_RE.fullmatch(s)
    if match:
        coefficient = float(match.group(1)) if match.group(1) else 1.0
        divisor = float(match.group(2)) if match.group(2) else 1.0
        if divisor == 0:
            raise InvalidParameterError(f"angle divides by zero: {text!r}")
        value = coefficient * math.pi / divisor
    else:
        try:
            value = float(s)
        except ValueError as exc:
            raise InvalidParameterError(f"cannot parse angle: {text!r}") from exc
    if not math.isfinite(value):
        raise InvalidParameterError(f"angle must be finite: {text!r}")
    return value


def parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidParameterError(f"cannot parse fraction: {text!r}") from exc


def _num(value) -> object:
    """JSON form of a number; exact rationals carry their exact string."""
    if isinstance(value, Fraction):
        exact = f"{value.numerator}/{value.denominator}"
        try:
            return {"exact": exact, "value": float(value)}
        except OverflowError:  # finite, but past the float range
            return {"exact": exact, "value": None}
    if value is None:
        return None
    v = float(value)
    if math.isinf(v):
        return {"exact": "infinity", "value": None}
    return v


def _print_json(doc: dict) -> None:
    sys.stdout.write(json_text(doc))


def _emit(
    text: str, out: str | None, stem: str, renders: dict, formats: tuple[str, ...] | None = None
) -> None:
    """Write the report files into ``out`` when it is given, then print ``text``.

    The files go first, so a run that cannot write them prints nothing.
    """
    if out:
        write_files(out, [(stem, renders)], formats)
    sys.stdout.write(text)


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise InvalidParameterError(f"--seed must be nonnegative, got {seed}")


def _graph_for(args: argparse.Namespace):
    """The graph named by ``--graph``; None for ``--uniform``."""
    return None if args.uniform is not None else parse_graph_spec(args.graph)


def _histogram_for(args: argparse.Namespace, graph):
    if graph is None:
        return uniform_histogram(args.uniform), f"uniform:{args.uniform}"
    objective = ObjectiveKind.coerce(args.objective)
    return (
        build_histogram(graph, objective, include_zero=args.include_zero),
        args.graph,
    )


def _cmd_graph(args: argparse.Namespace) -> int:
    g = parse_graph_spec(args.spec)
    text = format_graph_file(g)
    report = text
    if args.optima:
        objective = ObjectiveKind.coerce(args.objective)
        best, n_maximizers, maximizers = brute_force_optima(g, objective)
        report = json_text(
            {
                "schema": SCHEMA_VERSION,
                "graph": args.spec,
                "objective": objective.value,
                "n_vertices": g.n_vertices,
                "n_edges": g.edge_count,
                "best": best,
                "n_maximizers": n_maximizers,
                "maximizers": maximizers,
            }
        )
    _emit(report, args.out, slug(args.spec), {"graph": lambda: text})
    return 0


def _cmd_hist(args: argparse.Namespace) -> int:
    h, label = _histogram_for(args, _graph_for(args))
    data = experiments.histogram_renders(h, {"graph": label})
    text = data["json"]()
    renders = {"json": lambda: text, "csv": data["csv"]}
    _emit(text, args.out, f"hist_{slug(label)}", renders, args.format)
    return 0


def _cmd_amplify(args: argparse.Namespace) -> int:
    if args.sample < 0:
        raise InvalidParameterError("--sample must be nonnegative")
    check_limit("samples", args.sample, "--sample")
    _check_seed(args.seed)
    if args.sequence is not None:
        y = amplifier.MeasurementSequence.from_string(args.sequence)
    else:
        y = amplifier.MeasurementSequence.successes(args.successes)
    theta = parse_angle(args.tail_at)
    graph = _graph_for(args)
    if args.sample:
        if graph is None:
            raise InvalidParameterError("assignment sampling needs a graph source")
        amplifier.sampling_route(graph)
    h, label = _histogram_for(args, graph)
    # The fold refuses an impossible record, so the record's probability is positive.
    state, probability = amplifier.run_sequence(h, y)
    closed_form_log = amplifier.sequence_probability(h, y)
    conditional = amplifier.tail_probability(state, theta)
    doc = {
        "schema": SCHEMA_VERSION,
        "graph": label,
        "sequence": str(y),
        "m": y.m,
        "q": y.q,
        "probability": report_probability(probability, True),
        "log_probability": state.log_sequence_probability,
        "closed_form_probability": report_probability(
            math.exp(closed_form_log), closed_form_log > -math.inf
        ),
        "closed_form_log_probability": closed_form_log,
        "weights": [float(w) for w in state.weights],
        "thetas": [float(t) for t in h.thetas],
        "tail": {
            "theta": theta,
            "conditional": conditional,
            "unconditional": report_probability(
                amplifier.unconditional_tail_probability(state, theta), conditional > 0.0
            ),
        },
    }
    if args.sample:
        samples = amplifier.sample_assignment(
            state, graph, args.objective, args.sample, args.seed
        )
        doc["samples"] = samples.tolist()
    text = json_text(doc)
    _emit(text, args.out, f"amplify_{slug(label)}", {"json": lambda: text})
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    config = experiments.ExperimentConfig(
        experiment=args.experiment,
        graph_specs=tuple(args.graphs.split(",")) if args.graphs else None,
        m_max=args.m_max,
        successes=args.successes,
        out_dir=args.out,
        formats=args.format,
    )
    written = [str(p) for p in experiments.run_experiment(config)]
    _print_json({"schema": SCHEMA_VERSION, "written": written})
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    theta_ref = parse_angle(args.theta_ref)
    bounds = analytics.bound_from_success_run(args.p_run, args.m, theta_ref)
    doc = {
        "schema": SCHEMA_VERSION,
        "p_run": args.p_run,
        "m": args.m,
        "theta_ref": theta_ref,
        "tail_lower_bound": bounds.lower,
        "tail_upper_bound": bounds.upper,
    }
    if args.p01 is not None:
        half_width = parse_angle(args.half_width)
        doc["band"] = {
            "p01": args.p01,
            "half_width": half_width,
            "lower_bound": analytics.band_bound(args.p01, half_width),
        }
    _print_json(doc)
    return 0


def _cmd_twopeak(args: argparse.Namespace) -> int:
    if args.a_l is not None or args.a_u is not None:
        if args.a_l is None or args.a_u is None:
            raise InvalidParameterError("per-step gains need both --a-l and --a-u")
        model = analytics.TwoPeakModel.from_gains(args.q_u, args.a_l, args.a_u)
    else:
        if args.alpha_l is None or args.alpha_u is None:
            raise InvalidParameterError(
                "give either --a-l/--a-u or --alpha-l/--alpha-u"
            )
        model = analytics.TwoPeakModel.from_angles(
            args.q_u, parse_angle(args.alpha_l), parse_angle(args.alpha_u)
        )
    stats = analytics.two_peak_stats(model, args.measurements)
    doc = {
        "schema": SCHEMA_VERSION,
        "q_u": _num(model.q_u),
        "q_l": _num(model.q_l),
        "a_l": _num(model.a_l),
        "a_u": _num(model.a_u),
        "measurements": stats.measurements,
        "ratio": _num(stats.ratio),
        "p_upper": _num(stats.p_upper),
        "run_probability": _num(stats.run_probability),
        "log_run_probability": stats.log_run_probability,
        "run_probability_via_ratio": _num(stats.run_probability_via_ratio),
    }
    if args.target_ratio is not None:
        required = analytics.two_peak_required_measurements(model, args.target_ratio)
        doc["target_ratio"] = _num(args.target_ratio)
        doc["required_measurements"] = required
    _print_json(doc)
    return 0


def _cmd_uniform_asymptotics(args: argparse.Namespace) -> int:
    run = analytics.uniform_run_probability(args.m)
    doc = {
        "schema": SCHEMA_VERSION,
        "m": args.m,
        "step_success": analytics.uniform_step_success(args.m),
        "run_probability_exact": run.exact,
        "run_probability_estimate": run.estimate,
    }
    if args.m <= 500:
        doc["central_binomial_norm"] = analytics.central_binomial_norm(args.m)
        exact = analytics.uniform_run_probability_exact(args.m)
        doc["run_probability_rational"] = f"{exact.numerator}/{exact.denominator}"
    if args.theta is not None:
        theta = parse_angle(args.theta)
        doc["gaussian_tail"] = {
            "theta": theta,
            "estimate": analytics.gaussian_tail_estimate(theta, args.m),
        }
    _print_json(doc)
    return 0


def _cmd_verify_oracle(args: argparse.Namespace) -> int:
    if args.max_qubits < 1:
        raise InvalidParameterError(f"--max-qubits must be at least 1, got {args.max_qubits}")
    if args.max_seq < 0:
        raise InvalidParameterError(f"--max-seq must be nonnegative, got {args.max_seq}")
    if args.sets < 1:
        raise InvalidParameterError(f"--sets must be at least 1, got {args.sets}")
    _check_seed(args.seed)
    # The support is 2^max_qubits, so the flag is checked before 2^max_qubits is built.
    support_cap, unit = LIMITS["dense_support"]
    qubit_cap = support_cap.bit_length() - 1
    if args.max_qubits > qubit_cap:
        raise ResourceLimitError(
            f"--max-qubits capped at {qubit_cap} ({support_cap} {unit}), got {args.max_qubits}"
        )
    report = fullsim.compare_with_class_weights(
        n_phase_sets=args.sets,
        max_support=1 << args.max_qubits,
        max_sequence=args.max_seq,
        seed=args.seed,
    )
    _print_json(
        {
            "schema": SCHEMA_VERSION,
            "cases": report.n_cases,
            "max_probability_deviation": report.max_probability_deviation,
            "max_distribution_deviation": report.max_distribution_deviation,
        }
    )
    return 0


def _cmd_grid_table(args: argparse.Namespace) -> int:
    config = experiments.ExperimentConfig("grid-table", (args.grid,), successes=args.successes)
    table = experiments.build_reports(config)["grid-table"]
    text = json_text(table.to_json_dict())
    _emit(text, args.out, "grid_table", {"json": lambda: text})
    return 0


_OUT_HELP = "directory to also write report files into"


def _add_format(parser: argparse.ArgumentParser, formats: tuple[str, ...]) -> None:
    """``--format``: comma-separated formats, each one the verb can write."""
    allowed = ",".join(formats)

    def parse(text: str) -> tuple[str, ...]:
        chosen = tuple(dict.fromkeys(part for part in text.split(",") if part))
        if not chosen or not set(chosen) <= set(formats):
            raise argparse.ArgumentTypeError(f"expected formats from {allowed}, got {text!r}")
        return chosen

    parser.add_argument(
        "--format", default=allowed, type=parse, help=f"comma-separated, from {allowed}"
    )


def _add_histogram_source(parser: argparse.ArgumentParser) -> None:
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--graph", help="graph spec (line:Q, grid:RxC, starring:Q, or a file)")
    source.add_argument(
        "--uniform", type=int, metavar="N", help="uniform histogram with N levels"
    )
    parser.add_argument(
        "--objective", default="maxcut", help="maxcut or covered-edges"
    )
    parser.add_argument(
        "--include-zero",
        action="store_true",
        help="count the all-zeros assignment at level 0",
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared by every later one."""
    parser = argparse.ArgumentParser(
        prog="phase-amp",
        description="Simulate and analyze measurement-driven phase amplification "
        "on graph objectives.",
    )
    parser.add_argument("--version", action="version", version=f"phase-amp {__version__}")
    verbs = parser.add_subparsers(dest="verb", required=True)

    p = verbs.add_parser("graph", help="print or export a graph in the text format")
    p.add_argument("spec", help="line:Q, grid:RxC, starring:Q, or a file path")
    p.add_argument("--optima", action="store_true", help="print brute-force optima as JSON")
    p.add_argument("--objective", default="maxcut")
    p.add_argument("--out", help=_OUT_HELP)
    p.set_defaults(func=_cmd_graph)

    p = verbs.add_parser("hist", help="phase-level histogram of a graph or uniform model")
    _add_histogram_source(p)
    p.add_argument("--out", help=_OUT_HELP)
    _add_format(p, ("csv", "json"))
    p.set_defaults(func=_cmd_hist)

    p = verbs.add_parser("amplify", help="run a measurement sequence on a histogram")
    _add_histogram_source(p)
    record = p.add_mutually_exclusive_group(required=True)
    record.add_argument("--sequence", help="outcome record, e.g. 1101")
    record.add_argument("--successes", type=int, help="all-ones record of this length")
    p.add_argument("--tail-at", default="pi", help="angle for the tail report")
    p.add_argument(
        "--sample", type=int, default=0, metavar="K", help="draw K assignments"
    )
    p.add_argument("--out", help=_OUT_HELP)
    p.add_argument("--seed", type=int, default=0, help="rng seed for --sample")
    p.set_defaults(func=_cmd_amplify)

    p = verbs.add_parser("figures", help="regenerate the benchmark experiments")
    p.add_argument(
        "--experiment",
        default="all",
        choices=experiments.EXPERIMENT_IDS,
    )
    p.add_argument("--graphs", help="comma-separated graph specs override")
    p.add_argument("--m-max", type=int, default=60)
    p.add_argument("--successes", type=int, default=10)
    p.add_argument("--out", default="out", help=_OUT_HELP)
    _add_format(p, FORMATS)
    p.set_defaults(func=_cmd_figures)

    p = verbs.add_parser("bounds", help="tail bounds from an observed all-ones run")
    p.add_argument("--p-run", type=float, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--theta-ref", required=True, help="reference angle, e.g. 2pi/3")
    p.add_argument("--p01", type=float, help="probability of the record 01")
    p.add_argument("--half-width", default="pi/4", help="band half-width angle")
    p.set_defaults(func=_cmd_bounds)

    p = verbs.add_parser("twopeak", help="two-peak filter model statistics")
    p.add_argument("--q-u", type=parse_fraction, required=True)
    p.add_argument("--a-l", type=parse_fraction)
    p.add_argument("--a-u", type=parse_fraction)
    p.add_argument("--alpha-l", help="lower peak angle")
    p.add_argument("--alpha-u", help="upper peak angle")
    p.add_argument("--measurements", type=int, default=1)
    p.add_argument("--target-ratio", type=parse_fraction)
    p.set_defaults(func=_cmd_twopeak)

    p = verbs.add_parser(
        "uniform-asymptotics", help="flat-spectrum closed forms and estimates"
    )
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--theta", help="angle for the gaussian tail estimate")
    p.set_defaults(func=_cmd_uniform_asymptotics)

    p = verbs.add_parser(
        "verify-oracle", help="compare the per-level fold against the dense simulator"
    )
    p.add_argument("--max-qubits", type=int, default=5)
    p.add_argument("--max-seq", type=int, default=6)
    p.add_argument("--sets", type=int, default=50)
    p.add_argument("--seed", type=int, default=0, help="rng seed for the phase sets")
    p.set_defaults(func=_cmd_verify_oracle)

    p = verbs.add_parser("grid-table", help="headline numbers for one graph")
    p.add_argument("--grid", default="grid:4x4")
    p.add_argument("--successes", type=int, default=10)
    p.add_argument("--out", help=_OUT_HELP)
    p.set_defaults(func=_cmd_grid_table)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PhaseAmpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
