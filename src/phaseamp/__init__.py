"""Classical simulator and analysis toolkit for measurement-driven phase
amplification on graph optimization objectives.

Workflow: build a graph (:mod:`phaseamp.graphs`), encode its objective as a
phase histogram (:mod:`phaseamp.encoding`), run post-selected measurement
sequences on the per-level weights (:mod:`phaseamp.amplifier`), cross-check
against the dense two-register simulator (:mod:`phaseamp.fullsim`), apply the
closed forms and bounds (:mod:`phaseamp.analytics`), and regenerate the
benchmark experiments (:mod:`phaseamp.experiments`).
"""

from .amplifier import (
    ClassState,
    MeasurementSequence,
    initial_state,
    run_sequence,
    sample_assignment,
    sequence_probability,
    step,
    success_run,
    tail_probability,
    unconditional_tail_probability,
)
from .analytics import (
    PeakWindow,
    SamplingComparison,
    TailBounds,
    TwoPeakModel,
    TwoPeakStats,
    band_bound,
    bound_from_success_run,
    central_binomial_norm,
    central_binomial_norm_exact,
    estimate_mass_from_sequence,
    gaussian_tail_estimate,
    peak_window,
    sampling_comparison,
    two_peak_required_measurements,
    two_peak_stats,
    uniform_run_probability,
    uniform_run_probability_exact,
    uniform_step_success,
    uniform_step_success_exact,
)
from .encoding import (
    ClassTable,
    PhaseHistogram,
    build_class_table,
    build_histogram,
    histogram_from_phases,
    two_peak_histogram,
    uniform_histogram,
)
from .errors import (
    ImpossibleOutcomeError,
    InvalidGraphError,
    InvalidParameterError,
    InvalidSizeError,
    NoAmplificationError,
    PhaseAmpError,
    ResourceLimitError,
)
from .experiments import (
    AmplifiedDistribution,
    ExperimentConfig,
    GridTableReport,
    IterationRecord,
    RunReport,
    Series,
    build_reports,
    emit_svg,
    run_experiment,
    success_trajectory,
)
from .fullsim import (
    DoubledState,
    OracleComparison,
    apply_interference_round,
    compare_with_class_weights,
    measure_reference,
    prepare,
    run_sequence_fullsim,
)
from .graphs import (
    Graph,
    ObjectiveKind,
    brute_force_optima,
    format_graph_file,
    make_grid,
    make_line,
    make_star_ring,
    objective_values,
    parse_graph_spec,
    read_graph_file,
)
from .meta import SCHEMA_VERSION, __version__

__all__ = [
    "SCHEMA_VERSION",
    "__version__",
    # graphs
    "Graph",
    "ObjectiveKind",
    "make_line",
    "make_grid",
    "make_star_ring",
    "objective_values",
    "brute_force_optima",
    "format_graph_file",
    "read_graph_file",
    "parse_graph_spec",
    # encoding
    "PhaseHistogram",
    "ClassTable",
    "build_histogram",
    "uniform_histogram",
    "two_peak_histogram",
    "histogram_from_phases",
    "build_class_table",
    # amplifier
    "MeasurementSequence",
    "ClassState",
    "initial_state",
    "step",
    "run_sequence",
    "success_run",
    "sequence_probability",
    "tail_probability",
    "unconditional_tail_probability",
    "sample_assignment",
    # fullsim
    "DoubledState",
    "OracleComparison",
    "prepare",
    "apply_interference_round",
    "measure_reference",
    "run_sequence_fullsim",
    "compare_with_class_weights",
    # analytics
    "TwoPeakModel",
    "TwoPeakStats",
    "PeakWindow",
    "TailBounds",
    "SamplingComparison",
    "central_binomial_norm",
    "central_binomial_norm_exact",
    "uniform_step_success",
    "uniform_step_success_exact",
    "uniform_run_probability",
    "uniform_run_probability_exact",
    "gaussian_tail_estimate",
    "two_peak_stats",
    "two_peak_required_measurements",
    "bound_from_success_run",
    "band_bound",
    "peak_window",
    "estimate_mass_from_sequence",
    "sampling_comparison",
    # experiments
    "ExperimentConfig",
    "RunReport",
    "IterationRecord",
    "AmplifiedDistribution",
    "GridTableReport",
    "Series",
    "success_trajectory",
    "build_reports",
    "emit_svg",
    "run_experiment",
    # errors
    "PhaseAmpError",
    "InvalidSizeError",
    "InvalidGraphError",
    "InvalidParameterError",
    "NoAmplificationError",
    "ResourceLimitError",
    "ImpossibleOutcomeError",
]
