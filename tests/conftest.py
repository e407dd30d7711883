from __future__ import annotations

import pytest

from phaseamp.encoding import build_histogram
from phaseamp.graphs import ObjectiveKind, parse_graph_spec

BENCHMARK_SPECS = ("line:10", "grid:3x3", "grid:4x4", "starring:16")


@pytest.fixture(scope="session")
def benchmark_graphs():
    return {spec: parse_graph_spec(spec) for spec in BENCHMARK_SPECS}


@pytest.fixture(scope="session")
def benchmark_histograms(benchmark_graphs):
    return {
        spec: build_histogram(g, ObjectiveKind.MAXCUT)
        for spec, g in benchmark_graphs.items()
    }


@pytest.fixture(scope="session")
def grid44_histogram(benchmark_histograms):
    return benchmark_histograms["grid:4x4"]
