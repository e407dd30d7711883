"""The benchmark's workloads: fixed rounds of phase-amp operations made from a seed.

A round is the same list of operations on every pass, so the operation mix
never depends on how many slow operations fit in the time. The seed picks
the inputs (graph edges, objectives, parameters, order) but not their cost.
"""

from __future__ import annotations

import itertools
import random
from pathlib import Path

OBJECTIVES = ("maxcut", "covered-edges")
ANGLES = ("pi/2", "2pi/3", "3pi/4", "pi")
INTERIOR_ANGLES = ("pi/3", "pi/2", "2pi/3", "3pi/4")


class Op:
    """One phase-amp invocation; ``out_dir`` is removed after each call."""

    __slots__ = ("kind", "argv", "out_dir")

    def __init__(self, kind: str, argv: list[str], out_dir: Path | None = None) -> None:
        self.kind = kind
        self.argv = argv
        self.out_dir = out_dir


def paper_figures(rng: random.Random, scratch: Path) -> list[Op]:
    """A session reproducing the paper: figures, headline numbers, oracle, formulas."""
    ops = []
    for i in range(2):
        out = scratch / f"figures-{i}"
        ops.append(Op("figures-all", ["figures", "--experiment", "all", "--out", str(out)], out))
    for _ in range(2):
        ops.append(Op("verify-oracle", [
            "verify-oracle", "--sets", "10", "--max-qubits", "5", "--max-seq", "4",
            "--seed", str(rng.randrange(1 << 31)),
        ]))
    ops.append(Op("grid-table", ["grid-table", "--successes", str(rng.randint(8, 12))]))
    for _ in range(7):
        ops.append(Op("amplify grid:4x4", [
            "amplify", "--graph", "grid:4x4", "--successes", "10",
            "--tail-at", rng.choice(ANGLES),
        ]))
    for _ in range(2):
        ops.append(Op("uniform-asymptotics", [
            "uniform-asymptotics", "--m", str(rng.randint(20, 200)),
            "--theta", rng.choice(ANGLES),
        ]))
        ops.append(Op("twopeak", [
            "twopeak", "--q-u", rng.choice(("1/16", "1/8", "1/4")),
            "--a-l", rng.choice(("1/8", "1/4", "1/2")),
            "--a-u", rng.choice(("3/2", "7/4", "2")),
            "--measurements", str(rng.randint(1, 8)), "--target-ratio", "16",
        ]))
        ops.append(Op("bounds", [
            "bounds", "--p-run", f"{rng.uniform(0.05, 0.5):.6f}",
            "--m", str(rng.randint(1, 12)), "--theta-ref", rng.choice(INTERIOR_ANGLES),
            "--p01", f"{rng.uniform(0.05, 0.25):.6f}",
        ]))
    return ops


DENSE_VERTICES = 18


def large_graphs(rng: random.Random, scratch: Path) -> list[Op]:
    """Histograms and short runs on 18-21 vertex graphs, where enumeration dominates."""
    # Half of all vertex pairs: edge probability 1/2, with a fixed edge count.
    pairs = list(itertools.combinations(range(DENSE_VERTICES), 2))
    edges = sorted(rng.sample(pairs, len(pairs) // 2))
    dense = scratch / f"dense{DENSE_VERTICES}.graph"
    dense.write_text(
        f"graph {DENSE_VERTICES} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)
    )
    grid_objectives = ["maxcut", "covered-edges", rng.choice(OBJECTIVES)]
    plan = [
        (str(dense), "dense18", [rng.choice(OBJECTIVES)]),
        ("line:20", "line:20", [rng.choice(OBJECTIVES)]),
        ("grid:4x5", "grid:4x5", grid_objectives),
        ("starring:20", "starring:20", [rng.choice(OBJECTIVES)]),
        ("grid:3x7", "grid:3x7", [rng.choice(OBJECTIVES)]),
    ]
    ops = []
    # Each (graph, objective) gets a hist and an amplify: the checked
    # histogram is the reference for the amplify run on it.
    for spec, name, objectives in plan:
        for objective in objectives:
            ops.append(Op(f"hist {name}", ["hist", "--graph", spec, "--objective", objective]))
            ops.append(Op(f"amplify {name}", [
                "amplify", "--graph", spec, "--objective", objective, "--successes", "10",
            ]))
    for _ in range(3):
        ops.append(Op("amplify-sample grid:4x5", [
            "amplify", "--graph", "grid:4x5", "--objective", rng.choice(grid_objectives),
            "--successes", "10", "--sample", "10000", "--seed", str(rng.randrange(1 << 31)),
        ]))
    return ops


LONG_GRAPHS = ("grid:4x4", "line:16", "starring:16", "grid:3x5")
TRAJECTORY_GRAPHS = ("line:12", "line:14", "grid:3x4", "grid:3x3", "starring:12")
# Run lengths are spread over a range wider than the speed swings of a shared
# host (up to 1.6x, in phases of seconds): a run of m steps costs more than in
# proportion to m, so the latencies of one op kind form a spread, and
# its percentiles move smoothly with the share of a run spent in a slow
# phase instead of jumping from one phase's latency to the other's.
TRAJECTORY_M_MAX = (1250, 1500, 1750)
AMPLIFY_M = (800, 840, 880, 920, 960, 1000)


def long_runs(rng: random.Random, scratch: Path) -> list[Op]:
    """Runs of about a thousand measurements on small graphs: the per-step fold."""
    ops = []
    for i, m_max in enumerate(TRAJECTORY_M_MAX):
        out = scratch / f"custom-{i}"
        ops.append(Op("figures-custom", [
            "figures", "--experiment", "custom",
            "--graphs", ",".join(rng.sample(TRAJECTORY_GRAPHS, 2)),
            "--m-max", str(m_max + rng.randint(-10, 10)), "--format", "csv,json",
            "--out", str(out),
        ], out))
    # m <= 1000 keeps 2^(n+m) below the float range for n <= 16 vertices.
    lengths = [m - rng.randint(0, 10) for m in AMPLIFY_M]
    rng.shuffle(lengths)
    for m in lengths[:2]:
        ops.append(Op("amplify-successes", [
            "amplify", "--graph", rng.choice(LONG_GRAPHS), "--objective", rng.choice(OBJECTIVES),
            "--successes", str(m),
        ]))
    for m in lengths[2:]:
        # Mostly ones, as in an amplifying run; keeps p(y) far above float underflow.
        bits = "".join("1" if rng.random() < 0.75 else "0" for _ in range(m))
        ops.append(Op("amplify-sequence", [
            "amplify", "--graph", rng.choice(LONG_GRAPHS), "--objective", rng.choice(OBJECTIVES),
            "--sequence", bits,
        ]))
    # Fails on every round until the closed form moves to log space (m >= 1024).
    ops.append(Op("amplify-overflow", ["amplify", "--graph", "grid:4x4", "--successes", "1100"]))
    return ops


class Workload:
    """Operation builder plus the run shape that keeps the tail percentile honest.

    ``tail_pct`` is the highest whole percentile that leaves at least ten
    latency samples above it when the run stops at ``min_rounds`` rounds.
    """

    def __init__(self, build, tail_pct: int, min_rounds: int) -> None:
        self._build = build
        self.tail_pct = tail_pct
        self.min_rounds = min_rounds

    def build(self, seed: int, scratch: Path) -> list[Op]:
        rng = random.Random(seed)
        ops = self._build(rng, scratch)
        rng.shuffle(ops)
        return ops


WORKLOADS = {
    # 18 ops a round: 28 rounds give 504 samples, 10 of them above p98.
    "paper-figures": Workload(paper_figures, tail_pct=98, min_rounds=28),
    # 17 ops a round: 8 rounds give 136 samples, 10 of them above p92.
    "large-graphs": Workload(large_graphs, tail_pct=92, min_rounds=8),
    # 9 ops a round succeed: 10 rounds give 90 samples, 10 of them above p88.
    "long-runs": Workload(long_runs, tail_pct=88, min_rounds=10),
}
