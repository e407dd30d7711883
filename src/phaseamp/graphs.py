"""Benchmark graph constructions, assignment objectives, and exhaustive optima.

An assignment over ``n`` vertices is a plain integer in ``[0, 2**n)``: bit
``i`` (least significant bit is bit 0) holds the side, respectively cover
membership, of vertex ``i``.
"""

from __future__ import annotations

import enum
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from .errors import (
    InvalidGraphError,
    InvalidParameterError,
    InvalidSizeError,
    ResourceLimitError,
)

# Exhaustive passes refuse graphs with more vertices than this.
ENUMERATION_LIMIT = 28

_CHUNK = 1 << 22


class ObjectiveKind(enum.Enum):
    """Objectives an assignment can be scored by."""

    MAXCUT = "maxcut"
    COVERED_EDGES = "covered-edges"

    @classmethod
    def parse(cls, text: str) -> "ObjectiveKind":
        key = text.strip().lower().replace("_", "-")
        if key in ("maxcut", "max-cut", "cut"):
            return cls.MAXCUT
        if key in ("covered-edges", "coverededges", "cover", "vertex-cover"):
            return cls.COVERED_EDGES
        raise InvalidParameterError(f"unknown objective: {text!r}")

    @classmethod
    def coerce(cls, value: "ObjectiveKind | str") -> "ObjectiveKind":
        """Accept a member or its string spelling; reject anything else."""
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            return cls.parse(value)
        raise InvalidParameterError(f"unknown objective: {value!r}")


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph, edges canonicalized to sorted ``(min, max)`` pairs."""

    n_vertices: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        n = int(self.n_vertices)
        if n < 1:
            raise InvalidGraphError("a graph needs at least one vertex")
        canonical: list[tuple[int, int]] = []
        seen: set[tuple[int, int]] = set()
        for edge in self.edges:
            u, v = (int(edge[0]), int(edge[1]))
            if u == v:
                raise InvalidGraphError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise InvalidGraphError(f"edge ({u}, {v}) out of range for {n} vertices")
            if u > v:
                u, v = v, u
            if (u, v) in seen:
                raise InvalidGraphError(f"duplicate edge ({u}, {v})")
            seen.add((u, v))
            canonical.append((u, v))
        canonical.sort()
        object.__setattr__(self, "n_vertices", n)
        object.__setattr__(self, "edges", tuple(canonical))

    @property
    def edge_count(self) -> int:
        return len(self.edges)


def make_line(q: int) -> Graph:
    """Path graph on vertices 0..q-1."""
    if q < 2:
        raise InvalidSizeError("a line graph needs at least 2 vertices")
    return Graph(q, tuple((i, i + 1) for i in range(q - 1)))


def make_grid(rows: int, cols: int) -> Graph:
    """Rectangular grid graph, vertices numbered row-major."""
    if rows < 1 or cols < 1 or rows * cols < 2:
        raise InvalidSizeError("a grid needs at least two vertices")
    edges: list[tuple[int, int]] = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return Graph(rows * cols, tuple(edges))


def make_star_ring(q: int) -> Graph:
    """Hub vertex 0 joined to every vertex of the cycle 1..q-1."""
    if q < 4:
        raise InvalidSizeError("a star-ring needs at least 4 vertices")
    edges = [(0, i) for i in range(1, q)]
    edges += [(i, i + 1) for i in range(1, q - 1)]
    edges.append((1, q - 1))
    return Graph(q, tuple(edges))


def _check_assignment(g: Graph, x: int) -> None:
    if not (0 <= x < (1 << g.n_vertices)):
        raise InvalidParameterError(
            f"assignment {x} out of range for {g.n_vertices} vertices"
        )


def cut_value(g: Graph, x: int) -> int:
    """Number of edges whose endpoints fall on different sides of x."""
    _check_assignment(g, x)
    return sum(((x >> u) ^ (x >> v)) & 1 for u, v in g.edges)


def covered_edges(g: Graph, x: int) -> int:
    """Number of edges with at least one endpoint in the set picked by x."""
    _check_assignment(g, x)
    return sum(((x >> u) | (x >> v)) & 1 for u, v in g.edges)


def objective_value(g: Graph, objective: ObjectiveKind | str, x: int) -> int:
    if ObjectiveKind.coerce(objective) is ObjectiveKind.MAXCUT:
        return cut_value(g, x)
    return covered_edges(g, x)


def objective_values(
    g: Graph, objective: ObjectiveKind | str, xs: np.ndarray
) -> np.ndarray:
    """Objective scores for an array of assignments, one edge at a time."""
    if g.n_vertices > 32:
        raise ResourceLimitError("vectorized scoring is limited to 32-bit assignments")
    xs = np.asarray(xs, dtype=np.uint32)
    out = np.zeros(xs.shape, dtype=np.int64)
    is_cut = ObjectiveKind.coerce(objective) is ObjectiveKind.MAXCUT
    for u, v in g.edges:
        a = (xs >> np.uint32(u)) & np.uint32(1)
        b = (xs >> np.uint32(v)) & np.uint32(1)
        out += (a ^ b) if is_cut else (a | b)
    return out


def scored_assignments(
    g: Graph, objective: ObjectiveKind | str, task: str
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Every assignment of ``g`` with its score, in chunks of at most 2**22.

    The vertex cap is checked at the call; ``task`` names the caller in its message.
    """
    if g.n_vertices > ENUMERATION_LIMIT:
        raise ResourceLimitError(
            f"{task} capped at {ENUMERATION_LIMIT} vertices, got {g.n_vertices}"
        )
    total = 1 << g.n_vertices
    starts = range(0, total, _CHUNK)
    chunks = (np.arange(s, min(s + _CHUNK, total), dtype=np.uint32) for s in starts)
    return ((xs, objective_values(g, objective, xs)) for xs in chunks)


def brute_force_optima(g: Graph, objective: ObjectiveKind | str) -> tuple[int, list[int]]:
    """Exhaustively scan all assignments; returns (best value, maximizers)."""
    best = -1
    maximizers: list[int] = []
    for xs, vals in scored_assignments(g, objective, "exhaustive search"):
        chunk_best = int(vals.max())
        if chunk_best > best:
            best = chunk_best
            maximizers = []
        if chunk_best == best:
            maximizers.extend(int(x) for x in xs[vals == best])
    return best, maximizers


def format_graph_file(g: Graph) -> str:
    """Render the textual graph format: a header line, then one edge per line."""
    lines = [f"graph {g.n_vertices} {g.edge_count}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def write_graph_file(g: Graph, path: str | Path) -> None:
    Path(path).write_text(format_graph_file(g))


def parse_graph_text(text: str) -> Graph:
    rows = [line.strip() for line in text.splitlines() if line.strip()]
    if not rows or not rows[0].startswith("graph "):
        raise InvalidGraphError("graph file must start with 'graph <n_vertices> <n_edges>'")
    head = rows[0].split()
    if len(head) != 3:
        raise InvalidGraphError(f"malformed header: {rows[0]!r}")
    try:
        n = int(head[1])
        m = int(head[2])
    except ValueError as exc:
        raise InvalidGraphError(f"malformed header: {rows[0]!r}") from exc
    edges: list[tuple[int, int]] = []
    for row in rows[1:]:
        parts = row.split()
        if len(parts) != 2:
            raise InvalidGraphError(f"malformed edge line: {row!r}")
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError as exc:
            raise InvalidGraphError(f"malformed edge line: {row!r}") from exc
    if len(edges) != m:
        raise InvalidGraphError(f"header declares {m} edges, file lists {len(edges)}")
    return Graph(n, tuple(edges))


def read_graph_file(path: str | Path) -> Graph:
    return parse_graph_text(Path(path).read_text())


def parse_graph_spec(spec: str) -> Graph:
    """Builder shorthand ('line:Q', 'grid:RxC', 'starring:Q') or a graph file path."""
    s = spec.strip()
    low = s.lower()
    if low.startswith("line:"):
        return make_line(_parse_int(s[5:], spec))
    if low.startswith("grid:"):
        dims = low[5:].split("x")
        if len(dims) != 2:
            raise InvalidParameterError(f"grid spec needs ROWSxCOLS: {spec!r}")
        return make_grid(_parse_int(dims[0], spec), _parse_int(dims[1], spec))
    if low.startswith("starring:"):
        return make_star_ring(_parse_int(s.split(":", 1)[1], spec))
    if os.path.exists(s):
        return read_graph_file(s)
    raise InvalidParameterError(f"not a builder spec or a readable file: {spec!r}")


def _parse_int(text: str, spec: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise InvalidParameterError(f"malformed graph spec: {spec!r}") from exc
