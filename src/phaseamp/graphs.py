"""Benchmark graph constructions, assignment objectives, and exhaustive optima.

An assignment over ``n`` vertices is a plain integer in ``[0, 2**n)``: bit
``i`` (least significant bit is bit 0) holds the side, respectively cover
membership, of vertex ``i``.
"""

from __future__ import annotations

import enum
import os
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterator

import numpy as np

from .errors import InvalidParameterError, ResourceLimitError, check_limit

_CHUNK = 1 << 22


class ObjectiveKind(enum.Enum):
    """Objectives an assignment can be scored by."""

    MAXCUT = "maxcut"
    COVERED_EDGES = "covered-edges"

    @classmethod
    def coerce(cls, value: "ObjectiveKind | str") -> "ObjectiveKind":
        """Accept a member or any spelling of one; reject anything else."""
        if isinstance(value, cls):
            return value
        key = value.strip().lower().replace("_", "-") if isinstance(value, str) else None
        if key in ("maxcut", "max-cut", "cut"):
            return cls.MAXCUT
        if key in ("covered-edges", "coverededges", "cover", "vertex-cover"):
            return cls.COVERED_EDGES
        raise InvalidParameterError(f"unknown objective: {value!r}")


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph, edges canonicalized to sorted ``(min, max)`` pairs."""

    n_vertices: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        n = int(self.n_vertices)
        if n < 1:
            raise InvalidParameterError("a graph needs at least one vertex")
        canonical: list[tuple[int, int]] = []
        seen: set[tuple[int, int]] = set()
        for edge in self.edges:
            u, v = (int(edge[0]), int(edge[1]))
            if u == v:
                raise InvalidParameterError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise InvalidParameterError(f"edge ({u}, {v}) out of range for {n} vertices")
            if u > v:
                u, v = v, u
            if (u, v) in seen:
                raise InvalidParameterError(f"duplicate edge ({u}, {v})")
            seen.add((u, v))
            canonical.append((u, v))
        canonical.sort()
        object.__setattr__(self, "n_vertices", n)
        object.__setattr__(self, "edges", tuple(canonical))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @cached_property
    def frontier_steps(self) -> tuple[tuple[int, tuple[int, ...], tuple[int, ...]], ...]:
        """:func:`frontier_order` of this graph, computed once per graph."""
        return tuple(frontier_order(self))


def make_line(q: int) -> Graph:
    """Path graph on vertices 0..q-1."""
    if q < 2:
        raise InvalidParameterError("a line graph needs at least 2 vertices")
    check_limit("builder", q, "graph builders")
    return Graph(q, tuple((i, i + 1) for i in range(q - 1)))


def make_grid(rows: int, cols: int) -> Graph:
    """Rectangular grid graph, vertices numbered row-major."""
    if rows < 1 or cols < 1 or rows * cols < 2:
        raise InvalidParameterError("a grid needs at least two vertices")
    check_limit("builder", rows * cols, "graph builders")
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
        raise InvalidParameterError("a star-ring needs at least 4 vertices")
    check_limit("builder", q, "graph builders")
    edges = [(0, i) for i in range(1, q)]
    edges += [(i, i + 1) for i in range(1, q - 1)]
    edges.append((1, q - 1))
    return Graph(q, tuple(edges))


def objective_values(
    g: Graph, objective: ObjectiveKind | str, xs: np.ndarray
) -> np.ndarray:
    """Objective scores for an array of assignments, one edge at a time.

    Every assignment must be an integer in ``[0, 2**n)``; floats count when
    their values are whole.
    """
    if g.n_vertices > 32:
        raise ResourceLimitError("vectorized scoring is limited to 32-bit assignments")
    xs = np.asarray(xs)
    if xs.size and xs.dtype.kind not in "biu":
        if xs.dtype.kind != "f" or not np.all(xs == np.trunc(xs)):
            raise InvalidParameterError(f"assignments must be integers, got {xs.dtype} values")
    if xs.size and (xs.min() < 0 or xs.max() >= 1 << g.n_vertices):
        raise InvalidParameterError(
            f"assignments must lie in [0, 2^{g.n_vertices}), got {xs.min()} to {xs.max()}"
        )
    xs = xs.astype(np.uint32, copy=False)
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
    check_limit("enumeration", g.n_vertices, task)
    total = 1 << g.n_vertices
    starts = range(0, total, _CHUNK)
    chunks = (np.arange(s, min(s + _CHUNK, total), dtype=np.uint32) for s in starts)
    return ((xs, objective_values(g, objective, xs)) for xs in chunks)


def frontier_order(g: Graph) -> list[tuple[int, tuple[int, ...], tuple[int, ...]]]:
    """A greedy min-frontier vertex order: each vertex, its placed neighbours, its frontier.

    The frontier is the placed vertices that still have an unplaced neighbour.
    Each step places the vertex that leaves the smallest frontier, the smallest
    index on ties. A step lists the vertex, its neighbours placed before it
    (all on the frontier) and the frontier after it, both in placement order.
    """
    neighbours: list[list[int]] = [[] for _ in range(g.n_vertices)]
    for u, v in g.edges:
        neighbours[u].append(v)
        neighbours[v].append(u)
    unplaced = [len(nbrs) for nbrs in neighbours]  # unplaced neighbours per vertex
    placed = [False] * g.n_vertices
    frontier: list[int] = []
    order = []

    def size_after(v: int) -> int:
        closing = sum(1 for u in neighbours[v] if placed[u] and unplaced[u] == 1)
        return len(frontier) + (unplaced[v] > 0) - closing

    for _ in range(g.n_vertices):
        v = min((v for v in range(g.n_vertices) if not placed[v]), key=size_after)
        joined = tuple(u for u in frontier if v in neighbours[u])
        placed[v] = True
        for u in neighbours[v]:
            unplaced[u] -= 1
        frontier = [u for u in frontier + [v] if unplaced[u] > 0]
        order.append((v, joined, tuple(frontier)))
    return order


def brute_force_optima(g: Graph, objective: ObjectiveKind | str) -> tuple[int, int, list[int]]:
    """Exhaustively scan all assignments; returns (best value, maximizer count, 64 smallest).

    Only the listed maximizers are kept, so memory stays within one chunk.
    """
    listed = 64
    best, count, smallest = -1, 0, []
    for xs, vals in scored_assignments(g, objective, "exhaustive search"):
        chunk_best = int(vals.max())
        if chunk_best > best:
            best, count, smallest = chunk_best, 0, []
        if chunk_best == best:
            hits = vals == best
            count += int(np.count_nonzero(hits))
            if len(smallest) < listed:
                smallest += xs[hits][: listed - len(smallest)].tolist()
    return best, count, smallest


def format_graph_file(g: Graph) -> str:
    """Render the textual graph format: a header line, then one edge per line."""
    lines = [f"graph {g.n_vertices} {g.edge_count}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def parse_graph_text(text: str) -> Graph:
    rows = [line.strip() for line in text.splitlines() if line.strip()]
    if not rows or not rows[0].startswith("graph "):
        raise InvalidParameterError("graph file must start with 'graph <n_vertices> <n_edges>'")
    head = rows[0].split()
    if len(head) != 3:
        raise InvalidParameterError(f"malformed header: {rows[0]!r}")
    try:
        n = int(head[1])
        m = int(head[2])
    except ValueError as exc:
        raise InvalidParameterError(f"malformed header: {rows[0]!r}") from exc
    edges: list[tuple[int, int]] = []
    for row in rows[1:]:
        parts = row.split()
        if len(parts) != 2:
            raise InvalidParameterError(f"malformed edge line: {row!r}")
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError as exc:
            raise InvalidParameterError(f"malformed edge line: {row!r}") from exc
    if len(edges) != m:
        raise InvalidParameterError(f"header declares {m} edges, file lists {len(edges)}")
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
