"""Weighted digraphs and deterministic single-source shortest paths.

The planner works on directed graphs with non-negative, finite edge
weights and opaque node payloads (latent points, workspace node ids, or
nothing at all).  Shortest paths are computed with a binary-heap Dijkstra
whose tie-breaking is deterministic: among equal-cost routes discovered
while a node is still open, the predecessor with the smaller index wins.
Once a node is settled its predecessor is frozen, which keeps the
predecessor structure a tree even in the presence of zero-weight cycles.

Graph text format (line oriented, ``#`` starts a comment)::

    n <node_count>
    e <src> <dst> <weight>

Node indices are 0-based and weights must be finite and non-negative.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from . import _text

__all__ = [
    "GraphFormatError",
    "WeightedDigraph",
    "SsspResult",
    "dijkstra",
    "shortest_path",
    "build_ndm_graph",
    "waypoints",
    "load_graph",
    "save_graph",
    "sssp_csv",
]


class GraphFormatError(_text.FormatError):
    """Raised when a graph text file cannot be parsed."""


@dataclass
class WeightedDigraph:
    """Directed graph with non-negative edge weights.

    ``payloads[i]`` carries arbitrary per-node data; the graph itself only
    cares about indices.
    """

    payloads: list = field(default_factory=list)
    adjacency: list[list[tuple[int, float]]] = field(default_factory=list)

    @property
    def n_nodes(self) -> int:
        return len(self.payloads)

    def add_node(self, payload=None) -> int:
        self.payloads.append(payload)
        self.adjacency.append([])
        return len(self.payloads) - 1

    def add_edge(self, src: int, dst: int, weight: float) -> None:
        for idx in (src, dst):
            if not 0 <= idx < self.n_nodes:
                raise ValueError(f"edge endpoint {idx} is not a node index")
        w = float(weight)
        if not math.isfinite(w):
            raise ValueError(f"edge weight on ({src}, {dst}) must be finite, got {weight!r}")
        if w < 0.0:
            raise ValueError(f"negative edge weight {w!r} on ({src}, {dst})")
        self.adjacency[src].append((dst, w))

    def edges(self):
        """Yield (src, dst, weight) triples in insertion order per source."""
        for u, nbrs in enumerate(self.adjacency):
            for v, w in nbrs:
                yield u, v, w


@dataclass
class SsspResult:
    """Distances and predecessor tree from a single Dijkstra run.

    Unreachable nodes get ``dist = inf`` and ``pred = None``; the source
    itself has ``pred = None``.
    """

    source: int
    dist: list[float]
    pred: list[int | None]


def dijkstra(graph: WeightedDigraph, source: int) -> SsspResult:
    """Single-source shortest paths over non-negative weights.

    Deterministic for identical inputs: the heap orders by (distance,
    node index), and when an equally short route to a still-open node is
    found, the smaller predecessor index is kept.
    """
    n = graph.n_nodes
    if not 0 <= source < n:
        raise ValueError(f"source {source} is not a node index")
    dist = [math.inf] * n
    pred: list[int | None] = [None] * n
    done = [False] * n
    dist[source] = 0.0
    heap: list[tuple[float, int]] = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if done[u] or d > dist[u]:
            continue
        done[u] = True
        for v, w in graph.adjacency[u]:
            nd = d + w
            if nd < dist[v]:
                dist[v] = nd
                pred[v] = u
                heapq.heappush(heap, (nd, v))
            elif nd == dist[v] and not done[v] and pred[v] is not None and u < pred[v]:
                pred[v] = u
    return SsspResult(source, dist, pred)


def shortest_path(graph: WeightedDigraph, source: int, target: int):
    """Return ``(node_indices, cost)`` or ``None`` when target is unreachable."""
    if not 0 <= target < graph.n_nodes:
        raise ValueError(f"target {target} is not a node index")
    res = dijkstra(graph, source)
    if math.isinf(res.dist[target]):
        return None
    path = [target]
    while path[-1] != source:
        prev = res.pred[path[-1]]
        assert prev is not None
        path.append(prev)
    path.reverse()
    return path, res.dist[target]


def build_ndm_graph(samples, connect, edge_cost) -> WeightedDigraph:
    """Build a state graph over latent samples.

    ``connect`` is ``("knn", k)`` or ``("radius", r)``; a complete graph is
    ``("knn", len(samples) - 1)``.  ``edge_cost(a, b)`` must return a finite,
    non-negative cost for the directed edge a -> b.  k-nearest neighbours
    are chosen by Euclidean distance with index order breaking ties.
    """
    pts = [np.atleast_1d(np.asarray(s, dtype=float)) for s in samples]
    if not pts:
        raise ValueError("need at least one sample")
    graph = WeightedDigraph()
    for s in samples:
        graph.add_node(s)

    mode, param = connect
    pairs: list[tuple[int, int]] = []
    if mode == "knn":
        k = int(param)
        if k < 1:
            raise ValueError(f"k-nearest rule needs k >= 1, got {param!r}")
        for i, pi in enumerate(pts):
            order = sorted(
                (j for j in range(len(pts)) if j != i),
                key=lambda j: (float(np.linalg.norm(pts[j] - pi)), j),
            )
            pairs.extend((i, j) for j in order[:k])
    elif mode == "radius":
        r = float(param)
        if r < 0:
            raise ValueError(f"radius must be non-negative, got {param!r}")
        for i, pi in enumerate(pts):
            for j, pj in enumerate(pts):
                if j != i and float(np.linalg.norm(pj - pi)) <= r:
                    pairs.append((i, j))
    else:
        raise ValueError(f"unknown connection rule {mode!r}")

    for i, j in pairs:
        cost = float(edge_cost(graph.payloads[i], graph.payloads[j]))
        if not math.isfinite(cost) or cost < 0:
            raise ValueError(
                f"edge cost between samples {i} and {j} must be finite and"
                f" non-negative, got {cost!r}"
            )
        graph.add_edge(i, j, cost)
    return graph


def waypoints(path, stride: int):
    """Every stride-th node of a path, always keeping the first and last."""
    if len(path) == 0:
        raise ValueError("cannot take waypoints of an empty path")
    stride = int(stride)
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    out = list(path[::stride])
    if out[-1] != path[-1]:
        out.append(path[-1])
    return out


def load_graph(path) -> WeightedDigraph:
    """Parse the ``n``/``e`` text format; a bad line raises ``GraphFormatError`` starting ``line N: ``."""
    graph = WeightedDigraph()
    declared = False
    for ln, line in _text.lines(path):
        tokens = line.split()
        try:
            if tokens[0] == "n":
                if declared:
                    raise ValueError("duplicate node-count line")
                if len(tokens) != 2:
                    raise ValueError("expected 'n <count>'")
                count = int(tokens[1])
                if count < 0:
                    raise ValueError("negative node count")
                for _ in range(count):
                    graph.add_node()
                declared = True
            elif tokens[0] == "e":
                if not declared:
                    raise ValueError("edge before node-count line")
                if len(tokens) != 4:
                    raise ValueError("expected 'e <src> <dst> <weight>'")
                graph.add_edge(int(tokens[1]), int(tokens[2]), float(tokens[3]))
            else:
                raise ValueError(f"unknown directive {tokens[0]!r}")
        except ValueError as exc:
            raise GraphFormatError.at(ln, exc) from None
    if not declared:
        raise GraphFormatError("missing 'n <count>' line")
    return graph


def save_graph(graph: WeightedDigraph, path) -> None:
    """Write the ``n``/``e`` format; ValueError, before any write, for a weight that would read back as inf."""
    rows = [f"n {graph.n_nodes}"]
    for u, v, w in graph.edges():
        text = _text.fmt(w)
        if math.isinf(float(text)):
            raise ValueError(f"edge ({u}, {v}): weight too large for 10 digits, reads back as {text}")
        rows.append(f"e {u} {v} {text}")
    _text.write(path, rows)


def sssp_csv(res: SsspResult) -> str:
    """CSV dump of a Dijkstra result with columns node, dist, pred."""
    lines = ["node,dist,pred"]
    for i, (d, p) in enumerate(zip(res.dist, res.pred)):
        ptxt = "" if p is None else str(p)
        lines.append(f"{i},{_text.fmt(d)},{ptxt}")
    return "\n".join(lines) + "\n"
