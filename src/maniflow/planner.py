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
    """Return ``(node_indices, cost)`` or ``None`` when target is unreachable.

    A target that edges reach but only at a cost that overflows to inf
    raises ValueError.
    """
    if not 0 <= target < graph.n_nodes:
        raise ValueError(f"target {target} is not a node index")
    res = dijkstra(graph, source)
    if math.isinf(res.dist[target]):
        seen, stack = {source}, [source]
        while stack:
            for v, _ in graph.adjacency[stack.pop()]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        if target in seen:
            raise ValueError(f"node {target} is reachable from {source}, but the route's cost overflows")
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

    Samples must be finite and share one shape.  Each node costs one
    O(n·d) distance row of per-pair dot products on the kernel of
    ``ndarray.dot``, so each distance is the per-pair ``np.linalg.norm``
    bit for bit and the edges and their order are exactly those of sorting
    every pair by that norm.  A distance that overflows is +inf; it ranks
    by index and lies within r only when r is inf.
    """
    pts = [np.atleast_1d(np.asarray(s, dtype=float)) for s in samples]
    if not pts:
        raise ValueError("need at least one sample")
    for i, p in enumerate(pts):
        if p.shape != pts[0].shape:
            raise ValueError(f"sample {i} has shape {p.shape}, sample 0 has {pts[0].shape}")
        if not np.isfinite(p).all():
            raise ValueError(f"sample {i} is not finite")
    n = len(pts)
    flat = np.stack([p.ravel() for p in pts])

    mode, param = connect
    if mode == "knn":
        if not (float(param).is_integer() and float(param) >= 1):
            raise ValueError(f"k-nearest rule needs an integer k >= 1, got {param!r}")
        k = min(int(param), n - 1)
    elif mode == "radius":
        r = float(param)
        if not r >= 0:
            raise ValueError(f"radius must be a non-negative number, got {param!r}")
        k = n - 1  # keeps every neighbour within r
    else:
        raise ValueError(f"unknown connection rule {mode!r}")

    pairs: list[tuple[int, int]] = []
    for i in range(n):
        with np.errstate(over="ignore"):
            diff = flat - flat[i]
            row = np.sqrt((diff[:, None, :] @ diff[:, :, None])[:, 0, 0])
        near = np.argsort(row, kind="stable") if mode == "knn" else np.flatnonzero(row <= r)
        pairs.extend((i, j) for j in near[near != i][:k].tolist())

    graph = WeightedDigraph()
    for s in samples:
        graph.add_node(s)
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
    rows = [(i, d, "" if p is None else p) for i, (d, p) in enumerate(zip(res.dist, res.pred))]
    return _text.csv(["node", "dist", "pred"], rows)
