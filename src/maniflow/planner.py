"""Weighted digraphs and deterministic single-source shortest paths.

The planner works on directed graphs with non-negative, finite edge
weights and opaque node payloads (latent points, workspace node ids, or
nothing at all).  Shortest paths are computed with a binary-heap Dijkstra
whose tie-breaking is deterministic: among equal-cost routes discovered
while a node is still open, the predecessor with the smaller index wins.
Once a node is settled its predecessor is frozen, which keeps the
predecessor structure a tree even in the presence of zero-weight cycles.
``dijkstra`` settles every reachable node; ``shortest_path`` runs the same
search but stops when its target is settled, which leaves the route
unchanged.

Graph text format (line oriented, ``#`` starts a comment)::

    n <node_count>
    e <src> <dst> <weight>

Node indices are 0-based and weights must be finite and non-negative;
``save_graph`` writes each with the 17 digits that read back as the same
float.

``build_ndm_graph`` links each latent sample to its k nearest others,
``connect = ("knn", k)``, the one connection rule.

Graphs, Dijkstra and the text format are pure Python; numpy is imported
only by ``build_ndm_graph`` and its helpers, so loading and searching a
graph file does not load it.  The classes are plain ones with hand-written
``__init__``s: the CLI's ``plan`` and ``table 1`` import this module, and
the standard-library decorator that would write those ``__init__``s loads
``inspect``, which costs each of those processes more time than its own
work.
"""

from __future__ import annotations

import heapq
import math

from . import _text

__all__ = [
    "WeightedDigraph",
    "SsspResult",
    "dijkstra",
    "shortest_path",
    "build_ndm_graph",
    "waypoints",
    "load_graph",
    "save_graph",
]


# rows per distance block and per k-NN selection chunk: each bounds a
# temporary, (block, n, d) differences and a few (chunk, n) arrays
_DIST_BLOCK = 8
_PICK_CHUNK = 32


def _edge_weight(n: int, src: int, dst: int, weight) -> float:
    """The one check of an edge: both endpoints among n nodes, a finite non-negative weight."""
    for idx in (src, dst):
        if not 0 <= idx < n:
            raise ValueError(f"edge endpoint {idx} is not a node index")
    try:
        w = float(weight)
    except OverflowError:  # an int past the float range
        w = math.inf
    if not math.isfinite(w):
        raise ValueError(f"edge weight on ({src}, {dst}) must be finite, got {weight!r}")
    if w < 0.0:
        raise ValueError(f"negative edge weight {w!r} on ({src}, {dst})")
    return w


class WeightedDigraph:
    """Directed graph with non-negative edge weights.

    ``payloads[i]`` carries arbitrary per-node data; the graph itself only
    cares about indices.  Given lists are kept, not copied; each one left
    out starts as a new empty list.  The two must have equal lengths.
    """

    def __init__(self, payloads: list | None = None, adjacency: list[list[tuple[int, float]]] | None = None):
        self.payloads = [] if payloads is None else payloads
        self.adjacency = [] if adjacency is None else adjacency
        if len(self.payloads) != len(self.adjacency):
            raise ValueError(f"{len(self.payloads)} payloads but {len(self.adjacency)} adjacency lists")

    @property
    def n_nodes(self) -> int:
        return len(self.payloads)

    def add_node(self, payload=None) -> int:
        self.payloads.append(payload)
        self.adjacency.append([])
        return len(self.payloads) - 1

    def add_edge(self, src: int, dst: int, weight: float) -> None:
        w = _edge_weight(self.n_nodes, src, dst, weight)
        self.adjacency[src].append((dst, w))

    def edges(self):
        """Yield (src, dst, weight) triples in insertion order per source."""
        for u, nbrs in enumerate(self.adjacency):
            for v, w in nbrs:
                yield u, v, w


class SsspResult:
    """Distances and predecessor tree from a single Dijkstra run.

    Unreachable nodes get ``dist = inf`` and ``pred = None``; the source
    itself has ``pred = None``.
    """

    def __init__(self, source: int, dist: list[float], pred: list[int | None]):
        self.source = source
        self.dist = dist
        self.pred = pred


def _search(graph: WeightedDigraph, source: int, target: int | None = None):
    """Binary-heap Dijkstra from source; ``(dist, pred)`` lists.

    With a target, the search stops when it pops the target: every node on
    the target's route was settled before it, and a settled node's
    predecessor is frozen, so that route and its cost are those of the full
    search.  Nodes left open may hold provisional entries.
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
        if u == target:
            break
        done[u] = True
        for v, w in graph.adjacency[u]:
            nd = d + w
            if nd < dist[v]:
                dist[v] = nd
                pred[v] = u
                heapq.heappush(heap, (nd, v))
            elif nd == dist[v] and not done[v] and pred[v] is not None and u < pred[v]:
                pred[v] = u
    return dist, pred


def dijkstra(graph: WeightedDigraph, source: int) -> SsspResult:
    """Single-source shortest paths over non-negative weights.

    Settles every node the source reaches.  Deterministic for identical
    inputs: the heap orders by (distance, node index), and when an equally
    short route to a still-open node is found, the smaller predecessor
    index is kept.
    """
    dist, pred = _search(graph, source)
    return SsspResult(source, dist, pred)


def shortest_path(graph: WeightedDigraph, source: int, target: int):
    """Return ``(node_indices, cost)`` or ``None`` when target is unreachable.

    Runs ``dijkstra``'s search but stops once the target is settled, so the
    route, its cost and its tie-breaks are those of the full
    ``dijkstra(graph, source)`` result.  An unreachable target runs the
    search to exhaustion.  A target that edges reach but only at a cost
    that overflows to inf raises ValueError.
    """
    if not 0 <= target < graph.n_nodes:
        raise ValueError(f"target {target} is not a node index")
    dist, pred = _search(graph, source, target)
    if math.isinf(dist[target]):
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
        prev = pred[path[-1]]
        assert prev is not None
        path.append(prev)
    path.reverse()
    return path, dist[target]


def _pair_distances(flat: np.ndarray) -> np.ndarray:
    """The (n, n) Euclidean distance matrix of the rows of flat.

    Row block [i0, i1) takes the differences x_j - x_i for j >= i0 as one
    (i1 - i0, n - i0, 1, d) stack, and each entry is a (1, d) @ (d, 1)
    matmul on the dot kernel of ``ndarray.dot``, which ``np.linalg.norm``
    also runs: the entry is the per-pair norm bit for bit.  x_i - x_j is exactly
    -(x_j - x_i), so the mirror entry is that norm too, and each pair is
    computed once.  A sum of squares that overflows is +inf.
    """
    import numpy as np

    n = flat.shape[0]
    dist = np.empty((n, n))
    with np.errstate(over="ignore"):
        for i0 in range(0, n, _DIST_BLOCK):
            i1 = min(i0 + _DIST_BLOCK, n)
            diff = flat[None, i0:, :] - flat[i0:i1, None, :]
            block = np.sqrt((diff[..., None, :] @ diff[..., :, None])[..., 0, 0])
            dist[i0:i1, i0:] = block
            dist[i0:, i0:i1] = block.T
    return dist


def _knn_pairs(dist: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(src, dst) of each node's k nearest others, ranked by (distance, index).

    With self pinned first, a row's k + 1 smallest entries in that order
    are the ones below its (k+1)-th value and, of the entries equal to
    it, the first in index order; one stable sort of those k + 1 ranks
    them.  Writes -inf on the diagonal of dist.
    """
    import numpy as np

    n = dist.shape[0]
    np.fill_diagonal(dist, -np.inf)
    picked = np.empty((n, k), dtype=np.intp)
    for r0 in range(0, n, _PICK_CHUNK):
        rows = dist[r0 : r0 + _PICK_CHUNK]
        kth = np.partition(rows, k, axis=1)[:, k : k + 1]
        keep = rows <= kth
        extra = keep.sum(axis=1, keepdims=True) - (k + 1)
        if extra.any():
            # drop the last `extra` entries tied at the (k+1)-th value
            tied = rows == kth
            keep &= ~tied | (np.cumsum(tied, axis=1) <= tied.sum(axis=1, keepdims=True) - extra)
        cols = np.flatnonzero(keep).reshape(len(rows), k + 1) % n
        order = np.argsort(np.take_along_axis(rows, cols, axis=1), axis=1, kind="stable")
        picked[r0 : r0 + _PICK_CHUNK] = np.take_along_axis(cols, order, axis=1)[:, 1:]
    return np.repeat(np.arange(n), k), picked.ravel()


def build_ndm_graph(samples, connect, edge_cost) -> WeightedDigraph:
    """Build a state graph over latent samples.

    ``connect`` is ``("knn", k)``, the one rule; a complete graph is
    ``("knn", len(samples) - 1)``.  ``edge_cost(a, b)`` must return a finite,
    non-negative cost for the directed edge a -> b; it is called once per
    edge, by source and then by rank.  k-nearest neighbours are chosen by
    Euclidean distance with index order breaking ties.

    Samples must be finite and share one shape.  For n samples in d
    dimensions the cost is n(n+1)/2 per-pair dot products of length d,
    taken in blocks of rows on the kernel of ``ndarray.dot``, into one
    (n, n) float matrix (8n^2 bytes), then a partial selection per row.
    Each distance is the per-pair ``np.linalg.norm`` bit for bit, so the
    edges and their order are exactly those of sorting every pair by that
    norm.  A distance that overflows is +inf and ranks by index.
    """
    import numpy as np

    pts = []
    for s in samples:
        try:
            pts.append(np.atleast_1d(np.asarray(s, dtype=float)))
        except OverflowError:  # an int past the float range is not finite
            pts.append(np.atleast_1d(np.full(np.shape(s), np.inf)))
    if not pts:
        raise ValueError("need at least one sample")
    for i, p in enumerate(pts):
        if p.shape != pts[0].shape:
            raise ValueError(f"sample {i} has shape {p.shape}, sample 0 has {pts[0].shape}")
    n = len(pts)
    flat = np.stack(pts).reshape(n, -1)
    finite = np.isfinite(flat).all(axis=1)
    if not finite.all():
        raise ValueError(f"sample {int(np.argmin(finite))} is not finite")

    mode, param = connect
    if mode != "knn":
        raise ValueError(f"unknown connection rule {mode!r}")
    # an int is whole as it is, one past the float range included
    if not ((isinstance(param, int) or float(param).is_integer()) and param >= 1):
        raise ValueError(f"k-nearest rule needs an integer k >= 1, got {param!r}")
    src, dst = _knn_pairs(_pair_distances(flat), min(int(param), n - 1))

    payloads = list(samples)
    adjacency: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for i, j in zip(src.tolist(), dst.tolist()):
        raw = edge_cost(payloads[i], payloads[j])
        try:
            cost = float(raw)
        except OverflowError:  # an int past the float range
            cost = math.inf
        if not 0.0 <= cost < math.inf:
            raise ValueError(
                f"edge cost between samples {i} and {j} must be finite and"
                f" non-negative, got {raw!r}"
            )
        adjacency[i].append((j, cost))
    return WeightedDigraph(payloads, adjacency)


def waypoints(path, stride: int):
    """Every stride-th node of a path, always keeping the first and last; stride is an integer >= 1."""
    if len(path) == 0:
        raise ValueError("cannot take waypoints of an empty path")
    if not ((isinstance(stride, int) or float(stride).is_integer()) and stride >= 1):
        raise ValueError(f"stride must be an integer >= 1, got {stride!r}")
    out = list(path[::int(stride)])
    if out[-1] != path[-1]:
        out.append(path[-1])
    return out


def load_graph(path) -> WeightedDigraph:
    """Parse the ``n``/``e`` text format; a bad line raises ``_text.FormatError`` starting ``line N: ``."""
    graph = WeightedDigraph()
    adjacency = graph.adjacency
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
                src, dst = int(tokens[1]), int(tokens[2])
                w = _edge_weight(count, src, dst, float(tokens[3]))
                adjacency[src].append((dst, w))
            else:
                raise ValueError(f"unknown directive {tokens[0]!r}")
        except ValueError as exc:
            raise _text.FormatError.at(ln, exc) from None
    if not declared:
        raise _text.FormatError("missing 'n <count>' line")
    return graph


def save_graph(graph: WeightedDigraph, path) -> None:
    """Write the ``n``/``e`` format, each weight with the 17 digits that read back as the same float."""
    rows = [f"n {graph.n_nodes}"]
    rows += [f"e {u} {v} {_text.exact_row((w,))}" for u, v, w in graph.edges()]
    _text.write(path, rows)
