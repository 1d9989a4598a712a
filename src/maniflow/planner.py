"""Weighted digraphs and deterministic single-source shortest paths.

The planner works on directed graphs of indexed nodes with non-negative,
finite edge weights; what a node stands for (a latent sample, a
workspace node id) stays with the caller.  Shortest paths are computed
with a binary-heap Dijkstra whose tie-breaking is deterministic: among
equal-cost routes discovered while a node is still open, the predecessor
with the smaller index wins.  Once a node is settled its predecessor is
frozen, which keeps the predecessor structure a tree even in the
presence of zero-weight cycles.
``dijkstra`` settles every reachable node and returns the distances;
``shortest_path`` runs the same search but stops when its target is
settled, which leaves the route unchanged, and walks the predecessors
back from the target.

Graph text format (line oriented, ``#`` starts a comment)::

    n <node_count>
    e <src> <dst> <weight>

Node indices are 0-based and weights must be finite and non-negative.

``build_ndm_graph`` links each latent sample to its k nearest others,
``connect = ("knn", k)``, the one connection rule, from one matmul per
block of rows and exact norms only where rounding leaves a rank in doubt.

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
from ._numbers import floats, is_count, real

__all__ = [
    "WeightedDigraph",
    "dijkstra",
    "shortest_path",
    "build_ndm_graph",
    "load_graph",
]


# floats per (rows, n) block, of 16 rows at least, and per (pairs, d) difference slice
_BLOCK = 1 << 14


def _edge_weight(n: int, src: int, dst: int, weight) -> float:
    """The one check of an edge: both endpoints among n nodes, a finite non-negative weight.

    A good edge passes one chained test; a bad one is then named by its
    first fault: an endpoint, then the weight's finiteness, then its sign.
    """
    if 0 <= src < n and 0 <= dst < n and 0.0 <= (w := real(weight)) < math.inf:
        return w
    for idx in (src, dst):
        if not 0 <= idx < n:
            raise ValueError(f"edge endpoint {idx} is not a node index")
    w = real(weight)
    if not math.isfinite(w):
        raise ValueError(f"edge weight on ({src}, {dst}) must be finite, got {weight!r}")
    raise ValueError(f"negative edge weight {w!r} on ({src}, {dst})")


class WeightedDigraph:
    """Directed graph with non-negative edge weights: ``adjacency[i]`` lists node i's (dst, weight) pairs.

    A given ``adjacency`` is kept, not copied; left out, it starts empty.
    """

    def __init__(self, adjacency: list[list[tuple[int, float]]] | None = None):
        self.adjacency = [] if adjacency is None else adjacency

    def add_node(self) -> int:
        self.adjacency.append([])
        return len(self.adjacency) - 1

    def add_edge(self, src: int, dst: int, weight: float) -> None:
        w = _edge_weight(len(self.adjacency), src, dst, weight)
        self.adjacency[src].append((dst, w))

    def edges(self):
        """Yield (src, dst, weight) triples in insertion order per source."""
        for u, nbrs in enumerate(self.adjacency):
            for v, w in nbrs:
                yield u, v, w


def _node(graph: WeightedDigraph, index, what: str) -> int:
    """index as an int; ValueError naming it as ``what`` unless it is a whole number below the node count."""
    if not (is_count(index, 0) and index < len(graph.adjacency)):
        raise ValueError(f"{what} {index} is not a node index")
    return int(index)


def _search(graph: WeightedDigraph, source: int, target: int | None = None):
    """Binary-heap Dijkstra from source; ``(dist, pred)`` lists, ``pred`` None at the source and unreached nodes.

    With a target, the search stops when it pops the target: every node on
    the target's route was settled before it, and a settled node's
    predecessor is frozen, so that route and its cost are those of the full
    search.  Nodes left open may hold provisional entries.  A node first
    reached at a cost that overflows to inf is pushed at inf, so every node
    the source reaches gets a predecessor.
    """
    n = len(graph.adjacency)
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
            elif nd == dist[v] and not done[v]:
                if pred[v] is None:  # first reached at a cost that overflowed to inf
                    pred[v] = u
                    heapq.heappush(heap, (nd, v))
                elif u < pred[v]:
                    pred[v] = u
    return dist, pred


def dijkstra(graph: WeightedDigraph, source: int) -> list[float]:
    """Single-source shortest-path distances over non-negative weights, ``inf`` for unreached nodes.

    Settles every node the source reaches; a node reached only at a cost
    that overflows also has distance inf.  Deterministic for identical
    inputs: the heap orders by (distance, node index).
    """
    return _search(graph, _node(graph, source, "source"))[0]


def shortest_path(graph: WeightedDigraph, source: int, target: int):
    """Return ``(node_indices, cost)`` or ``None`` when target is unreachable.

    Runs ``dijkstra``'s search but stops once the target is settled, so the
    route, its cost and its tie-breaks are those of the predecessor tree
    that the full search from source leaves.  An unreachable target runs the
    search to exhaustion.  A target that edges reach but only at a cost
    that overflows to inf raises ValueError.
    """
    target = _node(graph, target, "target")
    source = _node(graph, source, "source")
    dist, pred = _search(graph, source, target)
    if math.isinf(dist[target]):
        if pred[target] is not None:
            raise ValueError(f"node {target} is reachable from {source}, but the route's cost overflows")
        return None
    path = [target]
    while path[-1] != source:
        prev = pred[path[-1]]
        assert prev is not None
        path.append(prev)
    path.reverse()
    return path, dist[target]


def _knn_pairs(flat: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(src, dst) of each row's k nearest others, ranked by (|x_j - x_i|, index).

    y is flat scaled by 2^-e to entries below 1 (exact but below the normal
    range), less its column mean, scaled by 2^-c to entries below 1 again
    (exact), so a cluster far from the origin ranks on its own spread.  A
    row block takes g_ij = |y_j|^2 - 2 y_i.y_j, the squared distance less
    |y_i|^2, from one matmul.  Each g_ij is within err of its exact value
    (Higham's gamma_{d+2}, plus d subnormal spacings).  The centring's one
    rounded subtraction per entry moves a squared distance by at most
    9 u max_i |y_i|^2 (u = 2^-53), and the two scalings' underflow by at
    most 9 d subnormal spacings, times 2^-c where c < 0 magnifies them; err
    holds these too.  So each of row i's k nearest has g_ij within a margin
    of its (k+1)-th g, self pinned first; the margin also covers the exact
    norms' rounding (alpha: their underflow) and the ties sqrt makes, and is
    +inf where the (k+1)-th could overflow.  Candidates get the exact norm
    of the uncentred samples, a (1, d) @ (d, 1) matmul on
    ``np.linalg.norm``'s ``ndarray.dot`` kernel; a stable sort ranks them.
    """
    import numpy as np

    n, d = flat.shape
    dst = np.empty((n, k), dtype=np.intp)  # k = 0 (one sample) runs no block
    gamma = (d + 2) * 2.0**-53 / (1 - (d + 2) * 2.0**-53)
    tiny = d * 2.0**-1074
    _, e = np.frexp(np.abs(flat).max())
    y = np.ldexp(flat, -e)
    y -= y.mean(axis=0)
    _, c = np.frexp(np.abs(y).max())
    np.ldexp(y, -c, out=y)
    sq = np.einsum("ij,ij->i", y, y)
    minus_2yt = -2.0 * y.T
    err = (4 * gamma + 9 * 2.0**-53) * sq.max() + 8 * tiny + np.ldexp(9 * tiny, max(0, -c))
    rows, pairs = max(16, _BLOCK // n), max(1, _BLOCK // d)
    with np.errstate(over="ignore"):
        # alpha: an exact norm's underflow in y; a squared distance of y below limit is finite in x
        alpha, limit = np.ldexp([tiny, 2.0**1022], -2 * (e + c))
        for i0 in range(0, n if k else 0, rows):
            g = y[i0 : i0 + rows] @ minus_2yt
            g += sq
            np.fill_diagonal(g[:, i0:], -np.inf)
            t = np.partition(g, k, axis=1)[:, k]
            q = t + 2 * err + sq[i0 : i0 + rows]
            cut = np.where(q * (1 + 4 * gamma) < limit, t + 4 * gamma * q + 3 * err + 3 * alpha, np.inf)
            keep = g <= cut[:, None]
            np.fill_diagonal(keep[:, i0:], False)
            r, j = np.divmod(np.flatnonzero(keep), n)
            norm = np.empty(len(j))
            for c0 in range(0, len(j), pairs):
                diff = flat[j[c0 : c0 + pairs]] - flat[i0 + r[c0 : c0 + pairs]]
                norm[c0 : c0 + pairs] = np.sqrt((diff[:, None, :] @ diff[:, :, None])[:, 0, 0])
            count = np.bincount(r, minlength=len(g))
            first = np.cumsum(count) - count
            box = np.full((len(g), count.max()), np.inf)  # a row's candidates in index order, then +inf
            box[r, np.arange(len(j)) - first[r]] = norm
            dst[i0 : i0 + rows] = j[first[:, None] + np.argsort(box, axis=1, kind="stable")[:, :k]]
    return np.repeat(np.arange(n), k), dst.ravel()


def build_ndm_graph(samples, connect, edge_cost) -> WeightedDigraph:
    """Build a state graph over latent samples.

    ``connect`` is ``("knn", k)``, the one rule; a complete graph is
    ``("knn", len(samples) - 1)``.  ``edge_cost(a, b)`` must return a finite,
    non-negative cost for the directed edge a -> b; it is called once per
    edge, by source and then by rank.  k-nearest neighbours are chosen by
    Euclidean distance with index order breaking ties.

    Samples must be a sequence, finite and of one shape.  n samples in d
    dimensions cost O(n^2 d) work and O(n) floats beside the samples: the
    per-pair ``np.linalg.norm`` is taken, bit for bit, only where rounding
    leaves a pair's rank in doubt, so the edges and their order are exactly
    those of sorting every pair by that norm.  A distance that overflows is
    +inf and ranks by index.
    """
    import numpy as np

    try:
        flat = floats(samples)
    except ValueError:  # ragged shapes
        pts = []
        for i, s in enumerate(samples):
            p = np.atleast_1d(floats(s))
            if pts and p.shape != pts[0].shape:
                raise ValueError(f"sample {i} has shape {p.shape}, sample 0 has {pts[0].shape}")
            pts.append(p)
        flat = np.stack(pts)
    if flat.ndim == 0:
        raise ValueError(f"samples must be a sequence, got the scalar {samples!r}")
    n = len(flat)
    if n == 0:
        raise ValueError("need at least one sample")
    flat = flat.reshape(n, -1)
    finite = np.isfinite(flat).all(axis=1)
    if not finite.all():
        raise ValueError(f"sample {int(np.argmin(finite))} is not finite")

    mode, param = connect
    if mode != "knn":
        raise ValueError(f"unknown connection rule {mode!r}")
    if not is_count(param, 1):
        raise ValueError(f"k-nearest rule needs an integer k >= 1, got {param!r}")
    src, dst = _knn_pairs(flat, min(int(param), n - 1))

    samples = list(samples)
    adjacency: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for i, j in zip(src.tolist(), dst.tolist()):
        raw = edge_cost(samples[i], samples[j])
        cost = real(raw)
        if not 0.0 <= cost < math.inf:
            raise ValueError(
                f"edge cost between samples {i} and {j} must be finite and"
                f" non-negative, got {raw!r}"
            )
        adjacency[i].append((j, cost))
    return WeightedDigraph(adjacency)


def load_graph(path) -> WeightedDigraph:
    """Parse the ``n``/``e`` text format; a bad line raises ``_text.FormatError`` starting ``line N: ``."""
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
                adjacency = [[] for _ in range(count)]
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
    return WeightedDigraph(adjacency)
