"""Tests for the graph planner: Dijkstra, graph building, and round trips."""

import math
import re
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maniflow import _text, planner


def brute_force_dist(graph, source):
    """Bellman-Ford style relaxation, used as an independent oracle."""
    n = len(graph.adjacency)
    dist = [math.inf] * n
    dist[source] = 0.0
    for _ in range(n):
        changed = False
        for u, v, w in graph.edges():
            if dist[u] + w < dist[v]:
                dist[v] = dist[u] + w
                changed = True
        if not changed:
            break
    return dist


def random_graph(rng, max_nodes=8):
    n = int(rng.integers(2, max_nodes + 1))
    g = planner.WeightedDigraph()
    for _ in range(n):
        g.add_node()
    n_edges = int(rng.integers(0, n * (n - 1) + 1))
    for _ in range(n_edges):
        u = int(rng.integers(0, n))
        v = int(rng.integers(0, n))
        if u == v:
            continue
        # occasional zero weights exercise tie-breaking
        w = 0.0 if rng.random() < 0.2 else float(rng.random() * 5.0)
        g.add_edge(u, v, w)
    return g


class TestWeightedDigraph:
    def test_default_lists_are_per_instance(self):
        a, b = planner.WeightedDigraph(), planner.WeightedDigraph()
        assert a.add_node() == 0
        assert (len(a.adjacency), len(b.adjacency)) == (1, 0)
        assert b.adjacency == []

    def test_given_lists_are_kept(self):
        # build_ndm_graph and load_graph hand over the lists they filled, without a copy
        adjacency = [[(1, 0.5)], []]
        g = planner.WeightedDigraph(adjacency)
        assert g.adjacency is adjacency and len(g.adjacency) == 2
        g.add_edge(1, 0, 2.0)
        assert adjacency == [[(1, 0.5)], [(0, 2.0)]]


class TestDijkstra:
    def test_line_graph(self):
        g = planner.WeightedDigraph()
        for _ in range(4):
            g.add_node()
        g.add_edge(0, 1, 1.0)
        g.add_edge(1, 2, 2.0)
        g.add_edge(2, 3, 0.5)
        dist, pred = planner._search(g, 0)
        assert planner.dijkstra(g, 0) == dist == [0.0, 1.0, 3.0, 3.5]
        assert pred == [None, 0, 1, 2]

    def test_unreachable_nodes(self):
        g = planner.WeightedDigraph()
        for _ in range(3):
            g.add_node()
        g.add_edge(0, 1, 1.0)
        dist, pred = planner._search(g, 0)
        assert planner.dijkstra(g, 0) == dist
        assert math.isinf(dist[2])
        assert pred[2] is None
        assert planner.shortest_path(g, 0, 2) is None

    def test_matches_brute_force(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            g = random_graph(rng)
            src = int(rng.integers(0, len(g.adjacency)))
            expected = brute_force_dist(g, src)
            np.testing.assert_allclose(planner.dijkstra(g, src), expected)

    def test_deterministic_tie_break(self):
        # two equal-cost routes to node 3: via 1 and via 2
        g = planner.WeightedDigraph()
        for _ in range(4):
            g.add_node()
        g.add_edge(0, 2, 1.0)
        g.add_edge(0, 1, 1.0)
        g.add_edge(2, 3, 1.0)
        g.add_edge(1, 3, 1.0)
        assert planner._search(g, 0)[1][3] == 1

    def test_repeat_runs_identical(self):
        rng = np.random.default_rng(7)
        g = random_graph(rng)
        first_dist, first_pred = planner._search(g, 0)
        for _ in range(5):
            dist, pred = planner._search(g, 0)
            assert dist == first_dist
            assert pred == first_pred

    def test_pred_tree_acyclic_with_zero_weights(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            g = random_graph(rng)
            dist, pred = planner._search(g, 0)
            for v in range(len(g.adjacency)):
                if math.isinf(dist[v]):
                    continue
                seen = set()
                node = v
                while node is not None:
                    assert node not in seen
                    seen.add(node)
                    node = pred[node]
                assert 0 in seen

    def test_negative_weight_rejected(self):
        g = planner.WeightedDigraph()
        g.add_node()
        g.add_node()
        with pytest.raises(ValueError, match="negative"):
            g.add_edge(0, 1, -0.5)

    def test_nonfinite_weight_rejected(self):
        g = planner.WeightedDigraph()
        g.add_node()
        g.add_node()
        with pytest.raises(ValueError, match="finite"):
            g.add_edge(0, 1, math.inf)

    def test_bad_source(self):
        g = planner.WeightedDigraph()
        g.add_node()
        with pytest.raises(ValueError):
            planner.dijkstra(g, 5)


class TestShortestPath:
    def test_path_and_cost(self):
        g = planner.WeightedDigraph()
        for _ in range(4):
            g.add_node()
        g.add_edge(0, 1, 1.0)
        g.add_edge(1, 3, 1.0)
        g.add_edge(0, 3, 5.0)
        path, cost = planner.shortest_path(g, 0, 3)
        assert path == [0, 1, 3]
        assert cost == 2.0

    def test_source_is_target(self):
        g = planner.WeightedDigraph()
        g.add_node()
        path, cost = planner.shortest_path(g, 0, 0)
        assert path == [0]
        assert cost == 0.0

    @staticmethod
    def overflow_graph(*extra_edges):
        g = planner.WeightedDigraph()
        for _ in range(4):
            g.add_node()
        g.add_edge(0, 1, 1e308)
        g.add_edge(1, 2, 1e308)
        for edge in extra_edges:
            g.add_edge(*edge)
        return g

    def test_overflowing_route_raises(self):
        with pytest.raises(ValueError, match="reachable from 0, but the route's cost overflows"):
            planner.shortest_path(self.overflow_graph(), 0, 2)

    def test_finite_detour_beside_overflowing_route(self):
        assert planner.shortest_path(self.overflow_graph((0, 3, 1.0), (3, 2, 1.0)), 0, 2) == ([0, 3, 2], 2.0)

    def test_disconnected_target_beside_overflowing_route(self):
        assert planner.shortest_path(self.overflow_graph(), 0, 3) is None

    def test_overflow_reached_node_has_a_predecessor(self):
        # node 2 is reached, at a cost that overflows; node 3 is not reached
        dist, pred = planner._search(self.overflow_graph(), 0)
        assert planner.dijkstra(self.overflow_graph(), 0) == dist == [0.0, 1e308, math.inf, math.inf]
        assert pred == [None, 0, 1, None]

    def test_stops_at_target(self):
        # a chain 0 -> 1 -> ... -> 9: only the nodes settled before the target are expanded
        class Recording(list):
            def __getitem__(self, u):
                expanded.append(u)
                return super().__getitem__(u)

        g = planner.WeightedDigraph()
        for _ in range(10):
            g.add_node()
        for u in range(9):
            g.add_edge(u, u + 1, 1.0)
        g.adjacency = Recording(g.adjacency)
        expanded = []
        assert planner.shortest_path(g, 0, 3) == ([0, 1, 2, 3], 3.0)
        assert expanded == [0, 1, 2]
        expanded.clear()
        planner.dijkstra(g, 0)
        assert expanded == list(range(10))


class TestBuildNdmGraph:
    def test_knn_connectivity(self):
        samples = [np.array([float(i)]) for i in range(5)]
        g = planner.build_ndm_graph(samples, ("knn", 2), lambda a, b: 1.0)
        # every node has exactly k out-edges
        for nbrs in g.adjacency:
            assert len(nbrs) == 2
        # node 0's nearest two are 1 and 2
        assert sorted(v for v, _ in g.adjacency[0]) == [1, 2]

    def test_complete_graph(self):
        samples = [np.array([float(i)]) for i in range(4)]
        g = planner.build_ndm_graph(samples, ("knn", 3), lambda a, b: 1.0)
        assert sum(len(n) for n in g.adjacency) == 12

    def test_edge_cost_callback_receives_payloads(self):
        samples = [np.array([0.0]), np.array([2.0])]
        g = planner.build_ndm_graph(
            samples, ("knn", 1), lambda a, b: abs(float(b[0] - a[0]))
        )
        assert g.adjacency[0] == [(1, 2.0)]

    def test_negative_cost_names_pair(self):
        samples = [np.array([0.0]), np.array([1.0])]
        with pytest.raises(ValueError, match="samples 0 and 1"):
            planner.build_ndm_graph(samples, ("knn", 1), lambda a, b: -1.0)

    def test_nonfinite_cost_rejected(self):
        samples = [np.array([0.0]), np.array([1.0])]
        with pytest.raises(ValueError, match="samples"):
            planner.build_ndm_graph(samples, ("knn", 1), lambda a, b: math.nan)

    def test_unknown_rule(self):
        with pytest.raises(ValueError, match="connection rule"):
            planner.build_ndm_graph([np.array([0.0])], ("ball", 1), lambda a, b: 1.0)

    @pytest.mark.parametrize(
        "samples,connect,message",
        [
            ([[0.0], [math.nan], [1.0], [2.0]], ("knn", 2), "sample 1 is not finite"),
            ([[0.0], [1.0], [math.inf]], ("knn", 1), "sample 2 is not finite"),
            ([[0.0], [1.0, 2.0, 3.0]], ("knn", 1), r"sample 1 has shape \(3,\)"),
            ([[0.0], [1.0]], ("radius", 1.0), "unknown connection rule 'radius'"),
            ([[0.0], [1.0]], ("knn", math.inf), "integer k"),
            ([[0.0], [1.0], [2.0]], ("knn", 2.7), "integer k"),
            ([[0.0], [1.0], [2.0]], ("knn", math.nan), "integer k"),
            ([[0.0], [1.0], [2.0]], ("knn", 0), "integer k"),
        ],
    )
    def test_bad_input_rejected_before_any_edge_cost(self, samples, connect, message):
        def edge_cost(a, b):
            raise AssertionError("edge_cost called on invalid input")

        with pytest.raises(ValueError, match=message):
            planner.build_ndm_graph([np.array(s) for s in samples], connect, edge_cost)

    def test_scalar_and_one_element_samples_build_together(self):
        # 1.0 and [2.0] make no one array, so each sample is read alone; both then have shape (1,)
        calls = []
        g = planner.build_ndm_graph([1.0, [2.0]], ("knn", 1), lambda a, b: calls.append((a, b)) or 1.0)
        assert list(g.edges()) == [(0, 1, 1.0), (1, 0, 1.0)]
        assert calls == [(1.0, [2.0]), ([2.0], 1.0)]

    def test_integral_float_k_accepted(self):
        samples = [np.array([float(i)]) for i in range(4)]
        g = planner.build_ndm_graph(samples, ("knn", 2.0), lambda a, b: 1.0)
        assert [v for v, _ in g.adjacency[0]] == [1, 2]


@st.composite
def graphs(draw):
    """Graphs of up to 6 nodes with any finite non-negative weights, self-loops included."""
    g = planner.WeightedDigraph()
    for _ in range(draw(st.integers(0, 6))):
        g.add_node()
    if len(g.adjacency):
        node = st.integers(0, len(g.adjacency) - 1)
        weight = st.floats(min_value=0.0, allow_infinity=False)
        for u, v, w in draw(st.lists(st.tuples(node, node, weight), max_size=12)):
            g.add_edge(u, v, w)
    return g


@st.composite
def zero_cycle_graphs(draw):
    """Graphs of up to 40 nodes with parallel edges, self-loops and zero-weight cycles.

    Weights are multiples of 1/8 below 8, so every path sum is exact and
    distances can be compared for equality.
    """
    g = planner.WeightedDigraph()
    for _ in range(draw(st.integers(1, 40))):
        g.add_node()
    node = st.integers(0, len(g.adjacency) - 1)
    weight = st.integers(0, 63).map(lambda k: k / 8)
    for u, v, w in draw(st.lists(st.tuples(node, node, weight), max_size=120)):
        g.add_edge(u, v, w)
    for cycle in draw(st.lists(st.lists(node, min_size=1, max_size=6), max_size=4)):
        for u, v in zip(cycle, cycle[1:] + cycle[:1]):
            g.add_edge(u, v, 0.0)
    return g, draw(node)


def oracle_pairs(samples, connect):
    """The per-pair rule: each sample's k nearest others, ranked by (np.linalg.norm, index)."""
    pts = [np.atleast_1d(np.asarray(s, dtype=float)) for s in samples]
    _, k = connect
    pairs = []
    for i, pi in enumerate(pts):
        dist = {j: float(np.linalg.norm(pj - pi)) for j, pj in enumerate(pts) if j != i}
        pairs.extend((i, j) for j in sorted(dist, key=lambda j: (dist[j], j))[:k])
    return pairs


def l1_cost(a, b):
    return float(np.sum(np.abs(b - a)))


@st.composite
def point_sets(draw):
    """Up to 16 points in 1 to 32 dimensions: free floats, or integer grid
    points (ties and duplicates) taken as they are or times 0.1 (inexact
    distances).  From d = 8 on, sums of squares taken in another order
    than the per-pair norm's round differently, so a distance row must
    sum as that norm does to pick the same edges."""
    n = draw(st.integers(1, 16))
    d = draw(st.sampled_from([1, 2, 3, 8, 17, 32]))
    kind = draw(st.sampled_from(["float", "grid", "grid x0.1"]))
    if kind == "float":
        coord = st.floats(-1e3, 1e3, allow_nan=False)
    else:
        coord = st.integers(-1, 1).map(float if kind == "grid" else lambda v: 0.1 * v)
    values = draw(st.lists(coord, min_size=n * d, max_size=n * d))
    return list(np.array(values).reshape(n, d))


@st.composite
def grid_points(draw, n):
    """n integer grid points in 1 to 8 dimensions, as they are (ties and
    duplicates) or times 0.1 (inexact distances)."""
    d = draw(st.sampled_from([1, 2, 3, 8]))
    scale = draw(st.sampled_from([1.0, 0.1]))
    values = draw(st.lists(st.integers(-1, 1), min_size=n * d, max_size=n * d))
    return list(scale * np.array(values, dtype=float).reshape(n, d))


@st.composite
def gram_weak_spots(draw):
    """Up to 24 points in 1 to 32 dimensions where |x_j|^2 - 2 x_i.x_j rounds
    worst: clusters of multiples of 1e-9 around a shared offset of up to 1e6
    (the squared norms swamp the squared distances), or entries m 10^e at up
    to three scales e from -323 to 300 (subnormals, squares that underflow,
    squares and sums that overflow)."""
    n = draw(st.integers(1, 24))
    d = draw(st.sampled_from([1, 2, 3, 8, 32]))
    if draw(st.booleans()):
        offset = np.array(draw(st.lists(st.floats(-1e6, 1e6), min_size=d, max_size=d)))
        steps = draw(st.lists(st.integers(-3, 3), min_size=n * d, max_size=n * d))
        return list(offset + 1e-9 * np.array(steps, dtype=float).reshape(n, d))
    scales = draw(st.lists(st.integers(-323, 300), min_size=1, max_size=3))
    entry = st.tuples(st.integers(-9, 9), st.sampled_from(scales)).map(lambda me: me[0] * 10.0 ** me[1])
    return list(np.array(draw(st.lists(entry, min_size=n * d, max_size=n * d))).reshape(n, d))


# the smallest n whose rows take two Gram blocks
TWO_BLOCKS = math.isqrt(planner._BLOCK) + 1


class TestBuildNdmGraphProperty:
    # small sizes around powers of two, and sizes at and past the row-block
    # boundary; at k = n - 1 and d >= 2 a block's candidates at
    # n >= TWO_BLOCKS span several difference slices
    @pytest.mark.parametrize(
        "n", sorted({1, 2, 8, 9, 31, 32, 33, 64, 65, 70, TWO_BLOCKS - 1, TWO_BLOCKS, TWO_BLOCKS + 1})
    )
    @settings(max_examples=4)
    @given(data=st.data())
    def test_edges_across_blocks_and_chunks_match_oracle(self, n, data):
        pts = data.draw(grid_points(n))
        for k in sorted({k for k in (1, 2, 8, n - 1, n + 1) if k >= 1}):
            g = planner.build_ndm_graph(pts, ("knn", k), lambda a, b: 1.0)
            assert [(u, v) for u, v, _ in g.edges()] == oracle_pairs(pts, ("knn", k)), f"k={k}"

    @settings(max_examples=150)
    @given(pts=gram_weak_spots())
    def test_gram_weak_spots_match_oracle(self, pts):
        n = len(pts)
        for k in sorted({k for k in (1, 2, 5, n - 1, n + 1) if k >= 1}):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                g = planner.build_ndm_graph(pts, ("knn", k), lambda a, b: 1.0)
            with np.errstate(over="ignore"):
                want = oracle_pairs(pts, ("knn", k))
            assert [(u, v) for u, v, _ in g.edges()] == want, f"k={k}"

    def test_memory_stays_below_half_the_distance_matrix(self):
        # the (n, n) distance matrix alone held 8n^2 bytes, 32 MB here
        n = 2000
        pts = list(np.random.default_rng(0).normal(size=(n, 32)))
        tracemalloc.start()
        try:
            planner.build_ndm_graph(pts, ("knn", 8), lambda a, b: 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * n * n / 2

    @pytest.mark.parametrize("connect", [("knn", 5), ("knn", 69), ("knn", 1), ("knn", 70)])
    def test_edge_cost_called_once_per_edge_in_order(self, connect):
        pts = list(np.random.default_rng(4).normal(size=(70, 3)))
        index = {id(p): i for i, p in enumerate(pts)}
        calls = []

        def edge_cost(a, b):
            calls.append((index[id(a)], index[id(b)]))
            return 1.0

        g = planner.build_ndm_graph(pts, connect, edge_cost)
        assert calls == [(u, v) for u, v, _ in g.edges()] == oracle_pairs(pts, connect)

    @given(pts=point_sets())
    def test_knn_edges_match_oracle(self, pts):
        for k in range(1, len(pts) + 3):
            g = planner.build_ndm_graph(pts, ("knn", k), l1_cost)
            want = [(i, j, l1_cost(pts[i], pts[j])) for i, j in oracle_pairs(pts, ("knn", k))]
            assert list(g.edges()) == want, f"k={k}"

    def test_knn_near_ties_in_32_dimensions(self):
        # coordinates in {-0.1, 0, 0.1}: many pairs tie exactly while their
        # vectorised sums of squares round apart, across the k-th place too
        for seed in range(20):
            rng = np.random.default_rng(seed)
            pts = list(0.1 * rng.integers(-1, 2, size=(8, 32)))
            for k in range(1, 8):
                g = planner.build_ndm_graph(pts, ("knn", k), lambda a, b: 1.0)
                assert [(u, v) for u, v, _ in g.edges()] == oracle_pairs(pts, ("knn", k)), (seed, k)

    @pytest.mark.parametrize("connect", [("knn", 1), ("knn", 2), ("knn", 4), ("knn", 3), ("knn", 5)])
    def test_overflowing_distances_rank_by_index(self, connect):
        # finite samples whose squared distances overflow: only 0 and 5 are a finite distance apart
        pts = [np.array([v]) for v in (3e200, 0.0, -2e200, 1e200, 5.0)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g = planner.build_ndm_graph(pts, connect, lambda a, b: 1.0)
        with np.errstate(over="ignore"):
            want = oracle_pairs(pts, connect)
        assert [(u, v) for u, v, _ in g.edges()] == want

    def test_far_cluster_builds_as_fast_as_one_at_the_origin(self):
        # uncentred, squared norms near 1e12 swamp squared distances near 1e-6,
        # so every pair's rank is in doubt and takes an exact norm
        pts = 1e-3 * np.random.default_rng(5).normal(size=(2000, 32))

        def build_seconds(samples):
            best = math.inf
            for _ in range(3):
                start = time.perf_counter()
                planner.build_ndm_graph(samples, ("knn", 8), lambda a, b: 1.0)
                best = min(best, time.perf_counter() - start)
            return best

        assert build_seconds(pts + 1e6) < 5 * build_seconds(pts)

    def test_centring_magnified_underflow_keeps_the_nearest(self):
        # the second coordinates scale below the normal range, rounding to whole
        # subnormal spacings u: 0.375u, -u and 1.625u become 0, -u and 2u, and
        # centring on the first coordinate scales those spacings up to the spread
        base, u = 2.0**-30, 2.0**-77
        pts = [np.array([1e300, base + shift * u]) for shift in (0.375, -1.0, 1.625)]
        g = planner.build_ndm_graph(pts, ("knn", 1), lambda a, b: 1.0)
        assert [(a, b) for a, b, _ in g.edges()] == oracle_pairs(pts, ("knn", 1)) == [(0, 2), (1, 0), (2, 0)]

    def test_table1_node_set_matches_oracle(self):
        from maniflow.experiments import SSSP_NODE_SET

        n = len(SSSP_NODE_SET)
        for connect in (("knn", 1), ("knn", n - 1)):
            g = planner.build_ndm_graph(SSSP_NODE_SET, connect, lambda a, b: 1.0)
            assert [(u, v) for u, v, _ in g.edges()] == oracle_pairs(SSSP_NODE_SET, connect)


@st.composite
def integer_weight_graphs(draw):
    """Graphs of up to 12 nodes with parallel edges and positive integer weights, so sums are exact."""
    g = planner.WeightedDigraph()
    for _ in range(draw(st.integers(1, 12))):
        g.add_node()
    node = st.integers(0, len(g.adjacency) - 1)
    for u, v, w in draw(st.lists(st.tuples(node, node, st.integers(1, 4)), max_size=40)):
        g.add_edge(u, v, float(w))
    return g, draw(node)


class TestDijkstraProperty:
    @given(case=integer_weight_graphs())
    def test_pred_is_smallest_tight_predecessor(self, case):
        g, src = case
        dist, pred = planner._search(g, src)
        for v in range(len(g.adjacency)):
            if v == src or math.isinf(dist[v]):
                continue
            tight = [u for u, x, w in g.edges() if x == v and dist[u] + w == dist[v]]
            assert pred[v] == min(tight)

    @given(case=zero_cycle_graphs())
    def test_matches_bellman_ford(self, case):
        g, src = case
        dist, pred = planner._search(g, src)
        assert planner.dijkstra(g, src) == dist == brute_force_dist(g, src)
        assert pred[src] is None
        for v in range(len(g.adjacency)):
            u = pred[v]
            if u is None:
                assert v == src or math.isinf(dist[v])
                continue
            assert any(x == v and dist[u] + w == dist[v] for x, w in g.adjacency[u])
            chain = [v]
            while chain[-1] != src:
                chain.append(pred[chain[-1]])
                assert chain[-1] is not None and chain[-1] not in chain[:-1]


def route_from_full_search(dist, pred, source, target):
    """The ``shortest_path`` answer walked back through the lists of a full search from source."""
    if math.isinf(dist[target]):
        return None
    path = [target]
    while path[-1] != source:
        path.append(pred[path[-1]])
    return path[::-1], dist[target]


class TestShortestPathStopProperty:
    # stopping at the target leaves every route, cost and tie-break of the full search
    @given(case=st.one_of(integer_weight_graphs(), zero_cycle_graphs()))
    def test_matches_full_search_for_every_target(self, case):
        g, src = case
        dist, pred = planner._search(g, src)
        for t in range(len(g.adjacency)):
            assert planner.shortest_path(g, src, t) == route_from_full_search(dist, pred, src, t), t


# One bad line of each kind: blank, unknown directive, missing field,
# non-numeric field, out-of-range node, negative weight, repeated count.
GRAPH_JUNK = ["", "q 0 1", "n", "e 0 1", "n x", "e 0 x 1.5", "e 0 9 1.5", "e 0 0 -1", "n 2"]


def write_graph(graph, path):
    """Write the n/e text format, each weight as its repr, which reads back as the same float."""
    rows = [f"n {len(graph.adjacency)}", *(f"e {u} {v} {w!r}" for u, v, w in graph.edges())]
    path.write_text("".join(f"{row}\n" for row in rows))


class TestGraphIo:
    @given(g=graphs())
    def test_round_trip_property(self, tmp_path_factory, g):
        p = tmp_path_factory.mktemp("graph") / "g.graph"
        write_graph(g, p)
        loaded = planner.load_graph(p)
        assert len(loaded.adjacency) == len(g.adjacency)
        assert list(loaded.edges()) == list(g.edges())

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        g = random_graph(rng)
        p = tmp_path / "g.graph"
        write_graph(g, p)
        head, rest = p.read_text().split("\n", 1)
        p.write_text(f"# saved graph\n\n{head}  # nodes\n{rest}")
        loaded = planner.load_graph(p)
        assert len(loaded.adjacency) == len(g.adjacency)
        assert list(loaded.edges()) == list(g.edges())

    def test_comments_and_blanks(self, tmp_path):
        p = tmp_path / "g.graph"
        p.write_text("# header\nn 2\n\ne 0 1 1.5  # note\n")
        g = planner.load_graph(p)
        assert len(g.adjacency) == 2
        assert list(g.edges()) == [(0, 1, 1.5)]

    def test_edge_before_count(self, tmp_path):
        p = tmp_path / "g.graph"
        p.write_text("e 0 1 1.0\n")
        with pytest.raises(_text.FormatError, match="line 1"):
            planner.load_graph(p)

    def test_bad_directive_line_number(self, tmp_path):
        p = tmp_path / "g.graph"
        p.write_text("n 2\nq 0 1\n")
        with pytest.raises(_text.FormatError, match="line 2"):
            planner.load_graph(p)

    def test_negative_weight_reported_with_line(self, tmp_path):
        p = tmp_path / "g.graph"
        p.write_text("n 2\ne 0 1 -3\n")
        with pytest.raises(_text.FormatError, match="line 2"):
            planner.load_graph(p)

    def test_missing_count(self, tmp_path):
        p = tmp_path / "g.graph"
        p.write_text("# nothing\n")
        with pytest.raises(_text.FormatError, match="missing"):
            planner.load_graph(p)

    @given(g=graphs(), data=st.data())
    def test_junk_line_is_named(self, tmp_path_factory, g, data):
        p = tmp_path_factory.mktemp("graph") / "g.graph"
        write_graph(g, p)
        rows = p.read_text().splitlines()
        k = data.draw(st.integers(1, len(rows)), label="replaced line")
        rows[k - 1] = data.draw(st.sampled_from(GRAPH_JUNK), label="junk")
        p.write_text("".join(f"{row}\n" for row in rows))
        try:
            planner.load_graph(p)
        except _text.FormatError as exc:
            assert isinstance(exc, _text.FormatError)
            named = re.match(r"line (\d+): ", str(exc))
            if named is None:
                assert k == 1 and str(exc) == "missing 'n <count>' line"
            else:
                assert k <= int(named.group(1)) <= len(rows)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("n 2\nn 2\n", "line 2: duplicate node-count line"),
            ("# head\nn\n", "line 2: expected 'n <count>'"),
            ("n x\n", "line 1: invalid literal for int() with base 10: 'x'"),
            ("n 2\n\ne 0 1\n", "line 3: expected 'e <src> <dst> <weight>'"),
            ("n 2\ne 0 2 1\n", "line 2: edge endpoint 2 is not a node index"),
            ("n 2\ne -1 0 1\n", "line 2: edge endpoint -1 is not a node index"),
            ("n 2\ne 0 1 nan\n", "line 2: edge weight on (0, 1) must be finite, got nan"),
            ("n 2\ne 0 1 -0.5\n", "line 2: negative edge weight -0.5 on (0, 1)"),
        ],
        ids=[
            "duplicate-count",
            "missing-count",
            "non-numeric-count",
            "missing-field",
            "out-of-range",
            "negative-endpoint",
            "nan-weight",
            "negative-weight",
        ],
    )
    def test_error_names_exact_line(self, tmp_path, text, message):
        p = tmp_path / "g.graph"
        p.write_text(text)
        with pytest.raises(_text.FormatError) as caught:
            planner.load_graph(p)
        assert str(caught.value) == message


def _graph_file(tmp_path, text):
    path = tmp_path / "g.graph"
    path.write_text(text)
    return path


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda tmp: planner.shortest_path(TestShortestPath.overflow_graph(), 0, 4), ValueError,
         "target 4 is not a node index"),
        (lambda tmp: planner.build_ndm_graph([], ("knn", 1), l1_cost), ValueError, "need at least one sample"),
        (lambda tmp: planner.load_graph(_graph_file(tmp, "# nodes\nn -1\n")), _text.FormatError,
         "line 2: negative node count"),
    ],
    ids=["shortest-path-target-out-of-range", "build-no-samples", "load-negative-count"],
)
def test_guard_message(tmp_path, call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call(tmp_path)
