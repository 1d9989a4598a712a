"""Tests for the graph planner: Dijkstra, graph building, and round trips."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from maniflow import _text, planner
from maniflow._text import fmt


def brute_force_dist(graph, source):
    """Bellman-Ford style relaxation, used as an independent oracle."""
    n = graph.n_nodes
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


class TestDijkstra:
    def test_line_graph(self):
        g = planner.WeightedDigraph()
        for _ in range(4):
            g.add_node()
        g.add_edge(0, 1, 1.0)
        g.add_edge(1, 2, 2.0)
        g.add_edge(2, 3, 0.5)
        res = planner.dijkstra(g, 0)
        assert res.dist == [0.0, 1.0, 3.0, 3.5]
        assert res.pred == [None, 0, 1, 2]

    def test_unreachable_nodes(self):
        g = planner.WeightedDigraph()
        for _ in range(3):
            g.add_node()
        g.add_edge(0, 1, 1.0)
        res = planner.dijkstra(g, 0)
        assert math.isinf(res.dist[2])
        assert res.pred[2] is None
        assert planner.shortest_path(g, 0, 2) is None

    def test_matches_brute_force(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            g = random_graph(rng)
            src = int(rng.integers(0, g.n_nodes))
            res = planner.dijkstra(g, src)
            expected = brute_force_dist(g, src)
            np.testing.assert_allclose(res.dist, expected)

    def test_deterministic_tie_break(self):
        # two equal-cost routes to node 3: via 1 and via 2
        g = planner.WeightedDigraph()
        for _ in range(4):
            g.add_node()
        g.add_edge(0, 2, 1.0)
        g.add_edge(0, 1, 1.0)
        g.add_edge(2, 3, 1.0)
        g.add_edge(1, 3, 1.0)
        res = planner.dijkstra(g, 0)
        assert res.pred[3] == 1

    def test_repeat_runs_identical(self):
        rng = np.random.default_rng(7)
        g = random_graph(rng)
        first = planner.dijkstra(g, 0)
        for _ in range(5):
            again = planner.dijkstra(g, 0)
            assert again.dist == first.dist
            assert again.pred == first.pred

    def test_pred_tree_acyclic_with_zero_weights(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            g = random_graph(rng)
            res = planner.dijkstra(g, 0)
            for v in range(g.n_nodes):
                if math.isinf(res.dist[v]):
                    continue
                seen = set()
                node = v
                while node is not None:
                    assert node not in seen
                    seen.add(node)
                    node = res.pred[node]
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

    def test_radius_connectivity(self):
        samples = [np.array([0.0]), np.array([1.0]), np.array([3.0])]
        g = planner.build_ndm_graph(samples, ("radius", 1.5), lambda a, b: 1.0)
        assert sorted(v for v, _ in g.adjacency[0]) == [1]
        assert sorted(v for v, _ in g.adjacency[1]) == [0]
        assert g.adjacency[2] == []

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
            ([[0.0], [1.0], [math.inf]], ("radius", 1.0), "sample 2 is not finite"),
            ([[0.0], [1.0, 2.0, 3.0]], ("knn", 1), r"sample 1 has shape \(3,\)"),
            ([[0.0], [1.0]], ("radius", math.nan), "radius"),
            ([[0.0], [1.0]], ("radius", -1.0), "radius"),
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

    def test_integral_float_k_accepted(self):
        samples = [np.array([float(i)]) for i in range(4)]
        g = planner.build_ndm_graph(samples, ("knn", 2.0), lambda a, b: 1.0)
        assert [v for v, _ in g.adjacency[0]] == [1, 2]


class TestWaypoints:
    @pytest.mark.parametrize(
        "stride,expected",
        [
            (1, [0, 1, 2, 3, 4]),
            (2, [0, 2, 4]),
            (3, [0, 3, 4]),
            (10, [0, 4]),
        ],
    )
    def test_stride(self, stride, expected):
        assert planner.waypoints([0, 1, 2, 3, 4], stride) == expected

    def test_single_node(self):
        assert planner.waypoints([7], 2) == [7]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            planner.waypoints([], 1)

    def test_bad_stride(self):
        with pytest.raises(ValueError):
            planner.waypoints([0, 1], 0)


@st.composite
def graphs(draw):
    """Graphs of up to 6 nodes with any finite non-negative weights, self-loops included."""
    g = planner.WeightedDigraph()
    for _ in range(draw(st.integers(0, 6))):
        g.add_node()
    if g.n_nodes:
        node = st.integers(0, g.n_nodes - 1)
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
    node = st.integers(0, g.n_nodes - 1)
    weight = st.integers(0, 63).map(lambda k: k / 8)
    for u, v, w in draw(st.lists(st.tuples(node, node, weight), max_size=120)):
        g.add_edge(u, v, w)
    for cycle in draw(st.lists(st.lists(node, min_size=1, max_size=6), max_size=4)):
        for u, v in zip(cycle, cycle[1:] + cycle[:1]):
            g.add_edge(u, v, 0.0)
    return g, draw(node)


def oracle_pairs(samples, connect):
    """The per-pair rule: every other sample ranked by (np.linalg.norm, index)."""
    pts = [np.atleast_1d(np.asarray(s, dtype=float)) for s in samples]
    mode, param = connect
    pairs = []
    for i, pi in enumerate(pts):
        dist = {j: float(np.linalg.norm(pj - pi)) for j, pj in enumerate(pts) if j != i}
        if mode == "knn":
            pairs.extend((i, j) for j in sorted(dist, key=lambda j: (dist[j], j))[:param])
        else:
            pairs.extend((i, j) for j in dist if dist[j] <= param)
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


class TestBuildNdmGraphProperty:
    @given(pts=point_sets())
    def test_knn_edges_match_oracle(self, pts):
        for k in range(1, len(pts) + 3):
            g = planner.build_ndm_graph(pts, ("knn", k), l1_cost)
            want = [(i, j, l1_cost(pts[i], pts[j])) for i, j in oracle_pairs(pts, ("knn", k))]
            assert list(g.edges()) == want, f"k={k}"

    @given(pts=point_sets(), data=st.data())
    def test_radius_edges_match_oracle(self, pts, data):
        # every exact distance from one node is a radius, so the <= r boundary is hit
        i = data.draw(st.integers(0, len(pts) - 1))
        for r in sorted({float(np.linalg.norm(p - pts[i])) for p in pts}):
            g = planner.build_ndm_graph(pts, ("radius", r), l1_cost)
            want = [(a, b, l1_cost(pts[a], pts[b])) for a, b in oracle_pairs(pts, ("radius", r))]
            assert list(g.edges()) == want, f"r={r!r}"

    def test_knn_near_ties_in_32_dimensions(self):
        # coordinates in {-0.1, 0, 0.1}: many pairs tie exactly while their
        # vectorised sums of squares round apart, across the k-th place too
        for seed in range(20):
            rng = np.random.default_rng(seed)
            pts = list(0.1 * rng.integers(-1, 2, size=(8, 32)))
            for k in range(1, 8):
                g = planner.build_ndm_graph(pts, ("knn", k), lambda a, b: 1.0)
                assert [(u, v) for u, v, _ in g.edges()] == oracle_pairs(pts, ("knn", k)), (seed, k)

    @pytest.mark.parametrize("connect", [("knn", 1), ("knn", 2), ("knn", 4), ("radius", 1e300), ("radius", np.inf)])
    def test_overflowing_distances_rank_by_index(self, connect):
        # finite samples whose squared distances overflow: only 0 and 5 are a finite distance apart
        pts = [np.array([v]) for v in (3e200, 0.0, -2e200, 1e200, 5.0)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g = planner.build_ndm_graph(pts, connect, lambda a, b: 1.0)
        with np.errstate(over="ignore"):
            want = oracle_pairs(pts, connect)
        assert [(u, v) for u, v, _ in g.edges()] == want

    def test_table1_node_set_matches_oracle(self):
        from maniflow.experiments import SSSP_NODE_SET

        n = len(SSSP_NODE_SET)
        for connect in (("knn", 1), ("knn", n - 1), ("radius", 0.4)):
            g = planner.build_ndm_graph(SSSP_NODE_SET, connect, lambda a, b: 1.0)
            assert [(u, v) for u, v, _ in g.edges()] == oracle_pairs(SSSP_NODE_SET, connect)


@st.composite
def integer_weight_graphs(draw):
    """Graphs of up to 12 nodes with parallel edges and positive integer weights, so sums are exact."""
    g = planner.WeightedDigraph()
    for _ in range(draw(st.integers(1, 12))):
        g.add_node()
    node = st.integers(0, g.n_nodes - 1)
    for u, v, w in draw(st.lists(st.tuples(node, node, st.integers(1, 4)), max_size=40)):
        g.add_edge(u, v, float(w))
    return g, draw(node)


class TestDijkstraProperty:
    @given(case=integer_weight_graphs())
    def test_pred_is_smallest_tight_predecessor(self, case):
        g, src = case
        res = planner.dijkstra(g, src)
        for v in range(g.n_nodes):
            if v == src or math.isinf(res.dist[v]):
                continue
            tight = [u for u, x, w in g.edges() if x == v and res.dist[u] + w == res.dist[v]]
            assert res.pred[v] == min(tight)

    @given(case=zero_cycle_graphs())
    def test_matches_bellman_ford(self, case):
        g, src = case
        res = planner.dijkstra(g, src)
        assert res.dist == brute_force_dist(g, src)
        assert res.pred[src] is None
        for v in range(g.n_nodes):
            u = res.pred[v]
            if u is None:
                assert v == src or math.isinf(res.dist[v])
                continue
            assert any(x == v and res.dist[u] + w == res.dist[v] for x, w in g.adjacency[u])
            chain = [v]
            while chain[-1] != src:
                chain.append(res.pred[chain[-1]])
                assert chain[-1] is not None and chain[-1] not in chain[:-1]


# One bad line of each kind: blank, unknown directive, missing field,
# non-numeric field, out-of-range node, negative weight, repeated count.
GRAPH_JUNK = ["", "q 0 1", "n", "e 0 1", "n x", "e 0 x 1.5", "e 0 9 1.5", "e 0 0 -1", "n 2"]


class TestGraphIo:
    @given(g=graphs())
    def test_round_trip_property(self, tmp_path_factory, g):
        p = tmp_path_factory.mktemp("graph") / "g.graph"
        try:
            planner.save_graph(g, p)
        except ValueError as exc:
            assert "too large" in str(exc)
            assert not p.exists()
            return
        loaded = planner.load_graph(p)
        assert loaded.n_nodes == g.n_nodes
        assert list(loaded.edges()) == [(u, v, float(fmt(w))) for u, v, w in g.edges()]

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        g = random_graph(rng)
        p = tmp_path / "g.graph"
        planner.save_graph(g, p)
        head, rest = p.read_text().split("\n", 1)
        p.write_text(f"# saved graph\n\n{head}  # nodes\n{rest}")
        loaded = planner.load_graph(p)
        assert loaded.n_nodes == g.n_nodes
        assert list(loaded.edges()) == [(u, v, float(f"{w:.10g}")) for u, v, w in g.edges()]

    def test_weight_read_back_as_inf_refused(self, tmp_path):
        g = planner.WeightedDigraph()
        g.add_node()
        g.add_edge(0, 0, 1.7976931348623157e308)
        with pytest.raises(ValueError, match=r"^edge \(0, 0\): "):
            planner.save_graph(g, tmp_path / "g.graph")
        assert not (tmp_path / "g.graph").exists()

    def test_comments_and_blanks(self, tmp_path):
        p = tmp_path / "g.graph"
        p.write_text("# header\nn 2\n\ne 0 1 1.5  # note\n")
        g = planner.load_graph(p)
        assert g.n_nodes == 2
        assert list(g.edges()) == [(0, 1, 1.5)]

    def test_edge_before_count(self, tmp_path):
        p = tmp_path / "g.graph"
        p.write_text("e 0 1 1.0\n")
        with pytest.raises(planner.GraphFormatError, match="line 1"):
            planner.load_graph(p)

    def test_bad_directive_line_number(self, tmp_path):
        p = tmp_path / "g.graph"
        p.write_text("n 2\nq 0 1\n")
        with pytest.raises(planner.GraphFormatError, match="line 2"):
            planner.load_graph(p)

    def test_negative_weight_reported_with_line(self, tmp_path):
        p = tmp_path / "g.graph"
        p.write_text("n 2\ne 0 1 -3\n")
        with pytest.raises(planner.GraphFormatError, match="line 2"):
            planner.load_graph(p)

    def test_missing_count(self, tmp_path):
        p = tmp_path / "g.graph"
        p.write_text("# nothing\n")
        with pytest.raises(planner.GraphFormatError, match="missing"):
            planner.load_graph(p)

    @given(g=graphs(), data=st.data())
    def test_junk_line_is_named(self, tmp_path_factory, g, data):
        p = tmp_path_factory.mktemp("graph") / "g.graph"
        try:
            planner.save_graph(g, p)
        except ValueError:
            return
        rows = p.read_text().splitlines()
        k = data.draw(st.integers(1, len(rows)), label="replaced line")
        rows[k - 1] = data.draw(st.sampled_from(GRAPH_JUNK), label="junk")
        p.write_text("".join(f"{row}\n" for row in rows))
        try:
            planner.load_graph(p)
        except _text.FormatError as exc:
            assert isinstance(exc, planner.GraphFormatError)
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
        ],
        ids=["duplicate-count", "missing-count", "non-numeric-count", "missing-field", "out-of-range"],
    )
    def test_error_names_exact_line(self, tmp_path, text, message):
        p = tmp_path / "g.graph"
        p.write_text(text)
        with pytest.raises(planner.GraphFormatError) as caught:
            planner.load_graph(p)
        assert str(caught.value) == message

    def test_sssp_csv_format(self):
        g = planner.WeightedDigraph()
        for _ in range(3):
            g.add_node()
        g.add_edge(0, 1, 2.0)
        res = planner.dijkstra(g, 0)
        text = planner.sssp_csv(res)
        lines = text.strip().split("\n")
        assert lines[0] == "node,dist,pred"
        assert lines[1] == "0,0,"
        assert lines[2] == "1,2,0"
        assert lines[3] == "2,inf,"
