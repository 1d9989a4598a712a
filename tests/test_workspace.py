"""Tests for typed episode graphs and explanation chains."""

import math
import re

import numpy as np
import pytest

from maniflow import workspace
from maniflow.workspace import EdgeCoeffs, EdgeKind, WorkspaceEdge, WorkspaceGraph


def small_graph():
    ws = WorkspaceGraph()
    ws.add_node("A", "actor", "Alice")
    ws.add_node("O", "object", "Box")
    ws.add_node("E1", "event", "Pick up")
    ws.add_node("E2", "event", "Place down")
    ws.add_node("S1", "state", "Holding nothing")
    ws.add_node("S2", "state", "Holding box")
    ws.add_node("L", "location", "Room A")
    return ws


def pick_place_episode():
    """Alice picks up a box in room A and places it in room B."""
    ws = WorkspaceGraph()
    for node_id, kind, label in [
        ("A", "actor", "Alice"),
        ("O", "object", "Box"),
        ("E1", "event", "Pick up"),
        ("E2", "event", "Place down"),
        ("S1", "state", "Holding nothing"),
        ("S2", "state", "Holding box"),
        ("RoomA", "location", "Room A"),
        ("RoomB", "location", "Room B"),
    ]:
        ws.add_node(node_id, kind, label)
    ws.add_edge("temporal", "S1", "S2", t=2.0)
    ws.add_edge("causal", "E1", "E2", t=1.5)
    for kind, src, dst in [
        ("role-agent", "A", "E1"),
        ("role-agent", "A", "E2"),
        ("role-theme", "O", "E1"),
        ("role-theme", "O", "E2"),
        ("spatial", "S1", "RoomA"),
        ("spatial", "S2", "RoomB"),
        ("episodic-binding", "S1", "E1"),
        ("episodic-binding", "S2", "E2"),
    ]:
        ws.add_edge(kind, src, dst)
    return ws


class TestEndpointRules:
    def test_all_legal_kinds(self):
        ws = small_graph()
        ws.add_edge("temporal", "S1", "S2", t=1.0)
        ws.add_edge("causal", "E1", "E2")
        ws.add_edge("role-agent", "A", "E1")
        ws.add_edge("role-theme", "O", "E1")
        ws.add_edge("spatial", "S1", "L")
        ws.add_edge("episodic-binding", "S1", "E1")
        ws.add_edge("episodic-binding", "E2", "S2")
        assert len(ws.edges) == 7

    @pytest.mark.parametrize(
        "kind,src,dst",
        [
            ("temporal", "E1", "E2"),
            ("causal", "S1", "S2"),
            ("role-agent", "O", "E1"),
            ("role-theme", "A", "E1"),
            ("spatial", "L", "S1"),
            ("episodic-binding", "A", "E1"),
        ],
    )
    def test_illegal_endpoints(self, kind, src, dst):
        ws = small_graph()
        with pytest.raises(ValueError, match="must connect"):
            ws.add_edge(kind, src, dst)

    def test_missing_endpoint(self):
        ws = small_graph()
        with pytest.raises(ValueError, match="not a node"):
            ws.add_edge("causal", "E1", "E9")

    def test_duplicate_node_id(self):
        ws = small_graph()
        with pytest.raises(ValueError, match="duplicate"):
            ws.add_node("A", "actor", "Another Alice")

    def test_unknown_kind(self):
        ws = WorkspaceGraph()
        with pytest.raises(ValueError):
            ws.add_node("X", "widget", "")


class TestFreezeAndEdgeTime:
    @pytest.mark.parametrize(
        "record, message",
        [
            (("temporal", "S1", "S2", float("nan")), "edge record ('temporal', 'S1', 'S2', nan): t must be finite, got nan"),
            (("temporal", "S1", "S2", float("inf")), "edge record ('temporal', 'S1', 'S2', inf): t must be finite, got inf"),
        ],
        ids=["t-nan", "t-inf"],
    )
    def test_malformed_record_named(self, record, message):
        ws = small_graph()
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ws.add_edge(*record)
        assert ws.edges == []


class TestEdgeWeight:
    def test_formula(self):
        # a temporal or causal edge weighs t + 0.0, and 0.0 without t
        ws = small_graph()
        ws.add_edge("temporal", "S1", "S2", t=2.5)
        ws.add_edge("causal", "E1", "E2", t=-0.0)
        ws.add_edge("causal", "E2", "E1")
        graph, index = workspace.to_weighted_digraph(ws)
        edges = {(u, v): w for u, v, w in graph.edges()}
        assert edges[(index["S1"], index["S2"])] == 2.5
        assert math.copysign(1.0, edges[(index["E1"], index["E2"])]) == 1.0  # 0.0, not -0.0
        assert edges[(index["E2"], index["E1"])] == 0.0

    def test_negative_t_refused_when_lowered(self):
        ws = small_graph()
        ws.add_edge("temporal", "S1", "S2", t=-1.0)
        with pytest.raises(ValueError, match=r"^negative edge weight -1.0 on \(4, 5\)$"):
            workspace.explanation_chain(ws, "S1", "S2", EdgeCoeffs())

    @pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_non_finite_input_rejected(self, value):
        # an edge that bypassed add_edge's check is still refused when lowered
        ws = small_graph()
        ws.edges.append(WorkspaceEdge(EdgeKind.CAUSAL, "E1", "E2", value))
        with pytest.raises(ValueError, match=f"^edge weight on \\(2, 3\\) must be finite, got {value!r}$"):
            workspace.to_weighted_digraph(ws)


class TestLowering:
    def episode(self):
        ws = small_graph()
        ws.add_edge("temporal", "S1", "S2", t=2.0)
        ws.add_edge("causal", "E1", "E2", t=1.5)
        ws.add_edge("role-agent", "A", "E1")
        ws.add_edge("episodic-binding", "S1", "E1")
        return ws

    def test_directed_weighted_edges(self):
        ws = self.episode()
        graph, index = workspace.to_weighted_digraph(ws)
        edges = {(u, v): w for u, v, w in graph.edges()}
        assert edges[(index["S1"], index["S2"])] == 2.0
        assert (index["S2"], index["S1"]) not in edges
        assert edges[(index["E1"], index["E2"])] == 1.5

    def test_connectors_bidirectional_zero(self):
        ws = self.episode()
        graph, index = workspace.to_weighted_digraph(ws)
        edges = {(u, v): w for u, v, w in graph.edges()}
        assert edges[(index["A"], index["E1"])] == 0.0
        assert edges[(index["E1"], index["A"])] == 0.0
        assert edges[(index["S1"], index["E1"])] == 0.0
        assert edges[(index["E1"], index["S1"])] == 0.0

    def test_missing_t_weighs_zero(self):
        ws = small_graph()
        ws.add_edge("causal", "E1", "E2")
        graph, index = workspace.to_weighted_digraph(ws)
        edges = {(u, v): w for u, v, w in graph.edges()}
        assert edges[(index["E1"], index["E2"])] == 0.0

    def test_index_map_numbers_node_ids_in_order(self):
        # explanation_chain reads a route's node ids back from this map's order
        ws = self.episode()
        graph, index = workspace.to_weighted_digraph(ws)
        assert list(index) == list(ws.nodes)
        assert list(index.values()) == list(range(len(graph.adjacency)))


class TestExplanationChain:
    def test_cheapest_chain(self):
        ws = small_graph()
        ws.add_edge("temporal", "S1", "S2", t=2.0)
        ws.add_edge("causal", "E1", "E2", t=1.5)
        ws.add_edge("episodic-binding", "S1", "E1")
        ws.add_edge("episodic-binding", "S2", "E2")
        chain, cost = workspace.explanation_chain(ws, "S1", "E2", EdgeCoeffs())
        # S1 -> E1 (0) -> E2 (1.5) beats S1 -> S2 (2.0) -> E2 (0)
        assert chain == ["S1", "E1", "E2"]
        np.testing.assert_allclose(cost, 1.5)

    def test_unreachable_returns_none(self):
        ws = small_graph()
        assert workspace.explanation_chain(ws, "S1", "S2", EdgeCoeffs()) is None

    def test_unknown_node_raises(self):
        ws = small_graph()
        with pytest.raises(ValueError, match="not a node"):
            workspace.explanation_chain(ws, "S1", "Z9", EdgeCoeffs())

    def test_fixture_chain(self):
        ws = pick_place_episode()
        chain, cost = workspace.explanation_chain(ws, "S1", "RoomB", EdgeCoeffs())
        assert chain[0] == "S1" and chain[-1] == "RoomB"
        np.testing.assert_allclose(cost, 0.0)

