"""Tests for typed episode graphs and explanation chains."""

import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from maniflow import _text, workspace
from maniflow.workspace import EdgeCoeffs, EdgeKind, NodeKind, WorkspaceEdge, WorkspaceGraph

FIXTURES = Path(__file__).parent / "fixtures"


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
    def test_frozen_graph_is_immutable(self):
        ws = small_graph().freeze()
        with pytest.raises(RuntimeError, match="frozen"):
            ws.add_node("B", "actor", "Bob")
        with pytest.raises(RuntimeError, match="frozen"):
            ws.add_edge("causal", "E1", "E2")

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

    def test_non_finite_time_in_file_names_its_line(self, tmp_path):
        p = tmp_path / "episode.txt"
        p.write_text("node S1 state a\nnode S2 state b\nedge temporal S1 S2 t=nan\n")
        with pytest.raises(ValueError, match="^line 3: edge record .*t must be finite, got nan$"):
            workspace.load_workspace(p)


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

    def test_payloads_are_node_ids(self):
        ws = self.episode()
        graph, index = workspace.to_weighted_digraph(ws)
        for node_id, idx in index.items():
            assert graph.payloads[idx] == node_id


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


# Tokens the text format carries: no whitespace (as str.split sees it) and no '#'.
TOKEN = st.text(
    st.characters(exclude_characters="#", exclude_categories=("Cc", "Cs", "Zs", "Zl", "Zp")),
    min_size=1,
    max_size=5,
)


@st.composite
def workspaces(draw):
    """Graphs with savable ids and labels; edges whose endpoint kinds break the rules are skipped."""
    ws = WorkspaceGraph()
    for node_id in draw(st.lists(TOKEN, max_size=6, unique=True)):
        label = " ".join(draw(st.lists(TOKEN, max_size=3)))
        ws.add_node(node_id, draw(st.sampled_from(NodeKind)), label)
    ids = sorted(ws.nodes)
    if ids:
        t = st.none() | st.floats(allow_nan=False)
        edge = st.tuples(st.sampled_from(EdgeKind), st.sampled_from(ids), st.sampled_from(ids), t)
        for kind, src, dst, when in draw(st.lists(edge, max_size=8)):
            try:
                ws.add_edge(kind, src, dst, when)
            except ValueError:
                pass
    return ws


# One bad line of each kind: blank, unknown directive, missing field,
# non-numeric field, absent node (ids have at most 5 characters), unknown kind.
WORKSPACE_JUNK = [
    "",
    "vertex A actor Alice",
    "node A",
    "edge causal A",
    "edge temporal A B t=x",
    "edge temporal absent absent",
    "node Z9 robot Arm",
    "edge follows A B",
]


class TestWorkspaceIo:
    @given(ws=workspaces())
    def test_round_trip_property(self, tmp_path_factory, ws):
        p = tmp_path_factory.mktemp("ws") / "episode.txt"
        workspace.save_workspace(ws, p)
        again = workspace.load_workspace(p)
        assert list(again.nodes.values()) == list(ws.nodes.values())
        assert again.edges == ws.edges

    def test_max_float_time_round_trips(self, tmp_path):
        ws = small_graph()
        ws.add_edge("temporal", "S1", "S2", t=sys.float_info.max)
        p = tmp_path / "episode.txt"
        workspace.save_workspace(ws, p)
        assert workspace.load_workspace(p).edges == ws.edges

    @given(node_id=st.text(min_size=1, max_size=5), label=st.text(max_size=10))
    def test_saved_node_loads_back_or_is_refused(self, tmp_path_factory, node_id, label):
        ws = WorkspaceGraph()
        ws.add_node(node_id, "actor", label)
        p = tmp_path_factory.mktemp("ws") / "episode.txt"
        try:
            workspace.save_workspace(ws, p)
        except ValueError as exc:
            assert str(exc).startswith(f"node {node_id!r}: ")
            assert not p.exists()
        else:
            assert workspace.load_workspace(p).nodes == ws.nodes

    @pytest.mark.parametrize(
        "node_id, label",
        [("B", "Box #2"), ("B", "two  spaces"), ("a b", "Box"), ("B", " padded")],
        ids=["hash-in-label", "double-space", "space-in-id", "leading-space"],
    )
    def test_unsavable_node_rejected_before_writing(self, tmp_path, node_id, label):
        ws = small_graph()
        ws.add_node(node_id, "object", label)
        p = tmp_path / "episode.txt"
        with pytest.raises(ValueError, match=f"^node {node_id!r}: "):
            workspace.save_workspace(ws, p)
        assert not p.exists()

    def test_load_fixture(self):
        ws = workspace.load_workspace(FIXTURES / "pick_place_episode.txt")
        assert ws.nodes["E1"].label == "Pick up"
        assert ws.nodes["RoomB"].kind == NodeKind.LOCATION
        temporal = [e for e in ws.edges if e.kind == EdgeKind.TEMPORAL]
        assert temporal[0].t == 2.0
        assert len(ws.edges) == 10
        with pytest.raises(RuntimeError, match="frozen"):
            ws.add_node("B", "actor", "Bob")

    def test_fixture_chain(self):
        ws = workspace.load_workspace(FIXTURES / "pick_place_episode.txt")
        chain, cost = workspace.explanation_chain(ws, "S1", "RoomB", EdgeCoeffs())
        assert chain[0] == "S1" and chain[-1] == "RoomB"
        np.testing.assert_allclose(cost, 0.0)

    def test_round_trip(self, tmp_path):
        ws = workspace.load_workspace(FIXTURES / "pick_place_episode.txt")
        p = tmp_path / "episode.txt"
        workspace.save_workspace(ws, p)
        head, rest = p.read_text().split("\n", 1)
        p.write_text(f"# saved episode\n\n{head}  # first node\n{rest}")
        again = workspace.load_workspace(p)
        assert again.nodes.keys() == ws.nodes.keys()
        assert again.edges == ws.edges
        assert again.nodes["O"].label == "Box"

    @given(ws=workspaces(), data=st.data())
    def test_junk_line_is_named(self, tmp_path_factory, ws, data):
        p = tmp_path_factory.mktemp("ws") / "episode.txt"
        workspace.save_workspace(ws, p)
        rows = p.read_text().splitlines() or [""]
        k = data.draw(st.integers(1, len(rows)), label="replaced line")
        rows[k - 1] = data.draw(st.sampled_from(WORKSPACE_JUNK), label="junk")
        p.write_text("".join(f"{row}\n" for row in rows))
        try:
            workspace.load_workspace(p)
        except _text.FormatError as exc:
            named = re.match(r"line (\d+): ", str(exc))
            assert named is not None and k <= int(named.group(1)) <= len(rows)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("node A actor Alice\nnode B\n", "line 2: expected 'node <id> <kind> <label>'"),
            ("# episode\n\nnode A robot Arm\n", "line 3: 'robot' is not a valid NodeKind"),
            ("node A actor Alice\nedge follows A A\n", "line 2: 'follows' is not a valid EdgeKind"),
            ("node S state a\nedge temporal S T\n", "line 2: edge endpoint 'T' is not a node"),
            (
                "node S state a\nnode T state b\nedge temporal S T t=x\n",
                "line 3: could not convert string to float: 'x'",
            ),
            ("node A actor Alice\nnode A actor Bob\n", "line 2: duplicate node id 'A'"),
        ],
        ids=["missing-field", "unknown-node-kind", "unknown-edge-kind", "absent-node", "non-numeric-t", "duplicate"],
    )
    def test_error_names_exact_line(self, tmp_path, text, message):
        p = tmp_path / "bad.txt"
        p.write_text(text)
        with pytest.raises(_text.FormatError) as caught:
            workspace.load_workspace(p)
        assert str(caught.value) == message

    def test_parse_error_line_number(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("node A actor Alice\nedge causal A A\n")
        with pytest.raises(ValueError, match="line 2"):
            workspace.load_workspace(p)

    def test_bad_t_field(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text(
            "node S1 state a\nnode S2 state b\nedge temporal S1 S2 dt=2\n"
        )
        with pytest.raises(ValueError, match="line 3"):
            workspace.load_workspace(p)

    def test_unknown_directive(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("vertex A actor Alice\n")
        with pytest.raises(ValueError, match="directive"):
            workspace.load_workspace(p)
