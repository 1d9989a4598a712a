"""Typed episode graphs and explanation chains.

Nodes are actors, objects, events, states, and locations; edges carry one
of six kinds with fixed endpoint conventions:

    temporal          state  -> state
    causal            event  -> event
    role-agent        actor  -> event
    role-theme        object -> event
    spatial           state  -> location
    episodic-binding  state <-> event (either orientation)

Graphs are built single-writer.  For planning, temporal and causal edges
become directed edges weighted by their time t (0 when the edge has none),
while the remaining kinds become zero-weight bidirectional connectors.  A
negative t is refused when the graph is lowered, as the planner refuses
any negative weight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from . import planner
from ._numbers import real

__all__ = [
    "NodeKind",
    "EdgeKind",
    "WorkspaceNode",
    "WorkspaceEdge",
    "WorkspaceGraph",
    "EdgeCoeffs",
    "to_weighted_digraph",
    "explanation_chain",
]


class NodeKind(Enum):
    ACTOR = "actor"
    OBJECT = "object"
    EVENT = "event"
    STATE = "state"
    LOCATION = "location"


class EdgeKind(Enum):
    TEMPORAL = "temporal"
    CAUSAL = "causal"
    ROLE_AGENT = "role-agent"
    ROLE_THEME = "role-theme"
    SPATIAL = "spatial"
    BINDING = "episodic-binding"


_ENDPOINT_RULES: dict[EdgeKind, tuple[tuple[NodeKind, NodeKind], ...]] = {
    EdgeKind.TEMPORAL: ((NodeKind.STATE, NodeKind.STATE),),
    EdgeKind.CAUSAL: ((NodeKind.EVENT, NodeKind.EVENT),),
    EdgeKind.ROLE_AGENT: ((NodeKind.ACTOR, NodeKind.EVENT),),
    EdgeKind.ROLE_THEME: ((NodeKind.OBJECT, NodeKind.EVENT),),
    EdgeKind.SPATIAL: ((NodeKind.STATE, NodeKind.LOCATION),),
    EdgeKind.BINDING: ((NodeKind.STATE, NodeKind.EVENT), (NodeKind.EVENT, NodeKind.STATE)),
}


@dataclass(frozen=True)
class WorkspaceNode:
    kind: NodeKind
    label: str


@dataclass(frozen=True)
class WorkspaceEdge:
    kind: EdgeKind
    src: str
    dst: str
    t: float | None = None


class WorkspaceGraph:
    """Single-writer typed graph; ``nodes`` maps each node id to its ``WorkspaceNode``, its kind and label."""

    def __init__(self):
        self.nodes: dict[str, WorkspaceNode] = {}
        self.edges: list[WorkspaceEdge] = []

    def add_node(self, node_id: str, kind: NodeKind | str, label: str = "") -> None:
        kind = NodeKind(kind)
        if node_id in self.nodes:
            raise ValueError(f"duplicate node id {node_id!r}")
        self.nodes[node_id] = WorkspaceNode(kind, label)

    def add_edge(self, kind: EdgeKind | str, src: str, dst: str, t: float | None = None) -> None:
        record = (kind, src, dst, t)
        if t is not None:
            t = real(t)
            if not math.isfinite(t):
                raise ValueError(f"edge record {record!r}: t must be finite, got {t!r}")
        kind = EdgeKind(kind)
        for endpoint in (src, dst):
            if endpoint not in self.nodes:
                raise ValueError(f"edge endpoint {endpoint!r} is not a node")
        pair = (self.nodes[src].kind, self.nodes[dst].kind)
        allowed = _ENDPOINT_RULES[kind]
        if pair not in allowed:
            want = " or ".join(f"{a.value}->{b.value}" for a, b in allowed)
            raise ValueError(f"{kind.value} edge must connect {want}, got {pair[0].value}->{pair[1].value}")
        self.edges.append(WorkspaceEdge(kind, src, dst, t))


class EdgeCoeffs:
    """No settings: an edge's weight is its time alone (see ``to_weighted_digraph``).

    Kept only because perfbench's relax_plan workload passes ``EdgeCoeffs()``
    to ``explanation_chain``; the class and that parameter can go together.
    """


def to_weighted_digraph(ws: WorkspaceGraph):
    """Lower a workspace graph to a planner digraph.

    Temporal and causal edges become directed edges of weight t + 0.0
    (0.0 when the edge has no t; the + 0.0 turns a -0.0 into 0.0); role,
    spatial, and binding edges become zero-weight connectors in both
    directions.  A negative or non-finite t raises the planner's
    ``ValueError``.  Returns (digraph, node_id -> index map).
    """
    graph = planner.WeightedDigraph()
    index = {node_id: graph.add_node() for node_id in ws.nodes}
    for edge in ws.edges:
        u, v = index[edge.src], index[edge.dst]
        if edge.kind in (EdgeKind.TEMPORAL, EdgeKind.CAUSAL):
            graph.add_edge(u, v, 0.0 if edge.t is None else edge.t + 0.0)
        else:
            graph.add_edge(u, v, 0.0)
            graph.add_edge(v, u, 0.0)
    return graph, index


def explanation_chain(ws: WorkspaceGraph, src: str, dst: str, coeffs: EdgeCoeffs):
    """Cheapest chain of node ids from src to dst, or None when unreachable.

    ``coeffs`` is not read; it stays only because perfbench's relax_plan
    workload passes ``EdgeCoeffs()``.
    """
    for node_id in (src, dst):
        if node_id not in ws.nodes:
            raise ValueError(f"{node_id!r} is not a node")
    graph, index = to_weighted_digraph(ws)
    found = planner.shortest_path(graph, index[src], index[dst])
    if found is None:
        return None
    path, cost = found
    ids = list(index)
    return [ids[i] for i in path], cost

