"""Typed episode graphs, workspace losses, and explanation chains.

Nodes are actors, objects, events, states, and locations; edges carry one
of six kinds with fixed endpoint conventions:

    temporal          state  -> state
    causal            event  -> event
    role-agent        actor  -> event
    role-theme        object -> event
    spatial           state  -> location
    episodic-binding  state <-> event (either orientation)

Graphs are built single-writer (optionally via proposal merging with
last-write-wins node identity) and can be frozen.  For planning, temporal
and causal edges become directed weighted edges with weight
alpha dt + beta jump + gamma uncertainty, while the remaining kinds become
zero-weight bidirectional connectors.

Text format (``#`` starts a comment)::

    node <id> <kind> <label with spaces>
    edge <kind> <src> <dst> [t=<float>]
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

import numpy as np

from . import _text, planner

__all__ = [
    "NodeKind",
    "EdgeKind",
    "WorkspaceNode",
    "WorkspaceEdge",
    "WorkspaceGraph",
    "Fact",
    "EdgeCoeffs",
    "ws_fact_loss",
    "ws_geo_loss",
    "episodic_edge_weight",
    "to_weighted_digraph",
    "explanation_chain",
    "load_workspace",
    "save_workspace",
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
    node_id: str
    kind: NodeKind
    label: str


@dataclass(frozen=True)
class WorkspaceEdge:
    kind: EdgeKind
    src: str
    dst: str
    t: float | None = None


class WorkspaceGraph:
    """Single-writer typed graph; freeze() makes it immutable."""

    def __init__(self):
        self.nodes: dict[str, WorkspaceNode] = {}
        self.edges: list[WorkspaceEdge] = []
        self._frozen = False

    def _writable(self) -> None:
        if self._frozen:
            raise RuntimeError("workspace graph is frozen; rebuild to change it")

    def add_node(self, node_id: str, kind: NodeKind | str, label: str = "") -> None:
        self._writable()
        kind = NodeKind(kind)
        if node_id in self.nodes:
            raise ValueError(f"duplicate node id {node_id!r}")
        self.nodes[node_id] = WorkspaceNode(node_id, kind, label)

    def add_edge(self, kind: EdgeKind | str, src: str, dst: str, t: float | None = None) -> None:
        self._writable()
        kind = EdgeKind(kind)
        edge = WorkspaceEdge(kind, src, dst, None if t is None else float(t))
        self._validate_edge(edge)
        self.edges.append(edge)

    def _validate_edge(self, edge: WorkspaceEdge) -> None:
        for endpoint in (edge.src, edge.dst):
            if endpoint not in self.nodes:
                raise ValueError(f"edge endpoint {endpoint!r} is not a node")
        pair = (self.nodes[edge.src].kind, self.nodes[edge.dst].kind)
        allowed = _ENDPOINT_RULES[edge.kind]
        if pair not in allowed:
            want = " or ".join(f"{a.value}->{b.value}" for a, b in allowed)
            raise ValueError(
                f"{edge.kind.value} edge must connect {want}, got {pair[0].value}->{pair[1].value}"
            )

    def merge_proposals(self, nodes=(), edges=()) -> None:
        """Reconcile extracted proposals: node identity is last-write-wins.

        ``nodes`` holds (id, kind, label) triples; ``edges`` holds
        (kind, src, dst[, t]) records.  All edges (existing and proposed)
        are re-validated against the merged node kinds.
        """
        self._writable()
        for node_id, kind, label in nodes:
            self.nodes[node_id] = WorkspaceNode(node_id, NodeKind(kind), label)
        for record in edges:
            kind, src, dst = record[0], record[1], record[2]
            t = float(record[3]) if len(record) > 3 and record[3] is not None else None
            self.edges.append(WorkspaceEdge(EdgeKind(kind), src, dst, t))
        for edge in self.edges:
            self._validate_edge(edge)

    def freeze(self) -> "WorkspaceGraph":
        self._frozen = True
        return self


@dataclass(frozen=True)
class Fact:
    """A scored assertion: opaque key, binary truth target, weight >= 0."""

    key: object
    truth: int
    weight: float = 1.0

    def __post_init__(self):
        if self.truth not in (0, 1):
            raise ValueError(f"fact truth must be 0 or 1, got {self.truth!r}")
        if self.weight < 0:
            raise ValueError(f"fact weight must be >= 0, got {self.weight!r}")


_BCE_CLAMP = 30.0


def _bce(score: float, truth: int) -> float:
    # -log sigma(s) computed as softplus(-s), clamped where log sigma < -30
    s = -score if truth else score
    loss = float(np.logaddexp(0.0, s))
    return min(loss, _BCE_CLAMP)


def ws_fact_loss(z: np.ndarray, facts, scorer: Callable) -> float:
    """Weighted binary cross-entropy of fact scores, averaged over facts.

    ``scorer(z, fact.key)`` returns a logit; the per-fact log terms are
    floored at -30.
    """
    facts = list(facts)
    if not facts:
        raise ValueError("fact set is empty")
    total = 0.0
    for fact in facts:
        score = float(scorer(z, fact.key))
        total += fact.weight * _bce(score, fact.truth)
    return total / len(facts)


def ws_geo_loss(pairs, f_map: Callable, dist_fn: Callable) -> float:
    """Sum of squared gaps between manifold distances and mapped graph distances.

    ``pairs`` holds (y_i, y_j, d_ws) records; ``f_map`` must be monotone
    non-decreasing on the supplied d_ws samples.
    """
    pairs = list(pairs)
    if not pairs:
        raise ValueError("need at least one pair")
    d_samples = sorted({float(p[2]) for p in pairs})
    f_values = [float(f_map(d)) for d in d_samples]
    for a, b in zip(f_values, f_values[1:]):
        if b < a - 1e-12:
            raise ValueError("f_map is not monotone on the sampled graph distances")
    total = 0.0
    for y_i, y_j, d_ws in pairs:
        gap = float(dist_fn(y_i, y_j)) - float(f_map(float(d_ws)))
        total += gap * gap
    return total


def episodic_edge_weight(
    delta_t: float, jump: float, uncertainty: float, alpha: float, beta: float, gamma: float
) -> float:
    """alpha dt + beta jump + gamma uncertainty over non-negative inputs."""
    values = {
        "delta_t": delta_t,
        "jump": jump,
        "uncertainty": uncertainty,
        "alpha": alpha,
        "beta": beta,
        "gamma": gamma,
    }
    for name, v in values.items():
        if float(v) < 0:
            raise ValueError(f"{name} must be >= 0, got {v!r}")
    return float(alpha) * float(delta_t) + float(beta) * float(jump) + float(gamma) * float(uncertainty)


@dataclass
class EdgeCoeffs:
    """Weight coefficients plus caller-supplied jump/uncertainty scores."""

    alpha: float = 1.0
    beta: float = 0.0
    gamma: float = 0.0
    jump: Callable[[WorkspaceEdge], float] = lambda edge: 0.0
    uncertainty: Callable[[WorkspaceEdge], float] = lambda edge: 0.0


def to_weighted_digraph(ws: WorkspaceGraph, coeffs: EdgeCoeffs):
    """Lower a workspace graph to a planner digraph.

    Temporal and causal edges become directed weighted edges (dt taken
    from the edge's t attribute, 0 when absent); role, spatial, and
    binding edges become zero-weight connectors in both directions.
    Returns (digraph, node_id -> index map); payloads are node ids.
    """
    graph = planner.WeightedDigraph()
    index = {node_id: graph.add_node(node_id) for node_id in ws.nodes}
    for edge in ws.edges:
        u, v = index[edge.src], index[edge.dst]
        if edge.kind in (EdgeKind.TEMPORAL, EdgeKind.CAUSAL):
            weight = episodic_edge_weight(
                edge.t if edge.t is not None else 0.0,
                coeffs.jump(edge),
                coeffs.uncertainty(edge),
                coeffs.alpha,
                coeffs.beta,
                coeffs.gamma,
            )
            graph.add_edge(u, v, weight)
        else:
            graph.add_edge(u, v, 0.0)
            graph.add_edge(v, u, 0.0)
    return graph, index


def explanation_chain(ws: WorkspaceGraph, src: str, dst: str, coeffs: EdgeCoeffs):
    """Cheapest chain of node ids from src to dst, or None when unreachable."""
    for node_id in (src, dst):
        if node_id not in ws.nodes:
            raise ValueError(f"{node_id!r} is not a node")
    graph, index = to_weighted_digraph(ws, coeffs)
    found = planner.shortest_path(graph, index[src], index[dst])
    if found is None:
        return None
    path, cost = found
    return [graph.payloads[i] for i in path], cost


def load_workspace(path) -> WorkspaceGraph:
    """Parse the node/edge text format; a bad line raises ``_text.FormatError`` starting ``line N: ``."""
    ws = WorkspaceGraph()
    for ln, line in _text.lines(path):
        tokens = line.split()
        try:
            if tokens[0] == "node":
                if len(tokens) < 3:
                    raise ValueError("expected 'node <id> <kind> <label>'")
                ws.add_node(tokens[1], tokens[2], " ".join(tokens[3:]))
            elif tokens[0] == "edge":
                if len(tokens) not in (4, 5):
                    raise ValueError("expected 'edge <kind> <src> <dst> [t=<float>]'")
                t = None
                if len(tokens) == 5:
                    if not tokens[4].startswith("t="):
                        raise ValueError(f"expected 't=<float>', got {tokens[4]!r}")
                    t = float(tokens[4][2:])
                ws.add_edge(tokens[1], tokens[2], tokens[3], t)
            else:
                raise ValueError(f"unknown directive {tokens[0]!r}")
        except ValueError as exc:
            raise _text.FormatError.at(ln, exc) from None
    return ws.freeze()


def save_workspace(ws: WorkspaceGraph, path) -> None:
    """Write the text format; ValueError, before any write, for an id or label it would not load back."""
    rows = []
    for node in ws.nodes.values():
        if "#" in node.node_id or node.node_id.split() != [node.node_id]:
            raise ValueError(f"node {node.node_id!r}: an id must be one token without '#'")
        if "#" in node.label or " ".join(node.label.split()) != node.label:
            raise ValueError(f"node {node.node_id!r}: label {node.label!r} must be single-spaced words without '#'")
        rows.append(f"node {node.node_id} {node.kind.value} {node.label}")
    for edge in ws.edges:
        suffix = "" if edge.t is None else f" t={_text.fmt(edge.t)}"
        rows.append(f"edge {edge.kind.value} {edge.src} {edge.dst}{suffix}")
    _text.write(path, rows)
