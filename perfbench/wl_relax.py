"""relax_plan: relax-then-plan reasoning episodes.

One op: ``attention_couplings`` from seeded queries and keys, ``TICKS``
``micro_step`` ticks of N spins (FFN nudge on), ``build_ndm_graph`` k-NN over
the relaxed spins, ``QUERIES`` ``shortest_path`` queries, and the longest
route found lowered into a ``WorkspaceGraph`` and answered by
``explanation_chain``.  Unlike cli_mix's ``plan``, which reads a graph,
every op here builds one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from checks import SUM_RTOL, bellman_ford, check_route, close, edge_weights, finite, require
from maniflow import spins, workspace

OPS_PER_S = 3.0
CYCLE = (1,)
LAYER_METRICS = (
    "planner.build_ndm_graph.busy_ms",
    "planner.edge_cost_calls",
    "planner.edges",
    "planner.shortest_path.busy_ms",
    "planner.shortest_path.calls",
    "planner.route_found_ratio",
    "planner.share",
    "spins.attention_couplings.busy_ms",
    "spins.micro_step.busy_ms",
    "spins.micro_step.calls",
    "spins.two_body_energy.busy_ms",
    "spins.norm_err_max",
    "spins.share",
    "workspace.build.busy_ms",
    "workspace.explanation_chain.busy_ms",
    "workspace.chain_found_ratio",
    "workspace.share",
)

N_SPINS = 256
DIM = 32
HIDDEN = 64
TICKS = 16
K = 8
QUERIES = 8
ORACLE_QUERIES = 2  # queries per op checked against Bellman-Ford
NORM_TOL = 1e-9


@dataclass
class Case:
    queries: np.ndarray
    keys: np.ndarray
    spins0: np.ndarray
    pairs: list


@dataclass
class Out:
    system: spins.SpinSystem
    energy: float
    graph: object
    routes: list
    chain: object
    lowered: list
    edge_cost_calls: int


class Workload:
    def __init__(self, seed: int, n_ops: int, workdir):
        rng = np.random.default_rng(seed)
        self.bath = spins.BathParams(
            eta=0.05,
            eta_ff=0.2,
            gamma=0.01,
            W1=rng.normal(size=(HIDDEN, DIM)) / np.sqrt(DIM),
            W2=rng.normal(size=(DIM, HIDDEN)) / np.sqrt(HIDDEN),
            b1=0.1 * rng.normal(size=HIDDEN),
        )
        self.cases = []
        for _ in range(n_ops):
            s0 = rng.normal(size=(N_SPINS, DIM))
            s0 /= np.linalg.norm(s0, axis=1, keepdims=True)
            pairs = [tuple(int(v) for v in rng.choice(N_SPINS, size=2, replace=False)) for _ in range(QUERIES)]
            self.cases.append(Case(rng.normal(size=(N_SPINS, DIM)), rng.normal(size=(N_SPINS, DIM)), s0, pairs))
        self.edge_cost_calls = 0

    def fingerprint(self) -> bytes:
        return b"".join(c.queries.tobytes() + c.spins0.tobytes() for c in self.cases)

    def kind(self, i: int) -> str:
        return "episode"

    def edge_cost(self, a, b) -> float:
        self.edge_cost_calls += 1
        return float(np.linalg.norm(a - b))

    def run_op(self, i: int, api) -> Out:
        case = self.cases[i]
        calls_before = self.edge_cost_calls
        couplings = api.spins.attention_couplings(case.queries, case.keys)
        system = spins.SpinSystem(case.spins0, couplings)
        for _ in range(TICKS):
            system = api.spins.micro_step(system, self.bath)
        energy = api.spins.two_body_energy(system)
        graph = api.planner.build_ndm_graph(list(system.spins), ("knn", K), self.edge_cost)
        routes = [api.planner.shortest_path(graph, a, b) for a, b in case.pairs]
        found = [r for r in routes if r is not None]
        chain, lowered = None, []
        if found:
            path, _ = max(found, key=lambda r: len(r[0]))
            with api.span("workspace.build"):
                ws = workspace.WorkspaceGraph()
                for v in path:
                    ws.add_node(f"s{v}", "state", f"spin {v}")
                    ws.add_node(f"l{v}", "location", f"cell {v}")
                    ws.add_edge("spatial", f"s{v}", f"l{v}")
                for u, v in zip(path[:-1], path[1:]):
                    ws.add_edge("temporal", f"s{u}", f"s{v}", t=dict(graph.adjacency[u])[v])
            lowered = path
            chain = api.workspace.explanation_chain(ws, f"s{path[0]}", f"s{path[-1]}", workspace.EdgeCoeffs())
        return Out(system, energy, graph, routes, chain, lowered, self.edge_cost_calls - calls_before)

    def check(self, i: int, out: Out) -> dict:
        case = self.cases[i]
        norm_err = float(np.max(np.abs(np.linalg.norm(out.system.spins, axis=1) - 1.0)))
        require(norm_err <= NORM_TOL, f"spin norm off 1 by {norm_err:.3e}")
        finite(out.energy, "two-body energy")
        triples = list(out.graph.edges())
        require(len(triples) == N_SPINS * K, f"k-NN graph has {len(triples)} edges, want {N_SPINS * K}")
        src = np.array([u for u, _, _ in triples])
        dst = np.array([v for _, v, _ in triples])
        weight = np.array([w for _, _, w in triples])
        weights = edge_weights(src, dst, weight)
        costs = {}
        for q, ((a, b), route) in enumerate(zip(case.pairs, out.routes)):
            cost = np.inf if route is None else route[1]
            if route is not None:
                check_route(route[0], cost, weights, a, b, SUM_RTOL)
                costs[tuple(route[0])] = cost
            if q < ORACLE_QUERIES:
                want = float(bellman_ford(N_SPINS, src, dst, weight, a)[b])
                close(cost, want, SUM_RTOL, f"route {a}->{b} against Bellman-Ford")
        if out.lowered:
            require(out.chain is not None, "explanation_chain found no chain along a lowered route")
            nodes, cost = out.chain
            require(nodes == [f"s{v}" for v in out.lowered], "explanation chain differs from the lowered route")
            close(cost, costs[tuple(out.lowered)], SUM_RTOL, "explanation chain cost against its route")
        return {
            "norm_err": norm_err,
            "edges": len(triples),
            "edge_cost_calls": out.edge_cost_calls,
            "routes_found": sum(r is not None for r in out.routes),
            "chains_found": int(out.chain is not None),
        }

    def layer_metrics(self, observations: list[dict], n_ops: int) -> dict:
        return {
            "planner.edges": sum(o["edges"] for o in observations) / n_ops,
            "planner.edge_cost_calls": sum(o["edge_cost_calls"] for o in observations) / n_ops,
            "planner.route_found_ratio": sum(o["routes_found"] for o in observations) / (QUERIES * n_ops),
            "spins.norm_err_max": max((o["norm_err"] for o in observations), default=0.0),
            "workspace.chain_found_ratio": sum(o["chains_found"] for o in observations) / n_ops,
        }
