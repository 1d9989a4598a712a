"""Output checks and independent oracles shared by the workloads.

Every check raises ``CheckFailed``; the runner counts that op as failed.
Tolerances come from the arithmetic, never from observed results:

* ``SUM_RTOL`` (1e-12): float64 sums of a few hundred non-negative terms,
  which may be added in another order by the oracle (n * eps ~ 3e-14);
* ``PRINT_RTOL`` (1e-9): values printed with 10 significant digits
  (half an ulp of the print is 5e-10 of the value).
"""

from __future__ import annotations

import math

import numpy as np

SUM_RTOL = 1e-12
PRINT_RTOL = 1e-9


class CheckFailed(Exception):
    """An output broke its contract or disagreed with an oracle."""


def require(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def finite(value, what: str) -> None:
    require(np.all(np.isfinite(np.asarray(value, dtype=float))), f"{what} is not finite")


def close(got: float, want: float, rtol: float, what: str) -> None:
    if math.isinf(want) or math.isinf(got):
        require(got == want, f"{what}: got {got!r}, want {want!r}")
        return
    require(abs(got - want) <= rtol * max(abs(want), 1.0), f"{what}: got {got!r}, want {want!r}")


def bellman_ford(n: int, src: np.ndarray, dst: np.ndarray, weight: np.ndarray, source: int) -> np.ndarray:
    """Single-source distances by edge relaxation until nothing changes."""
    dist = np.full(n, np.inf)
    dist[source] = 0.0
    for _ in range(n):
        relaxed = dist.copy()
        np.minimum.at(relaxed, dst, dist[src] + weight)
        if np.array_equal(relaxed, dist):
            return dist
        dist = relaxed
    raise CheckFailed("Bellman-Ford did not settle; the graph has a negative cycle")


def edge_weights(src, dst, weight) -> dict:
    """(u, v) -> cheapest weight among parallel edges."""
    out: dict = {}
    for u, v, w in zip(np.asarray(src).tolist(), np.asarray(dst).tolist(), np.asarray(weight).tolist()):
        if (u, v) not in out or w < out[(u, v)]:
            out[(u, v)] = w
    return out


def check_route(path, cost: float, weights: dict, source: int, target: int, rtol: float) -> None:
    """The route runs source -> target over existing edges and costs the sum of its weights."""
    joins = len(path) >= 1 and path[0] == source and path[-1] == target
    require(joins, f"route {path} does not join {source} and {target}")
    total = 0.0
    for u, v in zip(path[:-1], path[1:]):
        require((u, v) in weights, f"route uses missing edge {u}->{v}")
        total += weights[(u, v)]
    close(cost, total, rtol, f"cost of route {source}->{target} against its edge weights")
