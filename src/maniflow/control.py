"""Optimal control on decoder manifolds and HJB residual checks.

With metric G(y) and costate p, the minimising control of the quadratic
running cost u^T G u / 2 solves G(y) u = p, giving the reduced Hamiltonian

    H(y, p) = p^T G(y)^{-1} p / 2 - l_task(z) - lam * l_ws(z, ws)

evaluated on decoded outputs z = decoder(y).  A candidate value function
V is scored by the residual dV/dt + H(y, grad V); layer updates advance
phase points by one leapfrog step of the reduced Hamiltonian.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .manifold import (
    GeodesicHamiltonian,
    MetricField,
    PhasePoint,
    _fd_gradient,
    leapfrog_step,
)

__all__ = [
    "CostSpec",
    "ValueFunction",
    "ReducedHamiltonian",
    "optimal_control",
    "hjb_residual",
    "ndm_layer",
    "running_cost",
    "trajectory_cost",
]


@dataclass
class CostSpec:
    """Task cost on decoded outputs plus an optional weighted workspace cost.

    ``terminal`` scores the final decoded point of a trajectory and
    defaults to zero.
    """

    task_cost: Callable[[np.ndarray], float]
    ws_cost: Callable[[np.ndarray, object], float] | None = None
    lam: float = 0.0
    terminal: Callable[[np.ndarray], float] | None = None

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError(f"workspace weight lam must be >= 0, got {self.lam!r}")

    def potential(self, z: np.ndarray, ws_state=None) -> float:
        value = float(self.task_cost(z))
        if self.ws_cost is not None and ws_state is not None:
            value += self.lam * float(self.ws_cost(z, ws_state))
        return value


@dataclass
class ValueFunction:
    """Candidate value function V(y, t) with optional analytic derivatives.

    Missing derivatives fall back to central differences with step
    1e-5 (1 + |arg|).
    """

    value: Callable[[np.ndarray, float], float]
    grad: Callable[[np.ndarray, float], np.ndarray] | None = None
    time_partial: Callable[[np.ndarray, float], float] | None = None

    def gradient(self, y: np.ndarray, t: float) -> np.ndarray:
        if self.grad is not None:
            return np.asarray(self.grad(y, t), dtype=float)
        return _fd_gradient(lambda yy: float(self.value(yy, t)), np.asarray(y, dtype=float))

    def dt(self, y: np.ndarray, t: float) -> float:
        if self.time_partial is not None:
            return float(self.time_partial(y, t))
        return float(_fd_gradient(lambda tt: float(self.value(y, tt[0])), np.array([float(t)]))[0])


class ReducedHamiltonian:
    """Kinetic term minus potential costs; usable by the leapfrog stepper.

    dp stays analytic through the metric solve.  dy takes the kinetic
    part from GeodesicHamiltonian.dy (from the decoder's jet, so exact for
    layered decoders) and differentiates the potential by central
    differences.
    """

    def __init__(self, metric_field: MetricField, cost: CostSpec, ws_state=None):
        self.metric_field = metric_field
        self.cost = cost
        self.ws_state = ws_state
        self._kinetic = GeodesicHamiltonian(metric_field)

    def _potential(self, y: np.ndarray) -> float:
        return self.cost.potential(self.metric_field.decoder(y), self.ws_state)

    def __call__(self, y: np.ndarray, p: np.ndarray) -> float:
        return self._kinetic(y, p) - self._potential(y)

    def dp(self, y: np.ndarray, p: np.ndarray) -> np.ndarray:
        return self._kinetic.dp(y, p)

    def dy(self, y: np.ndarray, p: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        return self._kinetic.dy(y, p) - _fd_gradient(self._potential, y)


def optimal_control(metric_field: MetricField, y: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Minimiser of the quadratic control cost: the solution of G(y) u = p."""
    return metric_field.solve(np.atleast_1d(np.asarray(y, dtype=float)), np.asarray(p, dtype=float))


def hjb_residual(
    metric_field: MetricField,
    cost: CostSpec,
    value_fn: ValueFunction,
    y: np.ndarray,
    t: float = 0.0,
    ws_state=None,
) -> float:
    """dV/dt + H(y, grad V); identically zero for an exact value function."""
    y = np.atleast_1d(np.asarray(y, dtype=float))
    costate = np.atleast_1d(value_fn.gradient(y, t))
    return value_fn.dt(y, t) + ReducedHamiltonian(metric_field, cost, ws_state)(y, costate)


def ndm_layer(
    metric_field: MetricField, cost: CostSpec, pt: PhasePoint, dt: float, ws_state=None
) -> PhasePoint:
    """One leapfrog step of the reduced Hamiltonian; dt must be positive."""
    if not dt > 0:
        raise ValueError(f"layer step dt must be > 0, got {dt!r}")
    return leapfrog_step(ReducedHamiltonian(metric_field, cost, ws_state), pt, float(dt))


def running_cost(
    metric_field: MetricField, cost: CostSpec, y: np.ndarray, u: np.ndarray, ws_state=None
) -> float:
    """Instantaneous cost u^T G(y) u / 2 + l_task + lam l_ws."""
    y = np.atleast_1d(np.asarray(y, dtype=float))
    u = np.atleast_1d(np.asarray(u, dtype=float))
    g = metric_field.metric(y)
    kinetic = 0.5 * float(u @ g @ u)
    return kinetic + cost.potential(metric_field.decoder(y), ws_state)


def trajectory_cost(metric_field: MetricField, cost: CostSpec, traj, ws_state=None) -> float:
    """Trapezoidal accumulation of the running cost plus the terminal cost.

    ``traj`` is a sequence of ``(y, u, dt)`` records; each consecutive
    pair forms a segment weighted by the dt of its first record.  The dt
    of the final record is unused.
    """
    entries = list(traj)
    if not entries:
        raise ValueError("trajectory must contain at least one record")
    costs = [running_cost(metric_field, cost, y, u, ws_state) for y, u, _ in entries]
    total = 0.0
    for k in range(len(entries) - 1):
        dt = float(entries[k][2])
        if not dt > 0:
            raise ValueError(f"segment {k} has non-positive dt {dt!r}")
        total += 0.5 * dt * (costs[k] + costs[k + 1])
    if cost.terminal is not None:
        y_final = np.atleast_1d(np.asarray(entries[-1][0], dtype=float))
        total += float(cost.terminal(metric_field.decoder(y_final)))
    return total
