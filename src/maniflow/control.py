"""Optimal control on decoder manifolds and HJB residual checks.

With metric G(y) and costate p, the minimising control of the quadratic
running cost u^T G u / 2 solves G(y) u = p, giving the reduced Hamiltonian

    H(y, p) = p^T G(y)^{-1} p / 2 - l_task(z) - lam * l_ws(z, ws)

evaluated on decoded outputs z = decoder(y): a ``GeodesicHamiltonian``
whose held form ``at(y)`` subtracts the potential.  A candidate value
function V is scored by the residual dV/dt + H(y, grad V); layer updates
advance phase points by one leapfrog step of the reduced Hamiltonian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
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
        if not 0 <= self.lam < math.inf:
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


class ReducedHamiltonian(GeodesicHamiltonian):
    """The kinetic Hamiltonian of a metric field minus potential costs; usable by the leapfrog stepper.

    ``__call__``, ``dp`` and ``dy`` are GeodesicHamiltonian's, through
    ``at(y)``: dp stays analytic through the metric solve, and dy takes
    the kinetic part from the decoder's jet (exact for layered decoders)
    and differentiates the potential by central differences, once per
    point and only when dy is asked for.  Its arrays are 1-d: one point.
    """

    def __init__(self, metric_field: MetricField, cost: CostSpec, ws_state=None):
        super().__init__(metric_field)
        self.cost = cost
        self.ws_state = ws_state

    def _potential(self, y: np.ndarray) -> float:
        return self.cost.potential(self.metric_field.decoder(y), self.ws_state)

    def at(self, y: np.ndarray) -> "_HeldReduced":
        """The Hamiltonian held at one point y, for the leapfrog stepper."""
        return _HeldReduced(self, np.asarray(y, dtype=float))


class _HeldReduced:
    """A ReducedHamiltonian at fixed y: G, and on first use the potential's gradient, are derived once."""

    def __init__(self, hamiltonian: ReducedHamiltonian, y: np.ndarray):
        self.hamiltonian, self.y = hamiltonian, y
        self.kinetic = hamiltonian.metric_field.at(y)

    @cached_property
    def grad(self) -> np.ndarray:
        return _fd_gradient(self.hamiltonian._potential, self.y)

    def dy(self, p: np.ndarray) -> np.ndarray:
        return self.kinetic.dy(p) - self.grad

    def dp(self, p: np.ndarray) -> np.ndarray:
        return self.kinetic.dp(p)

    def __call__(self, p: np.ndarray) -> float:
        return self.kinetic(p) - self.hamiltonian._potential(self.y)


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
    """dV/dt + H(y, grad V); identically zero for an exact value function.

    A residual past the float range is +-inf; ValueError if it is NaN.
    """
    y = np.atleast_1d(np.asarray(y, dtype=float))
    costate = np.atleast_1d(value_fn.gradient(y, t))
    with np.errstate(over="ignore", invalid="ignore"):
        residual = value_fn.dt(y, t) + ReducedHamiltonian(metric_field, cost, ws_state)(y, costate)
    if math.isnan(residual):
        raise ValueError("HJB residual is nan")
    return residual


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
    """Instantaneous cost u^T G(y) u / 2 + l_task + lam l_ws; ValueError if it is NaN.

    A control whose cost passes the float range costs +inf.
    """
    y = np.atleast_1d(np.asarray(y, dtype=float))
    u = np.atleast_1d(np.asarray(u, dtype=float))
    g = metric_field.metric(y)
    with np.errstate(over="ignore", invalid="ignore"):
        kinetic = 0.5 * float(u @ g @ u)
    value = kinetic + cost.potential(metric_field.decoder(y), ws_state)
    if math.isnan(value):
        raise ValueError("running cost is nan")
    return value


def trajectory_cost(metric_field: MetricField, cost: CostSpec, traj, ws_state=None) -> float:
    """Trapezoidal accumulation of the running cost plus the terminal cost.

    ``traj`` is a sequence of ``(y, u, dt)`` records; each consecutive
    pair forms a segment weighted by the dt of its first record.  The dt
    of the final record is unused.  A NaN running cost raises ValueError
    naming its record, and so does a NaN terminal cost or total.
    """
    entries = list(traj)
    if not entries:
        raise ValueError("trajectory must contain at least one record")
    costs = []
    for k, (y, u, _) in enumerate(entries):
        try:
            costs.append(running_cost(metric_field, cost, y, u, ws_state))
        except ValueError as exc:
            raise ValueError(f"record {k}: {exc}") from None
    total = 0.0
    for k in range(len(entries) - 1):
        dt = float(entries[k][2])
        if not 0 < dt < math.inf:
            raise ValueError(f"segment {k} has non-positive dt {dt!r}")
        total += 0.5 * dt * (costs[k] + costs[k + 1])
    if cost.terminal is not None:
        y_final = np.atleast_1d(np.asarray(entries[-1][0], dtype=float))
        total += float(cost.terminal(metric_field.decoder(y_final)))
    if math.isnan(total):
        raise ValueError("trajectory cost is nan: a NaN terminal cost, or infinite costs of opposite sign")
    return total
