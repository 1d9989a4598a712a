"""Optimal control on decoder manifolds and HJB residual checks.

With metric G(y) and costate p, the minimising control of the quadratic
running cost u^T G u / 2 solves G(y) u = p, giving the reduced Hamiltonian

    H(y, p) = p^T G(y)^{-1} p / 2 - l_task(z)

evaluated on decoded outputs z = decoder(y): a ``GeodesicHamiltonian``
that subtracts the potential.  A candidate value function V is given by
its analytic grad V and dV/dt alone, since those are all the residual
dV/dt + H(y, grad V) reads; layer updates advance phase points by one
chord step of the reduced Hamiltonian, each starting from the f, J and
grad V that the layer before it ended on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._numbers import floats, real
from .manifold import (
    GeodesicHamiltonian,
    MetricField,
    PhasePoint,
    _central,
    _leapfrog,
    _stencil,
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
    """Task cost on decoded outputs, the potential of the reduced Hamiltonian.

    ``task_cost`` is a function of z alone: the same callable gives the
    same value at the same z.  ``ndm_layer`` relies on it, taking a
    potential gradient from the layer before when the callable is the same.
    """

    task_cost: Callable[[np.ndarray], float]

    def potential(self, z: np.ndarray) -> float:
        return real(self.task_cost(z))


@dataclass
class ValueFunction:
    """Candidate value function V(y, t), given by its analytic derivatives grad V and dV/dt."""

    grad: Callable[[np.ndarray, float], np.ndarray]
    time_partial: Callable[[np.ndarray, float], float]


class ReducedHamiltonian(GeodesicHamiltonian):
    """The kinetic Hamiltonian of a metric field minus the task cost; integrated by the chord step.

    The chord step adds h (V(q0) + V(q1)) / 2 to the discrete Lagrangian
    and takes the potential's gradient ``_force`` by central differences:
    the decoder makes one stacked pass over the 2d stencil points, and the
    task cost scores each row.
    """

    def __init__(self, metric_field: MetricField, cost: CostSpec):
        super().__init__(metric_field)
        self.cost = cost

    def __call__(self, y: np.ndarray, p: np.ndarray):
        y = floats(y)
        return super().__call__(y, p) - self._potential(self.metric_field.decoder(y))

    def _potential(self, z: np.ndarray):
        """The task cost of each decoded output z (..., n), shape (...)."""
        flat = z.reshape(-1, z.shape[-1])
        return np.array([self.cost.potential(row) for row in flat]).reshape(z.shape[:-1])

    def _force(self, y: np.ndarray) -> np.ndarray:
        """Central differences of the potential at a point y (d,), from one decoder pass over its stencil.

        The task cost scores finite outputs only: a stencil step past the
        float range (|y| past its square root) raises ValueError naming y
        before the pass, and so does a decoder output past it after the pass.
        """
        points, step = _stencil(y)
        if not np.isfinite(step):
            raise ValueError(
                f"potential gradient's stencil step at y={y.tolist()} overflows: "
                "|y| is past the float range's square root"
            )
        z = self.metric_field.decoder._forward(points)[0]
        if not np.logical_and.reduce(np.isfinite(z), axis=None):
            raise ValueError(f"decoder output on the potential gradient's stencil at y={y.tolist()} is not finite")
        return _central(self._potential(z)[..., None], step)[..., 0, :]


def optimal_control(metric_field: MetricField, y: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Minimiser of the quadratic control cost: the solution of G(y) u = p."""
    return metric_field.solve(np.atleast_1d(floats(y)), floats(p))


def hjb_residual(
    metric_field: MetricField,
    cost: CostSpec,
    value_fn: ValueFunction,
    y: np.ndarray,
    t: float = 0.0,
) -> float:
    """dV/dt + H(y, grad V); identically zero for an exact value function.

    A residual past the float range is +-inf; ValueError if it is NaN.
    """
    y = np.atleast_1d(floats(y))
    with np.errstate(over="ignore", invalid="ignore"):
        costate = np.atleast_1d(floats(value_fn.grad(y, t)))
        residual = real(value_fn.time_partial(y, t)) + ReducedHamiltonian(metric_field, cost)(y, costate)
    if math.isnan(residual):
        raise ValueError("HJB residual is nan")
    return residual


def ndm_layer(metric_field: MetricField, cost: CostSpec, pt: PhasePoint, dt: float) -> PhasePoint:
    """One chord step of the reduced Hamiltonian; dt must be positive.

    The point it returns carries its end node's f, J and potential gradient,
    tagged with the decoder, its layers, the task cost and the bytes of its
    y.  A layer from such a point starts from them, with no decoder pass and
    no gradient at its start node, while the tags hold:
    ``metric_field.decoder``, its ``layers`` and ``cost.task_cost`` are
    those objects, and ``pt.y`` is that array with those bytes.  Any other
    point (a fresh or rebuilt one, another field, decoder, layers or cost,
    a y written in place) has them derived, to the same bits.
    """
    if not real(dt) > 0:
        raise ValueError(f"layer step dt must be > 0, got {dt!r}")
    decoder, task_cost, jet = metric_field.decoder, cost.task_cost, pt._jet
    tagged = jet is not None and (
        jet[0] is decoder and jet[1] is decoder.layers and jet[2] is task_cost
        and jet[3] is pt.y and jet[4] == pt.y.tobytes()
    )
    ham = ReducedHamiltonian(metric_field, cost)
    ys, ps, _, end = _leapfrog(ham, pt.y, pt.p, real(dt), 1, energies=False, jet=jet[5:] if tagged else None)
    out = PhasePoint(ys[1], ps[1])
    out._jet = (decoder, decoder.layers, task_cost, out.y, out.y.tobytes(), *end)
    return out


def running_cost(metric_field: MetricField, cost: CostSpec, y: np.ndarray, u: np.ndarray) -> float:
    """Instantaneous cost u^T G(y) u / 2 + l_task; ValueError if it is NaN.

    A control whose cost passes the float range costs +inf.  The task cost
    scores a finite output only: a decoder output past the float range
    raises ValueError naming y before the cost is called.
    """
    y = np.atleast_1d(np.asarray(floats(y), order="C"))  # a kernel's last bits follow y's strides
    u = np.atleast_1d(floats(u))
    # z and G from one decoder pass
    with np.errstate(over="ignore", invalid="ignore"):
        z, jac = metric_field.decoder._forward(y)
        kinetic = 0.5 * float(u.dot(metric_field._metric(y, jac)).dot(u))
    if not np.logical_and.reduce(np.isfinite(z), axis=None):
        raise ValueError(f"decoder output at y={y.tolist()} is not finite")
    value = kinetic + cost.potential(z)
    if math.isnan(value):
        raise ValueError("running cost is nan")
    return value


def trajectory_cost(metric_field: MetricField, cost: CostSpec, traj) -> float:
    """Trapezoidal accumulation of the running cost.

    ``traj`` is a sequence of ``(y, u, dt)`` records; each consecutive
    pair forms a segment weighted by the dt of its first record.  The dt
    of the final record is unused, and a single record costs 0.  A NaN
    running cost or a decoder output past the float range raises
    ValueError naming its record, and a NaN total, from infinite costs of
    opposite sign, raises ValueError.
    """
    entries = list(traj)
    if not entries:
        raise ValueError("trajectory must contain at least one record")
    costs = []
    for k, (y, u, _) in enumerate(entries):
        try:
            costs.append(running_cost(metric_field, cost, y, u))
        except ValueError as exc:
            raise ValueError(f"record {k}: {exc}") from None
    total = 0.0
    for k in range(len(entries) - 1):
        dt = real(entries[k][2])
        if not 0 < dt < math.inf:
            raise ValueError(f"segment {k} has non-positive dt {dt!r}")
        total += 0.5 * dt * (costs[k] + costs[k + 1])
    if math.isnan(total):
        raise ValueError("trajectory cost is nan: infinite costs of opposite sign")
    return total
