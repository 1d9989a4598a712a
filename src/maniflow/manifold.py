"""Decoder-induced geometry and Hamiltonian geodesic flows.

A decoder maps latent points y in R^d to ambient points f(y) in R^n
(n >= d).  Its Jacobian J(y) induces the pullback metric

    G(y) = J(y)^T J(y) + eps_reg I,

formed by one matmul, which numpy makes exactly symmetric.  A finite
Cholesky factor is the one check of a G that passes: a G with an inf or
NaN, or one that is not SPD, has none, and only then is the cause
decided.  The engine's small solves and factorisations call numpy's
linalg gufuncs ``solve1`` and ``cholesky_lo`` directly, without the
``np.linalg`` wrappers' argument checks: a singular or non-SPD matrix
comes back NaN-filled and raises numpy's invalid flag, so every caller
runs them with invalid ignored and reads the NaN.  Its per-iterate and
per-node reductions call the ufunc reductions that the ndarray methods
wrap (``np.maximum.reduce`` for ``.max()``, ``np.logical_and.reduce``
for ``.all()``, ...).  Geodesics are driven by the kinetic
Hamiltonian H(y, p) = p^T G(y)^{-1} p / 2.  G is reached one way,
``MetricField._geometry``: ``pullback_metric`` returns it,
``MetricField.solve`` solves G v = rhs, and ``GeodesicHamiltonian`` takes
H from it; the chord step makes the same check over a stack of nodes
(below) and names a node that fails by ``_geometry``.  A decoder's
derivatives are exact and unchecked (the engine checks G or its nodes
instead): its order-1 jet (f, J) from ``Decoder._forward``, one pass
over its layers (``linear`` is one layer with a zero bias) for a point
(d,) or a stack (..., d), and the contraction C = sum_i c_i Hess f_i from
``Decoder._curvature``, one forward and one backward pass that form no
second-derivative tensor, which only the chord step's tangent reads.

**The chord step.**  A Hamiltonian with a ``metric_field``
(``GeodesicHamiltonian``, ``control.ReducedHamiltonian``) takes the
variational step (Marsden & West 2001) of the discrete Lagrangian

    L_d(q0, q1) = |f(q1) - f(q0)|^2 / 2h + eps_reg |q1 - q0|^2 / 2h,

plus h (V(q0) + V(q1)) / 2 for a potential V.  Newton solves
J0^T (f1 - f0) + eps_reg (q1 - q0) = h p0 (+ h^2/2 grad V(q0)) for q1,
with matrix J0^T J1 + eps_reg I; then
p1 = [J1^T (f1 - f0) + eps_reg (q1 - q0)] / h (+ h/2 grad V(q1)), and
the end point's (f, J) starts the next step.  A run derives node 0's
(f, J) and grad V, unless it is handed them: ``control.ndm_layer`` hands a
layer those of the node the layer before ended on.  Step 1 starts Newton at
q0 + h G(q0)^{-1} p0, steps 2 to 4 at the polynomial through their 2 to
4 nodes, and later steps at the quartic through the last five,
5 (q0 - q_-3) + 10 (q_-2 - q_-1) + q_-4 (Hairer, Lubich & Wanner,
*Geometric Numerical Integration* VIII.6).  Every step takes one update;
then each row iterates until its residual, in max-norms, is at most
``_CHORD_TOL`` = 1e-12 of the right-hand side, or, from the third
iterate on, within the rounding floor of its terms (``_round_off``).  A
row that stops keeps its iterate while the others update, so a stacked
row is bit-equal to its single run.  The decoder pass at each iterate
gives its residual, and the last one ends the step: from step 5 on, a
smooth run makes 2 passes and 1 solve per step.  A row above both after
30 updates (``_CHORD_UPDATES``) raises IntegrationError naming the step
and the residual; a row whose Newton matrix is singular, so that its
iterate turns NaN, raises IntegrationError naming that matrix and the
step.  In a stack the rows that update on rebuild a lost row's matrix
from its NaN, so on that failure path each lost row reruns alone, which
is bit-equal, to name it.  The nodes are checked a block at a time, not
as they are made: each block of ``_CHECK_BLOCK`` = 64 nodes, and the
run's last nodes, get one stacked G, one Cholesky factorisation, one
finiteness test of the factors and the rows, and one energy solve.  The
first node that fails raises the error its own check raises, with the
same step, state and drift, at most 63 steps after it was made; an
error raised while stepping (a Newton solve's, a task cost's) first has
the nodes before it checked, so an earlier bad node still wins.  A
potential and its gradient are taken at a finite y only.  Any other
Hamiltonian provides ``__call__(y, p)`` and the partials ``dy(y, p)``
and ``dp(y, p)`` and takes the staged kick-drift-kick of ``_staged``,
which is symplectic for a separable H, with its rows checked a node at
a time; table 3 runs the same stepper over Python floats.

**The boundary-value solve.**  ``solve_shooting`` makes the action
S = sum_k L_d(q_k, q_k+1), h = 1/N, stationary over the interior nodes
of q_0 = y_a, ..., q_N = y_b by damped Gauss-Newton from the straight
line: one stacked pass over the N + 1 nodes per iteration, and a
block-tridiagonal Hessian, 2 (J_k^T J_k + eps_reg I) / h on the diagonal
and -(J_k^T J_k+1 + eps_reg I) / h off it.  Its momentum is that of the
first chord, so the chord step from it retraces the nodes to y_b.

**Deviations.**  ``jacobi_propagate`` carries a deviation by the
tangent of each recorded step.  For the chord step without a potential
the tangent is exact: implicit differentiation of the step's equation at
the recorded nodes, from one decoder pass, one curvature contraction and
one stacked solve, with no step re-run (``_chord_tangents``).  Since it
reads node k + 1 as the given field's step from node k, it checks the
step's equation there and names a node that fails it, so a trajectory
recorded under another field raises ValueError.  ``empirical_deviations``,
the finite-difference oracle, differences the run from pt0 and the run
from pt0 + 1e-5 delta0.  ``integrate`` records a one-point chord run
without a potential on its ``pt0``: the field, decoder, layers, eps_reg,
h and n_steps, pt0's y and p, a weak reference to the trajectory, and a
digest of y, p and the trajectory's rows.  While every tag holds, the
oracle runs only the shifted point and takes its base rows from that
trajectory; otherwise, and when the shifted run raises, it runs both
points as one stack of two.

Finite differences remain where no exact derivative is written: the
tangent of the staged step and of the chord step with a potential
(``control.ReducedHamiltonian``), and a potential's gradient in
``control``.  They take their points from ``_stencil`` and their quotient
from ``_central``: steps 1e-5 (1 + |arg|) (``GRAD_STEP``), for first
derivatives only.  One loop runs a point or a stack, kernel by kernel
slice by slice, so each row is bit-equal to its single-point run:
``leapfrog_step`` is the one-step ``integrate`` without energies,
``jacobi_propagate``'s stencil route steps the 4d stencil points of all n
nodes as one stack, and ``empirical_deviations``' stack of two gives its
base row the bits of ``integrate``'s run from the same point.  A
``PhaseTrajectory`` holds the node rows ``ys`` and ``ps``, (n+1, d) for
one point, and ``energies``.

A decoder is its (w, b) layers, each checked by one rule in ``Decoder``:
a matrix taking the previous layer's output width, a matching bias, both
finite (an int past the float range is not).  It keeps read-only copies of
them in a tuple, so a decoder whose ``layers`` is still that tuple is still
one map f, which is what lets ``ndm_layer`` tag the f and J it carries
with the decoder and its layers.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial
from typing import Iterable, Sequence

import numpy as np
from numpy.linalg._umath_linalg import cholesky_lo, solve, solve1

from ._numbers import floats, is_count, real
from ._staged import staged

__all__ = [
    "SingularMetricError",
    "IntegrationError",
    "ShootingError",
    "Decoder",
    "MetricField",
    "PhasePoint",
    "PhaseTrajectory",
    "GeodesicHamiltonian",
    "pullback_metric",
    "leapfrog_step",
    "integrate",
    "solve_shooting",
    "jacobi_propagate",
    "empirical_deviations",
]

GRAD_STEP = 1e-5


class SingularMetricError(ValueError):
    """Pullback metric failed to be positive definite after regularisation.

    ``y`` is the point whose G is worst and ``min_eigenvalue`` the smallest
    eigenvalue of G there.
    """

    def __init__(self, message: str, y=None, min_eigenvalue: float | None = None):
        super().__init__(message)
        self.y, self.min_eigenvalue = y, min_eigenvalue


class IntegrationError(ValueError):
    """Integration produced a non-finite state, or a chord step whose Newton solve did not converge.

    ``step`` is the step that failed, ``y`` and ``p`` are the last good
    node (the one before it) and ``drift`` is max |H - H_0| over the nodes
    up to it, or None for a run that records no energies.  Step 0 is a
    start whose state or energy is not finite: y, p and drift are None.
    A chord step fails when a row's Newton residual is still above its
    bound after 30 updates; the message gives it relative to the step's
    right-hand side h p (+ h^2/2 grad V).  It also fails when a row's
    Newton matrix J0^T J1 + eps_reg I is singular (a saturated tanh with
    eps_reg = 0 zeroes J1): the solve turns its iterate NaN, and the
    message names the singular Newton matrix and the step.  The chord
    step checks its nodes a block at a time, so it raises for a node up
    to ``_CHECK_BLOCK`` - 1 = 63 steps after making it, with the step,
    state and drift of that node's own check.
    """

    def __init__(self, message: str, step: int | None = None, y=None, p=None, drift: float | None = None):
        super().__init__(message)
        self.step, self.y, self.p, self.drift = step, y, p, drift


class ShootingError(ValueError):
    """The boundary-value solve failed: no convergence, a singular Hessian, or a non-finite state.

    ``residuals[k]`` is the norm of the action's gradient after k
    iterations, and ``p`` the momentum of the nodes the solver stopped at.
    """

    def __init__(self, message: str, residuals=(), p=None):
        super().__init__(message)
        self.residuals, self.p = list(residuals), p


# ---------------------------------------------------------------------------
# decoders


class Decoder:
    """Latent-to-ambient map of (w, b) layers, a tanh between consecutive ones; exact derivatives from ``_forward``.

    ``linear`` and ``mlp_tanh`` build it from their own arguments;
    ``latent_dim`` and ``ambient_dim`` follow from ``layers``.  ``layers``
    is a tuple of read-only copies of the checked arrays, so a write to the
    caller's arrays leaves the decoder as it was checked, a write to its own
    raises, and while ``layers`` is that tuple the decoder is one map f.
    """

    def __init__(self, layers: Iterable[tuple[np.ndarray, np.ndarray]]):
        checked = []
        for w, b in layers:
            checked.append(_check_layer(checked, w, b))
        if not checked:
            raise ValueError("decoder needs at least one layer")
        self.layers = tuple(checked)
        d, n = self.latent_dim, self.ambient_dim
        if d < 1:
            raise ValueError("latent dimension must be >= 1")
        if n < d:
            raise ValueError(f"ambient dimension {n} must be >= latent dimension {d}")

    @classmethod
    def linear(cls, matrix: np.ndarray) -> "Decoder":
        shape = np.shape(matrix)
        if len(shape) != 2:
            raise ValueError("linear decoder needs a 2-d matrix")
        return cls([(matrix, np.zeros(shape[0]))])

    @classmethod
    def mlp_tanh(cls, weights: Sequence[np.ndarray], biases: Sequence[np.ndarray]) -> "Decoder":
        if len(weights) != len(biases) or not weights:
            raise ValueError("need matching, non-empty weight and bias lists")
        return cls(zip(weights, biases))

    @property
    def latent_dim(self) -> int:
        return self.layers[0][0].shape[1]

    @property
    def ambient_dim(self) -> int:
        return self.layers[-1][0].shape[0]

    def __call__(self, y: np.ndarray) -> np.ndarray:
        """f at y, shape (..., n) for latent points (..., d); ValueError, and no warning, unless finite."""
        y = floats(y)
        with np.errstate(over="ignore", invalid="ignore"):
            out = self._forward(y)[0]
        if not np.isfinite(out).all():
            raise ValueError(f"decoder output at y={y!r} is not finite")
        return out

    def _forward(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """f and J at a float array y (..., d) from one pass over the layers, unchecked."""
        (w, b), *rest = self.layers
        if y.shape[-1:] != (w.shape[1],):
            raise ValueError(f"expected latent points of width {w.shape[1]}, got shape {y.shape}")
        out = np.matvec(w, y) + b
        if not rest:  # a read-only view: J is the layer's own weights
            return out, np.broadcast_to(w, (*y.shape[:-1], *w.shape))
        jac = w
        # the first tanh broadcasts J, the first layer's weights, over the stack
        for w, b in rest:
            x = np.tanh(out)
            jac = w @ ((1.0 - x * x)[..., None] * jac)
            out = np.matvec(w, x) + b
        return out, jac

    def _curvature(self, y: np.ndarray, c: np.ndarray) -> np.ndarray:
        """C = sum_i c_i Hess f_i (..., m, d, d) at a float array y (m, d), for c (..., m, n); unchecked.

        A forward pass keeps each tanh layer's x = tanh(a) and the Jacobian
        A = da/dy of its input a; one backward pass from g = c then adds
        A^T diag(tanh''(a) g) A per tanh layer, tanh'' = -2 x (1 - x^2), with
        g the gradient of c.f at that layer's output.  No (m, n, d, d)
        second-derivative tensor is formed, and a linear decoder gives 0.
        """
        (w, b), *rest = self.layers
        a, jac = np.matvec(w, y) + b, w
        states = []  # (x, A) of each tanh layer; the first A is the first layer's weights, broadcast by matmul
        for k, (w, b) in enumerate(rest):
            x = np.tanh(a)
            states.append((x, jac))
            if k + 1 < len(rest):  # the output layer's a and A are not needed
                a, jac = np.matvec(w, x) + b, w @ ((1.0 - x * x)[..., None] * jac)
        curv = np.zeros((*c.shape[:-1], y.shape[-1], y.shape[-1]))
        g = c
        for (w, _), (x, jac) in zip(reversed(rest), reversed(states)):
            g = np.vecmat(g, w)
            slope = 1.0 - x * x
            curv += (jac.swapaxes(-1, -2) * (-2.0 * x * slope * g)[..., None, :]) @ jac
            g = slope * g
        return curv


def _check_layer(previous: list, w, b) -> tuple[np.ndarray, np.ndarray]:
    """The layer after ``previous`` as read-only float copies (w, b); ValueError unless it fits them and is finite."""
    # order K keeps the caller's memory layout, and with it the kernels' bits
    w, b = floats(w).copy(order="K"), floats(b).copy(order="K")
    w.flags.writeable = b.flags.writeable = False
    if w.ndim != 2 or b.shape != (w.shape[0],):
        raise ValueError("each layer needs a matrix and a matching bias vector")
    if previous and w.shape[1] != previous[-1][0].shape[0]:
        raise ValueError("layer input width must match previous layer output width")
    for name, values in (("weights", w), ("biases", b)):
        if not np.isfinite(values).all():
            raise ValueError(f"layer {len(previous)} {name} must be finite")
    return w, b


# ---------------------------------------------------------------------------
# metric and Hamiltonians


@lru_cache(maxsize=8)
def _scaled_eye(eps: float, d: int) -> np.ndarray:
    """eps I of size d, read-only: made once for each eps_reg and d, not at every node."""
    out = eps * np.eye(d)
    out.flags.writeable = False
    return out


def _kinetic(g: np.ndarray, p: np.ndarray):
    """p^T G^-1 p / 2 for metrics G (..., d, d) and momenta p (..., d)."""
    return 0.5 * np.add.reduce(p * solve1(g, p), axis=-1)


@dataclass
class MetricField:
    """Pullback metric G = J^T J + eps_reg I induced by a decoder.

    Every call derives the geometry afresh; nothing is memoised.
    """

    decoder: Decoder
    eps_reg: float = 1e-8

    def __post_init__(self):
        if not 0 <= real(self.eps_reg) < math.inf:
            raise ValueError(f"eps_reg must be >= 0, got {self.eps_reg!r}")

    def _product(self, y: np.ndarray, jac: np.ndarray | None) -> np.ndarray:
        """G = J^T J + eps_reg I at y, an array (..., d), from J there if given; unchecked."""
        # J^T J comes out exactly symmetric (syrk, or the same products summed in
        # the same order), so no averaging pass
        if jac is None:
            jac = self.decoder._forward(y)[1]
        return jac.swapaxes(-1, -2) @ jac + _scaled_eye(float(self.eps_reg), jac.shape[-1])

    def _metric(self, y: np.ndarray, jac: np.ndarray | None = None) -> np.ndarray:
        """G at y, an array (..., d), from J there if given; ValueError unless every G is finite.

        ``control.running_cost`` reads it, and ``_geometry`` on its failure
        path.  It sets no errstate: its callers run it with overflow and
        invalid ignored.
        """
        g = self._product(y, jac)
        if not np.isfinite(g).all():
            raise ValueError(f"metric at y={y!r} contains infs or NaNs")
        return g

    def _geometry(self, y: np.ndarray, jac: np.ndarray | None = None) -> np.ndarray:
        """G at y, an array (..., d), from J there if given; raises unless every G there is finite and SPD.

        A finite Cholesky factor is the one check of a G that passes: a G
        with an inf or NaN in it has none, and ``cholesky_lo`` NaN-fills the
        factor of a G that is not SPD and raises numpy's invalid flag, which
        callers must ignore.  Only a factor that fails decides the cause:
        ``_metric`` rejects a G that is not finite, and the eigenvalues of
        any other name the worst point.
        """
        g = self._product(y, jac)
        if not np.logical_and.reduce(np.isfinite(cholesky_lo(g)), axis=None):
            g = self._metric(y, jac)
            lowest = np.linalg.eigvalsh(g).min(axis=-1)
            worst = np.unravel_index(np.argmin(lowest), lowest.shape)
            raise SingularMetricError(f"metric at y={y!r} is not positive definite", y[worst], float(lowest[worst]))
        return g

    def solve(self, y: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """G(y)^-1 rhs; ValueError, and no warning, unless it is finite."""
        with np.errstate(over="ignore", invalid="ignore"):
            g, rhs = self._geometry(floats(y)), floats(rhs)
            # a 0-d rhs solves as width 1, as np.linalg.solve read rhs[..., None]
            out = solve1(g, rhs) if rhs.ndim else solve1(g, rhs[None])[..., 0]
        if not np.logical_and.reduce(np.isfinite(out), axis=None):
            raise ValueError(f"metric solve at y={y!r} is not finite")
        return out


def pullback_metric(metric_field: MetricField, y: np.ndarray) -> np.ndarray:
    """G(y), shape (..., d, d) for points (..., d); raises SingularMetricError when not positive definite."""
    with np.errstate(over="ignore", invalid="ignore"):
        return metric_field._geometry(floats(y))


@dataclass
class PhasePoint:
    """A latent position/momentum pair, or a stack of them: y and p of one shape (..., d).

    ``_jet`` is set only on a point that ``control.ndm_layer`` returns, and
    only ``ndm_layer`` reads it: (decoder, its layers, task cost, y, y's
    bytes, f, J, grad V), the end node's f, J and potential gradient with
    the tags they were taken under.  ``_run`` is set only by ``integrate``
    on a one-point start it runs by the chord step without a potential,
    and only ``empirical_deviations`` reads it: the run's tags and a weak
    reference to its trajectory, whose rows it does not copy
    (``_run_record``).
    """

    y: np.ndarray
    p: np.ndarray
    _jet: tuple | None = field(default=None, init=False, repr=False, compare=False)
    _run: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        y, p = (np.atleast_1d(floats(v)) for v in (self.y, self.p))
        if y.shape != p.shape:
            raise ValueError(f"y and p must have equal length and shape, got {y.shape} and {p.shape}")
        self.y = y
        self.p = p

    def __getstate__(self) -> dict:
        """y and p only: a copy or an unpickled point has no ``_jet``, whose task cost need not pickle, or ``_run``."""
        return {"y": self.y, "p": self.p}


@dataclass
class PhaseTrajectory:
    """Recorded leapfrog states: node rows ys, ps of shape (n+1, ..., d) and their energies (n+1, ...).

    ``points`` lists the nodes as PhasePoint views of those rows; it is
    built on first use, and ``final()`` is its last entry.
    """

    step: float
    ys: np.ndarray
    ps: np.ndarray
    energies: np.ndarray

    @cached_property
    def points(self) -> list[PhasePoint]:
        return [PhasePoint(y, p) for y, p in zip(self.ys, self.ps)]

    def __len__(self) -> int:
        return len(self.ys)

    def final(self) -> PhasePoint:
        return self.points[-1]


class GeodesicHamiltonian:
    """Kinetic Hamiltonian H(y, p) = p^T G(y)^{-1} p / 2 of a metric field; integrated by the chord step.

    ``_force``, the gradient of a potential, is None here;
    ``control.ReducedHamiltonian`` sets it.
    """

    _force = None

    def __init__(self, metric_field: MetricField):
        self.metric_field = metric_field

    def __call__(self, y: np.ndarray, p: np.ndarray):
        """H at (y, p); ValueError if it is NaN (an infinite momentum gives one)."""
        y, p = floats(y), np.atleast_1d(floats(p))  # a 0-d p has width 1, as np.linalg.solve read p[..., None]
        with np.errstate(over="ignore", invalid="ignore"):
            energy = _kinetic(self.metric_field._geometry(y), p)
        if np.logical_or.reduce(np.isnan(energy), axis=None):
            raise ValueError(f"energy at y={y.tolist()}, p={p.tolist()} is nan")
        return energy


def _stencil(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Points x +/- step e_i (rows i and n + i) of x (..., n), shape (..., 2n, n), and step (..., 1, 1).

    step = GRAD_STEP (1 + |x|), |x| on the dot kernel ``np.linalg.norm`` runs for a 1-d x.
    """
    step = GRAD_STEP * (1.0 + np.sqrt(np.vecdot(x, x))[..., None, None])
    shifts = step * np.eye(x.shape[-1])
    return np.concatenate([x[..., None, :] + shifts, x[..., None, :] - shifts], axis=-2), step


def _central(values: np.ndarray, step: np.ndarray) -> np.ndarray:
    """The derivative (..., m, n) from values (..., 2n, m) of a function at ``_stencil``'s points."""
    n = values.shape[-2] // 2
    return ((values[..., :n, :] - values[..., n:, :]) / (2.0 * step)).swapaxes(-1, -2)


_CHORD_TOL = 1e-12
_CHORD_UPDATES = 30
_SINGULAR = "singular Newton matrix J0^T J1 + eps_reg I"


def _round_off(jac: np.ndarray, matrix: np.ndarray, q: np.ndarray, out_q: np.ndarray) -> np.ndarray:
    """The chord residual's rounding floor at q, per row: 4 eps (|J0^T J1 + eps_reg I| |q| + |J0| |f(q)|), max-norms.

    The first term is the rounding of the decoder's first products at q,
    carried by the step's matrix; the second that of f(q), carried by J0^T.
    No update lowers a residual below it.  A step shorter than about
    1e-4 |J| |f| stops there above ``_CHORD_TOL``, and so can a step far
    out in a saturated, ill-conditioned chart.
    """
    return 4.0 * np.finfo(float).eps * (
        np.abs(matrix).max(axis=(-2, -1)) * np.abs(q).max(axis=-1)
        + np.abs(jac).max(axis=(-2, -1)) * np.abs(out_q).max(axis=-1)
    )


def _predict(y: np.ndarray, before: list) -> np.ndarray:
    """Newton's start for a step after the first: the polynomial through y and the 1 to 4 nodes ``before`` it."""
    if len(before) == 1:
        return 2.0 * y - before[-1]
    if len(before) == 2:
        return 3.0 * (y - before[-1]) + before[-2]
    if len(before) == 3:
        return 4.0 * (y + before[-2]) - 6.0 * before[-1] - before[-3]
    return 5.0 * (y - before[-3]) + 10.0 * (before[-2] - before[-1]) + before[-4]


def _chord(hamiltonian, y, p, h, n_steps, failure, jet=None):
    """Nodes (y, p, J, f, Newton matrix, grad V) of the chord step, unchecked (module docstring).

    The matrix is that of the step's last update, None at node 0, and grad V
    is None without a potential.  ``jet``, if given, is (f, J, grad V) at
    y, taken for node 0 in place of a decoder pass and a potential gradient.
    A potential's gradient is taken at a finite y only, so with a potential
    a node whose y is not finite ends the run, and the node check names it.
    """
    field, force, grad, matrix = hamiltonian.metric_field, hamiltonian._force, None, None
    forward, eps = field.decoder._forward, field.eps_reg
    reg = _scaled_eye(float(eps), y.shape[-1])
    out, jac = forward(y) if jet is None else jet[:2]
    before = []  # the (up to) four nodes before y, oldest first
    # whether any row is still above its bound: a single point's test is a numpy scalar, which bool
    # reads ~30x faster than .any() does; a stack's goes to the ufunc reduction .any() calls
    stacked = y.ndim > 1
    pending = partial(np.logical_or.reduce, axis=None) if stacked else bool
    for k in range(n_steps + 1):
        if k:
            q = y + h * solve1(field._product(y, jac), p) if k == 1 else _predict(y, before)
            rhs = h * p if grad is None else h * p + 0.5 * h * h * grad
            bound = _CHORD_TOL * np.maximum.reduce(np.abs(rhs), axis=-1)
            jac_t = jac.swapaxes(-1, -2)
            above = np.True_  # every row takes one update: a start within the bound is still no Newton iterate
            for update in range(_CHORD_UPDATES + 1):
                # the pass at each iterate gives its residual, and the last one ends the step
                out_q, jac_q = forward(q)
                chord, move = out_q - out, eps * (q - y)
                residual = np.vecmat(chord, jac) + move - rhs
                if update:
                    size = np.maximum.reduce(np.abs(residual), axis=-1)
                    above = size > bound  # a NaN row is not above: the node check names it
                    if not pending(above):
                        break
                    if update >= 2:  # a row that two updates left above the bound may be at round-off
                        above &= size > _round_off(jac, jac_t @ jac_q + reg, q, out_q)
                        if not pending(above):
                            break
                if update == _CHORD_UPDATES:
                    with np.errstate(divide="ignore"):
                        worst = float(np.max(size[above] / bound[above])) * _CHORD_TOL
                    raise failure(k, f"relative Newton residual {worst:.1e} after {update} updates")
                matrix = jac_t @ jac_q + reg
                delta = solve1(matrix, residual)
                # a row that met the bound keeps its iterate, as in its single run
                q = np.where(above[..., None], q - delta, q) if stacked else q - delta
            p = (np.vecmat(chord, jac_q) + move) / h
            before = [*before[-3:], y]
            y, out, jac = q, out_q, jac_q
        if force is not None:
            if not np.logical_and.reduce(np.isfinite(y), axis=None):
                yield y, p, jac, out, matrix, None
                return
            grad = force(y) if k or jet is None else jet[2]
            if k:
                p = p + 0.5 * h * grad
        yield y, p, jac, out, matrix, grad


def _node_error(hamiltonian, k: int, node: tuple, start: tuple, h: float, failure) -> ValueError:
    """The error of chord node k, (y, p, J, f, Newton matrix, grad V), that failed the node check: its check alone.

    A G that fails at a finite y raises ``_geometry``'s error.  A y that
    drifted to inf or NaN fails as step k: a single point names a singular
    Newton matrix from the step's last matrix, and a stack reruns each lost
    row alone from ``start``, bit-equal to its row, whose own run names it
    (the rows that update on rebuild a lost row's matrix from its NaN).
    Any other node is a non-finite state or energy.
    """
    y, _, jac, _, matrix, _ = node
    try:
        hamiltonian.metric_field._geometry(y, jac)
    except ValueError:
        lost = ~np.isfinite(y).all(axis=-1)
        if not lost.any():
            raise
        if k and y.ndim == 1:  # solve1 NaN-fills the solve of a finite, singular matrix
            if np.isfinite(matrix).all() and np.isnan(solve1(matrix, np.zeros(y.shape))).any():
                return failure(k, _SINGULAR)
        elif k:
            for row in zip(*np.nonzero(lost)):
                try:
                    _leapfrog(hamiltonian, start[0][row], start[1][row], h, k, energies=False)
                except IntegrationError as error:
                    if str(error).startswith(_SINGULAR):
                        return failure(k, _SINGULAR)
    return failure(k)


_CHECK_BLOCK = 64  # chord nodes checked as one stack; a 32-step run is one block


def _run_length(h: float, n_steps: int) -> tuple[float, int]:
    """h and n_steps as a float and an int; ValueError unless n_steps is a count >= 1 and h finite and non-zero."""
    if not is_count(n_steps, 1):
        raise ValueError(f"n_steps must be an integer >= 1, got {n_steps!r}")
    if not (real(h) != 0.0 and math.isfinite(real(h))):
        raise ValueError(f"step size must be finite and non-zero, got {h!r}")
    return real(h), int(n_steps)


def _leapfrog(hamiltonian, y: np.ndarray, p: np.ndarray, h: float, n_steps: int, energies: bool = True, jet=None):
    """n_steps updates from (y, p) of shape (..., d): the chord step for a Hamiltonian with a metric field.

    Returns the node rows of y and p, shape (n+1, ..., d), and of H,
    shape (n+1, ...), or None for H when ``energies`` is false, all views
    of one buffer, and the chord step's (f, J, grad V) at its last node, or
    None for the staged step.  ``jet`` is the chord step's (f, J, grad V) at
    y, if known (``_chord``).  The staged step's rows are checked finite a node
    at a time.  The chord step's nodes are checked as one stack per block
    of ``_CHECK_BLOCK`` nodes and at the end of the run: one G, one Cholesky
    factorisation, one finiteness test of the factors and rows, and one
    energy solve.  The first node that fails, in node order, raises the
    error the check of that node alone raises (``_node_error``), at most
    ``_CHECK_BLOCK`` - 1 steps after it was made.  An error raised while
    stepping, a Newton solve's or a task cost's, first has the held nodes
    checked, so an earlier bad node still wins.
    """
    h, n_steps = _run_length(h, n_steps)
    d = y.shape[-1]
    try:
        nodes = np.empty((n_steps + 1, *y.shape[:-1], 2 * d + energies))
    except (ValueError, MemoryError):  # numpy refuses the buffer's size
        raise ValueError(f"n_steps {n_steps} needs a node buffer too large to allocate") from None
    start, held, checked = (y, p), [], 0  # the chord nodes from ``checked`` on, not yet checked

    def check() -> None:
        """Check the held chord nodes as one stack; raise the first failing node's error."""
        nonlocal checked
        if not held:
            return
        n = len(held)
        # np.array stacks a short list of small arrays several times faster than np.stack
        ys, ps, jacs, outs, _, _ = zip(*held)
        block = nodes[checked : checked + n]
        block[..., :d], block[..., d : 2 * d] = np.array(ys), np.array(ps)
        g = hamiltonian.metric_field._product(block[..., :d], np.array(jacs))
        if energies:
            block[..., -1] = _kinetic(g, block[..., d : 2 * d])
            if hamiltonian._force is not None:  # the potential is taken at a finite y only
                scored = np.logical_and.reduce(np.isfinite(block[..., :d]).reshape(n, -1), axis=1)
                block[scored, ..., -1] -= hamiltonian._potential(np.array(outs)[scored])
        finite = np.isfinite(np.concatenate([cholesky_lo(g).reshape(n, -1), block.reshape(n, -1)], axis=1))
        k, checked = checked, checked + n
        if np.logical_and.reduce(finite, axis=None):
            held.clear()
            return
        first = int(np.argmin(np.logical_and.reduce(finite, axis=1)))  # the first node that failed
        node = held[first]
        held.clear()  # failure, which the error's helper calls, has nothing left to check
        raise _node_error(hamiltonian, k + first, node, start, h, failure)

    def failure(k: int, cause: str = "non-finite state or energy") -> IntegrationError:
        check()  # the held nodes are those before step k, and the first of them to fail wins
        message = f"{cause} at step {k}"
        if k == 0:
            return IntegrationError(message, 0)
        last = nodes[k - 1].copy()
        drift = float(np.max(np.abs(nodes[:k, ..., -1] - nodes[0, ..., -1]))) if energies else None
        return IntegrationError(message, k, last[..., :d], last[..., d : 2 * d], drift)

    # check and failure refer to each other; emptying both names at the end breaks that cycle, so the
    # run's buffer and inputs go with their last reference and leave the cyclic collector nothing
    try:
        # overflow needs no warning: the node checks turn it into IntegrationError
        with np.errstate(over="ignore", invalid="ignore"):
            if getattr(hamiltonian, "metric_field", None) is None:
                for k, (y, p, energy) in enumerate(staged(hamiltonian, y, p, h, n_steps, energies, failure)):
                    row = nodes[k]
                    row[..., :d], row[..., d : 2 * d] = y, p
                    if energies:
                        row[..., -1] = energy
                    if not np.logical_and.reduce(np.isfinite(row), axis=None):
                        raise failure(k)
                end = None
            else:
                try:
                    for node in _chord(hamiltonian, y, p, h, n_steps, failure, jet):
                        held.append(node)
                        if len(held) == _CHECK_BLOCK:
                            check()
                except Exception:  # a task cost's, say, at a step after a node that fails its check
                    check()
                    raise
                check()
                end = node[3], node[2], node[5]
    finally:
        del check, failure
    return nodes[..., :d], nodes[..., d : 2 * d], nodes[..., -1] if energies else None, end


def integrate(hamiltonian, pt0: PhasePoint, h: float, n_steps: int) -> PhaseTrajectory:
    """n_steps steps of size h, recording all n+1 nodes and their energies.

    A stacked ``pt0`` (..., d) integrates every row at once.  h must be
    finite and non-zero; a non-finite state, or a chord step whose Newton
    residual does not meet its bound within 30 updates, raises
    IntegrationError (module docstring).  A run of one point (d,) by the
    chord step without a potential is recorded on ``pt0`` (``_run_record``),
    so that ``empirical_deviations`` from that point with the same h and
    n_steps need not run it again; the record holds the trajectory weakly.
    """
    h, n_steps = _run_length(h, n_steps)
    ys, ps, energies, _ = _leapfrog(hamiltonian, pt0.y, pt0.p, h, n_steps)
    traj = PhaseTrajectory(step=h, ys=ys, ps=ps, energies=energies)
    if pt0.y.ndim == 1 and getattr(hamiltonian, "metric_field", None) is not None and hamiltonian._force is None:
        pt0._run = _run_record(hamiltonian.metric_field, pt0, h, n_steps, traj)
    return traj


def leapfrog_step(hamiltonian, pt: PhasePoint, h: float) -> PhasePoint:
    """One step of size h (h may be negative): the one-step ``integrate``, without energies."""
    ys, ps, _, _ = _leapfrog(hamiltonian, pt.y, pt.p, h, 1, energies=False)
    return PhasePoint(ys[1], ps[1])


# ---------------------------------------------------------------------------
# boundary values


def _latent_point(metric_field: MetricField, name: str, value) -> np.ndarray:
    """value as a finite float array of shape (latent_dim,); ValueError naming it otherwise."""
    point = np.atleast_1d(floats(value))
    d = metric_field.decoder.latent_dim
    if point.shape != (d,):
        raise ValueError(f"{name} must have shape ({d},), got {point.shape}")
    if not np.isfinite(point).all():
        raise ValueError(f"{name} must be finite, got {point.tolist()}")
    return point


_SHOOTING_ITERATIONS = 50


def solve_shooting(
    metric_field: MetricField,
    y_a: np.ndarray,
    y_b: np.ndarray,
    n_steps: int = 32,
    tol: float = 1e-8,
) -> np.ndarray:
    """Momentum at y_a of the discrete geodesic to y_b: damped Gauss-Newton on its action.

    The n_steps - 1 interior nodes start on the straight line.  Each
    iteration takes one stacked pass over all nodes and solves the
    block-tridiagonal system of the module docstring; a step that does not
    lower the gradient's norm is halved and tried again.  The solve stops
    once a Gauss-Newton step would move no node by more than ``tol``, takes
    that step, and returns the first chord's momentum
    [J_0^T (f_1 - f_0) + eps_reg (q_1 - q_0)] / h.  After 50 iterations
    (``_SHOOTING_ITERATIONS``) it raises ShootingError, which carries the
    gradient norms; so does a singular Hessian, with the norms of the
    nodes accepted so far (the straight line's, if it is singular there).
    ``tol`` must be a number >= 0.  An ``n_steps``
    whose dense ((n_steps - 1) d)^2 Hessian numpy refuses raises
    ValueError before the first decoder pass.
    """
    if not real(tol) >= 0:
        raise ValueError(f"tol must be a number >= 0, got {tol!r}")
    tol = real(tol)
    y_a = _latent_point(metric_field, "y_a", y_a)
    y_b = _latent_point(metric_field, "y_b", y_b)
    if not is_count(n_steps, 1):
        raise ValueError(f"n_steps must be an integer >= 1, got {n_steps!r}")
    if real(n_steps) == math.inf:
        raise ValueError(f"n_steps must be a count within the float range, got {n_steps!r}")
    n_steps, h = int(n_steps), 1.0 / n_steps
    forward, eps = metric_field.decoder._forward, metric_field.eps_reg
    d, inner = y_a.shape[0], n_steps - 1
    reg = eps * np.eye(d)
    try:  # each iteration rewrites the blocks on and beside the diagonal; the rest stays 0
        hess = np.zeros((inner, d, inner, d))
    except (ValueError, MemoryError):  # numpy refuses the Hessian's size
        raise ValueError(f"n_steps {n_steps} needs a dense Hessian too large to allocate") from None
    rows = np.arange(inner)
    history = []  # the gradient norm after each iteration, from the straight line's on

    def local(nodes: np.ndarray):
        """f and J at the nodes, the action's gradient at the interior ones, and the Gauss-Newton step."""
        out, jac = forward(nodes)
        jac_t = jac.swapaxes(-1, -2)
        chords, moves = np.diff(out, axis=0), np.diff(nodes, axis=0)
        grad = (np.vecmat(chords[:-1] - chords[1:], jac[1:-1]) + eps * (moves[:-1] - moves[1:])) / h
        hess[rows, :, rows, :] = 2.0 * (jac_t[1:-1] @ jac[1:-1] + reg) / h
        off = -(jac_t[1:-2] @ jac[2:-1] + reg) / h
        hess[rows[:-1], :, rows[1:], :] = off
        hess[rows[1:], :, rows[:-1], :] = off.swapaxes(-1, -2)
        norm = float(np.linalg.norm(grad))
        try:
            step = np.linalg.solve(hess.reshape(inner * d, inner * d), -grad.ravel()).reshape(inner, d)
        except np.linalg.LinAlgError:  # numpy's error carries no state; the straight line's norm starts the history
            message = f"singular Gauss-Newton Hessian at gradient norm {norm:.3e}"
            raise ShootingError(message, history or [norm]) from None
        return out, jac, norm, step

    # an action past the float range needs no warning: its gradient fails the finiteness check
    with np.errstate(over="ignore", invalid="ignore"):
        t = np.arange(n_steps + 1)[:, None] / n_steps
        nodes = (1.0 - t) * y_a + t * y_b  # each endpoint exact, and no y_b - y_a to overflow
        out, jac, norm, full = local(nodes)
        if not (math.isfinite(norm) and np.isfinite(full).all()):
            raise ShootingError(f"the action's gradient norm on the straight line is not finite: {norm!r}", [norm])
        history.append(norm)
        trial = full
        for _ in range(_SHOOTING_ITERATIONS):
            if np.linalg.norm(full, axis=-1).max(initial=0.0) <= tol:
                break
            candidate = nodes.copy()
            candidate[1:-1] += trial
            found = local(candidate)
            if found[2] < norm:
                nodes, (out, jac, norm, full) = candidate, found
                trial = full
            else:
                trial = 0.5 * trial
            history.append(norm)
        converged = np.linalg.norm(full, axis=-1).max(initial=0.0) <= tol
        if converged:
            nodes[1:-1] += full
        # the first chord's momentum; q_0 = y_a, so only f(q_1) is new
        p = (jac[0].T @ (forward(nodes[1])[0] - out[0]) + eps * (nodes[1] - y_a)) / h
    if not converged:
        raise ShootingError(f"no convergence after {_SHOOTING_ITERATIONS} iterations; final residual {norm:.3e}", history, p)
    if not np.isfinite(p).all():
        raise ShootingError(f"the momentum of the first chord is not finite: {p.tolist()}", history, p)
    return p


# ---------------------------------------------------------------------------
# deviations along a trajectory


def _chord_tangents(field: MetricField, traj: PhaseTrajectory) -> np.ndarray:
    """The exact tangents (n, 2d, 2d) of the chord steps between a trajectory's recorded nodes, no potential.

    Implicit differentiation of the step's equation J0^T c + eps_reg (q1 - q0)
    = h p0, c = f1 - f0, with M = J0^T J1 + eps_reg I (the Newton matrix),
    G_k = J_k^T J_k + eps_reg I and C(q) = sum_i c_i Hess f_i(q):
    dq1/dq0 = M^-1 (G0 - C(q0)), dq1/dp0 = h M^-1, and from
    h p1 = J1^T c + eps_reg (q1 - q0), dp1 = [(C(q1) + G1) dq1 - M^T dq0] / h.
    A singular or non-finite M (a node given by hand may be inf or NaN)
    raises ValueError naming its node, and so does a node k + 1 that is not
    this field's step from node k: its equation's residual must meet the
    step's own bound (``_CHORD_TOL`` of |h p0|, or ``_round_off``) within a
    factor 2, which leaves room for a pass over the stacked nodes that
    rounds otherwise than the step's own.
    """
    decoder, ys, h, d = field.decoder, traj.ys, traj.step, traj.ys.shape[-1]
    out, jac = decoder._forward(ys)
    ends = np.zeros((2, *out.shape))  # c at each step's start node (row 0) and end node (row 1)
    ends[0, :-1] = ends[1, 1:] = chord = out[1:] - out[:-1]
    curv = decoder._curvature(ys, ends)
    g = field._product(ys, jac)
    matrix = jac[:-1].swapaxes(-1, -2) @ jac[1:] + _scaled_eye(float(field.eps_reg), d)
    # one solve for both halves: [dq1/dq0, dq1/dp0] = M^-1 [G0 - C(q0), h I]
    dq = solve(matrix, np.concatenate([g[:-1] - curv[0, :-1], np.broadcast_to(h * np.eye(d), matrix.shape)], axis=-1))
    lost = ~np.logical_and.reduce(np.isfinite(dq[..., d:]), axis=(-2, -1))
    if lost.any():
        k = int(np.argmax(lost))
        cause = _SINGULAR if np.isfinite(matrix[k]).all() else "non-finite Newton matrix J0^T J1 + eps_reg I"
        raise ValueError(f"{cause} at node {k}")
    rhs = h * traj.ps[:-1]
    residual = np.vecmat(chord, jac[:-1]) + field.eps_reg * (ys[1:] - ys[:-1]) - rhs
    size = np.maximum.reduce(np.abs(residual), axis=-1)
    bound = 2.0 * np.maximum(
        _CHORD_TOL * np.maximum.reduce(np.abs(rhs), axis=-1), _round_off(jac[:-1], matrix, ys[1:], out[1:])
    )
    foreign = ~(size <= bound)  # a NaN momentum fails too
    if foreign.any():
        k = int(np.argmax(foreign))
        raise ValueError(
            f"node {k + 1} is not this field's chord step from node {k}: "
            f"step residual {size[k]:.1e} above its bound {bound[k]:.1e}"
        )
    dp = (curv[1, 1:] + g[1:]) @ dq
    dp[..., :d] -= matrix.swapaxes(-1, -2)
    return np.concatenate([dq, dp / h], axis=-2)


def _stencil_tangents(hamiltonian, traj: PhaseTrajectory) -> np.ndarray:
    """The central-difference tangents (n, 2d, 2d) of one step from each node but the last: 4d stencil points each."""
    d = traj.ys.shape[-1]
    zs, step = _stencil(np.concatenate([traj.ys[:-1], traj.ps[:-1]], axis=-1))
    if not np.isfinite(step).all():
        node = int(np.argmin(np.isfinite(step).ravel()))
        raise ValueError(f"stencil step at node {node} overflows: |(y, p)| is past the float range's square root")
    ys, ps, _, _ = _leapfrog(hamiltonian, zs[..., :d], zs[..., d:], traj.step, 1, energies=False)
    return _central(np.concatenate([ys[1], ps[1]], axis=-1), step)


def jacobi_propagate(hamiltonian, traj: PhaseTrajectory, delta0: np.ndarray) -> np.ndarray:
    """Propagate a phase-space deviation along a recorded one-point trajectory by each step's tangent.

    It linearises the discrete flow, not the continuous one: T_k is the
    derivative of the step of size ``traj.step`` from node k with respect
    to (y_k, p_k).  For the chord step without a potential
    (``GeodesicHamiltonian``) T_k is exact, from the recorded nodes k and
    k + 1 (``_chord_tangents``): one decoder pass and one curvature
    contraction over all nodes, one stacked solve, and no step re-run; a
    node k + 1 that is not this field's step from (y_k, p_k) raises
    ValueError naming it.  Any other Hamiltonian (the staged step,
    ``control.ReducedHamiltonian``) takes the central difference of that
    step over the 4d stencil points of (y_k, p_k), the points of all n
    nodes stepped as one stack.  Returns the (n+1, 2d) deviations
    delta_{k+1} = T_k delta_k, starting at delta0.
    """
    delta = floats(delta0)
    d = traj.ys.shape[-1]
    if traj.ys.ndim != 2 or traj.ps.shape != traj.ys.shape:
        raise ValueError(
            f"trajectory must hold one point's (n+1, d) nodes, got ys {traj.ys.shape} and ps {traj.ps.shape}"
        )
    if delta.shape != (2 * d,):
        raise ValueError(f"deviation must have length {2 * d}, got {delta.shape}")
    # a stencil, tangent or deviation past the float range needs no warning: the
    # engine's finiteness checks or the one below turn it into ValueError
    with np.errstate(over="ignore", invalid="ignore"):
        # the exact tangent is written for the chord step without a potential; every other step takes the stencil
        if getattr(hamiltonian, "metric_field", None) is None or hamiltonian._force is not None:
            tangents = _stencil_tangents(hamiltonian, traj)
        else:
            tangents = _chord_tangents(hamiltonian.metric_field, traj)
        out = np.empty((len(traj), 2 * d))
        out[0] = delta
        for k, tangent in enumerate(tangents, start=1):
            delta = tangent @ delta
            out[k] = delta
    if not np.isfinite(out).all():
        raise ValueError("propagated deviations are not finite")
    return out


_DEVIATION_SHIFT = 1e-5


def _digest(*arrays: np.ndarray) -> int:
    """A digest of the arrays' dtypes, shapes and bytes, which a write in place changes."""
    return hash(tuple((a.dtype, a.shape, a.tobytes()) for a in arrays))


def _run_record(field: MetricField, pt0: PhasePoint, h: float, n_steps: int, traj: PhaseTrajectory) -> tuple:
    """The tags of ``integrate``'s run from pt0 and a weak reference to its trajectory, as ``PhasePoint._run``.

    (field, decoder, its layers, eps_reg, h, n_steps, y, p, trajectory, ids
    of its ys and ps, digest of y, p, ys and ps).  The ids are tags of
    arrays the trajectory holds while it lives, and the digest covers
    their bytes, so no row is copied and no run is kept alive.
    """
    decoder, y, p, ys, ps = field.decoder, pt0.y, pt0.p, traj.ys, traj.ps
    tags = field, decoder, decoder.layers, field.eps_reg, h, n_steps, y, p
    return *tags, weakref.ref(traj), (id(ys), id(ps)), _digest(y, p, ys, ps)


def _recorded_rows(hamiltonian, pt0: PhasePoint, h: float, n_steps: int) -> tuple | None:
    """The node rows (ys, ps) of the run ``integrate`` recorded on pt0 if it is this call's run, else None.

    It is while every tag holds: the same field, decoder and layers, an
    equal float eps_reg, no potential, the same h and n_steps, pt0's y and
    p the recorded arrays with their bytes, and the trajectory alive with
    its recorded ys and ps, whose bytes match the digest.
    """
    run = pt0._run
    if run is None:
        return None
    field, decoder, layers, eps, run_h, run_n, y, p, ref, ids, digest = run
    traj = ref()
    tagged = (
        traj is not None and getattr(hamiltonian, "metric_field", None) is field and hamiltonian._force is None
        and field.decoder is decoder and decoder.layers is layers
        and isinstance(field.eps_reg, float) and field.eps_reg == eps
        and h == run_h and n_steps == run_n and pt0.y is y and pt0.p is p
        and (id(traj.ys), id(traj.ps)) == ids and _digest(y, p, traj.ys, traj.ps) == digest
    )
    return (traj.ys, traj.ps) if tagged else None


def empirical_deviations(hamiltonian, pt0: PhasePoint, delta0: np.ndarray, h: float, n_steps: int) -> np.ndarray:
    """Deviation oracle: difference the runs from one point pt0 and from pt0 + 1e-5 delta0.

    The two runs go as one stack of two rows, unless pt0 carries the run
    that ``integrate`` made from it with this field, h and n_steps, by the
    chord step without a potential, and every tag of that record still
    holds (``_recorded_rows``).  Then only the shifted point runs, as one
    row, and is differenced against the recorded rows, which are the
    stack's row 0 bit for bit.  A shifted run that raises is run again as
    the stack, so the error is the stack's, with its rows' state.
    """
    delta0 = floats(delta0)
    d = pt0.y.shape[-1]
    if pt0.y.shape != (d,):
        raise ValueError(f"pt0 must be one phase point of shape ({d},), got shape {pt0.y.shape}")
    if delta0.shape != (2 * d,):
        raise ValueError(f"delta0 must have shape ({2 * d},), got {delta0.shape}")
    h, n_steps = _run_length(h, n_steps)
    base = _recorded_rows(hamiltonian, pt0, h, n_steps)
    # a shifted point or deviation past the float range needs no warning: the
    # engine's finiteness check or the one below turns it into ValueError
    with np.errstate(over="ignore", invalid="ignore"):
        y, p = pt0.y + _DEVIATION_SHIFT * delta0[:d], pt0.p + _DEVIATION_SHIFT * delta0[d:]
        moves = None
        if base is not None:
            try:
                ys, ps, _, _ = _leapfrog(hamiltonian, y, p, h, n_steps, energies=False)
                moves = ys - base[0], ps - base[1]
            except ValueError:  # the stack below raises it with the state of both rows
                pass
        if moves is None:
            y, p = np.stack([pt0.y, y]), np.stack([pt0.p, p])
            ys, ps, _, _ = _leapfrog(hamiltonian, y, p, h, n_steps, energies=False)
            moves = ys[:, 1] - ys[:, 0], ps[:, 1] - ps[:, 0]
        out = np.concatenate(moves, axis=1) / _DEVIATION_SHIFT
    if not np.isfinite(out).all():
        raise ValueError("empirical deviations are not finite")
    return out
