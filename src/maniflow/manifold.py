"""Decoder-induced geometry and Hamiltonian geodesic flows.

A decoder maps latent points y in R^d to ambient points z in R^n
(n >= d).  Its Jacobian J(y) induces the pullback metric

    G(y) = J(y)^T J(y) + eps_reg I,

formed by one matmul, which numpy makes exactly symmetric, checked
finite and validated by Cholesky factorisation.  Geodesics are driven
by the kinetic Hamiltonian H(y, p) = p^T G(y)^{-1} p / 2 through a
staged leapfrog; curvature information enters only through derivatives
of H, so Christoffel symbols are never materialised.

Derivative conventions used throughout:

* a decoder's only derivative method is ``Decoder.jet``, which returns
  its Jacobian J and second derivatives D2 exactly, from one forward
  pass over its layers (``linear`` is the one-layer case of
  ``mlp-tanh``), and raises ValueError, never a warning, unless both are
  finite; a one-layer decoder's D2 is None, since it vanishes.
  ``MetricField`` runs the same pass unchecked and checks G instead
* dH/dy of the kinetic Hamiltonian is one formula for every decoder,
  dH/dy_k = -(J v) . (d_k J) v with v = G^{-1} p (zero for one-layer ones)
* every finite difference takes its points from ``_stencil`` and its
  quotient from ``_central``: steps 1e-5 (1 + |arg|) (``GRAD_STEP``), for
  first derivatives only (``_fd_gradient``, the shooting sensitivity,
  the leapfrog tangent in ``jacobi_propagate``)

Arrays of shape (..., d) hold one latent point (d,) or a stack of them
(B, d).  ``Decoder.jet``, ``MetricField`` and ``GeodesicHamiltonian``
take either, and one leapfrog loop runs either: ``leapfrog_step`` is the
one-step ``integrate`` without energies (h finite and non-zero,
IntegrationError on a non-finite state).  Shooting shoots each momentum
it tries in one stack with its 2d stencil points, ``jacobi_propagate``
takes one leapfrog step from the 4d stencil points of all n nodes as one
stack, whose central differences are the tangents of the steps, and
``empirical_deviations`` integrates its base and shifted runs as a stack
of two.  A stacked call runs the per-point kernels slice by slice, so
each row is bit-equal to the single-point call.  ``MetricField.at(y)``
derives J, D2, G and G^{-1} once for all of y; the stepper carries the
geometry of each step's end point into the next kick, so G is factorised
once per point per step and nothing is memoised.

A Hamiltonian passed to ``integrate``, ``leapfrog_step``,
``jacobi_propagate`` or ``empirical_deviations`` provides ``__call__(y, p)``
(a float for a single point) and the partials ``dy(y, p)`` and
``dp(y, p)``; the engine never differentiates H itself.  1-d arrays
suffice for ``integrate`` of a single point and for ``leapfrog_step``.
``jacobi_propagate`` passes (n, 4d, d) stacks and ``empirical_deviations``
(2, d) stacks to ``dy`` and ``dp``, and ``integrate`` of a stacked
``PhasePoint`` passes stacks to all three.  A Hamiltonian may also offer
``at(y)``, an object with ``dy(p)``, ``dp(p)`` and ``__call__(p)`` at
fixed y, which the stepper then uses to derive what it needs once per
point.

A ``PhaseTrajectory`` holds the node rows ``ys`` and ``ps``, shape
(n+1, d) for a single point, and ``energies``, shape (n+1,).  Its
``points`` list of ``PhasePoint`` views is built on first use.

A decoder is its (w, b) layers, each checked by one rule in ``Decoder``
and ``load_decoder``: a matrix taking the previous layer's output width,
a matching bias, both finite (an int past the float range is not).  Its
text format (blank lines and ``#`` comments allowed; one layer is saved
as ``decoder linear``)::

    decoder linear|mlp-tanh
    layer <out> <in>
    <out> rows of <in> weights
    <one row of out biases>
    ... further layer blocks for mlp-tanh ...
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Sequence

import numpy as np

from . import _text

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
    "shoot_geodesic",
    "solve_shooting",
    "jacobi_propagate",
    "empirical_deviations",
    "loss_geo",
    "loss_jac",
    "save_decoder",
    "load_decoder",
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
    """Leapfrog integration produced a non-finite state.

    ``step`` is the step that failed, ``y`` and ``p`` are the last finite
    node (the one before it) and ``drift`` is max |H - H_0| over the nodes
    up to it, or None for a run that records no energies.  Step 0 is a
    start whose state or energy is not finite: y, p and drift are None.
    """

    def __init__(self, message: str, step: int | None = None, y=None, p=None, drift: float | None = None):
        super().__init__(message)
        self.step, self.y, self.p, self.drift = step, y, p, drift


class ShootingError(ValueError):
    """Boundary-value shooting failed to reach the requested tolerance.

    ``residuals[k]`` is the endpoint residual norm after k iterations, and
    ``p`` the momentum the solver stopped at.
    """

    def __init__(self, message: str, residuals=(), p=None):
        super().__init__(message)
        self.residuals, self.p = list(residuals), p


# ---------------------------------------------------------------------------
# decoders


class Decoder:
    """Latent-to-ambient map of (w, b) layers, a tanh between consecutive ones; exact derivatives from ``jet``.

    ``linear`` and ``mlp_tanh`` build it from their own arguments; ``kind``,
    ``latent_dim`` and ``ambient_dim`` follow from ``layers``.
    """

    def __init__(self, layers: Iterable[tuple[np.ndarray, np.ndarray]]):
        self.layers = []
        for w, b in layers:
            self.layers.append(_check_layer(self.layers, w, b))
        if not self.layers:
            raise ValueError("decoder needs at least one layer")
        d, n = self.latent_dim, self.ambient_dim
        if d < 1:
            raise ValueError("latent dimension must be >= 1")
        if n < d:
            raise ValueError(f"ambient dimension {n} must be >= latent dimension {d}")

    @classmethod
    def linear(cls, matrix: np.ndarray, offset: np.ndarray | None = None) -> "Decoder":
        shape = np.shape(matrix)
        if len(shape) != 2:
            raise ValueError("linear decoder needs a 2-d matrix")
        offset = np.zeros(shape[0]) if offset is None else offset
        if np.shape(offset) != shape[:1]:
            raise ValueError(f"offset must have length {shape[0]}")
        return cls([(matrix, offset)])

    @classmethod
    def mlp_tanh(cls, weights: Sequence[np.ndarray], biases: Sequence[np.ndarray]) -> "Decoder":
        if len(weights) != len(biases) or not weights:
            raise ValueError("need matching, non-empty weight and bias lists")
        return cls(zip(weights, biases))

    @property
    def kind(self) -> str:
        """``linear`` for one layer, ``mlp-tanh`` for more."""
        return "linear" if len(self.layers) == 1 else "mlp-tanh"

    @property
    def latent_dim(self) -> int:
        return self.layers[0][0].shape[1]

    @property
    def ambient_dim(self) -> int:
        return self.layers[-1][0].shape[0]

    def __call__(self, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        if y.shape != (self.latent_dim,):
            raise ValueError(f"expected latent point of shape ({self.latent_dim},), got {y.shape}")
        for w, b in self.layers[:-1]:
            y = np.tanh(w @ y + b)
        w, b = self.layers[-1]
        return w @ y + b

    def jet(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """Jacobian J, shape (..., n, d), and second derivatives D2 at y, shape (..., d).

        D2 is an (..., n, d*d) array whose row i holds d^2 z_i / dy_j dy_k
        at column j*d + k, or None for a one-layer decoder, whose second
        derivatives vanish.  Both come from one forward pass over the
        whole stack.  ValueError, and no warning, unless both are finite.
        """
        y = np.asarray(y, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            jac, hess = self._jet(y)
        if not (np.isfinite(jac).all() and (hess is None or np.isfinite(hess).all())):
            raise ValueError(f"jet at y={y!r} is not finite")
        return jac, hess

    def _jet(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """``jet`` of a float array y without its finiteness check."""
        d = self.latent_dim
        jac, hess, x = self.layers[0][0], None, y
        if len(self.layers) == 1:
            return np.broadcast_to(jac, (*y.shape[:-1], *jac.shape)), None
        # the first tanh broadcasts J, the first layer's weights, over the stack
        for (w_in, b_in), (w, _) in zip(self.layers, self.layers[1:]):
            x = np.tanh(_mv(w_in, x) + b_in)
            slope = 1.0 - x * x
            # tanh'' = -2 tanh tanh'
            outer = (jac[..., :, :, None] * jac[..., :, None, :]).reshape(*jac.shape[:-1], d * d)
            curvature = (2.0 * x * slope)[..., None] * outer
            hess = -curvature if hess is None else slope[..., None] * hess - curvature
            jac = w @ (slope[..., None] * jac)
            hess = w @ hess
        return jac, hess


def _check_layer(previous: list, w, b) -> tuple[np.ndarray, np.ndarray]:
    """The layer after ``previous`` as float arrays (w, b); ValueError unless it fits them and is finite."""
    pair = []
    for values in (w, b):
        try:
            pair.append(np.asarray(values, dtype=float))
        except OverflowError:  # an int past the float range is not finite
            pair.append(np.full(np.shape(values), np.inf))
    w, b = pair
    if w.ndim != 2 or b.shape != (w.shape[0],):
        raise ValueError("each layer needs a matrix and a matching bias vector")
    if previous and w.shape[1] != previous[-1][0].shape[0]:
        raise ValueError("layer input width must match previous layer output width")
    for name, values in (("weights", w), ("biases", b)):
        if not np.isfinite(values).all():
            raise ValueError(f"layer {len(previous)} {name} must be finite")
    return w, b


def save_decoder(decoder: Decoder, path) -> None:
    """Write the format of ``load_decoder``."""
    rows = [f"decoder {decoder.kind}"]
    for w, b in decoder.layers:
        rows.append(f"layer {w.shape[0]} {w.shape[1]}")
        rows += [_text.exact_row(row) for row in w]
        rows.append(_text.exact_row(b))
    _text.write(path, rows)


def load_decoder(path) -> Decoder:
    """Parse the format of ``save_decoder``; a bad line raises ``_text.FormatError`` starting ``line N: ``.

    An error inside a layer block names the block's ``layer`` line.
    """
    numbered = list(_text.lines(path))
    if not numbered:
        raise ValueError("decoder file must start with a 'decoder <kind>' line")
    linenos, rows = zip(*numbered)
    layers, i = [], 0
    try:
        if not rows[0].startswith("decoder "):
            raise ValueError("decoder file must start with a 'decoder <kind>' line")
        kind = rows[0].split()[1]
        if kind not in ("linear", "mlp-tanh"):
            raise ValueError(f"unknown decoder kind {kind!r}")
        if len(rows) == 1:
            raise ValueError("decoder has no layers")
        i = 1
        while i < len(rows):
            head = rows[i].split()
            if head[0] != "layer" or len(head) != 3:
                raise ValueError(f"expected 'layer <out> <in>', got {rows[i]!r}")
            out_n, in_n = int(head[1]), int(head[2])
            if out_n < 1 or in_n < 1:
                raise ValueError(f"layer sizes must be >= 1, got {out_n} {in_n}")
            block = rows[i + 1 : i + 1 + out_n + 1]
            if len(block) != out_n + 1:
                raise ValueError("truncated layer block")
            w = np.array([[float(v) for v in r.split()] for r in block[:out_n]])
            b = np.array([float(v) for v in block[out_n].split()])
            if w.shape != (out_n, in_n) or b.shape != (out_n,):
                raise ValueError("layer block does not match its declared shape")
            if kind == "linear" and layers:
                raise ValueError("linear decoder must have exactly one layer")
            layers.append(_check_layer(layers, w, b))
            i += out_n + 2
    except ValueError as exc:
        raise _text.FormatError.at(linenos[i], exc) from None
    return Decoder(layers)


# ---------------------------------------------------------------------------
# metric and Hamiltonians


def _mv(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """a @ x for matrices (..., m, k) and vectors (..., k)."""
    return (a @ x[..., None])[..., 0]


class _Geometry:
    """A metric field at y, one point or a stack (..., d), and the kinetic Hamiltonian there.

    Holds J, D2 (None for a one-layer decoder), G and G^-1; its methods
    take momenta of y's shape.
    """

    __slots__ = ("jacobian", "hessian", "metric", "inverse")

    def __init__(self, jacobian, hessian, metric, inverse):
        self.jacobian, self.hessian, self.metric, self.inverse = jacobian, hessian, metric, inverse

    def dp(self, p: np.ndarray) -> np.ndarray:
        return _mv(self.inverse, p)

    def __call__(self, p: np.ndarray):
        return 0.5 * (p * self.dp(p)).sum(axis=-1)

    def dy(self, p: np.ndarray) -> np.ndarray:
        if self.hessian is None:
            return np.zeros(p.shape)
        v = self.dp(p)
        curvature = (_mv(self.jacobian, v)[..., None, :] @ self.hessian)[..., 0, :]
        return -_mv(curvature.reshape(*v.shape, -1), v)


@dataclass
class MetricField:
    """Pullback metric G = J^T J + eps_reg I induced by a decoder.

    Every call derives the geometry afresh; nothing is memoised.
    """

    decoder: Decoder
    eps_reg: float = 1e-8

    def __post_init__(self):
        try:
            valid = 0 <= float(self.eps_reg) < math.inf
        except OverflowError:  # an int past the float range
            valid = False
        if not valid:
            raise ValueError(f"eps_reg must be >= 0, got {self.eps_reg!r}")

    def _metric(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
        """J, D2 and G at y, an array (..., d); ValueError, and no warning, unless every G is finite."""
        # J^T J comes out exactly symmetric (syrk, or the same products summed in
        # the same order), so no averaging pass: dropping it pays for the errstate
        with np.errstate(over="ignore", invalid="ignore"):
            jac, hess = self.decoder._jet(y)
            g = jac.swapaxes(-1, -2) @ jac + self.eps_reg * np.eye(self.decoder.latent_dim)
        if not np.isfinite(g).all():
            raise ValueError(f"metric at y={y!r} contains infs or NaNs")
        return jac, hess, g

    def at(self, y: np.ndarray) -> _Geometry:
        """The geometry at y, shape (..., d); raises unless every G there is finite and SPD."""
        y = np.asarray(y, dtype=float)
        jac, hess, g = self._metric(y)
        try:
            np.linalg.cholesky(g)
        except np.linalg.LinAlgError:
            lowest = np.linalg.eigvalsh(g).min(axis=-1)
            worst = np.unravel_index(np.argmin(lowest), lowest.shape)
            raise SingularMetricError(
                f"metric at y={y!r} is not positive definite", y[worst], float(lowest[worst])
            ) from None
        return _Geometry(jac, hess, g, np.linalg.inv(g))

    def metric(self, y: np.ndarray) -> np.ndarray:
        """G at y, shape (..., d, d), whether or not it is positive definite; ValueError unless finite."""
        return self._metric(np.asarray(y, dtype=float))[2]

    def solve(self, y: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        return self.at(y).dp(np.asarray(rhs, dtype=float))


def pullback_metric(metric_field: MetricField, y: np.ndarray) -> np.ndarray:
    """G(y); raises SingularMetricError when not positive definite."""
    return metric_field.at(y).metric


@dataclass
class PhasePoint:
    """A latent position/momentum pair, or a stack of them: y and p of one shape (..., d)."""

    y: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        y = np.atleast_1d(np.asarray(self.y, dtype=float))
        p = np.atleast_1d(np.asarray(self.p, dtype=float))
        if y.shape != p.shape:
            raise ValueError(f"y and p must have equal length and shape, got {y.shape} and {p.shape}")
        self.y = y
        self.p = p

    @property
    def dim(self) -> int:
        return self.y.shape[-1]


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

    def __iter__(self):
        return iter(self.points)

    def final(self) -> PhasePoint:
        return self.points[-1]


class GeodesicHamiltonian:
    """Kinetic Hamiltonian H(y, p) = p^T G(y)^{-1} p / 2 of a metric field.

    dp is a symmetric solve and dy the one dH/dy formula of the module
    docstring, on the decoder's jet.  ``at(y)`` derives the geometry once
    for all three, and each of them is ``at(y)`` and its held method, so
    a subclass (``control.ReducedHamiltonian``) overrides ``at`` alone;
    ``dy`` also rejects a result that is not finite.  The leapfrog calls
    the held methods, and checks its nodes instead.
    """

    def __init__(self, metric_field: MetricField):
        self.metric_field = metric_field

    def at(self, y: np.ndarray) -> _Geometry:
        return self.metric_field.at(y)

    def __call__(self, y: np.ndarray, p: np.ndarray):
        return self.at(y)(np.asarray(p, dtype=float))

    def dp(self, y: np.ndarray, p: np.ndarray) -> np.ndarray:
        return self.at(y).dp(np.asarray(p, dtype=float))

    def dy(self, y: np.ndarray, p: np.ndarray) -> np.ndarray:
        """dH/dy at (y, p); ValueError, and no warning, unless it is finite."""
        y = np.asarray(y, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            grad = self.at(y).dy(np.asarray(p, dtype=float))
        if not np.isfinite(grad).all():
            raise ValueError(f"dH/dy at y={y!r} is not finite")
        return grad


def _stencil(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Points x +/- step e_i (rows i and n + i) of x (..., n), shape (..., 2n, n), and step (..., 1, 1).

    step = GRAD_STEP (1 + |x|), |x| on the dot kernel ``np.linalg.norm`` runs for a 1-d x.
    """
    step = GRAD_STEP * (1.0 + np.sqrt(x[..., None, :] @ x[..., :, None]))
    shifts = step * np.eye(x.shape[-1])
    return np.concatenate([x[..., None, :] + shifts, x[..., None, :] - shifts], axis=-2), step


def _central(values: np.ndarray, step: np.ndarray) -> np.ndarray:
    """The derivative (..., m, n) from values (..., 2n, m) of a function at ``_stencil``'s points."""
    n = values.shape[-2] // 2
    return ((values[..., :n, :] - values[..., n:, :]) / (2.0 * step)).swapaxes(-1, -2)


def _fd_gradient(f: Callable, x: np.ndarray) -> np.ndarray:
    """Central differences of f at a point x, f evaluated at ``_stencil``'s points one by one.

    A scalar f gives its gradient, shape (n,); a vector f gives its
    Jacobian, one column per coordinate of x.
    """
    points, step = _stencil(x)
    values = np.array([f(point) for point in points], dtype=float)
    grad = _central(values.reshape(len(points), -1), step)
    # a C-ordered copy, so callers' matmuls never meet a transposed view
    return np.ascontiguousarray(grad.reshape(*values.shape[1:], x.shape[0]))


def _parts(hamiltonian) -> tuple:
    """``(at, dy, dp, energy)`` with ``dy(at(y), p) == hamiltonian.dy(y, p)``, and so on.

    A Hamiltonian's own ``at(y)`` derives what it needs at y once for the
    three; for one without ``at``, ``at`` passes y through.
    """
    if getattr(hamiltonian, "at", None) is None:
        return (lambda y: y), hamiltonian.dy, hamiltonian.dp, hamiltonian
    return hamiltonian.at, lambda held, p: held.dy(p), lambda held, p: held.dp(p), lambda held, p: held(p)


def _leapfrog(hamiltonian, y: np.ndarray, p: np.ndarray, h: float, n_steps: int, energies: bool = True):
    """n_steps staged kick-drift-kick updates from (y, p) of shape (..., d).

    Returns the node rows of y and p, shape (n+1, ..., d), and of H,
    shape (n+1, ...), or None for H when ``energies`` is false.  All are
    views of one buffer whose rows are checked finite a node at a time.
    """
    n_steps = int(n_steps)
    if n_steps < 1:
        raise ValueError(f"need at least one step, got {n_steps}")
    try:
        h = float(h)
        finite = h != 0.0 and math.isfinite(h)
    except OverflowError:  # an int past the float range
        finite = False
    if not finite:
        raise ValueError(f"step size must be finite and non-zero, got {h!r}")
    at, dy, dp, energy = _parts(hamiltonian)
    d = y.shape[-1]
    nodes = np.empty((n_steps + 1, *y.shape[:-1], 2 * d + energies))

    def failure(k: int) -> IntegrationError:
        message = f"non-finite state or energy at step {k}"
        if k == 0:
            return IntegrationError(message, 0)
        last = nodes[k - 1].copy()
        drift = float(np.max(np.abs(nodes[:k, ..., -1] - nodes[0, ..., -1]))) if energies else None
        return IntegrationError(message, k, last[..., :d], last[..., d : 2 * d], drift)

    def geometry(k: int):
        """``at(y)``; a y that drifted to inf or NaN fails as step k, as the finiteness check would."""
        try:
            return at(y)
        except ValueError:
            if np.isfinite(y).all():
                raise
            raise failure(k) from None

    # overflow needs no warning: the finiteness check turns it into IntegrationError
    with np.errstate(over="ignore", invalid="ignore"):
        held = geometry(0)
        for k in range(n_steps + 1):
            if k:
                p_half = p - 0.5 * h * dy(held, p)
                y = y + h * dp(held, p_half)
                held = geometry(k)
                p = p_half - 0.5 * h * dy(held, p_half)
            row = nodes[k]
            row[..., :d], row[..., d : 2 * d] = y, p
            if energies:
                row[..., -1] = energy(held, p)
            if not np.isfinite(row).all():
                raise failure(k)
    return nodes[..., :d], nodes[..., d : 2 * d], nodes[..., -1] if energies else None


def integrate(hamiltonian, pt0: PhasePoint, h: float, n_steps: int) -> PhaseTrajectory:
    """n_steps leapfrog updates, recording all n+1 nodes and their energies.

    A stacked ``pt0`` (..., d) integrates every row at once.  h must be
    finite and non-zero; a non-finite state raises IntegrationError.
    """
    ys, ps, energies = _leapfrog(hamiltonian, pt0.y, pt0.p, h, n_steps)
    return PhaseTrajectory(step=float(h), ys=ys, ps=ps, energies=energies)


def leapfrog_step(hamiltonian, pt: PhasePoint, h: float) -> PhasePoint:
    """One kick-drift-kick update of step h (h may be negative): the one-step ``integrate``, without energies."""
    ys, ps, _ = _leapfrog(hamiltonian, pt.y, pt.p, h, 1, energies=False)
    return PhasePoint(ys[1], ps[1])


# ---------------------------------------------------------------------------
# boundary-value shooting


def _latent_point(metric_field: MetricField, name: str, value) -> np.ndarray:
    """value as a finite float array of shape (latent_dim,); ValueError naming it otherwise."""
    point = np.atleast_1d(np.asarray(value, dtype=float))
    d = metric_field.decoder.latent_dim
    if point.shape != (d,):
        raise ValueError(f"{name} must have shape ({d},), got {point.shape}")
    if not np.isfinite(point).all():
        raise ValueError(f"{name} must be finite, got {point.tolist()}")
    return point


def _flat_guess(metric_field: MetricField, y_a: np.ndarray, y_b: np.ndarray) -> np.ndarray:
    """The flat-chart initial momentum G(y_a)(y_b - y_a)."""
    return pullback_metric(metric_field, y_a) @ (y_b - y_a)


def shoot_geodesic(metric_field: MetricField, y_a: np.ndarray, p_init: np.ndarray, n_steps: int) -> np.ndarray:
    """Endpoint y(1) of the geodesic leaving y_a with momentum p_init.

    A stack of momenta (..., d) gives the stack of their endpoints.
    """
    p = np.asarray(p_init, dtype=float)
    y = np.broadcast_to(np.asarray(y_a, dtype=float), p.shape)
    n_steps = int(n_steps)
    try:
        # a count below one reaches _leapfrog's check instead of dividing by zero
        h = 1.0 / max(n_steps, 1)
    except OverflowError:  # an int past the float range
        raise ValueError(f"n_steps must be a count within the float range, got {n_steps!r}") from None
    return _leapfrog(GeodesicHamiltonian(metric_field), y, p, h, n_steps, energies=False)[0][-1]


def solve_shooting(
    metric_field: MetricField,
    y_a: np.ndarray,
    y_b: np.ndarray,
    n_steps: int = 32,
    tol: float = 1e-8,
    max_iter: int = 50,
) -> np.ndarray:
    """Damped Gauss-Newton on the endpoint residual of shoot_geodesic.

    Initial momentum is the flat-chart guess G(y_a)(y_b - y_a); the
    sensitivity of the endpoint is taken by central differences and the
    damping parameter is halved after every residual decrease.  Each
    momentum tried is shot in one stack with its 2d stencil points, so an
    accepted step brings its sensitivity along and a rejected one keeps
    the sensitivity it had.  ShootingError carries the residual history.
    ``tol`` must be a number >= 0 and ``max_iter`` an integer >= 0.
    """
    if not tol >= 0:
        raise ValueError(f"tol must be a number >= 0, got {tol!r}")
    # an int is whole as it is, one past the float range included
    if not ((isinstance(max_iter, int) or float(max_iter).is_integer()) and max_iter >= 0):
        raise ValueError(f"max_iter must be an integer >= 0, got {max_iter!r}")
    y_a = _latent_point(metric_field, "y_a", y_a)
    y_b = _latent_point(metric_field, "y_b", y_b)
    d = y_a.shape[0]

    def shots(q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The endpoint residual at q and its sensitivity."""
        # a |q| past the float range needs no warning: the run's step-0 check rejects its points
        with np.errstate(over="ignore", invalid="ignore"):
            points, step = _stencil(q)
        ends = shoot_geodesic(metric_field, y_a, np.vstack([q, points]), n_steps)
        return ends[0] - y_b, _central(ends[1:], step)

    p = _flat_guess(metric_field, y_a, y_b)
    residual, sens = shots(p)
    res_norm = float(np.linalg.norm(residual))
    history = [res_norm]
    damping = 1e-3
    for _ in range(int(max_iter)):
        if res_norm <= tol:
            return p
        lhs = sens.T @ sens + damping * np.eye(d)
        delta = np.linalg.solve(lhs, -sens.T @ residual)
        candidate = p + delta
        cand_res, cand_sens = shots(candidate)
        cand_norm = float(np.linalg.norm(cand_res))
        if cand_norm < res_norm:
            p, residual, res_norm, sens = candidate, cand_res, cand_norm, cand_sens
            damping *= 0.5
        else:
            damping *= 10.0
        history.append(res_norm)
    if res_norm <= tol:
        return p
    raise ShootingError(f"no convergence after {max_iter} iterations; final residual {res_norm:.3e}", history, p)


# ---------------------------------------------------------------------------
# deviations along a trajectory


def jacobi_propagate(hamiltonian, traj: PhaseTrajectory, delta0: np.ndarray) -> np.ndarray:
    """Propagate a phase-space deviation along a recorded one-point trajectory by the leapfrog's tangent.

    The tangent T_k of one leapfrog step of size ``traj.step`` at node k
    is the central difference of that step over the 4d stencil points of
    (y_k, p_k); the points of all n nodes take their step as one stack.
    Returns the (n+1, 2d) deviations delta_{k+1} = T_k delta_k, starting
    at delta0.
    """
    delta = np.asarray(delta0, dtype=float)
    d = traj.ys.shape[-1]
    if traj.ys.ndim != 2 or traj.ps.shape != traj.ys.shape:
        raise ValueError(
            f"trajectory must hold one point's (n+1, d) nodes, got ys {traj.ys.shape} and ps {traj.ps.shape}"
        )
    if delta.shape != (2 * d,):
        raise ValueError(f"deviation must have length {2 * d}, got {delta.shape}")
    zs, step = _stencil(np.concatenate([traj.ys[:-1], traj.ps[:-1]], axis=-1))
    ys, ps, _ = _leapfrog(hamiltonian, zs[..., :d], zs[..., d:], traj.step, 1, energies=False)
    tangents = _central(np.concatenate([ys[1], ps[1]], axis=-1), step)
    out = np.empty((len(traj), 2 * d))
    out[0] = delta
    for k, tangent in enumerate(tangents, start=1):
        delta = tangent @ delta
        out[k] = delta
    return out


_DEVIATION_SHIFT = 1e-5


def empirical_deviations(hamiltonian, pt0: PhasePoint, delta0: np.ndarray, h: float, n_steps: int) -> np.ndarray:
    """Deviation oracle: difference the runs from one point pt0 and from pt0 + 1e-5 delta0, as one stack."""
    delta0 = np.asarray(delta0, dtype=float)
    d = pt0.dim
    if pt0.y.shape != (d,):
        raise ValueError(f"pt0 must be one phase point of shape ({d},), got shape {pt0.y.shape}")
    if delta0.shape != (2 * d,):
        raise ValueError(f"delta0 must have shape ({2 * d},), got {delta0.shape}")
    y = np.stack([pt0.y, pt0.y + _DEVIATION_SHIFT * delta0[:d]])
    p = np.stack([pt0.p, pt0.p + _DEVIATION_SHIFT * delta0[d:]])
    ys, ps, _ = _leapfrog(hamiltonian, y, p, h, n_steps, energies=False)
    return np.concatenate([ys[:, 1] - ys[:, 0], ps[:, 1] - ps[:, 0]], axis=1) / _DEVIATION_SHIFT


# ---------------------------------------------------------------------------
# losses


def loss_geo(metric_field: MetricField, pairs, n_steps: int) -> float:
    """Mean squared endpoint error of shot geodesics over (y_a, y_b[, p0]) pairs.

    Without an explicit initial momentum the flat-chart guess
    G(y_a)(y_b - y_a) is used.  All entries are shot as one stack.  An
    error past the float range makes the loss +inf.
    """
    if len(pairs) == 0:
        raise ValueError("need at least one endpoint pair")
    starts, targets, momenta = [], [], []
    for i, entry in enumerate(pairs):
        if len(entry) not in (2, 3):
            raise ValueError(f"expected (y_a, y_b) or (y_a, y_b, p0), got {len(entry)} entries")
        y_a, y_b, *p0 = (
            _latent_point(metric_field, f"{name} of pair {i}", v) for name, v in zip(("y_a", "y_b", "p0"), entry)
        )
        starts.append(y_a)
        targets.append(y_b)
        momenta.append(p0[0] if p0 else _flat_guess(metric_field, y_a, y_b))
    ends = shoot_geodesic(metric_field, np.stack(starts), np.stack(momenta), n_steps)
    # ends are finite, so an error past the float range is +inf, not a warning
    with np.errstate(over="ignore"):
        return sum(float(np.sum((end - y_b) ** 2)) for end, y_b in zip(ends, targets)) / len(pairs)


def loss_jac(hamiltonian, cases) -> float:
    """Mean squared mismatch between propagated and observed deviations.

    Each case is ``(trajectory, delta0, observed)`` with ``observed`` of
    shape (n+1, 2d) as produced by ``empirical_deviations``.
    """
    if len(cases) == 0:
        raise ValueError("need at least one deviation case")
    total = 0.0
    for traj, delta0, observed in cases:
        model = jacobi_propagate(hamiltonian, traj, delta0)
        observed = np.asarray(observed, dtype=float)
        if observed.shape != model.shape:
            raise ValueError(f"observed deviations must have shape {model.shape}, got {observed.shape}")
        total += float(np.mean(np.sum((model - observed) ** 2, axis=1)))
    return total / len(cases)
