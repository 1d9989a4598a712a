"""Decoder-induced geometry and Hamiltonian geodesic flows.

A decoder maps latent points y in R^d to ambient points z in R^n
(n >= d).  Its Jacobian J(y) induces the pullback metric

    G(y) = J(y)^T J(y) + eps_reg I,

symmetrised by averaging with its transpose and validated by Cholesky
factorisation.  Geodesics are driven by the kinetic Hamiltonian
H(y, p) = p^T G(y)^{-1} p / 2 through a staged leapfrog; curvature
information enters only through derivatives of H, so Christoffel symbols
are never materialised.

Derivative conventions used throughout:

* a decoder's only derivative method is ``Decoder.jet``, which returns
  its Jacobian J and second derivatives D2; a decoder is either layered
  (``linear`` is the one-layer case of ``mlp-tanh``), whose jet comes
  from one forward pass, or custom, whose J and D2 come from central
  differences; a one-layer decoder's D2 is None, since it vanishes
* dH/dy of the kinetic Hamiltonian is one formula for every decoder,
  dH/dy_k = -(J v) . (d_k J) v with v = G^{-1} p (zero for one-layer ones)
* every finite difference is the central stencil of ``_fd_gradient``,
  step base (1 + |arg|): base 1e-5 for first derivatives (including the
  shooting sensitivity and a custom decoder's J), 1e-4 for second
  derivatives (a custom decoder's D2, the Hessian in the variational
  matrix)

Arrays of shape (..., d) hold one latent point (d,) or a stack of them
(B, d).  ``Decoder.jet``, ``MetricField`` and ``GeodesicHamiltonian``
take either, and one leapfrog stepper runs either: shooting shoots each
momentum it tries in one stack with its 2d central-difference shots,
``jacobi_propagate`` evaluates the 4d gradient points of all its
midpoints as one stack, and ``empirical_deviations`` integrates its base
and shifted runs as a stack of two.  A stacked call runs the per-point
kernels slice by slice, so each row is bit-equal to the single-point
call.  ``MetricField.at(y)`` derives J, D2, G and G^{-1} once for all of
y; the stepper carries the geometry of each step's end point into the
next kick, so G is factorised once per point per step and nothing is
memoised.

A Hamiltonian passed to ``integrate``, ``leapfrog_step``,
``variational_matrix``, ``jacobi_propagate`` or ``empirical_deviations``
provides ``__call__(y, p)`` (a float for a single point) and the partials
``dy(y, p)`` and ``dp(y, p)``; the engine never differentiates H itself.
1-d arrays suffice for ``integrate`` of a single point and for
``leapfrog_step``.  ``variational_matrix``, ``jacobi_propagate`` and
``empirical_deviations`` pass (B, d) stacks to ``dy`` and ``dp``, and
``integrate`` of a stacked ``PhasePoint`` passes them to all three.  A
Hamiltonian may also offer ``at(y)``, an object with ``dy(p)``,
``dp(p)`` and ``__call__(p)`` at fixed y, which the stepper then uses to
derive what it needs once per point.

A ``PhaseTrajectory`` holds the node rows ``ys`` and ``ps``, shape
(n+1, d) for a single point, and ``energies``, shape (n+1,).  Its
``points`` list of ``PhasePoint`` views is built on first use.

Decoder text format (blank lines and ``#`` comments allowed)::

    decoder linear|mlp-tanh
    layer <out> <in>
    <out> rows of <in> weights
    <one row of out biases>
    ... further layer blocks for mlp-tanh ...
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

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
    "trajectory_csv",
    "shoot_geodesic",
    "solve_shooting",
    "variational_matrix",
    "jacobi_propagate",
    "empirical_deviations",
    "loss_geo",
    "loss_jac",
    "save_decoder",
    "load_decoder",
]

GRAD_STEP = 1e-5
HESS_STEP = 1e-4


class SingularMetricError(RuntimeError):
    """Pullback metric failed to be positive definite after regularisation.

    ``y`` is the point whose G is worst and ``min_eigenvalue`` the smallest
    eigenvalue of G there.
    """

    def __init__(self, message: str, y=None, min_eigenvalue: float | None = None):
        super().__init__(message)
        self.y, self.min_eigenvalue = y, min_eigenvalue


class IntegrationError(RuntimeError):
    """Leapfrog integration produced a non-finite state.

    ``step`` is the step that failed, ``y`` and ``p`` are the last finite
    node (the one before it) and ``drift`` is max |H - H_0| over the nodes
    up to it, or None for a run that records no energies.
    """

    def __init__(self, message: str, step: int | None = None, y=None, p=None, drift: float | None = None):
        super().__init__(message)
        self.step, self.y, self.p, self.drift = step, y, p, drift


class ShootingError(RuntimeError):
    """Boundary-value shooting failed to reach the requested tolerance.

    ``residuals[k]`` is the endpoint residual norm after k iterations, and
    ``p`` the momentum the solver stopped at.
    """

    def __init__(self, message: str, residuals=(), p=None):
        super().__init__(message)
        self.residuals, self.p = list(residuals), p


# ---------------------------------------------------------------------------
# decoders


@dataclass
class Decoder:
    """Latent-to-ambient map whose derivatives come from ``jet``.

    Build through the ``linear``, ``mlp_tanh``, or ``custom`` constructors.
    A layered decoder's jet is exact; a custom decoder's J and D2 are
    central differences of its function.
    """

    kind: str
    layers: list[tuple[np.ndarray, np.ndarray]] = field(default_factory=list)
    fn: Callable | None = None
    latent_dim: int = 0
    ambient_dim: int = 0

    @classmethod
    def linear(cls, matrix: np.ndarray, offset: np.ndarray | None = None) -> "Decoder":
        a = np.asarray(matrix, dtype=float)
        if a.ndim != 2:
            raise ValueError("linear decoder needs a 2-d matrix")
        b = np.zeros(a.shape[0]) if offset is None else np.asarray(offset, dtype=float)
        if b.shape != (a.shape[0],):
            raise ValueError(f"offset must have length {a.shape[0]}")
        dec = cls(kind="linear", layers=[(a, b)], latent_dim=a.shape[1], ambient_dim=a.shape[0])
        dec._validate_dims()
        return dec

    @classmethod
    def mlp_tanh(cls, weights: Sequence[np.ndarray], biases: Sequence[np.ndarray]) -> "Decoder":
        if len(weights) != len(biases) or not weights:
            raise ValueError("need matching, non-empty weight and bias lists")
        layers = []
        for w, b in zip(weights, biases):
            w = np.asarray(w, dtype=float)
            b = np.asarray(b, dtype=float)
            if w.ndim != 2 or b.shape != (w.shape[0],):
                raise ValueError("each layer needs a matrix and a matching bias vector")
            if layers and w.shape[1] != layers[-1][0].shape[0]:
                raise ValueError("layer input width must match previous layer output width")
            layers.append((w, b))
        dec = cls(
            kind="mlp-tanh",
            layers=layers,
            latent_dim=layers[0][0].shape[1],
            ambient_dim=layers[-1][0].shape[0],
        )
        dec._validate_dims()
        return dec

    @classmethod
    def custom(cls, fn: Callable, latent_dim: int, ambient_dim: int) -> "Decoder":
        dec = cls(kind="custom", fn=fn, latent_dim=int(latent_dim), ambient_dim=int(ambient_dim))
        dec._validate_dims()
        return dec

    def _validate_dims(self) -> None:
        if self.latent_dim < 1:
            raise ValueError("latent dimension must be >= 1")
        if self.ambient_dim < self.latent_dim:
            raise ValueError(
                f"ambient dimension {self.ambient_dim} must be >= latent dimension {self.latent_dim}"
            )

    def __call__(self, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        if y.shape != (self.latent_dim,):
            raise ValueError(f"expected latent point of shape ({self.latent_dim},), got {y.shape}")
        if self.kind == "custom":
            z = np.asarray(self.fn(y), dtype=float)
            if z.shape != (self.ambient_dim,):
                raise ValueError(f"custom decoder returned shape {z.shape}, expected ({self.ambient_dim},)")
            return z
        x = y
        last = len(self.layers) - 1
        for idx, (w, b) in enumerate(self.layers):
            x = w @ x + b
            if idx < last:
                x = np.tanh(x)
        return x

    def jet(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """Jacobian J, shape (..., n, d), and second derivatives D2 at y, shape (..., d).

        D2 is an (..., n, d*d) array whose row i holds d^2 z_i / dy_j dy_k
        at column j*d + k, or None for a one-layer decoder, whose second
        derivatives vanish.  A layered decoder carries both through one
        forward pass over the whole stack.  A custom decoder takes, point
        by point, J by central differences of itself and D2 by central
        differences of that J at step base HESS_STEP: 2d + 4d^2 calls of
        its function per point.
        """
        y = np.asarray(y, dtype=float)
        d = self.latent_dim
        if self.kind == "custom":
            jets = [self._fd_jet(row) for row in y.reshape(-1, d)]
            return tuple(np.array(part).reshape(*y.shape[:-1], *part[0].shape) for part in zip(*jets))
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

    def _fd_jet(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """A custom decoder's jet at one point, by central differences."""
        d = self.latent_dim
        jac = _fd_gradient(self, y)
        # row i*d + k, column j: d/dy_j of J[i, k]
        hess = _fd_gradient(lambda yy: _fd_gradient(self, yy).ravel(), y, HESS_STEP)
        return jac, hess.reshape(-1, d, d).transpose(0, 2, 1).reshape(-1, d * d)


def save_decoder(decoder: Decoder, path) -> None:
    """Write the format of ``load_decoder``; ValueError, before any write, for a custom decoder."""
    if decoder.kind == "custom":
        raise ValueError("custom decoders have no serialisable weights")
    rows = [f"decoder {decoder.kind}"]
    for w, b in decoder.layers:
        rows.append(f"layer {w.shape[0]} {w.shape[1]}")
        rows += [" ".join(f"{v:.17g}" for v in row) for row in w]
        rows.append(" ".join(f"{v:.17g}" for v in b))
    _text.write(path, rows)


def load_decoder(path) -> Decoder:
    """Parse the format of ``save_decoder``; a bad line raises ``_text.FormatError`` starting ``line N: ``.

    An error inside a layer block names the block's ``layer`` line.
    """
    numbered = list(_text.lines(path))
    if not numbered:
        raise ValueError("decoder file must start with a 'decoder <kind>' line")
    linenos, rows = zip(*numbered)
    weights, biases, i = [], [], 0
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
            if kind == "linear" and weights:
                raise ValueError("linear decoder must have exactly one layer")
            if weights and in_n != weights[-1].shape[0]:
                raise ValueError("layer input width must match previous layer output width")
            weights.append(w)
            biases.append(b)
            i += out_n + 2
    except ValueError as exc:
        raise _text.FormatError.at(linenos[i], exc) from None
    if kind == "linear":
        return Decoder.linear(weights[0], biases[0])
    return Decoder.mlp_tanh(weights, biases)


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
        if self.eps_reg < 0:
            raise ValueError(f"eps_reg must be >= 0, got {self.eps_reg!r}")

    def _metric(self, jac: np.ndarray) -> np.ndarray:
        g = jac.swapaxes(-1, -2) @ jac
        g = 0.5 * (g + g.swapaxes(-1, -2))
        return g + self.eps_reg * np.eye(self.decoder.latent_dim)

    def at(self, y: np.ndarray) -> _Geometry:
        """The geometry at y, shape (..., d); raises unless every G there is finite and SPD."""
        y = np.asarray(y, dtype=float)
        jac, hess = self.decoder.jet(y)
        g = self._metric(jac)
        if not np.isfinite(g).all():
            raise ValueError(f"metric at y={y!r} contains infs or NaNs")
        try:
            chol_inv = np.linalg.inv(np.linalg.cholesky(g))
        except np.linalg.LinAlgError:
            lowest = np.linalg.eigvalsh(g).min(axis=-1)
            worst = np.unravel_index(np.argmin(lowest), lowest.shape)
            raise SingularMetricError(
                f"metric at y={y!r} is not positive definite", y[worst], float(lowest[worst])
            ) from None
        return _Geometry(jac, hess, g, chol_inv.swapaxes(-1, -2) @ chol_inv)

    def metric(self, y: np.ndarray) -> np.ndarray:
        """G at y, shape (..., d, d), whether or not it is positive definite."""
        return self._metric(self.decoder.jet(y)[0])

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

    dp is a symmetric solve.  dy is dH/dy_k = -(J v) . (d_k J) v with
    v = G^{-1} p, from the decoder's jet: exact for layered decoders,
    built on central-difference J and D2 for custom ones.  ``at(y)``
    derives the geometry once for all three.
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
        return self.at(y).dy(np.asarray(p, dtype=float))


def _fd_gradient(f: Callable, x: np.ndarray, base_step: float = GRAD_STEP) -> np.ndarray:
    """Central differences of f at x with step base_step (1 + |x|).

    A scalar f gives its gradient, shape (n,); a vector f gives its
    Jacobian, one column per coordinate of x.
    """
    step = base_step * (1.0 + float(np.linalg.norm(x)))
    cols = []
    for i in range(x.shape[0]):
        e = np.zeros_like(x)
        e[i] = step
        cols.append((f(x + e) - f(x - e)) / (2.0 * step))
    # a C-ordered copy, so callers' matmuls never meet a transposed view
    return np.array(cols, dtype=float).T.copy()


def _parts(hamiltonian) -> tuple:
    """``(at, dy, dp, energy)`` with ``dy(at(y), p) == hamiltonian.dy(y, p)``, and so on.

    A Hamiltonian's own ``at(y)`` derives what it needs at y once for the
    three; for one without ``at``, ``at`` passes y through.
    """
    if getattr(hamiltonian, "at", None) is None:
        return (lambda y: y), hamiltonian.dy, hamiltonian.dp, hamiltonian
    return hamiltonian.at, lambda held, p: held.dy(p), lambda held, p: held.dp(p), lambda held, p: held(p)


def _kick_drift_kick(parts: tuple, held, y: np.ndarray, p: np.ndarray, h: float):
    """One leapfrog step from (y, p), with ``held`` = at(y); returns y', p' and at(y')."""
    at, dy, dp, _ = parts
    p_half = p - 0.5 * h * dy(held, p)
    y_new = y + h * dp(held, p_half)
    held = at(y_new)
    return y_new, p_half - 0.5 * h * dy(held, p_half), held


def leapfrog_step(hamiltonian, pt: PhasePoint, h: float) -> PhasePoint:
    """One staged kick-drift-kick update of step h (h may be negative)."""
    h = float(h)
    if not math.isfinite(h):
        raise ValueError("step size must be finite")
    parts = _parts(hamiltonian)
    y, p, _ = _kick_drift_kick(parts, parts[0](pt.y), pt.y, pt.p, h)
    return PhasePoint(y, p)


def _leapfrog(hamiltonian, y: np.ndarray, p: np.ndarray, h: float, n_steps: int, energies: bool = True):
    """n_steps leapfrog updates from (y, p) of shape (..., d).

    Returns the node rows of y and p, shape (n+1, ..., d), and of H,
    shape (n+1, ...), or None for H when ``energies`` is false.  All are
    views of one buffer whose rows are checked finite a node at a time.
    """
    n_steps = int(n_steps)
    if n_steps < 1:
        raise ValueError(f"need at least one step, got {n_steps}")
    if h == 0.0:
        raise ValueError("step size must be non-zero")
    h = float(h)
    if not math.isfinite(h):
        raise ValueError("step size must be finite")
    parts = _parts(hamiltonian)
    at, _, _, energy = parts
    d = y.shape[-1]
    nodes = np.empty((n_steps + 1, *y.shape[:-1], 2 * d + energies))
    held = at(y)
    nodes[0, ..., :d], nodes[0, ..., d : 2 * d] = y, p
    if energies:
        nodes[0, ..., -1] = energy(held, p)
    # overflow needs no warning: the finiteness check turns it into IntegrationError
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, n_steps + 1):
            y, p, held = _kick_drift_kick(parts, held, y, p, h)
            row = nodes[k]
            row[..., :d], row[..., d : 2 * d] = y, p
            if energies:
                row[..., -1] = energy(held, p)
            if not np.isfinite(row).all():
                last = nodes[k - 1].copy()
                drift = float(np.max(np.abs(nodes[:k, ..., -1] - nodes[0, ..., -1]))) if energies else None
                message = f"non-finite state or energy at step {k}"
                raise IntegrationError(message, k, last[..., :d], last[..., d : 2 * d], drift)
    return nodes[..., :d], nodes[..., d : 2 * d], nodes[..., -1] if energies else None


def integrate(hamiltonian, pt0: PhasePoint, h: float, n_steps: int) -> PhaseTrajectory:
    """n_steps leapfrog updates, recording all n+1 nodes and their energies.

    A stacked ``pt0`` (..., d) integrates every row at once.
    """
    ys, ps, energies = _leapfrog(hamiltonian, pt0.y, pt0.p, h, n_steps)
    return PhaseTrajectory(step=float(h), ys=ys, ps=ps, energies=energies)


def trajectory_csv(traj: PhaseTrajectory) -> str:
    """CSV dump with columns s, y..., p..., H (10 significant digits)."""
    d = traj.ys.shape[-1]
    header = ["s"] + [f"y{i}" for i in range(d)] + [f"p{i}" for i in range(d)] + ["H"]
    s = [k * traj.step for k in range(len(traj))]
    return _text.csv(header, zip(s, *traj.ys.T.tolist(), *traj.ps.T.tolist(), traj.energies.tolist()))


# ---------------------------------------------------------------------------
# boundary-value shooting


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
    return _leapfrog(GeodesicHamiltonian(metric_field), y, p, 1.0 / n_steps, n_steps, energies=False)[0][-1]


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
    momentum tried is shot in one stack with its 2d central-difference
    shots, so an accepted step brings its sensitivity along and a
    rejected one keeps the sensitivity it had.  ShootingError carries the
    residual history.
    """
    y_a = np.atleast_1d(np.asarray(y_a, dtype=float))
    y_b = np.atleast_1d(np.asarray(y_b, dtype=float))
    d = y_a.shape[0]

    def shots(q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The endpoint residual at q and its sensitivity, the stencil of _fd_gradient."""
        step = GRAD_STEP * (1.0 + float(np.linalg.norm(q)))
        # row 0 is q; rows i + 1 and d + i + 1 move coordinate i by +step and -step
        ends = shoot_geodesic(metric_field, y_a, np.vstack([q, q + step * np.eye(d), q - step * np.eye(d)]), n_steps)
        return ends[0] - y_b, ((ends[1 : d + 1] - ends[d + 1 :]) / (2.0 * step)).T

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
# variational flow along a trajectory


def _variational(hamiltonian, y: np.ndarray, p: np.ndarray) -> np.ndarray:
    """DF at phase points (..., d): its 4d gradient points per point are evaluated as one stack."""
    z = np.concatenate([y, p], axis=-1)
    d = y.shape[-1]
    step = HESS_STEP * (1.0 + np.linalg.norm(z, axis=-1))[..., None, None]
    shifts = step * np.eye(2 * d)
    zs = np.concatenate([z[..., None, :] + shifts, z[..., None, :] - shifts], axis=-2)
    at, dy, dp, _ = _parts(hamiltonian)
    held, ps = at(zs[..., :d]), zs[..., d:]
    grad = np.concatenate([dy(held, ps), dp(held, ps)], axis=-1)
    # rows i and 2d + i are the +/- shifts along coordinate i; the transpose puts i in the columns
    hess = ((grad[..., : 2 * d, :] - grad[..., 2 * d :, :]) / (2.0 * step)).swapaxes(-1, -2)
    return np.concatenate([hess[..., d:, :], -hess[..., :d, :]], axis=-2)


def variational_matrix(hamiltonian, pt: PhasePoint) -> np.ndarray:
    """DF = J grad^2 H, the linearised Hamiltonian field at a phase point.

    The Hessian is taken by central differences on the gradient;
    J is the canonical symplectic matrix ((0, I), (-I, 0)), so DF stacks
    the p-rows of the Hessian over the negated y-rows.  ``dy`` and ``dp``
    receive the 4d shifted points as one stack.
    """
    return _variational(hamiltonian, pt.y, pt.p)


def jacobi_propagate(hamiltonian, traj: PhaseTrajectory, delta0: np.ndarray) -> np.ndarray:
    """Propagate a phase-space deviation along a recorded trajectory.

    Uses a frozen-matrix RK2 per segment: the variational matrix is
    evaluated at the segment midpoint and the update is the quadratic
    truncation of its exponential.  The matrices of all n midpoints come
    from one stacked evaluation.  Returns an (n+1, 2d) array including
    the initial deviation.
    """
    delta = np.asarray(delta0, dtype=float)
    d = traj.ys.shape[-1]
    if delta.shape != (2 * d,):
        raise ValueError(f"deviation must have length {2 * d}, got {delta.shape}")
    h = traj.step
    dfs = _variational(hamiltonian, 0.5 * (traj.ys[:-1] + traj.ys[1:]), 0.5 * (traj.ps[:-1] + traj.ps[1:]))
    out = np.empty((len(traj), 2 * d))
    out[0] = delta
    for k, df in enumerate(dfs, start=1):
        step1 = df @ delta
        delta = delta + h * step1 + 0.5 * h * h * (df @ step1)
        out[k] = delta
    return out


def empirical_deviations(
    hamiltonian, pt0: PhasePoint, delta0: np.ndarray, h: float, n_steps: int, eps: float = 1e-5
) -> np.ndarray:
    """Deviation oracle: difference two trajectories offset by eps * delta0, integrated as one stack."""
    delta0 = np.asarray(delta0, dtype=float)
    d = pt0.dim
    y = np.stack([pt0.y, pt0.y + eps * delta0[:d]])
    p = np.stack([pt0.p, pt0.p + eps * delta0[d:]])
    ys, ps, _ = _leapfrog(hamiltonian, y, p, h, n_steps, energies=False)
    return np.concatenate([ys[:, 1] - ys[:, 0], ps[:, 1] - ps[:, 0]], axis=1) / eps


# ---------------------------------------------------------------------------
# losses


def loss_geo(metric_field: MetricField, pairs, n_steps: int) -> float:
    """Mean squared endpoint error of shot geodesics over (y_a, y_b[, p0]) pairs.

    Without an explicit initial momentum the flat-chart guess
    G(y_a)(y_b - y_a) is used.  All entries are shot as one stack.
    """
    if len(pairs) == 0:
        raise ValueError("need at least one endpoint pair")
    starts, targets, momenta = [], [], []
    for entry in pairs:
        if len(entry) not in (2, 3):
            raise ValueError(f"expected (y_a, y_b) or (y_a, y_b, p0), got {len(entry)} entries")
        y_a, y_b, *p0 = (np.atleast_1d(np.asarray(v, dtype=float)) for v in entry)
        starts.append(y_a)
        targets.append(y_b)
        momenta.append(p0[0] if p0 else _flat_guess(metric_field, y_a, y_b))
    ends = shoot_geodesic(metric_field, np.stack(starts), np.stack(momenta), n_steps)
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
