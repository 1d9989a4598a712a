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
  differences
* dH/dy of the kinetic Hamiltonian is one formula for every decoder,
  dH/dy_k = -(J v) . (d_k J) v with v = G^{-1} p (zero for linear ones)
* every finite difference is the central stencil of ``_fd_gradient``,
  step base (1 + |arg|): base 1e-5 for first derivatives (including the
  shooting sensitivity and a custom decoder's J), 1e-4 for second
  derivatives (a custom decoder's D2, the Hessian in the variational
  matrix)

``MetricField`` keeps the geometry of the last latent point it was asked
about (J, D2, G and G^{-1} from its Cholesky factor), so a leapfrog step,
which visits each point several times, factorises G once per point.

A Hamiltonian passed to ``integrate``, ``leapfrog_step``,
``variational_matrix``, ``jacobi_propagate`` or ``empirical_deviations``
provides ``__call__(y, p) -> float`` and the partials ``dy(y, p)`` and
``dp(y, p)``; the engine never differentiates H itself.

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
    """Pullback metric failed to be positive definite after regularisation."""


class IntegrationError(RuntimeError):
    """Leapfrog integration produced a non-finite state."""


class ShootingError(RuntimeError):
    """Boundary-value shooting failed to reach the requested tolerance."""


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

    def jet(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Jacobian J, shape (n, d), and second derivatives D2 at y.

        D2 is an (n, d*d) array whose row i holds d^2 z_i / dy_j dy_k at
        column j*d + k.  A layered decoder carries both through one
        forward pass.  A custom decoder takes J by central differences of
        itself and D2 by central differences of that J at step base
        HESS_STEP: 2d + 4d^2 calls of its function.
        """
        y = np.asarray(y, dtype=float)
        d = self.latent_dim
        if self.kind == "custom":
            jac = _fd_gradient(self, y)
            # row i*d + k, column j: d/dy_j of J[i, k]
            hess = _fd_gradient(lambda yy: _fd_gradient(self, yy).ravel(), y, HESS_STEP)
            return jac, hess.reshape(-1, d, d).transpose(0, 2, 1).reshape(-1, d * d)
        x = y
        jac = np.eye(d)
        hess = np.zeros((d, d * d))
        last = len(self.layers) - 1
        for idx, (w, b) in enumerate(self.layers):
            jac = w @ jac
            x = w @ x + b
            hess = w @ hess
            if idx < last:
                x = np.tanh(x)
                slope = 1.0 - x * x
                # tanh'' = -2 tanh tanh'
                outer = (jac[:, :, None] * jac[:, None, :]).reshape(-1, d * d)
                hess = slope[:, None] * hess - (2.0 * x * slope)[:, None] * outer
                jac = slope[:, None] * jac
        return jac, hess


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


@dataclass(frozen=True)
class _LocalGeometry:
    """What a MetricField derives from one latent point."""

    key: tuple  # (bytes of y, eps_reg)
    decoder: Decoder
    jacobian: np.ndarray
    hessian: np.ndarray  # D2 of Decoder.jet
    metric: np.ndarray
    inverse: np.ndarray | None  # G^-1 from the Cholesky factor; None unless G is SPD


@dataclass
class MetricField:
    """Pullback metric G = J^T J + eps_reg I induced by a decoder.

    The geometry of the most recent latent point is memoised; no method
    hands out a memoised array.
    """

    decoder: Decoder
    eps_reg: float = 1e-8
    _memo: _LocalGeometry | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.eps_reg < 0:
            raise ValueError(f"eps_reg must be >= 0, got {self.eps_reg!r}")

    def _local(self, y: np.ndarray) -> _LocalGeometry:
        y = np.asarray(y, dtype=float)
        key = (y.tobytes(), self.eps_reg)
        local = self._memo
        if local is not None and local.key == key and local.decoder is self.decoder:
            return local
        jac, hess = self.decoder.jet(y)
        g = jac.T @ jac
        g = 0.5 * (g + g.T)
        g = g + self.eps_reg * np.eye(self.decoder.latent_dim)
        inverse = None
        if np.isfinite(g).all():
            try:
                chol_inv = np.linalg.inv(np.linalg.cholesky(g))
            except np.linalg.LinAlgError:
                pass
            else:
                inverse = chol_inv.T @ chol_inv
        self._memo = local = _LocalGeometry(key, self.decoder, jac, hess, g, inverse)
        return local

    def _factored(self, y: np.ndarray) -> _LocalGeometry:
        """The local geometry at y; raises unless G(y) is finite and SPD."""
        local = self._local(y)
        if local.inverse is None:
            if not np.isfinite(local.metric).all():
                raise ValueError(f"metric at y={y!r} contains infs or NaNs")
            raise SingularMetricError(f"metric at y={y!r} is not positive definite")
        return local

    def metric(self, y: np.ndarray) -> np.ndarray:
        return self._local(y).metric.copy()

    def solve(self, y: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        return self._factored(y).inverse @ rhs


def pullback_metric(metric_field: MetricField, y: np.ndarray) -> np.ndarray:
    """G(y); raises SingularMetricError when not positive definite."""
    return metric_field._factored(y).metric.copy()


@dataclass
class PhasePoint:
    """A latent position/momentum pair."""

    y: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        y = np.atleast_1d(np.asarray(self.y, dtype=float))
        p = np.atleast_1d(np.asarray(self.p, dtype=float))
        if y.shape != p.shape or y.ndim != 1:
            raise ValueError(f"y and p must be 1-d with equal length, got {y.shape} and {p.shape}")
        self.y = y
        self.p = p

    @property
    def dim(self) -> int:
        return self.y.shape[0]


@dataclass
class PhaseTrajectory:
    """Recorded leapfrog states: n+1 points plus the energy at each node."""

    step: float
    points: list[PhasePoint]
    energies: np.ndarray

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def final(self) -> PhasePoint:
        return self.points[-1]


class GeodesicHamiltonian:
    """Kinetic Hamiltonian H(y, p) = p^T G(y)^{-1} p / 2 of a metric field.

    dp is a symmetric solve.  dy is dH/dy_k = -(J v) . (d_k J) v with
    v = G^{-1} p, from the decoder's jet: exact for layered decoders,
    built on central-difference J and D2 for custom ones.
    """

    def __init__(self, metric_field: MetricField):
        self.metric_field = metric_field

    def __call__(self, y: np.ndarray, p: np.ndarray) -> float:
        return 0.5 * float(p @ self.metric_field.solve(y, p))

    def dp(self, y: np.ndarray, p: np.ndarray) -> np.ndarray:
        return self.metric_field.solve(y, p)

    def dy(self, y: np.ndarray, p: np.ndarray) -> np.ndarray:
        local = self.metric_field._factored(y)
        v = local.inverse @ p
        return -((local.jacobian @ v) @ local.hessian).reshape(v.shape[0], -1) @ v


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


def leapfrog_step(hamiltonian, pt: PhasePoint, h: float) -> PhasePoint:
    """One staged kick-drift-kick update of step h (h may be negative)."""
    h = float(h)
    if not math.isfinite(h):
        raise ValueError("step size must be finite")
    y, p = pt.y, pt.p
    p_half = p - 0.5 * h * hamiltonian.dy(y, p)
    y_new = y + h * hamiltonian.dp(y, p_half)
    p_new = p_half - 0.5 * h * hamiltonian.dy(y_new, p_half)
    return PhasePoint(y_new, p_new)


def integrate(hamiltonian, pt0: PhasePoint, h: float, n_steps: int) -> PhaseTrajectory:
    """n_steps leapfrog updates, recording all n+1 nodes and their energies."""
    n_steps = int(n_steps)
    if n_steps < 1:
        raise ValueError(f"need at least one step, got {n_steps}")
    if h == 0.0:
        raise ValueError("step size must be non-zero")
    points = [pt0]
    energies = np.empty(n_steps + 1)
    energies[0] = hamiltonian(pt0.y, pt0.p)
    pt = pt0
    # overflow needs no warning: the finiteness check turns it into IntegrationError
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, n_steps + 1):
            pt = leapfrog_step(hamiltonian, pt, h)
            e = hamiltonian(pt.y, pt.p)
            if not (np.isfinite(pt.y).all() and np.isfinite(pt.p).all() and math.isfinite(e)):
                raise IntegrationError(f"non-finite state or energy at step {k}")
            points.append(pt)
            energies[k] = e
    return PhaseTrajectory(step=float(h), points=points, energies=energies)


def trajectory_csv(traj: PhaseTrajectory) -> str:
    """CSV dump with columns s, y..., p..., H (10 significant digits)."""
    d = traj.points[0].dim
    header = ["s"] + [f"y{i}" for i in range(d)] + [f"p{i}" for i in range(d)] + ["H"]
    lines = [",".join(header)]
    for k, pt in enumerate(traj.points):
        vals = [k * traj.step, *pt.y, *pt.p, traj.energies[k]]
        lines.append(",".join(_text.fmt(v) for v in vals))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# boundary-value shooting


def _flat_guess(metric_field: MetricField, y_a: np.ndarray, y_b: np.ndarray) -> np.ndarray:
    """The flat-chart initial momentum G(y_a)(y_b - y_a)."""
    return pullback_metric(metric_field, y_a) @ (y_b - y_a)


def shoot_geodesic(metric_field: MetricField, y_a: np.ndarray, p_init: np.ndarray, n_steps: int) -> np.ndarray:
    """Endpoint y(1) of the geodesic leaving y_a with momentum p_init."""
    ham = GeodesicHamiltonian(metric_field)
    traj = integrate(ham, PhasePoint(y_a, p_init), 1.0 / int(n_steps), int(n_steps))
    return traj.final().y


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
    damping parameter is halved after every residual decrease.
    """
    y_a = np.atleast_1d(np.asarray(y_a, dtype=float))
    y_b = np.atleast_1d(np.asarray(y_b, dtype=float))
    p = _flat_guess(metric_field, y_a, y_b)
    residual = shoot_geodesic(metric_field, y_a, p, n_steps) - y_b
    res_norm = float(np.linalg.norm(residual))
    damping = 1e-3
    d = y_a.shape[0]
    for _ in range(int(max_iter)):
        if res_norm <= tol:
            return p
        sens = _fd_gradient(lambda q: shoot_geodesic(metric_field, y_a, q, n_steps), p)
        lhs = sens.T @ sens + damping * np.eye(d)
        delta = np.linalg.solve(lhs, -sens.T @ residual)
        candidate = p + delta
        cand_res = shoot_geodesic(metric_field, y_a, candidate, n_steps) - y_b
        cand_norm = float(np.linalg.norm(cand_res))
        if cand_norm < res_norm:
            p, residual, res_norm = candidate, cand_res, cand_norm
            damping *= 0.5
        else:
            damping *= 10.0
    if res_norm <= tol:
        return p
    raise ShootingError(f"no convergence after {max_iter} iterations; final residual {res_norm:.3e}")


# ---------------------------------------------------------------------------
# variational flow along a trajectory


def variational_matrix(hamiltonian, pt: PhasePoint) -> np.ndarray:
    """DF = J grad^2 H, the linearised Hamiltonian field at a phase point.

    The Hessian is taken by central differences on the gradient;
    J is the canonical symplectic matrix ((0, I), (-I, 0)), so DF stacks
    the p-rows of the Hessian over the negated y-rows.
    """
    d = pt.dim

    def grad(z: np.ndarray) -> np.ndarray:
        y, p = z[:d], z[d:]
        return np.concatenate([hamiltonian.dy(y, p), hamiltonian.dp(y, p)])

    hess = _fd_gradient(grad, np.concatenate([pt.y, pt.p]), HESS_STEP)
    return np.concatenate([hess[d:], -hess[:d]])


def jacobi_propagate(hamiltonian, traj: PhaseTrajectory, delta0: np.ndarray) -> np.ndarray:
    """Propagate a phase-space deviation along a recorded trajectory.

    Uses a frozen-matrix RK2 per segment: the variational matrix is
    evaluated at the segment midpoint and the update is the quadratic
    truncation of its exponential.  Returns an (n+1, 2d) array including
    the initial deviation.
    """
    delta = np.asarray(delta0, dtype=float)
    d = traj.points[0].dim
    if delta.shape != (2 * d,):
        raise ValueError(f"deviation must have length {2 * d}, got {delta.shape}")
    h = traj.step
    out = np.empty((len(traj.points), 2 * d))
    out[0] = delta
    for k in range(len(traj.points) - 1):
        a, b = traj.points[k], traj.points[k + 1]
        mid = PhasePoint(0.5 * (a.y + b.y), 0.5 * (a.p + b.p))
        df = variational_matrix(hamiltonian, mid)
        step1 = df @ delta
        delta = delta + h * step1 + 0.5 * h * h * (df @ step1)
        out[k + 1] = delta
    return out


def empirical_deviations(
    hamiltonian, pt0: PhasePoint, delta0: np.ndarray, h: float, n_steps: int, eps: float = 1e-5
) -> np.ndarray:
    """Deviation oracle: difference two trajectories offset by eps * delta0."""
    delta0 = np.asarray(delta0, dtype=float)
    d = pt0.dim
    base = integrate(hamiltonian, pt0, h, n_steps)
    shifted = PhasePoint(pt0.y + eps * delta0[:d], pt0.p + eps * delta0[d:])
    pert = integrate(hamiltonian, shifted, h, n_steps)
    out = np.empty((n_steps + 1, 2 * d))
    for k, (pa, pb) in enumerate(zip(base.points, pert.points)):
        out[k, :d] = (pb.y - pa.y) / eps
        out[k, d:] = (pb.p - pa.p) / eps
    return out


# ---------------------------------------------------------------------------
# losses


def loss_geo(metric_field: MetricField, pairs, n_steps: int) -> float:
    """Mean squared endpoint error of shot geodesics over (y_a, y_b[, p0]) pairs.

    Without an explicit initial momentum the flat-chart guess
    G(y_a)(y_b - y_a) is used.
    """
    if len(pairs) == 0:
        raise ValueError("need at least one endpoint pair")
    total = 0.0
    for entry in pairs:
        if len(entry) not in (2, 3):
            raise ValueError(f"expected (y_a, y_b) or (y_a, y_b, p0), got {len(entry)} entries")
        y_a, y_b, *p0 = (np.atleast_1d(np.asarray(v, dtype=float)) for v in entry)
        p0 = p0[0] if p0 else _flat_guess(metric_field, y_a, y_b)
        end = shoot_geodesic(metric_field, y_a, p0, n_steps)
        total += float(np.sum((end - y_b) ** 2))
    return total / len(pairs)


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
