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
``MetricField.solve`` solves G v = rhs, and ``GeodesicHamiltonian`` and
the chord step's energies take H from it.  The only derivative of a
decoder is its order-1 jet (f, J), from ``Decoder._forward``, one pass
over its layers (``linear`` is one layer with a zero bias) for a
point (d,) or a stack (..., d); it is unchecked, and the engine checks G
or its nodes instead.

**The chord step.**  A Hamiltonian with a ``metric_field``
(``GeodesicHamiltonian``, ``control.ReducedHamiltonian``) takes the
variational step (Marsden & West 2001) of the discrete Lagrangian

    L_d(q0, q1) = |f(q1) - f(q0)|^2 / 2h + eps_reg |q1 - q0|^2 / 2h,

plus h (V(q0) + V(q1)) / 2 for a potential V.  Newton solves
J0^T (f1 - f0) + eps_reg (q1 - q0) = h p0 (+ h^2/2 grad V(q0)) for q1,
with matrix J0^T J1 + eps_reg I; then
p1 = [J1^T (f1 - f0) + eps_reg (q1 - q0)] / h (+ h/2 grad V(q1)), and
the end point's (f, J) starts the next step.  Step 1 starts Newton at
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
is bit-equal, to name it.  Each node's G is checked by one Cholesky
factorisation.  Any other Hamiltonian provides ``__call__(y, p)`` and
the partials ``dy(y, p)`` and ``dp(y, p)`` and takes the staged
kick-drift-kick of ``_staged``, which is symplectic for a separable H;
table 3 runs the same stepper over Python floats.

**The boundary-value solve.**  ``solve_shooting`` makes the action
S = sum_k L_d(q_k, q_k+1), h = 1/N, stationary over the interior nodes
of q_0 = y_a, ..., q_N = y_b by damped Gauss-Newton from the straight
line: one stacked pass over the N + 1 nodes per iteration, and a
block-tridiagonal Hessian, 2 (J_k^T J_k + eps_reg I) / h on the diagonal
and -(J_k^T J_k+1 + eps_reg I) / h off it.  Its momentum is that of the
first chord, so the chord step from it retraces the nodes to y_b.

Finite differences take their points from ``_stencil`` and their
quotient from ``_central``: steps 1e-5 (1 + |arg|) (``GRAD_STEP``), for
first derivatives only (a potential's gradient in ``control``, the
step's tangent in ``jacobi_propagate``).  One loop runs a point or a
stack, kernel by kernel slice by slice, so each row is bit-equal to its
single-point run: ``leapfrog_step`` is the one-step ``integrate``
without energies, ``jacobi_propagate`` steps the 4d stencil points of
all n nodes as one stack, and ``empirical_deviations`` runs its base and
shifted points as a stack of two.  A ``PhaseTrajectory`` holds the node
rows ``ys`` and ``ps``, (n+1, d) for one point, and ``energies``.

A decoder is its (w, b) layers, each checked by one rule in ``Decoder``:
a matrix taking the previous layer's output width, a matching bias, both
finite (an int past the float range is not).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from typing import Iterable, Sequence

import numpy as np
from numpy.linalg._umath_linalg import cholesky_lo, solve1

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
    message names the singular Newton matrix and the step.
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


def _check_layer(previous: list, w, b) -> tuple[np.ndarray, np.ndarray]:
    """The layer after ``previous`` as float arrays (w, b); ValueError unless it fits them and is finite."""
    w, b = floats(w), floats(b)
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
    """A latent position/momentum pair, or a stack of them: y and p of one shape (..., d)."""

    y: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        y, p = (np.atleast_1d(floats(v)) for v in (self.y, self.p))
        if y.shape != p.shape:
            raise ValueError(f"y and p must have equal length and shape, got {y.shape} and {p.shape}")
        self.y = y
        self.p = p


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


def _chord(hamiltonian, y, p, h, n_steps, energies, failure):
    """Nodes (y, p, H or None) of the chord step, each Newton-solved to its residual bound (module docstring)."""
    field, force, grad = hamiltonian.metric_field, hamiltonian._force, None
    forward, eps = field.decoder._forward, field.eps_reg
    y0, p0 = y, p  # read only on the failure path, by a stacked run's lost rows
    reg = _scaled_eye(float(eps), y.shape[-1])
    out, jac = forward(y)
    before = []  # the (up to) four nodes before y, oldest first
    # whether any row is still above its bound: a single point's test is a numpy scalar, which bool
    # reads ~30x faster than .any() does; a stack's goes to the ufunc reduction .any() calls
    stacked = y.ndim > 1
    pending = partial(np.logical_or.reduce, axis=None) if stacked else bool
    for k in range(n_steps + 1):
        if k:
            q = y + h * solve1(g, p) if k == 1 else _predict(y, before)
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
                    above = size > bound  # a NaN row is not above: the finiteness check names it
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
        try:
            g = field._geometry(y, jac)
        except ValueError:  # a y that drifted to inf or NaN fails as step k, as the finiteness check would
            lost = ~np.isfinite(y).all(axis=-1)
            if not lost.any():
                raise
            if k and not stacked:  # solve1 NaN-fills the solve of a finite, singular matrix
                if np.isfinite(matrix).all() and np.isnan(solve1(matrix, np.zeros(y.shape))).any():
                    raise failure(k, _SINGULAR) from None
            elif k:
                # the rows that updated on rebuilt a lost row's matrix from its NaN Jacobian, so each lost
                # row reruns alone, bit-equal to its row here, and its own run names a singular matrix
                for row in zip(*np.nonzero(lost)):
                    try:
                        for _ in _chord(hamiltonian, y0[row], p0[row], h, k, False, failure):
                            pass
                    except IntegrationError as error:
                        if str(error).startswith(_SINGULAR):
                            raise failure(k, _SINGULAR) from None
            raise failure(k) from None
        if force is not None:
            grad = force(y)
            if k:
                p = p + 0.5 * h * grad
        if not energies:
            yield y, p, None
        else:
            energy = _kinetic(g, p)
            yield y, p, energy if force is None else energy - hamiltonian._potential(out)


def _leapfrog(hamiltonian, y: np.ndarray, p: np.ndarray, h: float, n_steps: int, energies: bool = True):
    """n_steps updates from (y, p) of shape (..., d): the chord step for a Hamiltonian with a metric field.

    Returns the node rows of y and p, shape (n+1, ..., d), and of H,
    shape (n+1, ...), or None for H when ``energies`` is false.  All are
    views of one buffer whose rows are checked finite a node at a time.
    """
    if not is_count(n_steps, 1):
        raise ValueError(f"n_steps must be an integer >= 1, got {n_steps!r}")
    if not (real(h) != 0.0 and math.isfinite(real(h))):
        raise ValueError(f"step size must be finite and non-zero, got {h!r}")
    n_steps, h = int(n_steps), real(h)
    steps = staged if getattr(hamiltonian, "metric_field", None) is None else _chord
    d = y.shape[-1]
    try:
        nodes = np.empty((n_steps + 1, *y.shape[:-1], 2 * d + energies))
    except (ValueError, MemoryError):  # numpy refuses the buffer's size
        raise ValueError(f"n_steps {n_steps} needs a node buffer too large to allocate") from None

    def failure(k: int, cause: str = "non-finite state or energy") -> IntegrationError:
        message = f"{cause} at step {k}"
        if k == 0:
            return IntegrationError(message, 0)
        last = nodes[k - 1].copy()
        drift = float(np.max(np.abs(nodes[:k, ..., -1] - nodes[0, ..., -1]))) if energies else None
        return IntegrationError(message, k, last[..., :d], last[..., d : 2 * d], drift)

    # overflow needs no warning: the finiteness check turns it into IntegrationError
    with np.errstate(over="ignore", invalid="ignore"):
        for k, (y, p, energy) in enumerate(steps(hamiltonian, y, p, h, n_steps, energies, failure)):
            row = nodes[k]
            row[..., :d], row[..., d : 2 * d] = y, p
            if energies:
                row[..., -1] = energy
            if not np.logical_and.reduce(np.isfinite(row), axis=None):
                raise failure(k)
    return nodes[..., :d], nodes[..., d : 2 * d], nodes[..., -1] if energies else None


def integrate(hamiltonian, pt0: PhasePoint, h: float, n_steps: int) -> PhaseTrajectory:
    """n_steps steps of size h, recording all n+1 nodes and their energies.

    A stacked ``pt0`` (..., d) integrates every row at once.  h must be
    finite and non-zero; a non-finite state, or a chord step whose Newton
    residual does not meet its bound within 30 updates, raises
    IntegrationError (module docstring).
    """
    ys, ps, energies = _leapfrog(hamiltonian, pt0.y, pt0.p, h, n_steps)
    return PhaseTrajectory(step=real(h), ys=ys, ps=ps, energies=energies)


def leapfrog_step(hamiltonian, pt: PhasePoint, h: float) -> PhasePoint:
    """One step of size h (h may be negative): the one-step ``integrate``, without energies."""
    ys, ps, _ = _leapfrog(hamiltonian, pt.y, pt.p, h, 1, energies=False)
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


def jacobi_propagate(hamiltonian, traj: PhaseTrajectory, delta0: np.ndarray) -> np.ndarray:
    """Propagate a phase-space deviation along a recorded one-point trajectory by the step's tangent.

    The tangent T_k of one step of size ``traj.step`` at node k is the
    central difference of that step over the 4d stencil points of
    (y_k, p_k); the points of all n nodes take their step as one stack.
    Returns the (n+1, 2d) deviations delta_{k+1} = T_k delta_k, starting
    at delta0.
    """
    delta = floats(delta0)
    d = traj.ys.shape[-1]
    if traj.ys.ndim != 2 or traj.ps.shape != traj.ys.shape:
        raise ValueError(
            f"trajectory must hold one point's (n+1, d) nodes, got ys {traj.ys.shape} and ps {traj.ps.shape}"
        )
    if delta.shape != (2 * d,):
        raise ValueError(f"deviation must have length {2 * d}, got {delta.shape}")
    # a stencil or deviation past the float range needs no warning: the
    # engine's finiteness check or the one below turns it into ValueError
    with np.errstate(over="ignore", invalid="ignore"):
        zs, step = _stencil(np.concatenate([traj.ys[:-1], traj.ps[:-1]], axis=-1))
        if not np.isfinite(step).all():
            node = int(np.argmin(np.isfinite(step).ravel()))
            raise ValueError(f"stencil step at node {node} overflows: |(y, p)| is past the float range's square root")
        ys, ps, _ = _leapfrog(hamiltonian, zs[..., :d], zs[..., d:], traj.step, 1, energies=False)
        tangents = _central(np.concatenate([ys[1], ps[1]], axis=-1), step)
        out = np.empty((len(traj), 2 * d))
        out[0] = delta
        for k, tangent in enumerate(tangents, start=1):
            delta = tangent @ delta
            out[k] = delta
    if not np.isfinite(out).all():
        raise ValueError("propagated deviations are not finite")
    return out


_DEVIATION_SHIFT = 1e-5


def empirical_deviations(hamiltonian, pt0: PhasePoint, delta0: np.ndarray, h: float, n_steps: int) -> np.ndarray:
    """Deviation oracle: difference the runs from one point pt0 and from pt0 + 1e-5 delta0, as one stack."""
    delta0 = floats(delta0)
    d = pt0.y.shape[-1]
    if pt0.y.shape != (d,):
        raise ValueError(f"pt0 must be one phase point of shape ({d},), got shape {pt0.y.shape}")
    if delta0.shape != (2 * d,):
        raise ValueError(f"delta0 must have shape ({2 * d},), got {delta0.shape}")
    # a shifted point or deviation past the float range needs no warning: the
    # engine's finiteness check or the one below turns it into ValueError
    with np.errstate(over="ignore", invalid="ignore"):
        y = np.stack([pt0.y, pt0.y + _DEVIATION_SHIFT * delta0[:d]])
        p = np.stack([pt0.p, pt0.p + _DEVIATION_SHIFT * delta0[d:]])
        ys, ps, _ = _leapfrog(hamiltonian, y, p, h, n_steps, energies=False)
        out = np.concatenate([ys[:, 1] - ys[:, 0], ps[:, 1] - ps[:, 0]], axis=1) / _DEVIATION_SHIFT
    if not np.isfinite(out).all():
        raise ValueError("empirical deviations are not finite")
    return out
