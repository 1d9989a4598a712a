"""Spin-lattice energies, Gibbs attention, and bath-driven micro updates.

A configuration is N unit-norm spins in R^d coupled pairwise by a real
matrix J.  The pair Hamiltonian

    H = - sum_{i<j} J~_ij (s_i . s_j) - sum_i h_i . s_i

is always evaluated through the symmetrised couplings J~ = (J + J^T)/2
with a zero diagonal.  The symmetric part is formed as J/2 + (J/2)^T,
halved before the sum, so finite couplings up to the float maximum never
overflow.  A ``SpinSystem`` builds J~ once, when it is constructed, and
the systems ``micro_step`` returns share it.  The energy and its analytic
gradient -sum_{j != i} J~_ij s_j - h_i are written on one pair field
J~ @ s, so the gradient is the derivative of the energy even when a raw
asymmetric J is supplied.  ``gibbs_attention``, which acts on directed
bonds, uses the raw rows of J.  Every number a ``SpinSystem``,
``attention_couplings``, ``micro_step`` or ``gibbs_attention`` reads
must be finite, and none of them returns a NaN or warns: a non-finite
input or result raises ``ValueError``.  A ``SpinSystem`` also rejects
couplings and fields whose bound on |H| of unit spins,
sum_{i<j} |J~_ij| + sum |h|, overflows the float range, so none of its
read-outs overflows; ``lattice_energy``, which takes raw arrays, checks
its own result.

The leak rate gamma that ``micro_step`` reads from a ``BathParams`` is one
scalar shared by every spin, and its feed-forward target is the residual
map h + W2 tanh(W1 h + b1), normalised.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field

import numpy as np

from ._numbers import floats, is_count, real

__all__ = [
    "SpinSystem",
    "BathParams",
    "attention_couplings",
    "lattice_energy",
    "two_body_energy",
    "gibbs_attention",
    "energy_gradient",
    "micro_step",
]

_NORM_TOL = 1e-9
_COLLAPSE_TOL = 1e-12
# room a SpinSystem's energy bounds keep below the float maximum: spin norms up
# to 1 + _NORM_TOL and the rounding of float sums (n eps for n terms) stay
# inside it for sums of up to ~4e9 terms
_BOUND_MARGIN = 1.0 + 1e-6


@dataclass
class SpinSystem:
    """N unit spins with pair couplings and external fields.

    The symmetrised couplings J~ (zero diagonal) are built once here, one
    N x N float copy (8N^2 bytes), and read by every energy and gradient of
    the system; replace the system rather than its ``couplings`` attribute.
    """

    spins: np.ndarray
    couplings: np.ndarray
    fields: np.ndarray | None = None
    _sym: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        spins = floats(self.spins)
        if spins.ndim == 1:
            spins = spins[None, :]
        if spins.ndim != 2:
            raise ValueError("spins must form an (N, d) matrix")
        with np.errstate(over="ignore"):  # a huge entry gives norm inf, rejected below
            norms = np.linalg.norm(spins, axis=1)
        bad = np.nonzero(~(np.abs(norms - 1.0) <= _NORM_TOL))[0]
        if bad.size:
            raise ValueError(f"spin {bad[0]} has norm {float(norms[bad[0]])!r}, expected 1 within {_NORM_TOL}")
        n = spins.shape[0]
        couplings = floats(self.couplings)
        if couplings.shape != (n, n):
            raise ValueError(f"couplings must be ({n}, {n}), got {couplings.shape}")
        if not np.isfinite(couplings).all():
            raise ValueError("couplings must be finite")
        if self.fields is None:
            fields = np.zeros_like(spins)
        else:
            fields = floats(self.fields)
            if fields.shape != spins.shape:
                raise ValueError(f"fields must match spins shape {spins.shape}, got {fields.shape}")
            if not np.isfinite(fields).all():
                raise ValueError("fields must be finite")
        sym = _symmetrised(couplings)
        # |H| <= sum_{i<j} |J~_ij| + sum |h| bounds the energy and each gradient
        # entry of unit spins
        with np.errstate(over="ignore"):
            half = np.abs(sym)
            half *= 0.5
            pair_bound = float(half.sum()) + float(np.abs(fields).sum())
        if not math.isfinite(pair_bound * _BOUND_MARGIN):
            raise ValueError("couplings and fields too large: sum_{i<j} |J~_ij| + sum |h| overflows the float range")
        self.spins = spins
        self.couplings = couplings
        self.fields = fields
        self._sym = sym


@dataclass
class BathParams:
    """Relaxation, feed-forward nudge, and leak parameters for micro updates.

    eta, eta_ff and gamma are real scalars shared by every neuron.  W1/W2/b1
    define the feed-forward map t = h + W2 tanh(W1 h + b1) and are only
    required when eta_ff != 0.  Every parameter given must be finite;
    a NaN or inf one, or an int past the float range, raises ``ValueError``
    naming it, and so does an eta, eta_ff or gamma that is not a scalar, a
    W1 that is not an (h, d) matrix, a W2 that is not a (d', h) one, or a b1
    whose shape is not (h,), h being W1's rows when W1 is given.  The
    feed-forward target checks d and d' against the spins' width.
    """

    eta: float = 0.0
    eta_ff: float = 0.0
    gamma: float = 0.0
    W1: np.ndarray | None = None
    W2: np.ndarray | None = None
    b1: np.ndarray | None = None

    def __post_init__(self):
        for name in ("eta", "eta_ff", "gamma"):
            value = getattr(self, name)
            if np.ndim(value) != 0:
                raise ValueError(f"{name} must be a scalar, got shape {np.shape(value)}")
        for name in ("eta", "eta_ff", "gamma", "W1", "W2", "b1"):
            value = getattr(self, name)
            if not (value is None or np.isfinite(floats(value)).all()):
                raise ValueError(f"{name} must be finite")
        hidden = "h"
        if self.W1 is not None:
            if np.ndim(self.W1) != 2:
                raise ValueError(f"W1 must be an (h, d) matrix, got shape {np.shape(self.W1)}")
            hidden = np.shape(self.W1)[0]
        if self.W2 is not None and (np.ndim(self.W2) != 2 or hidden not in ("h", np.shape(self.W2)[1])):
            raise ValueError(f"W2 must be a (d, {hidden}) matrix, got shape {np.shape(self.W2)}")
        if self.b1 is not None and (np.ndim(self.b1) != 1 or hidden not in ("h", len(self.b1))):
            raise ValueError(f"b1 must have shape ({hidden},), got {np.shape(self.b1)}")


def attention_couplings(queries: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Scaled query-key couplings J_ij = (q_i . k_j) / sqrt(d).

    Non-finite queries or keys, or a coupling past the float range, raise
    ``ValueError``.
    """
    q = floats(queries)
    k = floats(keys)
    if q.ndim != 2 or k.shape != q.shape:
        raise ValueError(f"queries and keys must share an (N, d) shape, got {q.shape} and {k.shape}")
    if q.shape[1] == 0:  # J would be 0 / sqrt(0)
        raise ValueError(f"queries and keys need d >= 1 columns, got shape {q.shape}")
    if not np.isfinite(q).all():
        raise ValueError("queries must be finite")
    if not np.isfinite(k).all():
        raise ValueError("keys must be finite")
    with np.errstate(over="ignore", invalid="ignore"):
        j = q @ k.T / np.sqrt(q.shape[1])
    if not np.isfinite(j).all():
        raise ValueError("a query-key coupling overflows the float range")
    return j


def _symmetrised(couplings: np.ndarray) -> np.ndarray:
    """J~ = (J + J^T)/2 with a zero diagonal, the one place the pair interaction is written.

    Row i of J~ @ s is sum_{j != i} J~_ij s_j.  J is halved before the sum,
    so finite entries never overflow; halving is exact for normal floats,
    so this equals the sum halved bit for bit, and only an entry whose half
    is subnormal can differ, by one bit.  Two N x N allocations, one of
    them temporary.
    """
    half = 0.5 * couplings
    sym = half + half.T
    np.fill_diagonal(sym, 0.0)
    return sym


def _pair_energy(sym: np.ndarray, spins: np.ndarray, fields: np.ndarray | None) -> float:
    # halved before the sum, which the double count would overflow
    e = -float(np.sum(0.5 * (spins * (sym @ spins))))
    if fields is not None:
        e -= float(np.sum(fields * spins))
    return e


def lattice_energy(couplings: np.ndarray, spins: np.ndarray, fields: np.ndarray | None = None) -> float:
    """Pair + field energy of a raw configuration (no norm validation).

    Uses the symmetrised couplings, built from ``couplings`` on each call
    (one N x N copy); exposed separately so callers can score
    pre-normalisation states.  An energy that is not finite raises
    ``ValueError``.
    """
    fields = None if fields is None else floats(fields)
    with np.errstate(over="ignore", invalid="ignore"):
        e = _pair_energy(_symmetrised(floats(couplings)), floats(spins), fields)
    if not math.isfinite(e):
        raise ValueError(f"lattice energy is {e!r}, not finite")
    return e


def two_body_energy(system: SpinSystem) -> float:
    """H = -sum_{i<j} J~_ij s_i.s_j - sum_i h_i.s_i."""
    return _pair_energy(system._sym, system.spins, system.fields)


def gibbs_attention(system: SpinSystem, i: int, beta: float) -> np.ndarray:
    """Boltzmann weights over neighbours j != i of bond energies at inverse temperature beta.

    Returns a length-N vector with weight 0 at position i; computed with
    max subtraction so large |beta E| stays finite.  Only the j != i
    energies are scaled by beta.  A non-finite beta, or a finite one that
    scales a bond energy past the float range, raises ``ValueError``.
    """
    n = system.spins.shape[0]
    if not (is_count(i, 0) and i < n):
        raise ValueError(f"spin index {i} out of range")
    if n < 2:
        raise ValueError("gibbs attention needs at least two spins (no j != i otherwise)")
    if not math.isfinite(real(beta)):
        raise ValueError(f"beta must be finite, got {beta!r}")
    i, beta = int(i), real(beta)
    e_row = -system.couplings[i] * (system.spins @ system.spins[i])
    mask = np.ones(n, dtype=bool)
    mask[i] = False
    with np.errstate(over="ignore"):
        logits = -beta * e_row[mask]
    if not np.isfinite(logits).all():
        raise ValueError(f"beta {beta!r} scales a bond energy of spin {i} past the float range")
    shifted = logits - np.max(logits)
    w = np.exp(shifted)
    out = np.zeros(n)
    out[mask] = w / np.sum(w)
    return out


def _unit_rows(rows: np.ndarray, message: str) -> np.ndarray:
    """rows, which the caller made itself, scaled to norm 1 in place.

    ValueError(message.format(i=..., state=...)) names the first row whose
    norm is below 1e-12 or not finite.
    """
    norms = np.linalg.norm(rows, axis=1)
    ok = (norms >= _COLLAPSE_TOL) & np.isfinite(norms)
    if not ok.all():
        i = int(np.argmin(ok))
        norm = float(norms[i])
        state = f"collapsed to norm {norm!r}" if norm < _COLLAPSE_TOL else f"has norm {norm!r}"
        raise ValueError(message.format(i=i, state=state))
    rows /= norms[:, None]
    return rows


def _feed_forward_targets(h: np.ndarray, bath: BathParams) -> np.ndarray:
    """Feed-forward targets (h + W2 tanh(W1 h + b1)) / ||.|| of the rows h of an (m, d) spin matrix; the one formula."""
    if bath.W1 is None or bath.W2 is None:
        raise ValueError("the feed-forward target needs W1 and W2 on the bath")
    d = h.shape[1]
    if np.shape(bath.W1)[1] != d:
        raise ValueError(f"W1 must have the spins' width {d} as its columns, got shape {np.shape(bath.W1)}")
    if np.shape(bath.W2)[0] != d:
        raise ValueError(f"W2 must have the spins' width {d} as its rows, got shape {np.shape(bath.W2)}")
    # an overflow leaves a row of non-finite norm, which _unit_rows rejects
    with np.errstate(over="ignore", invalid="ignore"):
        u = h @ bath.W1.T
        if bath.b1 is not None:
            u += bath.b1
        t = np.tanh(u, out=u) @ bath.W2.T
        t += h
        return _unit_rows(t, "feed-forward target of neuron {i} {state}; cannot normalise")


def energy_gradient(system: SpinSystem) -> np.ndarray:
    """Analytic dH/ds_i = -sum_{j != i} J~_ij s_j - h_i, one row per spin, as a fresh array."""
    g = system._sym @ system.spins
    np.negative(g, out=g)
    g -= system.fields
    return g


def micro_step(system: SpinSystem, bath: BathParams) -> SpinSystem:
    """One relax-nudge-leak update of every spin, then renormalisation.

    s_hat_i = s_i - eta dH/ds_i + eta_ff (t_i - s_i) - gamma s_i

    with the feed-forward target t_i = (s_i + W2 tanh(W1 s_i + b1)) / ||.||,
    computed only when eta_ff != 0; the N targets are one batch of matrix
    products.  Raises when a target or an updated spin collapses below norm
    1e-12 or has a non-finite norm, naming the neuron.

    Each term is formed in place on an array the tick made itself, in the
    order of the formula, so the formula allocates five arrays of N rows a
    tick: the gradient, the update, gamma s, and the target's hidden layer
    and rows (``np.linalg.norm`` squares each matrix it normalises besides).
    """
    s = system.spins
    # an overflow leaves a row of non-finite norm, which _unit_rows rejects
    with np.errstate(over="ignore", invalid="ignore"):
        # s is never written: the update is a fresh array from here on
        if bath.eta != 0.0:
            step = energy_gradient(system)
            step *= bath.eta
            update = s - step
        else:
            update = s.copy()
        if bath.eta_ff != 0.0:
            targets = _feed_forward_targets(s, bath)
            targets -= s
            targets *= bath.eta_ff
            update += targets
        update -= bath.gamma * s
        new_spins = _unit_rows(update, "neuron {i} {state} during micro step")
    # the couplings and fields are the checked ones and each row has norm 1
    # by construction, so the successor skips SpinSystem's validation and
    # shares its input's J~
    successor = copy.copy(system)
    successor.spins = new_spins
    return successor

