"""Spin-lattice energies, Gibbs attention, and bath-driven micro updates.

A configuration is N unit-norm spins in R^d coupled pairwise by a real
matrix J and optionally by sparse three-spin terms.  The pair Hamiltonian

    H = - sum_{i<j} J~_ij (s_i . s_j) - sum_i h_i . s_i

is always evaluated through the symmetrised couplings J~ = (J + J^T)/2.
The energy and its analytic gradient -sum_{j != i} J~_ij s_j - h_i are
written on one pair field sum_{j != i} J~_ij s_j, so the gradient is the
derivative of the energy even when a raw asymmetric J is supplied.
Read-outs that act on directed bonds (``bond_energies``,
``gibbs_attention``) use the raw rows of J.

Spin matrices serialise to plain text, one whitespace-separated row per
spin (see ``save_spin_matrix``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import _text

__all__ = [
    "Spin",
    "SpinSystem",
    "SynapseKernel",
    "BathParams",
    "attention_couplings",
    "lattice_energy",
    "two_body_energy",
    "default_triple_product",
    "three_body_energy",
    "bond_energies",
    "gibbs_attention",
    "head_output",
    "effective_influence",
    "ctm_couplings",
    "ffn_target",
    "energy_gradient",
    "micro_step",
    "save_spin_matrix",
    "load_spin_matrix",
]

_NORM_TOL = 1e-9
_COLLAPSE_TOL = 1e-12


@dataclass(frozen=True)
class Spin:
    """A single unit-norm spin vector."""

    vec: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vec, dtype=float)
        if v.ndim != 1:
            raise ValueError("a spin is a 1-d vector")
        if abs(np.linalg.norm(v) - 1.0) > _NORM_TOL:
            raise ValueError(f"spin norm {np.linalg.norm(v)!r} deviates from 1 by more than {_NORM_TOL}")
        object.__setattr__(self, "vec", v)

    @property
    def dim(self) -> int:
        return self.vec.shape[0]


@dataclass
class SpinSystem:
    """N unit spins with pair couplings, external fields, and sparse triples.

    three_body entries are ``(i, j, k, K)`` with ``i < j < k``.
    """

    spins: np.ndarray
    couplings: np.ndarray
    fields: np.ndarray | None = None
    three_body: list[tuple[int, int, int, float]] = field(default_factory=list)

    def __post_init__(self):
        spins = np.asarray(self.spins, dtype=float)
        if spins.ndim == 1:
            spins = spins[None, :]
        if spins.ndim != 2:
            raise ValueError("spins must form an (N, d) matrix")
        norms = np.linalg.norm(spins, axis=1)
        bad = np.nonzero(np.abs(norms - 1.0) > _NORM_TOL)[0]
        if bad.size:
            raise ValueError(f"spin {bad[0]} has norm {norms[bad[0]]!r}, expected 1 within {_NORM_TOL}")
        n = spins.shape[0]
        couplings = np.asarray(self.couplings, dtype=float)
        if couplings.shape != (n, n):
            raise ValueError(f"couplings must be ({n}, {n}), got {couplings.shape}")
        if not np.isfinite(couplings).all():
            raise ValueError("couplings must be finite")
        if self.fields is None:
            fields = np.zeros_like(spins)
        else:
            fields = np.asarray(self.fields, dtype=float)
            if fields.shape != spins.shape:
                raise ValueError(f"fields must match spins shape {spins.shape}, got {fields.shape}")
        for entry in self.three_body:
            i, j, k, _ = entry
            if not (0 <= i < j < k < n):
                raise ValueError(f"three-body indices must satisfy 0 <= i < j < k < N, got {entry!r}")
        self.spins = spins
        self.couplings = couplings
        self.fields = fields

    @property
    def n_spins(self) -> int:
        return self.spins.shape[0]

    @property
    def dim(self) -> int:
        return self.spins.shape[1]


@dataclass
class SynapseKernel:
    """Per-pair temporal kernel taps; the last axis runs over lags."""

    taps: np.ndarray

    def __post_init__(self):
        taps = np.asarray(self.taps, dtype=float)
        if taps.ndim < 1:
            raise ValueError("kernel taps need at least one lag axis")
        if not np.isfinite(taps).all():
            raise ValueError("kernel taps must be finite")
        self.taps = taps


@dataclass
class BathParams:
    """Relaxation, feed-forward nudge, and leak parameters for micro updates.

    gamma may be a scalar or a per-neuron array.  W1/W2/b1/b2 define the
    feed-forward map and are only required when eta_ff != 0.  W1 may carry
    extra trailing columns that consume an external drive vector appended
    to each spin.
    """

    eta: float = 0.0
    eta_ff: float = 0.0
    gamma: float | np.ndarray = 0.0
    W1: np.ndarray | None = None
    W2: np.ndarray | None = None
    b1: np.ndarray | None = None
    b2: np.ndarray | None = None
    nonlinearity: str = "tanh"

    def __post_init__(self):
        if self.nonlinearity not in ("tanh", "gelu"):
            raise ValueError(f"nonlinearity must be 'tanh' or 'gelu', got {self.nonlinearity!r}")


_erf = np.vectorize(math.erf, otypes=[float])


def _apply_nonlinearity(u: np.ndarray, kind: str) -> np.ndarray:
    if kind == "tanh":
        return np.tanh(u)
    return 0.5 * u * (1.0 + _erf(u / np.sqrt(2.0)))


def attention_couplings(queries: np.ndarray, keys: np.ndarray, symmetrize: bool = False) -> np.ndarray:
    """Scaled query-key couplings J_ij = (q_i . k_j) / sqrt(d)."""
    q = np.asarray(queries, dtype=float)
    k = np.asarray(keys, dtype=float)
    if q.ndim != 2 or k.shape != q.shape:
        raise ValueError(f"queries and keys must share an (N, d) shape, got {q.shape} and {k.shape}")
    j = q @ k.T / np.sqrt(q.shape[1])
    if symmetrize:
        j = 0.5 * (j + j.T)
    return j


def _pair_field(couplings: np.ndarray, spins: np.ndarray) -> np.ndarray:
    """Row i is sum_{j != i} J~_ij s_j, the one place the pair interaction is written."""
    return 0.5 * (couplings @ spins + couplings.T @ spins) - np.diag(couplings)[:, None] * spins


def lattice_energy(couplings: np.ndarray, spins: np.ndarray, fields: np.ndarray | None = None) -> float:
    """Pair + field energy of a raw configuration (no norm validation).

    Uses the symmetrised couplings; exposed separately so callers can
    score pre-normalisation states.
    """
    e = -0.5 * float(np.sum(spins * _pair_field(couplings, spins)))
    if fields is not None:
        e -= float(np.sum(fields * spins))
    return e


def two_body_energy(system: SpinSystem) -> float:
    """H = -sum_{i<j} J~_ij s_i.s_j - sum_i h_i.s_i."""
    return lattice_energy(system.couplings, system.spins, system.fields)


def default_triple_product(si: np.ndarray, sj: np.ndarray, sk: np.ndarray) -> float:
    """Symmetric trilinear form: sum of pairwise dot products taken two at a time."""
    ab = float(si @ sj)
    bc = float(sj @ sk)
    ca = float(sk @ si)
    return ab * bc + bc * ca + ca * ab

def _check_symmetric_form(f: Callable, dim: int, trials: int = 3) -> None:
    rng = np.random.default_rng(1234)
    for _ in range(trials):
        v = rng.normal(size=(3, dim))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        base = f(v[0], v[1], v[2])
        for perm in ((0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)):
            other = f(v[perm[0]], v[perm[1]], v[perm[2]])
            if abs(other - base) > 1e-10 * max(1.0, abs(base)):
                raise ValueError("three-body form is not symmetric under spin permutations")


def three_body_energy(system: SpinSystem, f: Callable | None = None) -> float:
    """H3 = -sum_{i<j<k} K_ijk f(s_i, s_j, s_k) over the sparse triple list."""
    if f is None:
        f = default_triple_product
    else:
        _check_symmetric_form(f, system.dim)
    s = system.spins
    total = 0.0
    for i, j, k, strength in system.three_body:
        total -= strength * f(s[i], s[j], s[k])
    return float(total)


def bond_energies(system: SpinSystem) -> np.ndarray:
    """Directed bond energies E_ij = -J_ij s_i.s_j with a zero diagonal."""
    gram = system.spins @ system.spins.T
    e = -system.couplings * gram
    np.fill_diagonal(e, 0.0)
    return e


def gibbs_attention(system: SpinSystem, i: int, beta: float) -> np.ndarray:
    """Boltzmann weights over neighbours j != i of bond energies at inverse temperature beta.

    Returns a length-N vector with weight 0 at position i; computed with
    max subtraction so large |beta E| stays finite.
    """
    n = system.n_spins
    if not 0 <= i < n:
        raise ValueError(f"spin index {i} out of range")
    if n < 2:
        raise ValueError("gibbs attention needs at least two spins (no j != i otherwise)")
    e_row = -system.couplings[i] * (system.spins @ system.spins[i])
    logits = -beta * e_row
    mask = np.ones(n, dtype=bool)
    mask[i] = False
    shifted = logits[mask] - np.max(logits[mask])
    w = np.exp(shifted)
    out = np.zeros(n)
    out[mask] = w / np.sum(w)
    return out


def head_output(weights: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Convex mix of value vectors, h = sum_j pi_j v_j."""
    w = np.asarray(weights, dtype=float)
    v = np.asarray(values, dtype=float)
    if w.ndim != 1 or v.shape[0] != w.shape[0]:
        raise ValueError(f"got {w.shape[0]} weights for {v.shape[0]} values")
    return w @ v


def effective_influence(kernel: SynapseKernel) -> np.ndarray | float:
    """Total synaptic influence: kernel taps summed over the lag axis."""
    out = np.sum(kernel.taps, axis=-1)
    return float(out) if out.ndim == 0 else out


def ctm_couplings(influence: np.ndarray, spin_history: np.ndarray, alpha: float) -> np.ndarray:
    """Blend of symmetrised influence and time-averaged spin correlations.

    J = alpha (W + W^T)/2 + (1 - alpha) (1/T) sum_t s_i(t) . s_j(t)
    """
    w = np.asarray(influence, dtype=float)
    hist = np.asarray(spin_history, dtype=float)
    if hist.ndim != 3:
        raise ValueError("spin history must be (T, N, d)")
    t_len, n, _ = hist.shape
    if w.shape != (n, n):
        raise ValueError(f"influence must be ({n}, {n}), got {w.shape}")
    if t_len < 1:
        raise ValueError("spin history needs at least one tick")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha!r}")
    corr = np.einsum("tid,tjd->ij", hist, hist) / t_len
    return alpha * 0.5 * (w + w.T) + (1.0 - alpha) * corr


def _ffn_targets(h: np.ndarray, bath: BathParams, x_ext: np.ndarray | None = None) -> np.ndarray:
    """Row-wise ``ffn_target`` of an (m, d) spin matrix; the one feed-forward formula."""
    if bath.W1 is None or bath.W2 is None:
        raise ValueError("the feed-forward target needs W1 and W2 on the bath")
    inp = h
    if x_ext is not None:
        x = np.asarray(x_ext, dtype=float)
        inp = np.concatenate([h, np.broadcast_to(x, (h.shape[0], x.size))], axis=1)
    u = inp @ bath.W1.T
    if bath.b1 is not None:
        u = u + bath.b1
    t = h + _apply_nonlinearity(u, bath.nonlinearity) @ bath.W2.T
    if bath.b2 is not None:
        t = t + bath.b2
    norms = np.linalg.norm(t, axis=1)
    collapsed = np.flatnonzero(norms <= _COLLAPSE_TOL)
    if collapsed.size:
        i = collapsed[0]
        raise ValueError(
            f"feed-forward target of neuron {i} collapsed to norm {norms[i]!r}; cannot normalise"
        )
    return t / norms[:, None]


def ffn_target(h: np.ndarray, bath: BathParams, x_ext: np.ndarray | None = None) -> np.ndarray:
    """Normalised residual feed-forward target (h + W2 sigma(W1 h + b1) + b2) / ||.||.

    When ``x_ext`` is given it is appended to ``h`` before the first layer;
    the residual path always stays on ``h`` itself.  This is the one-row
    case of the batch that ``micro_step`` computes, so a collapsed target
    is reported as neuron 0.
    """
    return _ffn_targets(np.asarray(h, dtype=float)[None, :], bath, x_ext)[0]


def energy_gradient(system: SpinSystem) -> np.ndarray:
    """Analytic dH/ds_i = -sum_{j != i} J~_ij s_j - h_i, one row per spin."""
    return -_pair_field(system.couplings, system.spins) - system.fields


def micro_step(system: SpinSystem, bath: BathParams, x_ext: np.ndarray | None = None) -> SpinSystem:
    """One relax-nudge-leak update of every spin, then renormalisation.

    s_hat_i = s_i - eta dH/ds_i + eta_ff (t_i - s_i) - gamma_i s_i

    with t_i the feed-forward target of s_i; the N targets are one batch
    of matrix products.  Raises when a target or an updated spin collapses
    below norm 1e-12, naming the neuron.
    """
    s = system.spins
    update = s.copy()
    if bath.eta != 0.0:
        update = update - bath.eta * energy_gradient(system)
    if bath.eta_ff != 0.0:
        targets = _ffn_targets(s, bath, x_ext)
        update = update + bath.eta_ff * (targets - s)
    gamma = np.asarray(bath.gamma, dtype=float)
    if gamma.ndim == 0:
        update = update - float(gamma) * s
    else:
        if gamma.shape != (system.n_spins,):
            raise ValueError(f"gamma must be scalar or length {system.n_spins}")
        update = update - gamma[:, None] * s
    norms = np.linalg.norm(update, axis=1)
    collapsed = np.nonzero(norms < _COLLAPSE_TOL)[0]
    if collapsed.size:
        raise ValueError(f"neuron {collapsed[0]} collapsed to norm {norms[collapsed[0]]!r} during micro step")
    return SpinSystem(
        spins=update / norms[:, None],
        couplings=system.couplings,
        fields=system.fields,
        three_body=list(system.three_body),
    )


def save_spin_matrix(path, spins: np.ndarray) -> None:
    """One whitespace-separated row per spin, each value with 17 significant digits."""
    rows = np.atleast_2d(np.asarray(spins, dtype=float))
    if rows.ndim != 2:
        raise ValueError(f"expected a 1-d or 2-d spin array, got shape {rows.shape}")
    _text.write(path, [" ".join(f"{v:.17g}" for v in row) for row in rows])


def load_spin_matrix(path) -> np.ndarray:
    """Parse the format of ``save_spin_matrix``.

    A bad value or a ragged row raises ``_text.FormatError`` starting
    ``line N: ``; a file with no row raises ``ValueError``.
    """
    rows = []
    for ln, line in _text.lines(path):
        try:
            row = [float(v) for v in line.split()]
            if rows and len(row) != len(rows[0]):
                raise ValueError(f"expected {len(rows[0])} values, got {len(row)}")
        except ValueError as exc:
            raise _text.FormatError.at(ln, exc) from None
        rows.append(row)
    if not rows:
        raise ValueError(f"no spin rows found in {str(path)!r}")
    return np.array(rows)
