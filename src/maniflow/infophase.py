"""Entropy portraits, empirical phase fields, and scalar-field fits.

A portrait tracks the Shannon entropy u_t (natural log) of a distribution
sequence together with the per-step effort e_t = u_{t-1} - u_t (e_0 := 0,
optionally smoothed by a centred moving average).  Portraits can be
aggregated into a gridded empirical field of mean (du, de) displacements
binned at the step's start point; the field supports a divergence score
and a least-squares fit of a stream-function-style scalar field H with
u_dot = dH/de and e_dot = -dH/du.

The fit uses adjacent-cell differences matched against averaged field
values rather than strict central differences: centred stencils couple
only cells two apart, which splits the unknowns into four decoupled
parity classes and makes a single-gauge fit rank deficient by
construction.  Compact differences agree with the centred ones to second
order and keep the system connected.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "DegenerateFieldError",
    "PhasePortrait",
    "GridField",
    "entropy",
    "portrait",
    "empirical_field",
    "divergence_score",
    "fit_info_hamiltonian",
]


class DegenerateFieldError(ValueError):
    """The empirical field cannot support the requested analysis.

    That includes a scalar-field fit that is rank deficient beyond its
    gauge freedom; one rank verdict covers every cause: a disconnected
    occupied region, occupied cells that share no adjacency at all among
    them.
    """


def _entropies(p: np.ndarray) -> np.ndarray:
    """Shannon entropy of each row along the last axis; ValueError unless each row is a distribution.

    A row must be non-empty, have no negative entry and sum to 1 within
    1e-9.  A zero entry adds a 0 ln 1 term, so 0 ln 0 = 0 and a row sums
    the same alone as in a stack: ``entropy`` scores its one row here and
    ``portrait`` a whole stack, bit for bit alike.
    """
    if p.shape[-1] == 0:
        raise ValueError("distribution must be a non-empty 1-d array")
    if np.any(p < 0):
        raise ValueError("distribution has negative entries")
    total = np.asarray(p.sum(axis=-1))
    off = ~(np.abs(total - 1.0) <= 1e-9)
    if np.any(off):
        raise ValueError(f"distribution sums to {float(total[off][0])!r}, expected 1 within 1e-9")
    return -np.sum(p * np.log(np.where(p > 0, p, 1.0)), axis=-1) + 0.0  # + 0.0: a one-hot row is 0.0, not -0.0


def entropy(dist) -> float:
    """Shannon entropy -sum p ln p with the 0 ln 0 = 0 convention."""
    p = np.asarray(dist, dtype=float)
    if p.ndim != 1:
        raise ValueError("distribution must be a non-empty 1-d array")
    return float(_entropies(p))


@dataclass
class PhasePortrait:
    """Paired entropy and effort series of equal length, finite, with u >= 0."""

    u: np.ndarray
    e: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float)
        e = np.asarray(self.e, dtype=float)
        if u.shape != e.shape or u.ndim != 1:
            raise ValueError("u and e must be 1-d arrays of equal length")
        if not (np.isfinite(u).all() and np.isfinite(e).all()):
            raise ValueError("entropy and effort series must be finite")
        if np.any(u < 0):
            raise ValueError("entropy series must be non-negative")
        self.u = u
        self.e = e

    def __len__(self) -> int:
        return self.u.shape[0]


def _smooth_centered(values: np.ndarray, window: int) -> np.ndarray:
    """Centred moving average, truncated at the ends; each point is the np.mean of its window."""
    window = int(window)
    if window < 1:
        raise ValueError(f"smoothing window must be >= 1, got {window}")
    if window == 1:
        return values
    if window % 2 == 0:
        raise ValueError(f"smoothing window must be odd, got {window}")
    half = (window - 1) // 2
    n = values.shape[0]
    out = np.empty_like(values)
    if n >= window:
        out[half : n - half] = sliding_window_view(values, window).mean(axis=-1)
        ends = [*range(half), *range(n - half, n)]
    else:
        ends = range(n)
    for t in ends:
        out[t] = float(np.mean(values[max(0, t - half) : t + half + 1]))
    return out


def _row_entropies(dists) -> np.ndarray | None:
    """``entropy`` of each row of a (rows, k) stack, or None where the rows are not one valid stack.

    None sends the caller to the per-row path, which raises ``entropy``'s
    error for the first bad row.
    """
    try:
        p = np.asarray(dists, dtype=float, order="C")
        return _entropies(p) if p.ndim == 2 else None
    except (TypeError, ValueError):  # ragged rows, or a row entropy rejects
        return None


def portrait(dists, smoothing_window: int = 1) -> PhasePortrait:
    """Entropy/effort portrait of a distribution sequence.

    Effort is the raw backward difference u_{t-1} - u_t with e_0 = 0,
    then a centred moving average of the requested odd width (truncated
    at the ends; width 1 means no smoothing).  Rows of one length are
    scored as one stack, ragged rows one at a time.
    """
    u = _row_entropies(dists)
    if u is None:
        u = np.array([entropy(d) for d in dists])
    if u.size == 0:
        raise ValueError("need at least one distribution")
    e = np.zeros_like(u)
    if u.size > 1:
        e[1:] = u[:-1] - u[1:]
    return PhasePortrait(u=u, e=_smooth_centered(e, smoothing_window))


@dataclass
class GridField:
    """Mean displacement field on a regular (u, e) grid.

    vu/ve hold per-cell mean displacements indexed [iu, ie]; count holds
    the number of contributing steps.
    """

    u_edges: np.ndarray
    e_edges: np.ndarray
    vu: np.ndarray
    ve: np.ndarray
    count: np.ndarray

    @property
    def u_centers(self) -> np.ndarray:
        return 0.5 * (self.u_edges[:-1] + self.u_edges[1:])

    @property
    def e_centers(self) -> np.ndarray:
        return 0.5 * (self.e_edges[:-1] + self.e_edges[1:])

    @property
    def occupied(self) -> np.ndarray:
        return self.count > 0


def _edges(values: np.ndarray, bins: int) -> np.ndarray:
    lo = float(np.min(values))
    hi = float(np.max(values))
    if lo == hi:
        lo -= 0.5
        hi += 0.5
    return np.linspace(lo, hi, bins + 1)


def _bin_index(edges: np.ndarray, x: np.ndarray) -> np.ndarray:
    idx = np.searchsorted(edges, x, side="right") - 1
    return np.clip(idx, 0, edges.shape[0] - 2)


def empirical_field(portraits, bins: int) -> GridField:
    """Bin per-step (du, de) displacements by their start point and average.

    The grid has ``bins`` equal cells along u and along e, spanning the
    step start points (a zero span is widened to one unit).  Each step
    goes to one flat cell ``iu * bins + ie``; counts and displacement sums
    accumulate in step order, and each occupied cell holds the mean.
    """
    bins = int(bins)
    if bins < 1:
        raise ValueError("bin count must be >= 1")
    starts_u, starts_e, dus, des = [], [], [], []
    for por in portraits:
        if len(por) < 2:
            continue
        starts_u.append(por.u[:-1])
        starts_e.append(por.e[:-1])
        dus.append(np.diff(por.u))
        des.append(np.diff(por.e))
    if not starts_u:
        raise ValueError("portraits contain no displacement steps")
    su = np.concatenate(starts_u)
    se = np.concatenate(starts_e)
    du = np.concatenate(dus)
    de = np.concatenate(des)

    u_edges = _edges(su, bins)
    e_edges = _edges(se, bins)
    cell = _bin_index(u_edges, su) * bins + _bin_index(e_edges, se)
    shape = (bins, bins)
    count = np.bincount(cell, minlength=bins * bins).reshape(shape)
    vu = np.bincount(cell, du, bins * bins).reshape(shape)
    ve = np.bincount(cell, de, bins * bins).reshape(shape)
    mask = count > 0
    vu[mask] /= count[mask]
    ve[mask] /= count[mask]
    return GridField(u_edges=u_edges, e_edges=e_edges, vu=vu, ve=ve, count=count)


def divergence_score(field: GridField) -> float:
    """Mean |div| on interior occupied cells over the mean field magnitude.

    Divergence is taken by central differences; a cell counts as interior
    when it and its four axis neighbours are occupied.  Raises on fields
    with no interior cell or with zero magnitude.
    """
    occ = field.occupied
    interior = occ[1:-1, 1:-1] & occ[:-2, 1:-1] & occ[2:, 1:-1] & occ[1:-1, :-2] & occ[1:-1, 2:]
    if not interior.any():
        raise DegenerateFieldError("no interior occupied cell; need at least a 3x3 occupied block")
    du = float(field.u_edges[1] - field.u_edges[0])
    de = float(field.e_edges[1] - field.e_edges[0])
    div = (field.vu[2:, 1:-1] - field.vu[:-2, 1:-1]) / (2.0 * du)
    div += (field.ve[1:-1, 2:] - field.ve[1:-1, :-2]) / (2.0 * de)
    mags = np.hypot(field.vu[occ], field.ve[occ])
    mean_mag = float(np.mean(mags))
    if mean_mag == 0.0:
        raise DegenerateFieldError("field magnitude is identically zero")
    return float(np.mean(np.abs(div[interior]))) / (mean_mag + 1e-12)


def fit_info_hamiltonian(field: GridField) -> tuple[np.ndarray, float]:
    """Least-squares scalar field H with dH/de ~ vu and dH/du ~ -ve.

    Equations couple adjacent occupied cells (differences matched to the
    averaged field values), one per adjacent pair in row-major order of
    the pair's first cell, the u-neighbour before the e-neighbour; the
    gauge is H = 0 at the first occupied cell in row-major order.
    Returns the fitted grid (NaN on unoccupied cells) and the residual
    norm of the difference equations.  Raises DegenerateFieldError when the
    system has rank below n_occ - 1, the gauge's freedom: the occupied
    region is disconnected, which includes cells that share no adjacency
    at all (a design of zero rows has rank 0).
    """
    occ = field.occupied
    n_occ = int(np.count_nonzero(occ))
    if n_occ == 0:
        raise DegenerateFieldError("field has no occupied cells")
    index = np.full(occ.shape, -1)
    index[occ] = np.arange(n_occ)
    du = float(field.u_edges[1] - field.u_edges[0])
    de = float(field.e_edges[1] - field.e_edges[0])

    pair_u = occ[:-1] & occ[1:]
    pair_e = occ[:, :-1] & occ[:, 1:]
    first = np.concatenate([index[:-1][pair_u], index[:, :-1][pair_e]])
    order = np.argsort(first, kind="stable")  # a cell-by-cell sweep's row order: lstsq's rounding follows it
    second = np.concatenate([index[1:][pair_u], index[:, 1:][pair_e]])[order]
    inv_step = np.repeat([1.0 / du, 1.0 / de], [np.count_nonzero(pair_u), np.count_nonzero(pair_e)])[order]
    target = np.concatenate(
        [-0.5 * (field.ve[:-1] + field.ve[1:])[pair_u], 0.5 * (field.vu[:, :-1] + field.vu[:, 1:])[pair_e]]
    )[order]
    rows = np.arange(first.size)
    design = np.zeros((first.size, n_occ))
    design[rows, second] = inv_step
    design[rows, first[order]] = -inv_step
    design = design[:, 1:]  # gauge: H = 0 at the first occupied cell
    solution, _, rank, _ = np.linalg.lstsq(design, target, rcond=None)
    if rank < n_occ - 1:
        raise DegenerateFieldError("fit is rank deficient beyond the gauge; the occupied region is likely disconnected")
    grid = np.full(occ.shape, np.nan)
    grid[occ] = np.concatenate([[0.0], solution])
    return grid, float(np.linalg.norm(design @ solution - target))
