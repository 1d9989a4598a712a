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

Every quantity has one implementation, over Python floats, so scoring a
portrait and binning, scoring and fitting its field load no numpy.  Sums
and means follow numpy's pairwise order (``_sum``), so they are bit-equal
to ``np.sum`` and ``np.mean``; logs and magnitudes are ``math.log`` and
``math.hypot``, which may differ from numpy's in the last bit.
A portrait's ``u`` and ``e`` are tuples of floats, a field's cells lists
of floats, and both give them out as CSV-ready ``rows()``; only a field's
``count`` and ``occupied`` are numpy arrays, built on first read.
``fit_info_hamiltonian`` returns its grid as rows of floats.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from functools import cached_property
from typing import TYPE_CHECKING

from ._numbers import is_count, real, reals

if TYPE_CHECKING:
    import numpy as np

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
    gauge freedom, which happens when the occupied cells do not form one
    region joined by shared sides, or when rounding loses rank on a grid
    whose cell width and height differ by a factor past about 1e162.
    """


def _pairwise(a: list, lo: int, n: int) -> float:
    """numpy's pairwise sum of a[lo : lo + n]: 8 accumulators up to 128 terms, halving above."""
    if n < 8:
        res = 0.0
        for i in range(lo, lo + n):
            res += a[i]
        return res
    if n <= 128:
        r0, r1, r2, r3, r4, r5, r6, r7 = a[lo : lo + 8]
        end = lo + n - n % 8
        for i in range(lo + 8, end, 8):
            r0 += a[i]
            r1 += a[i + 1]
            r2 += a[i + 2]
            r3 += a[i + 3]
            r4 += a[i + 4]
            r5 += a[i + 5]
            r6 += a[i + 6]
            r7 += a[i + 7]
        res = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
        for i in range(end, lo + n):
            res += a[i]
        return res
    n2 = n // 2
    n2 -= n2 % 8
    return _pairwise(a, lo, n2) + _pairwise(a, lo + n2, n - n2)


def _sum(a: list) -> float:
    """Sum of a float list, bit-equal to ``np.sum`` (a reduction starts from 0.0)."""
    return 0.0 + _pairwise(a, 0, len(a))


def _items(values):
    """An array as nested lists, any other sequence as it is."""
    return values.tolist() if hasattr(values, "tolist") else values


def _rows(cells: list, n: int) -> list:
    """A row-major cell list as rows of n cells."""
    return [cells[i : i + n] for i in range(0, len(cells), n)]


def _centers(edges: list) -> list:
    """The midpoint of each pair of adjacent edges."""
    return [0.5 * (a + b) for a, b in zip(edges, edges[1:])]


def entropy(dist) -> float:
    """Shannon entropy -sum p ln p with the 0 ln 0 = 0 convention.

    ValueError unless ``dist`` is a distribution: a non-empty flat
    sequence of numbers with no negative entry that sums to 1 within 1e-9.
    """
    try:
        p = reals(_items(dist))
    except TypeError:  # a scalar, or an entry that is itself a sequence
        p = []
    if not p:
        raise ValueError("distribution must be a non-empty 1-d array")
    total = _sum(p)
    if not (min(p) >= 0.0 and abs(total - 1.0) <= 1e-9):
        # a NaN entry can hide a negative one from min, and makes the sum NaN
        if any(map((0.0).__gt__, p)):
            raise ValueError("distribution has negative entries")
        raise ValueError(f"distribution sums to {total!r}, expected 1 within 1e-9")
    log = math.log
    return -_sum([x * log(x) if x > 0.0 else 0.0 for x in p]) + 0.0  # + 0.0: a one-hot row is 0.0, not -0.0


class PhasePortrait:
    """Paired entropy and effort series of equal length, finite, with u >= 0.

    ``u`` and ``e`` are tuples of floats, so they stay as checked.
    """

    def __init__(self, u, e):
        try:
            self.u = tuple(reals(_items(u)))
            self.e = tuple(reals(_items(e)))
        except TypeError:
            raise ValueError("u and e must be 1-d arrays of equal length") from None
        if len(self.u) != len(self.e):
            raise ValueError("u and e must be 1-d arrays of equal length")
        if not (all(map(math.isfinite, self.u)) and all(map(math.isfinite, self.e))):
            raise ValueError("entropy and effort series must be finite")
        if any(map((0.0).__gt__, self.u)):
            raise ValueError("entropy series must be non-negative")

    def __len__(self) -> int:
        return len(self.u)

    def rows(self):
        """(t, u, e) for each step t, as floats."""
        return zip(range(len(self.u)), self.u, self.e)


def _smooth_centered(values: list, window: int) -> list:
    """Centred moving average, truncated at the ends; each point is the np.mean of its window."""
    if not (is_count(window, 1) and window % 2 == 1):
        raise ValueError(f"window must be an odd integer >= 1, got {window!r}")
    window = int(window)
    if window == 1:
        return values
    half = (window - 1) // 2
    out = []
    for t in range(len(values)):
        span = values[max(0, t - half) : t + half + 1]
        out.append(_sum(span) / len(span))
    return out


def portrait(dists, smoothing_window: int = 1) -> PhasePortrait:
    """Entropy/effort portrait of a distribution sequence.

    Effort is the raw backward difference u_{t-1} - u_t with e_0 = 0,
    then a centred moving average of the requested odd width (truncated
    at the ends; width 1 means no smoothing).  A bad row raises
    ``entropy``'s error for the first such row.
    """
    u = [entropy(d) for d in _items(dists)]
    if not u:
        raise ValueError("need at least one distribution")
    e = [0.0] + [a - b for a, b in zip(u, u[1:])]
    return PhasePortrait(u=u, e=_smooth_centered(e, smoothing_window))


class GridField:
    """Mean displacement field on a regular (u, e) grid.

    Built from the u and e edges and, indexed [iu][ie], each cell's mean
    displacements vu and ve and its count of contributing steps.  The
    field keeps them as lists of Python numbers, which ``rows()`` reads.
    ``count`` and ``occupied`` are read-only arrays of the counts, kept
    as arrays because perfbench's CLI child calls ``.sum()`` on them.
    """

    def __init__(self, u_edges, e_edges, vu, ve, count):
        self._u_edges = reals(_items(u_edges))
        self._e_edges = reals(_items(e_edges))
        self._shape = (len(self._u_edges) - 1, len(self._e_edges) - 1)
        self._vu, self._ve, self._count = (self._cells(v) for v in (vu, ve, count))

    def _cells(self, values) -> list:
        rows = _items(values)
        nu, ne = self._shape
        if len(rows) != nu or any(len(row) != ne for row in rows):
            raise ValueError(f"vu, ve and count must have shape {self._shape}, one cell per pair of adjacent edges")
        return [v for row in rows for v in row]

    @cached_property
    def count(self) -> np.ndarray:
        import numpy as np

        out = np.array(self._count).reshape(self._shape)
        out.flags.writeable = False
        return out

    @property
    def occupied(self) -> np.ndarray:
        return self.count > 0

    def rows(self):
        """(u_center, e_center, vu, ve, count) for each cell in row-major order, as Python numbers."""
        centers = ((u, e) for u in _centers(self._u_edges) for e in _centers(self._e_edges))
        return ((u, e, vu, ve, c) for (u, e), vu, ve, c in zip(centers, self._vu, self._ve, self._count))


def _edges(lo: float, hi: float, bins: int) -> list:
    """``np.linspace(lo, hi, bins + 1)``, a zero span widened to one unit."""
    if lo == hi:
        lo -= 0.5
        hi += 0.5
    delta = hi - lo
    step = delta / bins
    if step == 0.0:
        edges = [i / bins * delta + lo for i in range(bins + 1)]
    else:
        edges = [i * step + lo for i in range(bins + 1)]
    edges[-1] = hi
    return edges


def empirical_field(portraits, bins: int) -> GridField:
    """Bin per-step (du, de) displacements by their start point and average.

    The grid has ``bins`` equal cells along u and along e, spanning the
    step start points (a zero span is widened to one unit); the edges come
    from each portrait's least and greatest start point.  One pass over
    the steps then puts each in one flat cell ``iu * bins + ie``, the
    ``np.searchsorted(edges, x, side="right") - 1`` of its start point
    clipped to the grid, and accumulates counts and displacement sums in
    step order; each occupied cell holds the mean.
    """
    if not is_count(bins, 1):
        raise ValueError(f"bins must be an integer >= 1, got {bins!r}")
    if real(bins) == math.inf:  # the cell width span / bins would not be a float
        raise ValueError(f"bins must be within the float range, got {bins!r}")
    bins = int(bins)
    series = [(por.u, por.e) for por in portraits if len(por.u) >= 2]
    if not series:
        raise ValueError("portraits contain no displacement steps")
    starts_u = [u[:-1] for u, _ in series]
    starts_e = [e[:-1] for _, e in series]
    u_edges = _edges(min(map(min, starts_u)), max(map(max, starts_u)), bins)
    e_edges = _edges(min(map(min, starts_e)), max(map(max, starts_e)), bins)
    count = [0] * (bins * bins)
    vu = [0.0] * (bins * bins)
    ve = [0.0] * (bins * bins)
    # searching edges[1:-1] alone is the clip, as no start point lies outside the edges
    for u, e in series:
        for a, b, c, d in zip(u, u[1:], e, e[1:]):
            k = (bisect_right(u_edges, a, 1, bins) - 1) * bins + bisect_right(e_edges, c, 1, bins) - 1
            count[k] += 1
            vu[k] += b - a
            ve[k] += d - c
    vu = [v / c if c else v for v, c in zip(vu, count)]
    ve = [v / c if c else v for v, c in zip(ve, count)]
    return GridField(u_edges, e_edges, _rows(vu, bins), _rows(ve, bins), _rows(count, bins))


def _spacing(field: GridField) -> tuple[float, float]:
    """The cell widths (du, de); DegenerateFieldError if a span below float resolution repeats an edge."""
    du = field._u_edges[1] - field._u_edges[0]
    de = field._e_edges[1] - field._e_edges[0]
    if du == 0.0 or de == 0.0:
        raise DegenerateFieldError(f"grid cells have zero width: du = {du!r}, de = {de!r}")
    return du, de


def divergence_score(field: GridField) -> float:
    """Mean |div| on interior occupied cells over the mean field magnitude.

    Divergence is taken by central differences; a cell counts as interior
    when it and its four axis neighbours are occupied.  Raises on fields
    with no interior cell or with zero magnitude.
    """
    nu, ne = field._shape
    occ = [c > 0 for c in field._count]
    vu, ve = field._vu, field._ve
    du, de = _spacing(field)
    divs = []
    for iu in range(1, nu - 1):
        for k in range(iu * ne + 1, iu * ne + ne - 1):
            if occ[k] and occ[k - ne] and occ[k + ne] and occ[k - 1] and occ[k + 1]:
                div = (vu[k + ne] - vu[k - ne]) / (2.0 * du)
                div += (ve[k + 1] - ve[k - 1]) / (2.0 * de)
                divs.append(abs(div))
    if not divs:
        raise DegenerateFieldError("no interior occupied cell; need at least a 3x3 occupied block")
    mags = [math.hypot(vu[k], ve[k]) for k in range(nu * ne) if occ[k]]
    mean_mag = _sum(mags) / len(mags)
    if mean_mag == 0.0:
        raise DegenerateFieldError("field magnitude is identically zero")
    return _sum(divs) / len(divs) / (mean_mag + 1e-12)


def _cholesky(lower: list, band: int) -> bool:
    """Cholesky factor, in place, of a symmetric positive definite M with ``band`` off-diagonals.

    ``lower[i][band - i + j]`` holds M[i][j] for i - band <= j <= i.
    False, with the factor unfinished, when a pivot is not positive, which
    rounding can cause on a badly scaled grid.
    """
    for i, row in enumerate(lower):
        start = max(0, i - band)
        for j in range(start, i + 1):
            other = lower[j]
            acc = row[band - i + j]
            for k in range(start, j):
                acc -= row[band - i + k] * other[band - j + k]
            if j < i:
                row[band - i + j] = acc / other[band]
            elif acc > 0.0:
                row[band] = math.sqrt(acc)
            else:
                return False
    return True


def _cholesky_solve(lower: list, band: int, rhs: list) -> list:
    """x with L L^T x = rhs for the factor L that ``_cholesky`` left in ``lower``."""
    n = len(rhs)
    y = []
    for i in range(n):
        acc = rhs[i]
        for k in range(max(0, i - band), i):
            acc -= lower[i][band - i + k] * y[k]
        y.append(acc / lower[i][band])
    x = [0.0] * n
    for i in reversed(range(n)):
        acc = y[i]
        for k in range(i + 1, min(n, i + band + 1)):
            acc -= lower[k][band - k + i] * x[k]
        x[i] = acc / lower[i][band]
    return x


def fit_info_hamiltonian(field: GridField) -> tuple[list[list[float]], float]:
    """Least-squares scalar field H with dH/de ~ vu and dH/du ~ -ve.

    Equations couple adjacent occupied cells (differences matched to the
    averaged field values); the gauge is H = 0 at the first occupied cell
    in row-major order.  The normal equations are solved by banded
    Cholesky.  Returns the fitted grid, as rows of floats indexed [iu][ie]
    with NaN on unoccupied cells, and the residual norm of the difference
    equations; a single occupied cell has no unknowns and a residual of 0.
    Raises DegenerateFieldError when the occupied cells are not one region
    joined by shared sides: the system then has rank below n_occ - 1, the
    gauge's freedom.  Rounding can cost a connected region rank too, when
    the coarser spacing's coupling (min(du, de) / max(du, de))^2 underflows
    to 0; the DegenerateFieldError then gives du and de.
    """
    nu, ne = field._shape
    cells = [k for k, c in enumerate(field._count) if c > 0]
    if not cells:
        raise DegenerateFieldError("field has no occupied cells")
    index = {k: a for a, k in enumerate(cells)}
    vu, ve = field._vu, field._ve
    du, de = _spacing(field)
    # The unknowns are z = H / scale, so each coefficient, scale / du or
    # scale / de, is at most 1 and the normal equations cannot overflow on
    # a fine grid (inverse spacings of 1e160 square past the float range).
    scale = min(du, de)
    cu, ce = scale / du, scale / de
    equations = []  # (a, b, c, t): c (z_b - z_a) = t for occupied cells a, b
    for a, k in enumerate(cells):
        if k // ne + 1 < nu and k + ne in index:
            equations.append((a, index[k + ne], cu, -0.5 * (ve[k] + ve[k + ne])))
        if k % ne + 1 < ne and k + 1 in index:
            equations.append((a, index[k + 1], ce, 0.5 * (vu[k] + vu[k + 1])))

    # rank = cells - components: only a connected region is fixed by one gauge
    neighbours = [[] for _ in cells]
    for a, b, _, _ in equations:
        neighbours[a].append(b)
        neighbours[b].append(a)
    seen, stack = {0}, [0]
    while stack:
        for b in neighbours[stack.pop()]:
            if b not in seen:
                seen.add(b)
                stack.append(b)
    if len(seen) < len(cells):
        raise DegenerateFieldError("fit is rank deficient beyond the gauge; the occupied region is disconnected")

    # normal equations of the unknowns 1.. (cell 0 is the gauge, H = 0)
    band = max((b - a for a, b, _, _ in equations), default=0)
    lower = [[0.0] * (band + 1) for _ in cells[1:]]
    for a, b, c, _ in equations:
        lower[b - 1][band] += c * c
        if a:
            lower[a - 1][band] += c * c
            lower[b - 1][band - b + a] -= c * c
    if not _cholesky(lower, band):
        raise DegenerateFieldError(f"rounding made the connected fit rank deficient: du = {du!r}, de = {de!r}")
    # a solve, then one refinement: the normal equations square the
    # condition number, and solving once more for the correction of the
    # residual brings the grid within ~1e-11 of lstsq's
    z = [0.0] * len(cells)
    for _ in range(2):
        residuals = [t - c * (z[b] - z[a]) for a, b, c, t in equations]
        rhs = [0.0] * len(cells)
        for (a, b, c, _), r in zip(equations, residuals):
            rhs[b] += c * r
            rhs[a] -= c * r
        z = [0.0, *(v + dv for v, dv in zip(z[1:], _cholesky_solve(lower, band, rhs[1:])))]
    residual = math.hypot(*(c * (z[b] - z[a]) - t for a, b, c, t in equations))
    values = [math.nan] * (nu * ne)
    for k, value in zip(cells, z):
        values[k] = scale * value
    return _rows(values, ne), residual
