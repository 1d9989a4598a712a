"""Tests for entropy portraits, empirical fields, and scalar-field fits."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from maniflow import experiments, infophase


def rotation_portraits(n, steps, dt, seed=7, center=2.0):
    """Exact circular orbits of du/dt = e, de/dt = -(u - center)."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        r = rng.uniform(0.3, 1.5)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        t = phase + dt * np.arange(steps)
        out.append(infophase.PhasePortrait(u=center + r * np.cos(t), e=-r * np.sin(t)))
    return out


def centers(edges):
    """Cell centres of an edge array, the midpoints ``GridField.rows`` reports."""
    edges = np.asarray(edges)
    return 0.5 * (edges[:-1] + edges[1:])


def arrays(field):
    """A field's (u_edges, e_edges, vu, ve, count) as arrays: its edge lists, and its cells [iu, ie] from ``rows()``."""
    cells = list(field.rows())
    return (
        np.array(field._u_edges),
        np.array(field._e_edges),
        *(np.reshape([cell[k] for cell in cells], field.count.shape) for k in (2, 3, 4)),
    )


def rotation_grid(nu=7, ne=7, center=2.0):
    """GridField holding the exact rotation field at the cell centres."""
    u_edges = np.linspace(center - 1.5, center + 1.5, nu + 1)
    e_edges = np.linspace(-1.5, 1.5, ne + 1)
    uc, ec = centers(u_edges), centers(e_edges)
    vu = np.tile(ec[None, :], (nu, 1))
    ve = -np.tile((uc - center)[:, None], (1, ne))
    count = np.ones((nu, ne), dtype=int)
    return infophase.GridField(u_edges=u_edges, e_edges=e_edges, vu=vu, ve=ve, count=count)


def fit(field):
    """``fit_info_hamiltonian`` with its grid rows as an array."""
    grid, residual = infophase.fit_info_hamiltonian(field)
    return np.array(grid), residual


class TestEntropy:
    def test_uniform(self):
        np.testing.assert_allclose(entropy_of(4), np.log(4.0))

    def test_delta_is_zero(self):
        assert infophase.entropy(np.array([0.0, 1.0, 0.0])) == 0.0
        # +0.0, not -0.0, which portrait.csv would print as -0
        assert str(infophase.entropy(np.array([0.0, 1.0, 0.0]))) == "0.0"
        assert not np.signbit(infophase.portrait([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]]).u).any()

    def test_zero_entries_ignored(self):
        np.testing.assert_allclose(
            infophase.entropy(np.array([0.5, 0.5, 0.0])), np.log(2.0)
        )

    def test_one_row_case_of_the_stack(self):
        rng = np.random.default_rng(13)
        for k in range(9, 65):
            p = random_rows(rng, 1, k, zero_share=0.4)[0]
            assert infophase.entropy(p) == infophase.portrait([p, p]).u[0]

    def test_sum_tolerance(self):
        infophase.entropy(np.array([0.5, 0.5 + 5e-10]))
        with pytest.raises(ValueError, match="sums to"):
            infophase.entropy(np.array([0.5, 0.51]))

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            infophase.entropy(np.array([1.5, -0.5]))

    def test_nan_entry_rejected(self):
        with pytest.raises(ValueError, match="sums to nan"):
            infophase.entropy(np.array([np.nan, 0.5, 0.5]))


def entropy_of(n):
    return infophase.entropy(np.full(n, 1.0 / n))


class TestPortrait:
    def test_effort_backward_difference(self):
        dists = [
            np.array([1.0, 0.0]),          # u = 0
            np.array([0.5, 0.5]),          # u = ln 2
            np.array([1.0, 0.0]),          # u = 0
        ]
        por = infophase.portrait(dists)
        np.testing.assert_allclose(por.u, [0.0, np.log(2.0), 0.0])
        np.testing.assert_allclose(por.e, [0.0, -np.log(2.0), np.log(2.0)])

    def test_smoothing_window_three(self):
        dists = [
            np.array([1.0, 0.0]),
            np.array([0.5, 0.5]),
            np.array([1.0, 0.0]),
            np.array([0.5, 0.5]),
        ]
        raw = infophase.portrait(dists)
        smooth = infophase.portrait(dists, smoothing_window=3)
        # truncated centred averages of the raw effort series
        expected = [
            np.mean(raw.e[0:2]),
            np.mean(raw.e[0:3]),
            np.mean(raw.e[1:4]),
            np.mean(raw.e[2:4]),
        ]
        np.testing.assert_allclose(smooth.e, expected)
        np.testing.assert_array_equal(smooth.u, raw.u)

    def test_even_window_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            infophase.portrait([np.array([1.0])], smoothing_window=2)

    def test_zero_window_rejected(self):
        with pytest.raises(ValueError, match="window"):
            infophase.portrait([np.array([1.0])], smoothing_window=0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            infophase.portrait([])

    def test_portrait_validation(self):
        with pytest.raises(ValueError, match="non-negative"):
            infophase.PhasePortrait(u=np.array([-0.1]), e=np.array([0.0]))
        with pytest.raises(ValueError, match="equal length"):
            infophase.PhasePortrait(u=np.array([0.1]), e=np.array([0.0, 0.0]))
        with pytest.raises(ValueError, match="^u and e must be 1-d arrays of equal length$"):
            infophase.PhasePortrait(1.0, 2.0)  # scalars, which are no series at all

    @pytest.mark.parametrize(
        "u, e",
        [([0.1, np.nan], [0.0, 0.0]), ([0.1, np.inf], [0.0, 0.0]), ([0.1, 0.2], [np.nan, 0.0]), ([0.1, 0.2], [0.0, -np.inf])],
        ids=["u-nan", "u-inf", "e-nan", "e-minus-inf"],
    )
    def test_non_finite_series_rejected(self, u, e):
        with pytest.raises(ValueError, match="^entropy and effort series must be finite$"):
            infophase.PhasePortrait(u=np.array(u), e=np.array(e))


def loop_portrait(dists, window):
    """The portrait as one ``entropy`` call per row and one ``np.mean`` per element."""
    u = np.array([infophase.entropy(d) for d in dists])
    raw = np.zeros_like(u)
    raw[1:] = u[:-1] - u[1:]
    half = window // 2
    e = np.array([float(np.mean(raw[max(0, t - half) : t + half + 1])) for t in range(u.size)])
    return u, e


def random_rows(rng, rows, k, zero_share=0.0):
    p = rng.uniform(0.01, 1.0, size=(rows, k))
    p[rng.uniform(size=p.shape) < zero_share] = 0.0
    p[:, 0] += p.sum(axis=1) == 0  # keep one entry in each row
    return p / p.sum(axis=1, keepdims=True)


class TestPortraitMatchesLoops:
    """The stacked portrait against its per-row, per-element definition."""

    @pytest.mark.parametrize("window", range(1, 16, 2))
    def test_zero_free_rows_bit_equal(self, window):
        rng = np.random.default_rng(window)
        for n in range(1, 41):  # shorter and longer than the window
            dists = random_rows(rng, n, 1 + n % 17)
            por = infophase.portrait(dists, smoothing_window=window)
            u, e = loop_portrait(dists, window)
            np.testing.assert_array_equal(por.u, u)
            np.testing.assert_array_equal(por.e, e)

    def test_rows_with_zeros_bit_equal(self):
        rng = np.random.default_rng(11)
        for k in range(2, 41):
            dists = random_rows(rng, 60, k, zero_share=0.4)
            por = infophase.portrait(dists, smoothing_window=5)
            u, e = loop_portrait(dists, 5)
            np.testing.assert_array_equal(por.u, u)
            np.testing.assert_array_equal(por.e, e)

    def test_ragged_row_leaves_earlier_rows_unchanged(self):
        # the ragged row sends every row to the per-row path
        rng = np.random.default_rng(12)
        for k in (2, 9, 12, 33):
            dists = random_rows(rng, 50, k, zero_share=0.4)
            stacked = infophase.portrait(dists)
            per_row = infophase.portrait([*dists, [0.5, 0.5, 0.0]])
            np.testing.assert_array_equal(per_row.u[:-1], stacked.u)
            np.testing.assert_array_equal(per_row.e[:-1], stacked.e)

    def test_ragged_rows(self):
        dists = [[0.5, 0.5], [1.0], [0.2, 0.3, 0.5], [0.25, 0.25, 0.25, 0.25]]
        por = infophase.portrait(dists, smoothing_window=3)
        u, e = loop_portrait(dists, 3)
        np.testing.assert_array_equal(por.u, u)
        np.testing.assert_array_equal(por.e, e)

    @pytest.mark.parametrize(
        "bad",
        [[np.nan, 0.5], [-0.5, 1.5], [0.5, 0.4], [np.inf, 0.0], [1.0 + 2e-9, 0.0]],
        ids=["nan", "negative", "mis-summed", "inf", "just-over"],
    )
    def test_stack_rejected_as_entropy_rejects_its_row(self, bad):
        with pytest.raises(ValueError) as want:
            infophase.entropy(bad)
        with pytest.raises(ValueError) as got:
            infophase.portrait([[0.5, 0.5], bad, [0.25, 0.75]])
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize(
        "dists", [[[]], [0.5, 0.5], [[[0.5, 0.5]]]], ids=["empty-row", "scalar-rows", "2d-rows"]
    )
    def test_rows_that_are_not_distributions_rejected(self, dists):
        with pytest.raises(ValueError, match="non-empty 1-d"):
            infophase.portrait(dists)

    def test_sum_tolerance_edge_accepted(self):
        row = [0.5 + 0.5e-9, 0.5]
        assert infophase.portrait([row, [0.5, 0.5]]).u[0] == infophase.entropy(row)


class TestEmpiricalField:
    def test_known_binning(self):
        por = infophase.PhasePortrait(
            u=np.array([0.0, 1.0, 2.0]), e=np.array([0.0, -1.0, -1.0])
        )
        u_edges, e_edges, vu, ve, count = arrays(infophase.empirical_field([por], 2))
        np.testing.assert_allclose(u_edges, [0.0, 0.5, 1.0])
        np.testing.assert_allclose(e_edges, [-1.0, -0.5, 0.0])
        # step 1 starts at (u=0, e=0) -> cell (0, 1); step 2 at (1, -1) -> (1, 0)
        assert count[0, 1] == 1 and count[1, 0] == 1
        assert count.sum() == 2
        np.testing.assert_allclose(vu[0, 1], 1.0)
        np.testing.assert_allclose(ve[0, 1], -1.0)
        np.testing.assert_allclose(vu[1, 0], 1.0)
        np.testing.assert_allclose(ve[1, 0], 0.0)

    def test_cell_averaging(self):
        por = infophase.PhasePortrait(
            u=np.array([0.0, 2.0, 0.0, 4.0]), e=np.array([0.0, 0.0, 0.0, 0.0])
        )
        # steps from u = 0 (twice, du 2 and 4) and one from u = 2
        _, _, vu, _, count = arrays(infophase.empirical_field([por], 1))
        assert count[0, 0] == 3
        np.testing.assert_allclose(vu[0, 0], (2.0 - 2.0 + 4.0) / 3.0)

    def test_degenerate_range_widened(self):
        por = infophase.PhasePortrait(u=np.array([5.0, 6.0]), e=np.array([0.0, 0.0]))
        u_edges, e_edges, _, _, count = arrays(infophase.empirical_field([por], 2))
        np.testing.assert_allclose(u_edges, [4.5, 5.0, 5.5])
        np.testing.assert_allclose(e_edges, [-0.5, 0.0, 0.5])
        assert count.sum() == 1

    def test_span_whose_step_underflows_is_linspace(self):
        # 5e-324 / 12 rounds to 0, so each edge is i / bins * span, as np.linspace takes it
        por = infophase.PhasePortrait([0.0, 5e-324, 0.0], [0.0] * 3)
        u_edges = arrays(infophase.empirical_field([por], 12))[0]
        np.testing.assert_array_equal(u_edges, np.linspace(0.0, 5e-324, 13))

    def test_short_portraits_skipped(self):
        single = infophase.PhasePortrait(u=np.array([1.0]), e=np.array([0.0]))
        with pytest.raises(ValueError, match="displacement"):
            infophase.empirical_field([single], 2)

    def test_bad_bins(self):
        por = infophase.PhasePortrait(u=np.array([0.0, 1.0]), e=np.array([0.0, 0.0]))
        with pytest.raises(ValueError, match="bin"):
            infophase.empirical_field([por], 0)


class TestDivergenceScore:
    def test_exact_rotation_field_divergence_free(self):
        score = infophase.divergence_score(rotation_grid())
        assert score <= 1e-12

    def test_sampled_rotation_under_threshold(self):
        portraits = rotation_portraits(80, 150, 0.05)
        field = infophase.empirical_field(portraits, 10)
        assert infophase.divergence_score(field) <= 0.1

    def test_compressive_field_scores_high(self):
        # pure sink: V = (-(u - c), -e) has |div| = 2 everywhere
        u_edges, e_edges, _, _, count = arrays(rotation_grid())
        uc, ec = centers(u_edges), centers(e_edges)
        vu = -np.tile((uc - 2.0)[:, None], (1, ec.size))
        ve = -np.tile(ec[None, :], (uc.size, 1))
        sink = infophase.GridField(u_edges, e_edges, vu, ve, count)
        assert infophase.divergence_score(sink) > 1.0

    def test_no_interior_cell_raises(self):
        por = infophase.PhasePortrait(u=np.array([0.0, 1.0]), e=np.array([0.0, 0.0]))
        field = infophase.empirical_field([por], 2)
        with pytest.raises(infophase.DegenerateFieldError, match="interior"):
            infophase.divergence_score(field)

    def test_zero_magnitude_raises(self):
        u_edges, e_edges, vu, ve, count = arrays(rotation_grid())
        zero = infophase.GridField(u_edges, e_edges, np.zeros_like(vu), np.zeros_like(ve), count)
        with pytest.raises(infophase.DegenerateFieldError, match="magnitude"):
            infophase.divergence_score(zero)


class TestFitInfoHamiltonian:
    def test_exact_rotation_recovers_quadratic(self):
        field = rotation_grid()
        grid, residual = fit(field)
        assert residual <= 1e-10
        u_edges, e_edges, *_ = arrays(field)
        uc, ec = centers(u_edges), centers(e_edges)
        ref = 0.5 * ((uc[:, None] - 2.0) ** 2 + ec[None, :] ** 2)
        ref = ref - ref[0, 0] + grid[0, 0]  # align the gauge
        np.testing.assert_allclose(grid, ref, atol=1e-10)

    def test_sampled_rotation_recovery(self):
        dt = 0.05
        portraits = rotation_portraits(80, 150, dt)
        field = infophase.empirical_field(portraits, 10)
        grid, _ = fit(field)
        occ = field.occupied
        u_edges, e_edges, *_ = arrays(field)
        uc, ec = centers(u_edges), centers(e_edges)
        ref = 0.5 * ((uc[:, None] - 2.0) ** 2 + ec[None, :] ** 2)
        # displacements are dt-scaled field values
        fitted = grid[occ] / dt
        fitted = fitted - fitted[0] + ref[occ][0]
        rms = np.sqrt(np.mean((fitted - ref[occ]) ** 2))
        assert rms / np.sqrt(np.mean(ref[occ] ** 2)) <= 0.1

    def test_nan_off_occupied(self):
        por = infophase.PhasePortrait(
            u=np.array([0.0, 1.0, 2.0, 3.0]), e=np.zeros(4)
        )
        field = infophase.empirical_field([por], 3)
        grid, _ = fit(field)
        assert np.isnan(grid[~field.occupied]).all()
        assert np.isfinite(grid[field.occupied]).all()

    def test_single_cell(self):
        por = infophase.PhasePortrait(u=np.array([5.0, 6.0]), e=np.array([0.0, 0.0]))
        field = infophase.empirical_field([por], 1)
        grid, residual = fit(field)
        assert grid.shape == (1, 1)
        assert grid[0, 0] == 0.0
        assert residual == 0.0

    def test_disconnected_region_raises(self):
        # two separate dominoes: adjacencies exist but the region is split
        u_edges = np.linspace(0.0, 4.0, 5)
        e_edges = np.linspace(0.0, 1.0, 2)
        count = np.zeros((4, 1), dtype=int)
        count[0, 0] = count[1, 0] = count[3, 0] = 1
        vu = np.zeros((4, 1))
        ve = np.zeros((4, 1))
        field = infophase.GridField(u_edges, e_edges, vu, ve, count)
        # cells 0-1 are adjacent; cell 3 floats free
        with pytest.raises(infophase.DegenerateFieldError, match="rank deficient"):
            infophase.fit_info_hamiltonian(field)

    def test_empty_field_raises(self):
        field = infophase.GridField(
            np.linspace(0, 1, 3), np.linspace(0, 1, 3),
            np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 2), dtype=int),
        )
        with pytest.raises(infophase.DegenerateFieldError, match="no occupied"):
            infophase.fit_info_hamiltonian(field)

    @pytest.mark.parametrize(
        "cells",
        [[(0, 0), (0, 1), (1, 2)], [(0, 0), (0, 2), (2, 1)]],
        ids=["corner-touching", "no-adjacency"],
    )
    def test_split_region_raises(self, cells):
        # corner-touching: a domino and a cell meeting it at a corner, so equations exist but the region is split
        count = np.zeros((3, 3), dtype=int)
        count[tuple(np.transpose(cells))] = 1
        field = infophase.GridField(np.linspace(0, 3, 4), np.linspace(0, 3, 4), np.ones((3, 3)), np.ones((3, 3)), count)
        with pytest.raises(infophase.DegenerateFieldError, match="rank deficient"):
            infophase.fit_info_hamiltonian(field)

    def test_rank_lost_to_rounding_names_the_spacings(self):
        # three cells joined by sides, but the u coupling (de / du)^2 = 1e-400 underflows to 0
        field = infophase.empirical_field([infophase.PhasePortrait([0, 1, 1, 0.5], [0, 0, 1e-200, 0])], 2)
        with pytest.raises(infophase.DegenerateFieldError) as caught:
            infophase.fit_info_hamiltonian(field)
        assert str(caught.value) == "rounding made the connected fit rank deficient: du = 0.5, de = 5e-201"



@pytest.mark.parametrize("analysis", [infophase.divergence_score, infophase.fit_info_hamiltonian])
@pytest.mark.parametrize("axis", ["u", "e"])
def test_zero_width_cells_are_degenerate(analysis, axis):
    # start points spread over less than an edge's ulp repeat an edge, and du or de is 0
    repeated, spread = [2.5] * 4, [0.0, 1.0, 2.0, 3.0]
    edges = (repeated, spread) if axis == "u" else (spread, repeated)
    field = infophase.GridField(*edges, np.ones((3, 3)), np.ones((3, 3)), np.ones((3, 3), dtype=int))
    with pytest.raises(infophase.DegenerateFieldError, match=f"^grid cells have zero width: du = .*, de = "):
        analysis(field)


def oracle_divergence_score(field):
    """The per-cell loop that ``divergence_score`` replaces."""
    occ = field.occupied
    nu, ne = occ.shape
    u_edges, e_edges, vu, ve, _ = arrays(field)
    du = float(u_edges[1] - u_edges[0])
    de = float(e_edges[1] - e_edges[0])
    divs = []
    for iu in range(1, nu - 1):
        for ie in range(1, ne - 1):
            if not (occ[iu, ie] and occ[iu - 1, ie] and occ[iu + 1, ie] and occ[iu, ie - 1] and occ[iu, ie + 1]):
                continue
            div = (vu[iu + 1, ie] - vu[iu - 1, ie]) / (2.0 * du)
            div += (ve[iu, ie + 1] - ve[iu, ie - 1]) / (2.0 * de)
            divs.append(abs(div))
    if not divs:
        raise infophase.DegenerateFieldError("no interior occupied cell")
    mean_mag = float(np.mean(np.hypot(vu[occ], ve[occ])))
    if mean_mag == 0.0:
        raise infophase.DegenerateFieldError("field magnitude is identically zero")
    return float(np.mean(divs)) / (mean_mag + 1e-12)


def oracle_fit(field):
    """The per-equation loop that ``fit_info_hamiltonian`` replaces."""
    occ = field.occupied
    cells = np.argwhere(occ)
    n_occ = cells.shape[0]
    if n_occ == 0:
        raise infophase.DegenerateFieldError("field has no occupied cells")
    index = {tuple(c): k for k, c in enumerate(cells)}
    u_edges, e_edges, vu, ve, _ = arrays(field)
    du = float(u_edges[1] - u_edges[0])
    de = float(e_edges[1] - e_edges[0])
    rows, rhs = [], []
    for iu, ie in map(tuple, cells):
        if (iu + 1, ie) in index:
            row = np.zeros(n_occ)
            row[index[(iu + 1, ie)]] = 1.0 / du
            row[index[(iu, ie)]] = -1.0 / du
            rows.append(row)
            rhs.append(-0.5 * (ve[iu, ie] + ve[iu + 1, ie]))
        if (iu, ie + 1) in index:
            row = np.zeros(n_occ)
            row[index[(iu, ie + 1)]] = 1.0 / de
            row[index[(iu, ie)]] = -1.0 / de
            rows.append(row)
            rhs.append(0.5 * (vu[iu, ie] + vu[iu, ie + 1]))
    h_flat = np.zeros(n_occ)
    residual_norm = 0.0
    if n_occ > 1:
        if not rows:
            raise infophase.DegenerateFieldError("occupied cells share no adjacencies")
        design = np.vstack(rows)[:, 1:]
        target = np.asarray(rhs)
        solution, _, rank, _ = np.linalg.lstsq(design, target, rcond=None)
        if rank < n_occ - 1:
            raise infophase.DegenerateFieldError("fit is rank deficient beyond the gauge")
        h_flat[1:] = solution
        residual_norm = float(np.linalg.norm(design @ solution - target))
    grid = np.full(occ.shape, np.nan)
    grid[cells[:, 0], cells[:, 1]] = h_flat
    return grid, residual_norm


@st.composite
def grid_fields(draw):
    """Random occupancy and field values on grids of up to 8x8 cells."""
    nu, ne = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    occupied = rng.random((nu, ne)) < draw(st.sampled_from([0.0, 0.3, 0.6, 0.85, 1.0]))
    count = np.where(occupied, rng.integers(1, 5, (nu, ne)), 0)
    vu, ve = rng.uniform(-10.0, 10.0, (2, nu, ne))
    if draw(st.booleans()):  # empirical_field leaves unoccupied cells at zero
        vu, ve = vu * occupied, ve * occupied
    step = st.floats(0.01, 10.0)
    u_edges = draw(st.floats(-5.0, 5.0)) + draw(step) * np.arange(nu + 1)
    e_edges = draw(st.floats(-5.0, 5.0)) + draw(step) * np.arange(ne + 1)
    return infophase.GridField(u_edges, e_edges, vu, ve, count)


def outcome(fn, field):
    try:
        return fn(field)
    except infophase.DegenerateFieldError as exc:
        return type(exc)


class TestArrayRewriteMatchesLoops:
    @settings(max_examples=200)
    @given(field=grid_fields())
    def test_divergence_score_is_bit_equal(self, field):
        assert outcome(infophase.divergence_score, field) == outcome(oracle_divergence_score, field)

    @settings(max_examples=200)
    @given(field=grid_fields())
    def test_fit_matches(self, field):
        got, want = outcome(infophase.fit_info_hamiltonian, field), outcome(oracle_fit, field)
        if isinstance(want, type):
            assert got is want
            return
        assert not isinstance(got, type), got
        (grid, residual), (grid0, residual0) = got, want
        np.testing.assert_allclose(grid, grid0, rtol=0.0, atol=1e-9)
        assert residual == pytest.approx(residual0, rel=1e-9, abs=1e-12)


# ---------------------------------------------------------------------------
# The array formulas the float core replaced, kept as its reference


def numpy_entropies(p):
    """Row entropies of a (rows, k) stack of valid distributions."""
    return -np.sum(p * np.log(np.where(p > 0, p, 1.0)), axis=-1) + 0.0


def numpy_smooth(values, window):
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


def numpy_field(portraits, bins):
    """(u_edges, e_edges, vu, ve, count) by linspace, searchsorted and bincount."""
    su = np.concatenate([p.u[:-1] for p in portraits if len(p) > 1])
    se = np.concatenate([p.e[:-1] for p in portraits if len(p) > 1])
    du = np.concatenate([np.diff(p.u) for p in portraits if len(p) > 1])
    de = np.concatenate([np.diff(p.e) for p in portraits if len(p) > 1])

    def edges(values):
        lo, hi = float(np.min(values)), float(np.max(values))
        if lo == hi:
            lo, hi = lo - 0.5, hi + 0.5
        return np.linspace(lo, hi, bins + 1)

    def index(edges, x):
        return np.clip(np.searchsorted(edges, x, side="right") - 1, 0, bins - 1)

    u_edges, e_edges = edges(su), edges(se)
    cell = index(u_edges, su) * bins + index(e_edges, se)
    count = np.bincount(cell, minlength=bins * bins).reshape(bins, bins)
    vu = np.bincount(cell, du, bins * bins).reshape(bins, bins)
    ve = np.bincount(cell, de, bins * bins).reshape(bins, bins)
    mask = count > 0
    vu[mask] /= count[mask]
    ve[mask] /= count[mask]
    return u_edges, e_edges, vu, ve, count


def numpy_divergence_score(field):
    occ = field.occupied
    interior = occ[1:-1, 1:-1] & occ[:-2, 1:-1] & occ[2:, 1:-1] & occ[1:-1, :-2] & occ[1:-1, 2:]
    if not interior.any():
        raise infophase.DegenerateFieldError("no interior occupied cell")
    u_edges, e_edges, vu, ve, _ = arrays(field)
    du = float(u_edges[1] - u_edges[0])
    de = float(e_edges[1] - e_edges[0])
    div = (vu[2:, 1:-1] - vu[:-2, 1:-1]) / (2.0 * du)
    div += (ve[1:-1, 2:] - ve[1:-1, :-2]) / (2.0 * de)
    mean_mag = float(np.mean(np.hypot(vu[occ], ve[occ])))
    if mean_mag == 0.0:
        raise infophase.DegenerateFieldError("field magnitude is identically zero")
    return float(np.mean(np.abs(div[interior]))) / (mean_mag + 1e-12)


def numpy_fit(field):
    """The incidence design solved by ``np.linalg.lstsq``; rank below n_occ - 1 raises."""
    occ = field.occupied
    n_occ = int(np.count_nonzero(occ))
    if n_occ == 0:
        raise infophase.DegenerateFieldError("field has no occupied cells")
    index = np.full(occ.shape, -1)
    index[occ] = np.arange(n_occ)
    u_edges, e_edges, vu, ve, _ = arrays(field)
    du = float(u_edges[1] - u_edges[0])
    de = float(e_edges[1] - e_edges[0])
    pair_u = occ[:-1] & occ[1:]
    pair_e = occ[:, :-1] & occ[:, 1:]
    first = np.concatenate([index[:-1][pair_u], index[:, :-1][pair_e]])
    order = np.argsort(first, kind="stable")
    second = np.concatenate([index[1:][pair_u], index[:, 1:][pair_e]])[order]
    inv_step = np.repeat([1.0 / du, 1.0 / de], [np.count_nonzero(pair_u), np.count_nonzero(pair_e)])[order]
    target = np.concatenate(
        [-0.5 * (ve[:-1] + ve[1:])[pair_u], 0.5 * (vu[:, :-1] + vu[:, 1:])[pair_e]]
    )[order]
    rows = np.arange(first.size)
    design = np.zeros((first.size, n_occ))
    design[rows, second] = inv_step
    design[rows, first[order]] = -inv_step
    design = design[:, 1:]
    solution, _, rank, _ = np.linalg.lstsq(design, target, rcond=None)
    if rank < n_occ - 1:
        raise infophase.DegenerateFieldError("fit is rank deficient beyond the gauge")
    grid = np.full(occ.shape, np.nan)
    grid[occ] = np.concatenate([[0.0], solution])
    return grid, float(np.linalg.norm(design @ solution - target))


def seeded_field(seed=0):
    """The 12x12 field ``phase --seed`` bins."""
    portraits = experiments.rotation_portraits(150, 200, 0.05, np.random.default_rng(seed))
    return infophase.empirical_field(portraits, 12)


class TestFloatCoreMatchesArrays:
    @pytest.mark.parametrize("scale", [1.0, 1e-300, 1e280])
    def test_pairwise_sum_and_mean_bit_equal(self, scale):
        rng = np.random.default_rng(21)
        for n in range(1, 301):  # across 8 accumulators and the 128-term halving
            x = scale * rng.standard_normal(n) * 10.0 ** rng.integers(-8, 9, n)
            assert infophase._sum(x.tolist()) == np.sum(x)
            assert infophase._sum(x.tolist()) / n == np.mean(x)
        stack = rng.standard_normal((50, 37))
        assert [infophase._sum(row) for row in stack.tolist()] == stack.sum(axis=-1).tolist()

    def test_entropies_within_an_ulp_of_numpys(self):
        rng = np.random.default_rng(23)
        for k in (2, 7, 16, 33, 130):
            p = random_rows(rng, 200, k, zero_share=0.3)
            np.testing.assert_allclose(infophase.portrait(p).u, numpy_entropies(p), rtol=1e-15, atol=1e-16)

    @pytest.mark.parametrize("window", [1, 3, 5, 9, 17, 131])
    def test_smoothing_bit_equal(self, window):
        values = np.random.default_rng(window).standard_normal(400)
        got = infophase._smooth_centered(values.tolist(), window)
        np.testing.assert_array_equal(got, numpy_smooth(values, window) if window > 1 else values)

    @pytest.mark.parametrize("bins", [1, 3, 12, 40])
    def test_edges_counts_and_means_bit_equal(self, bins):
        portraits = rotation_portraits(60, 90, 0.07) + [infophase.PhasePortrait([0.5], [0.0])]
        field = infophase.empirical_field(portraits, bins)
        for got, want in zip(arrays(field), numpy_field(portraits, bins), strict=True):
            np.testing.assert_array_equal(got, want)

    def test_seeded_field_bit_equal(self):
        field = seeded_field()
        _, _, vu, ve, count = numpy_field(experiments.rotation_portraits(150, 200, 0.05, np.random.default_rng(0)), 12)
        _, _, got_vu, got_ve, _ = arrays(field)
        np.testing.assert_array_equal(got_vu, vu)
        np.testing.assert_array_equal(got_ve, ve)
        np.testing.assert_array_equal(field.count, count)
        assert infophase.divergence_score(field) == numpy_divergence_score(field)

    @settings(max_examples=200)
    @given(field=grid_fields())
    def test_divergence_and_fit_verdict_against_arrays(self, field):
        # test_fit_matches compares the fitted values with the loop's lstsq
        got, want = outcome(infophase.divergence_score, field), outcome(numpy_divergence_score, field)
        assert got is want if isinstance(want, type) else got == pytest.approx(want, rel=1e-12)
        fit, fit0 = outcome(infophase.fit_info_hamiltonian, field), outcome(numpy_fit, field)
        assert isinstance(fit, type) == isinstance(fit0, type)  # connectivity decides as lstsq's rank

    @pytest.mark.parametrize("seed", range(4))
    def test_seeded_fit_residual_matches_lstsq(self, seed):
        field = seeded_field(seed)
        grid, residual = fit(field)
        grid0, residual0 = numpy_fit(field)
        assert residual == pytest.approx(residual0, rel=1e-12)
        np.testing.assert_allclose(grid, grid0, rtol=0.0, atol=1e-12)  # the grid spans ~0.05

    def test_fine_grid_fits_finite(self):
        # spacings of ~1e-161 square past the float range in the plain normal equations
        field = seeded_field()
        u_edges, e_edges, vu, ve, count = arrays(field)
        fine = infophase.GridField(1e-160 * u_edges, 1e-160 * e_edges, vu, ve, count)
        grid, residual = fit(fine)
        grid0, residual0 = fit(field)
        occ = field.occupied
        assert np.isfinite(grid[occ]).all() and math.isfinite(residual)
        np.testing.assert_allclose(grid[occ], 1e-160 * grid0[occ], rtol=1e-9)
        assert residual == pytest.approx(residual0, rel=1e-9)


class TestFloatBacking:
    def test_arrays_are_read_only_copies_of_the_values(self):
        por = infophase.PhasePortrait(u=[0.5, 0.25], e=np.array([0.0, 0.25]))
        assert por.u == (0.5, 0.25) and por.e == (0.0, 0.25)  # tuples: read-only
        assert all(type(v) is float for v in (*por.u, *por.e))
        field = seeded_field()
        assert field.count is field.count and not field.count.flags.writeable
        assert field.count.dtype.kind == "i" and field.count.shape == (12, 12)

    def test_fit_grid_is_rows_of_floats(self):
        grid, _ = infophase.fit_info_hamiltonian(seeded_field())
        assert len(grid) == 12 and all(len(row) == 12 for row in grid)
        assert all(type(v) is float for row in grid for v in row)

    def test_rows_read_the_arrays_values(self):
        por = infophase.PhasePortrait(u=[0.5, 0.25], e=[0.0, 0.25])
        assert list(por.rows()) == [(0, 0.5, 0.0), (1, 0.25, 0.25)]
        u_edges, e_edges, vu, ve, count = numpy_field(
            experiments.rotation_portraits(150, 200, 0.05, np.random.default_rng(0)), 12
        )
        u_center, e_center = np.meshgrid(centers(u_edges), centers(e_edges), indexing="ij")
        columns = (u_center, e_center, vu, ve, count)
        assert list(seeded_field().rows()) == list(zip(*(c.ravel().tolist() for c in columns)))

    @pytest.mark.parametrize("ulps", [2, 7])
    def test_span_of_a_few_ulps_binned_as_arrays(self, ulps):
        # twelve bins over a few ulps repeat edges; the first cell still has width
        lo = 2.0
        hi = lo
        for _ in range(ulps):
            hi = math.nextafter(hi, math.inf)
        u = np.linspace(lo, hi, 40)
        portraits = [infophase.PhasePortrait(u, np.linspace(0.0, 1.0, 40))]
        field = infophase.empirical_field(portraits, 12)
        for got, want in zip(arrays(field), numpy_field(portraits, 12), strict=True):
            np.testing.assert_array_equal(got, want)

    def test_field_of_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            infophase.GridField([0.0, 1.0, 2.0], [0.0, 1.0], np.zeros((2, 1)), np.zeros((2, 1)), np.ones((1, 1)))
