"""Tests for entropy portraits, empirical fields, and scalar-field fits."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maniflow import infophase


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


def rotation_grid(nu=7, ne=7, center=2.0):
    """GridField holding the exact rotation field at the cell centres."""
    u_edges = np.linspace(center - 1.5, center + 1.5, nu + 1)
    e_edges = np.linspace(-1.5, 1.5, ne + 1)
    uc = 0.5 * (u_edges[:-1] + u_edges[1:])
    ec = 0.5 * (e_edges[:-1] + e_edges[1:])
    vu = np.tile(ec[None, :], (nu, 1))
    ve = -np.tile((uc - center)[:, None], (1, ne))
    count = np.ones((nu, ne), dtype=int)
    return infophase.GridField(u_edges=u_edges, e_edges=e_edges, vu=vu, ve=ve, count=count)


class TestEntropy:
    def test_uniform(self):
        np.testing.assert_allclose(entropy_of(4), np.log(4.0))

    def test_delta_is_zero(self):
        assert infophase.entropy(np.array([0.0, 1.0, 0.0])) == 0.0

    def test_zero_entries_ignored(self):
        np.testing.assert_allclose(
            infophase.entropy(np.array([0.5, 0.5, 0.0])), np.log(2.0)
        )

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


class TestEmpiricalField:
    def test_known_binning(self):
        por = infophase.PhasePortrait(
            u=np.array([0.0, 1.0, 2.0]), e=np.array([0.0, -1.0, -1.0])
        )
        field = infophase.empirical_field([por], 2, 2)
        np.testing.assert_allclose(field.u_edges, [0.0, 0.5, 1.0])
        np.testing.assert_allclose(field.e_edges, [-1.0, -0.5, 0.0])
        # step 1 starts at (u=0, e=0) -> cell (0, 1); step 2 at (1, -1) -> (1, 0)
        assert field.count[0, 1] == 1 and field.count[1, 0] == 1
        assert field.count.sum() == 2
        np.testing.assert_allclose(field.vu[0, 1], 1.0)
        np.testing.assert_allclose(field.ve[0, 1], -1.0)
        np.testing.assert_allclose(field.vu[1, 0], 1.0)
        np.testing.assert_allclose(field.ve[1, 0], 0.0)

    def test_cell_averaging(self):
        por = infophase.PhasePortrait(
            u=np.array([0.0, 2.0, 0.0, 4.0]), e=np.array([0.0, 0.0, 0.0, 0.0])
        )
        # steps from u = 0 (twice, du 2 and 4) and one from u = 2
        field = infophase.empirical_field([por], 1, 1)
        assert field.count[0, 0] == 3
        np.testing.assert_allclose(field.vu[0, 0], (2.0 - 2.0 + 4.0) / 3.0)

    def test_degenerate_range_widened(self):
        por = infophase.PhasePortrait(u=np.array([5.0, 6.0]), e=np.array([0.0, 0.0]))
        field = infophase.empirical_field([por], 2, 2)
        np.testing.assert_allclose(field.u_edges, [4.5, 5.0, 5.5])
        np.testing.assert_allclose(field.e_edges, [-0.5, 0.0, 0.5])
        assert field.count.sum() == 1

    def test_short_portraits_skipped(self):
        single = infophase.PhasePortrait(u=np.array([1.0]), e=np.array([0.0]))
        with pytest.raises(ValueError, match="displacement"):
            infophase.empirical_field([single], 2, 2)

    def test_bad_bins(self):
        por = infophase.PhasePortrait(u=np.array([0.0, 1.0]), e=np.array([0.0, 0.0]))
        with pytest.raises(ValueError, match="bin"):
            infophase.empirical_field([por], 0, 2)


class TestDivergenceScore:
    def test_exact_rotation_field_divergence_free(self):
        score = infophase.divergence_score(rotation_grid())
        assert score <= 1e-12

    def test_sampled_rotation_under_threshold(self):
        portraits = rotation_portraits(80, 150, 0.05)
        field = infophase.empirical_field(portraits, 10, 10)
        assert infophase.divergence_score(field) <= 0.1

    def test_compressive_field_scores_high(self):
        # pure sink: V = (-(u - c), -e) has |div| = 2 everywhere
        grid = rotation_grid()
        uc, ec = grid.u_centers, grid.e_centers
        vu = -np.tile((uc - 2.0)[:, None], (1, ec.size))
        ve = -np.tile(ec[None, :], (uc.size, 1))
        sink = infophase.GridField(grid.u_edges, grid.e_edges, vu, ve, grid.count)
        assert infophase.divergence_score(sink) > 1.0

    def test_no_interior_cell_raises(self):
        por = infophase.PhasePortrait(u=np.array([0.0, 1.0]), e=np.array([0.0, 0.0]))
        field = infophase.empirical_field([por], 2, 2)
        with pytest.raises(infophase.DegenerateFieldError, match="interior"):
            infophase.divergence_score(field)

    def test_zero_magnitude_raises(self):
        grid = rotation_grid()
        zero = infophase.GridField(
            grid.u_edges, grid.e_edges, np.zeros_like(grid.vu), np.zeros_like(grid.ve), grid.count
        )
        with pytest.raises(infophase.DegenerateFieldError, match="magnitude"):
            infophase.divergence_score(zero)


class TestFitInfoHamiltonian:
    def test_exact_rotation_recovers_quadratic(self):
        field = rotation_grid()
        grid, residual = infophase.fit_info_hamiltonian(field)
        assert residual <= 1e-10
        uc, ec = field.u_centers, field.e_centers
        ref = 0.5 * ((uc[:, None] - 2.0) ** 2 + ec[None, :] ** 2)
        ref = ref - ref[0, 0] + grid[0, 0]  # align the gauge
        np.testing.assert_allclose(grid, ref, atol=1e-10)

    def test_sampled_rotation_recovery(self):
        dt = 0.05
        portraits = rotation_portraits(80, 150, dt)
        field = infophase.empirical_field(portraits, 10, 10)
        grid, _ = infophase.fit_info_hamiltonian(field)
        occ = field.occupied
        uc, ec = field.u_centers, field.e_centers
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
        field = infophase.empirical_field([por], 3, 3)
        grid, _ = infophase.fit_info_hamiltonian(field)
        assert np.isnan(grid[~field.occupied]).all()
        assert np.isfinite(grid[field.occupied]).all()

    def test_single_cell(self):
        por = infophase.PhasePortrait(u=np.array([5.0, 6.0]), e=np.array([0.0, 0.0]))
        field = infophase.empirical_field([por], 1, 1)
        grid, residual = infophase.fit_info_hamiltonian(field)
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
        with pytest.raises(infophase.FieldFitError):
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
        with pytest.raises(infophase.FieldFitError):
            infophase.fit_info_hamiltonian(field)


def oracle_divergence_score(field):
    """The per-cell loop that ``divergence_score`` replaces."""
    occ = field.occupied
    nu, ne = occ.shape
    du = float(field.u_edges[1] - field.u_edges[0])
    de = float(field.e_edges[1] - field.e_edges[0])
    divs = []
    for iu in range(1, nu - 1):
        for ie in range(1, ne - 1):
            if not (occ[iu, ie] and occ[iu - 1, ie] and occ[iu + 1, ie] and occ[iu, ie - 1] and occ[iu, ie + 1]):
                continue
            div = (field.vu[iu + 1, ie] - field.vu[iu - 1, ie]) / (2.0 * du)
            div += (field.ve[iu, ie + 1] - field.ve[iu, ie - 1]) / (2.0 * de)
            divs.append(abs(div))
    if not divs:
        raise infophase.DegenerateFieldError("no interior occupied cell")
    mean_mag = float(np.mean(np.hypot(field.vu[occ], field.ve[occ])))
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
    du = float(field.u_edges[1] - field.u_edges[0])
    de = float(field.e_edges[1] - field.e_edges[0])
    rows, rhs = [], []
    for iu, ie in map(tuple, cells):
        if (iu + 1, ie) in index:
            row = np.zeros(n_occ)
            row[index[(iu + 1, ie)]] = 1.0 / du
            row[index[(iu, ie)]] = -1.0 / du
            rows.append(row)
            rhs.append(-0.5 * (field.ve[iu, ie] + field.ve[iu + 1, ie]))
        if (iu, ie + 1) in index:
            row = np.zeros(n_occ)
            row[index[(iu, ie + 1)]] = 1.0 / de
            row[index[(iu, ie)]] = -1.0 / de
            rows.append(row)
            rhs.append(0.5 * (field.vu[iu, ie] + field.vu[iu, ie + 1]))
    h_flat = np.zeros(n_occ)
    residual_norm = 0.0
    if n_occ > 1:
        if not rows:
            raise infophase.FieldFitError("occupied cells share no adjacencies")
        design = np.vstack(rows)[:, 1:]
        target = np.asarray(rhs)
        solution, _, rank, _ = np.linalg.lstsq(design, target, rcond=None)
        if rank < n_occ - 1:
            raise infophase.FieldFitError("fit is rank deficient beyond the gauge")
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
    except (infophase.DegenerateFieldError, infophase.FieldFitError) as exc:
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
