"""Tests for the toy descent, refinement, and oscillator studies."""

import math
import re

import numpy as np
import pytest

from maniflow import experiments, infophase, manifold
from maniflow._staged import staged
from maniflow.manifold import IntegrationError


def _numpy_entropy(decoder, y):
    """The read-out entropy through a numpy softmax and ``infophase.entropy``."""
    gap = decoder.scale * max(0.0, 1.0 - abs(float(y)) / 2.0)
    logits = np.array([gap, 0.0, -gap])
    shifted = np.exp(logits - np.max(logits))
    return infophase.entropy(shifted / np.sum(shifted))


class TestToyDecoder:
    def test_distribution_normalised(self):
        dec = experiments.ToyDecoder()
        for y in (-3.0, -0.5, 0.0, 0.7, 2.0, 5.0):
            p = dec.distribution(y)
            assert isinstance(p, list) and len(p) == 3 and all(type(v) is float for v in p)
            np.testing.assert_allclose(np.sum(p), 1.0, atol=1e-12)
            assert min(p) >= 0
            # the list holds the floats entropy_at sums
            assert infophase.entropy(p) == pytest.approx(dec.entropy_at(y), rel=0, abs=1e-15)

    def test_entropy_increases_with_distance(self):
        dec = experiments.ToyDecoder()
        ys = [0.0, 0.0625, 0.25, 0.5, 1.0, 2.0]
        us = [dec.entropy_at(y) for y in ys]
        assert all(a < b for a, b in zip(us, us[1:]))

    def test_entropy_saturates_at_uniform(self):
        dec = experiments.ToyDecoder()
        np.testing.assert_allclose(dec.entropy_at(2.0), math.log(3.0), atol=1e-12)
        np.testing.assert_allclose(dec.entropy_at(-4.0), math.log(3.0), atol=1e-12)

    def test_even_in_y(self):
        dec = experiments.ToyDecoder()
        np.testing.assert_allclose(dec.entropy_at(0.7), dec.entropy_at(-0.7))

    def test_parse_spec(self):
        assert experiments.parse_decoder_spec("default").scale == 1.0
        sharp = experiments.parse_decoder_spec("gap:3.0")
        soft = experiments.parse_decoder_spec("gap:0.5")
        assert sharp.entropy_at(0.0) < soft.entropy_at(0.0)
        with pytest.raises(ValueError, match="decoder spec"):
            experiments.parse_decoder_spec("mlp")

    def test_entropy_matches_numpy_softmax(self):
        # the read-out's softmax and entropy run over Python floats (math.exp,
        # math.log, left-to-right sums); numpy's SIMD exp and log may round
        # differently in the last place
        worst = 0.0
        for scale in [*np.geomspace(1e-3, 1e3, 40), *-np.geomspace(1e-3, 1e3, 40), 0.0, 1.0]:
            dec = experiments.ToyDecoder(float(scale))
            for y in np.linspace(-3.0, 3.0, 121):
                worst = max(worst, abs(dec.entropy_at(y) - _numpy_entropy(dec, y)))
        assert worst <= 1e-15

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_logit_rejected(self, bad):
        # a non-finite scale is the one way to a non-finite logit; it is refused at construction
        with pytest.raises(ValueError, match=f"^decoder scale must be finite, got {bad!r}$"):
            experiments.ToyDecoder(bad)
        with pytest.raises(ValueError, match=f"^decoder scale must be finite, got {bad!r}$"):
            experiments.parse_decoder_spec(f"gap:{bad}")

    @pytest.mark.parametrize("scale", [1e308, -1e308])
    def test_overflowing_shift_is_a_zero_probability(self, scale):
        # gap - (-gap) overflows to inf; the shifted logit is -inf and its weight 0
        dec = experiments.ToyDecoder(scale)
        assert dec.distribution(0.0) == ([1.0, 0.0, 0.0] if scale > 0 else [0.0, 0.0, 1.0])
        assert dec.entropy_at(0.0) == 0.0
        assert str(dec.entropy_at(0.0)) == "0.0"  # not -0.0


class TestPathMetrics:
    def test_trapezoid_cost(self):
        dec = experiments.ToyDecoder()
        m = experiments.path_metrics((2.0, 0.0), dec)
        # (V(2) + V(0)) / 2 = 1
        np.testing.assert_allclose(m.cost, 1.0)

    def test_delta_u_consistency(self):
        dec = experiments.ToyDecoder()
        m = experiments.path_metrics(experiments.LINEAR_PATH, dec)
        np.testing.assert_allclose(m.delta_u, dec.entropy_at(experiments.LINEAR_PATH[0]) - m.u_final, atol=1e-15)
        np.testing.assert_allclose(m.efficiency, m.delta_u / m.cost, atol=1e-15)

    def test_zero_cost_rejected(self):
        dec = experiments.ToyDecoder()
        with pytest.raises(ValueError, match="zero"):
            experiments.path_metrics((0.0, 0.0), dec)

    def test_empty_path_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            experiments.path_metrics((), experiments.ToyDecoder())

    def test_contraction_path(self):
        # six ticks of ratio 0.6 from 2, each term the previous one times 0.6, bit for bit
        terms = [2.0]
        for _ in range(6):
            terms.append(terms[-1] * 0.6)
        assert experiments.CONTRACTION_PATH == tuple(terms)
        np.testing.assert_allclose(experiments.CONTRACTION_PATH, 2.0 * 0.6 ** np.arange(7), rtol=1e-15)

    def test_cost_is_summed_left_to_right_on_every_python(self):
        # Python 3.12's compensated builtin sum gave ...552p+1 and ...bccp-4
        m = experiments.path_metrics(experiments.CONTRACTION_PATH, experiments.ToyDecoder())
        assert m.cost.hex() == "0x1.0f686d217f553p+1"
        assert m.efficiency.hex() == "0x1.dc313fd6a0bcap-4"


class TestToy1:
    def test_costs(self):
        runs = experiments.toy1_run()
        # trapezoid sums of y^2/2 along the fixed schedules, exact dyadics
        np.testing.assert_allclose(runs["linear"].cost, 3.4, atol=1e-12)
        np.testing.assert_allclose(runs["hjb_like"].cost, 1.6650390625, atol=1e-15)
        np.testing.assert_allclose(runs["sssp"].cost, 1.0, atol=1e-15)

    def test_sssp_route_skips_intermediates(self):
        runs = experiments.toy1_run()
        assert runs["sssp"].path == (2.0, 0.0)

    def test_efficiency_ordering(self):
        runs = experiments.toy1_run()
        assert runs["linear"].efficiency <= runs["hjb_like"].efficiency
        assert runs["hjb_like"].efficiency <= runs["sssp"].efficiency

    def test_entropy_telescoping(self):
        dec = experiments.ToyDecoder()
        dists = [dec.distribution(y) for y in experiments.HALVING_PATH_5]
        por = infophase.portrait(dists)
        u0, ut = por.u[0], por.u[-1]
        assert abs(float(np.sum(por.e)) - (u0 - ut)) <= 1e-12


class TestToy2:
    def test_endpoints_and_costs(self):
        runs = experiments.toy2_run()
        np.testing.assert_allclose(runs["hjb_only"].path[-1], 0.25)
        np.testing.assert_allclose(runs["hjb_only"].cost, 1.640625, atol=1e-15)
        np.testing.assert_allclose(runs["ctm_style"].path[-1], 2.0 * 0.6**6, atol=1e-15)
        np.testing.assert_allclose(runs["ctm_style"].cost, 2.1203743375360005, atol=1e-12)

    def test_tradeoff_orderings(self):
        runs = experiments.toy2_run()
        # the longer contraction sheds more entropy but pays more per nat
        assert runs["ctm_style"].delta_u > runs["hjb_only"].delta_u
        assert runs["ctm_style"].efficiency < runs["hjb_only"].efficiency


class TestToy3:
    def setup_method(self):
        self.reports = {r.method: r for r in experiments.toy3_run()}

    def test_report_fields(self):
        # table_csv reads a report's cells by these attribute names
        rep = experiments.OscillatorReport("m", 1.0, 0.0, 0.0, 0.0, 1.0)
        assert rep.note == ""
        assert list(vars(rep)) == [
            "method", "final_y", "final_p", "eps_state", "eps_h_max", "final_radius", "note"
        ]

    def test_leapfrog_stays_on_circle(self):
        leap = self.reports["leapfrog"]
        np.testing.assert_allclose(leap.final_y, 0.8826849673165411, atol=1e-12)
        np.testing.assert_allclose(leap.final_p, 0.4693773325930976, atol=1e-12)
        np.testing.assert_allclose(leap.eps_state, 0.04222455202424477, atol=1e-12)
        # max energy wobble of the staged scheme is h^2/8 for this oscillator
        np.testing.assert_allclose(leap.eps_h_max, 0.1**2 / 8.0, rtol=1e-4)

    def test_euler_divergence_matches_growth_law(self):
        euler = self.reports["euler"]
        h, n = 0.1, 1000
        np.testing.assert_allclose(
            euler.final_radius, (1.0 + h * h) ** (n / 2.0), rtol=1e-14
        )
        np.testing.assert_allclose(euler.final_y, 94.2012212953938, atol=1e-9)
        np.testing.assert_allclose(euler.final_p, 109.93309576405989, atol=1e-9)
        np.testing.assert_allclose(
            euler.eps_h_max, ((1.0 + h * h) ** n - 1.0) / 2.0, rtol=1e-12
        )

    def test_damped_contraction(self):
        damped = self.reports["damped"]
        np.testing.assert_allclose(damped.final_y, 0.07249509671078708, atol=1e-12)
        np.testing.assert_allclose(damped.final_p, 0.03616131397742662, atol=1e-12)
        np.testing.assert_allclose(damped.eps_state, 0.9191918764439303, atol=1e-12)
        np.testing.assert_allclose(damped.eps_h_max, 0.4967184101621598, atol=1e-12)
        # radius after t = 100 at damping 0.05 tracks exp(-lam t / 2)
        assert abs(damped.final_radius / math.exp(-2.5) - 1.0) < 0.02

    def test_notes_flag_reference_discrepancies(self):
        assert "1.25e-3" in self.reports["leapfrog"].note
        assert "inconsistent" in self.reports["euler"].note

    def test_grid_validation(self):
        for kwargs, message in [
            ({"dt": -0.1}, "dt must be finite and > 0, got -0.1"),
            ({"steps": 0}, "steps must be an integer >= 1, got 0"),
            ({"steps": -3}, "steps must be an integer >= 1, got -3"),
            ({"damping": -0.1}, "damping must be finite and >= 0, got -0.1"),
        ]:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                experiments.toy3_run(**kwargs)

    # h is the step size dt, t the span steps * dt, and their ratio the step count
    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"dt": 0.0}, "dt must be finite and > 0, got 0.0"),
            ({"dt": math.inf}, "dt must be finite and > 0, got inf"),
            ({"dt": math.nan}, "dt must be finite and > 0, got nan"),
            ({"steps": 5, "dt": 1e308}, "steps * dt must be finite, got 5 * 1e+308"),
            ({"steps": 10**400}, f"steps * dt must be finite, got {10**400} * 0.1"),
        ],
        ids=["h-zero", "h-inf", "h-nan", "t-inf", "ratio-inf"],
    )
    def test_step_count_must_be_finite(self, kwargs, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            experiments.toy3_run(**kwargs)

    def test_diverging_run_keeps_failure_state(self):
        # dt 50 over 200 steps: the leapfrog run overflows at step 46, as `table 3 --dt 50 --steps 200` reports
        with pytest.raises(IntegrationError) as info:
            experiments.toy3_run(steps=200, dt=50.0)
        err = info.value
        assert str(err) == "leapfrog run: non-finite state or energy at step 46"
        assert err.step == 46
        assert np.isfinite(err.y).all() and np.isfinite(err.p).all()
        assert 0 < err.drift < math.inf

    def test_eps_h_max_is_numpys(self):
        # the running maximum over Python floats equals the numpy reduction over every node
        def euler(h, n):
            y, p = 1.0, 0.0
            yield y, p, None
            for _ in range(n):
                y, p = y + h * p, p - h * y
                yield y, p, None

        nodes = {
            "leapfrog": staged(experiments.HarmonicOscillator(0.0), 1.0, 0.0, 0.1, 1000, False),
            "euler": euler(0.1, 1000),
            "damped": staged(experiments.HarmonicOscillator(0.05), 1.0, 0.0, 0.1, 1000, False),
        }
        for method, rep in self.reports.items():
            ys, ps, _ = map(np.asarray, zip(*nodes[method]))
            assert rep.eps_h_max == float(np.max(np.abs(0.5 * (ys**2 + ps**2) - 0.5)))
            assert (rep.final_y, rep.final_p) == (ys[-1], ps[-1])

    @pytest.mark.parametrize(
        "ys, ps",
        [
            ([1.0, math.nan, 0.5, 0.9], [0.0, 0.0, 0.5, 0.1]),
            ([1.0, 0.6, 0.5, 0.9], [0.0, math.nan, 0.5, 0.1]),
            ([1.0, math.inf, 0.5, 0.9], [0.0, 0.0, 0.5, 0.1]),
            ([1.0, 1e200, 0.5, 0.9], [0.0, 0.0, 0.5, 0.1]),
        ],
        ids=["nan-y", "nan-p", "inf-y", "energy-overflows"],
    )
    def test_non_finite_energy_inside_a_run_fails_the_report(self, ys, ps):
        # a running max() would pass over the NaN, so the node check stops the run at it
        with pytest.raises(IntegrationError, match=r"^probe run: non-finite state or energy at step 1$"):
            experiments._nodes("probe", zip(ys, ps, [None] * len(ys)))

    def test_oscillator_partials(self):
        ham = experiments.HarmonicOscillator()
        y, p = np.array([0.3]), np.array([-0.7])
        np.testing.assert_allclose(ham(y, p), 0.5 * (0.09 + 0.49))
        np.testing.assert_allclose(ham.dy(y, p), y)
        np.testing.assert_allclose(ham.dp(y, p), p)


class TestLeapfrogNodesAreIntegrates:
    """The shared stepper over floats (``_leapfrog_nodes``) against it over (1,) arrays (``integrate``), bit for bit."""

    @staticmethod
    def _same_run(h, c, n):
        """Assert both runs give the same nodes or the same failure; the failing step, or None."""
        try:
            traj = manifold.integrate(experiments.HarmonicOscillator(c), manifold.PhasePoint([1.0], [0.0]), h, n)
        except IntegrationError as expected:
            with pytest.raises(IntegrationError) as info:
                experiments._leapfrog_nodes("leapfrog", c, h, n)
            got = info.value
            assert str(got) == f"leapfrog run: {expected}"
            assert got.step == expected.step and got.drift == expected.drift
            assert got.y.shape == got.p.shape == (1,)
            assert got.y.tobytes() == expected.y.tobytes() and got.p.tobytes() == expected.p.tobytes()
            return got.step
        ys, ps, _ = zip(*staged(experiments.HarmonicOscillator(c), 1.0, 0.0, h, n, False))
        assert np.array(ys).tobytes() == traj.ys[:, 0].tobytes()
        assert np.array(ps).tobytes() == traj.ps[:, 0].tobytes()
        errors = np.abs(0.5 * (traj.ys[:, 0] ** 2 + traj.ps[:, 0] ** 2) - 0.5)
        assert experiments._leapfrog_nodes("leapfrog", c, h, n) == (ys[-1], ps[-1], float(np.max(errors)))
        return None

    @pytest.mark.parametrize("c", [0.0, 0.05, 3.0])
    @pytest.mark.parametrize("h", [0.05, 0.1, 0.3, 1.0, 1.5, 2.5])
    def test_nodes_equal_integrate(self, h, c):
        for n in (1, 7, 200, 1000):
            self._same_run(h, c, n)

    def test_grid_holds_diverging_runs(self):
        # h > 2 leaves the undamped leapfrog's stability interval
        assert self._same_run(2.5, 0.0, 1000) is not None
        assert self._same_run(1.5, 3.0, 1000) is not None

    def test_overflow_is_the_same_failure(self):
        # the run `table 3 --dt 50 --steps 200` reports
        assert self._same_run(50.0, 0.0, 200) == 46


class TestRotationPortraits:
    def test_shapes_and_positivity(self):
        rng = np.random.default_rng(0)
        portraits = experiments.rotation_portraits(20, 50, 0.05, rng)
        assert len(portraits) == 20
        for por in portraits:
            assert len(por) == 51
            assert min(por.u) >= 0

    def test_sampled_field_has_low_divergence(self):
        rng = np.random.default_rng(0)
        portraits = experiments.rotation_portraits(100, 120, 0.05, rng)
        field = infophase.empirical_field(portraits, 10)
        assert infophase.divergence_score(field) <= 0.1

    @pytest.mark.parametrize(
        "n_steps, dt, message",
        [
            (50, 0.0, "dt must be finite and > 0, got 0.0"),
            (50, -0.05, "dt must be finite and > 0, got -0.05"),
            (0, 0.05, "steps must be an integer >= 1, got 0"),
            (5, 1e308, "steps * dt must be finite, got 5 * 1e+308"),
            (10**400, 0.05, f"steps * dt must be finite, got {10**400} * 0.05"),
        ],
        ids=["dt-zero", "dt-negative", "steps-zero", "span-overflows", "steps-past-float-range"],
    )
    def test_step_grid_is_checked(self, n_steps, dt, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            experiments.rotation_portraits(3, n_steps, dt, np.random.default_rng(0))


class TestTables:
    def test_table1_csv_layout(self):
        text = experiments.table_csv(1)
        lines = text.strip().split("\n")
        assert len(lines) == 4
        header = lines[0].split(",")
        assert header[0] == "method"
        assert "cost_J" in header and "cost_J_ref" in header
        assert lines[1].startswith("linear,")

    def test_table2_has_final_column(self):
        text = experiments.table_csv(2)
        header = text.strip().split("\n")[0].split(",")
        assert "final_y" in header and "final_y_ref" in header

    def test_table3_notes_column(self):
        text = experiments.table_csv(3)
        lines = text.strip().split("\n")
        assert lines[0].split(",")[-1] == "note"
        assert len(lines) == 4

    def test_markdown_shape(self):
        text = experiments.table_markdown(experiments.table_csv(1))
        lines = text.strip().split("\n")
        assert lines[0].startswith("| method |")
        assert set(lines[1].replace("|", "")) == {"-"}
        assert len(lines) == 5

    def test_unknown_table(self):
        with pytest.raises(ValueError, match="table"):
            experiments.table_csv(9)

    def test_custom_decoder_changes_entropies_not_costs(self):
        soft = experiments.parse_decoder_spec("gap:0.5")
        runs_default = experiments.toy1_run()
        runs_soft = experiments.toy1_run(soft)
        np.testing.assert_allclose(runs_soft["linear"].cost, runs_default["linear"].cost)
        assert runs_soft["linear"].delta_u != runs_default["linear"].delta_u
