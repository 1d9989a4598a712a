"""Tests for optimal control, HJB residuals, and trajectory costs."""

import copy
import math
import pickle

import numpy as np
import pytest

from maniflow import control, manifold

from conftest import loop_fd_gradient


def identity_field(eps_reg=0.0):
    return manifold.MetricField(manifold.Decoder.linear(np.eye(1)), eps_reg=eps_reg)


def quad_cost():
    return control.CostSpec(task_cost=lambda z: 0.5 * float(z @ z))


class TestCostSpec:
    def test_potential_task_only(self):
        cost = quad_cost()
        assert cost.potential(np.array([2.0])) == 2.0


class TestValueFunction:
    def test_analytic_gradient_used(self):
        # V = y^2/2 given with grad 10 y: the residual reads the given grad, 0 + (10 y)^2/2 - y^2/2 at y = 1
        vf = control.ValueFunction(
            grad=lambda y, t: 10.0 * np.asarray(y),
            time_partial=lambda y, t: 0.0,
        )
        np.testing.assert_allclose(control.hjb_residual(identity_field(), quad_cost(), vf, np.array([1.0])), 49.5)


class TestOptimalControl:
    def test_identity_metric(self):
        mf = identity_field()
        p = np.array([0.7])
        np.testing.assert_allclose(control.optimal_control(mf, np.zeros(1), p), p)

    def test_diagonal_metric(self):
        mf = manifold.MetricField(
            manifold.Decoder.linear(np.diag([2.0, 1.0])), eps_reg=0.0
        )
        u = control.optimal_control(mf, np.zeros(2), np.array([4.0, 3.0]))
        np.testing.assert_allclose(u, [1.0, 3.0])


class TestHjbResidual:
    def test_analytic_pair_is_exact(self):
        # V = y^2/2, task cost z^2/2, identity metric: residual is exactly 0
        mf = identity_field(eps_reg=0.0)
        cost = quad_cost()
        vf = control.ValueFunction(
            grad=lambda y, t: np.asarray(y, dtype=float),
            time_partial=lambda y, t: 0.0,
        )
        for y in np.linspace(-3.0, 3.0, 25):
            r = control.hjb_residual(mf, cost, vf, np.array([y]))
            assert abs(r) <= 1e-10

    def test_mismatched_value_function_detected(self):
        mf = identity_field()
        cost = quad_cost()
        vf = control.ValueFunction(
            grad=lambda y, t: 2.0 * np.asarray(y, dtype=float),  # V = y^2, the wrong scale
            time_partial=lambda y, t: 0.0,
        )
        r = control.hjb_residual(mf, cost, vf, np.array([2.0]))
        # 0 + (4y^2)/2 - y^2/2 = 1.5 y^2 = 6
        np.testing.assert_allclose(r, 6.0, atol=1e-8)

    def test_time_dependent_value(self):
        # V = y^2/2 - t
        mf = identity_field()
        cost = quad_cost()
        vf = control.ValueFunction(
            grad=lambda y, t: np.asarray(y, dtype=float),
            time_partial=lambda y, t: -1.0,
        )
        r = control.hjb_residual(mf, cost, vf, np.array([1.5]), t=2.0)
        np.testing.assert_allclose(r, -1.0, atol=1e-12)

    # V = 1e300 |y|^2, whose kinetic term p^2 / 2 at y = 1 passes the float range
    STEEP = control.ValueFunction(
        grad=lambda y, t: 2e300 * np.asarray(y, dtype=float),
        time_partial=lambda y, t: 0.0,
    )

    def test_residual_past_float_range_is_inf(self):
        # the kinetic term used to warn in multiply
        assert control.hjb_residual(identity_field(), quad_cost(), self.STEEP, np.array([1.0])) == math.inf

    def test_nan_residual_rejected(self):
        # an infinite kinetic term minus an infinite potential
        cost = control.CostSpec(task_cost=lambda z: math.inf)
        with pytest.raises(ValueError, match="^HJB residual is nan$"):
            control.hjb_residual(identity_field(), cost, self.STEEP, np.array([1.0]))


class TestNdmLayer:
    def test_matches_hand_leapfrog(self):
        mf = identity_field()
        cost = quad_cost()
        pt = manifold.PhasePoint(np.array([1.0]), np.array([0.5]))
        h = 0.2
        out = control.ndm_layer(mf, cost, pt, h)
        # H = p^2/2 - y^2/2: dH/dy = -y, dH/dp = p
        p_half = 0.5 + 0.5 * h * 1.0
        y_new = 1.0 + h * p_half
        p_new = p_half + 0.5 * h * y_new
        np.testing.assert_allclose(out.y, [y_new], atol=1e-9)
        np.testing.assert_allclose(out.p, [p_new], atol=1e-9)

    def test_nonpositive_dt_rejected(self):
        mf = identity_field()
        pt = manifold.PhasePoint(np.array([1.0]), np.array([0.0]))
        with pytest.raises(ValueError, match="dt"):
            control.ndm_layer(mf, quad_cost(), pt, 0.0)

    def test_diverging_layer_raises(self):
        # a potential with a NaN gradient used to return a NaN phase point
        cost = control.CostSpec(task_cost=lambda z: float(z[0]) if z[0] < 1.0 else np.nan)
        pt = manifold.PhasePoint(np.array([1.0]), np.array([0.5]))
        with pytest.raises(manifold.IntegrationError, match="step 1") as info:
            control.ndm_layer(identity_field(), cost, pt, 0.1)
        np.testing.assert_array_equal(info.value.y, [1.0])

    @staticmethod
    def curved_reduced(rng, calls=None):
        """A ReducedHamiltonian on a tanh decoder R^2 -> R^3; ``calls`` collects one entry per task-cost call."""
        w1 = np.vstack([np.eye(2), np.zeros((1, 2))]) + 0.3 * rng.normal(size=(3, 2))
        w2 = np.eye(3) + 0.3 * rng.normal(size=(3, 3))
        dec = manifold.Decoder.mlp_tanh([w1, w2], [0.1 * rng.normal(size=3), np.zeros(3)])
        goal = np.array([0.5, -0.2, 0.1])

        def task_cost(z):
            if calls is not None:
                calls.append(1)
            return 0.5 * float((z - goal) @ (z - goal))

        return control.ReducedHamiltonian(manifold.MetricField(dec), control.CostSpec(task_cost=task_cost))

    def test_reduced_dy_matches_fd_of_full_value(self):
        # the reduced step's momenta are the y-derivatives of its full discrete Lagrangian,
        # L_d = |f1 - f0|^2 / 2h + eps |q1 - q0|^2 / 2h + h (V(q0) + V(q1)) / 2: p0 = -dL_d/dq0, p1 = dL_d/dq1
        rng = np.random.default_rng(3)
        ham = self.curved_reduced(rng)
        field, h = ham.metric_field, 0.1

        def action(q0, q1):
            chord, move = field.decoder(q1) - field.decoder(q0), q1 - q0
            kinetic = (chord @ chord + field.eps_reg * (move @ move)) / (2.0 * h)
            return kinetic + 0.5 * h * (ham.cost.potential(field.decoder(q0)) + ham.cost.potential(field.decoder(q1)))

        for _ in range(5):
            y = rng.uniform(-0.5, 0.5, size=2)
            p = manifold.pullback_metric(field, y) @ rng.normal(size=2)
            end = control.ndm_layer(field, ham.cost, manifold.PhasePoint(y, p), h)
            for exact, fd in (
                (p, -loop_fd_gradient(lambda q: action(q, end.y), y)),
                (end.p, loop_fd_gradient(lambda q: action(y, q), end.y)),
            ):
                assert np.linalg.norm(exact - fd) <= 1e-6 * np.linalg.norm(fd)

    def test_recorded_energies_are_the_hamiltonian(self):
        rng = np.random.default_rng(5)
        ham = self.curved_reduced(rng)
        traj = manifold.integrate(ham, manifold.PhasePoint([0.2, -0.1], [0.3, 0.4]), 0.05, 8)
        assert [ham(y, p) for y, p in zip(traj.ys, traj.ps)] == traj.energies.tolist()

    def test_value_takes_no_potential_gradient(self):
        # H(y, p) evaluates the potential once: hjb_residual runs no finite differences
        calls = []
        ham = self.curved_reduced(np.random.default_rng(6), calls)
        y, p = np.array([0.1, 0.2]), np.array([0.3, -0.4])
        ham(y, p)
        assert len(calls) == 1
        # a layer takes the potential's gradient at its two nodes, at the 2d stencil points of each
        control.ndm_layer(ham.metric_field, ham.cost, manifold.PhasePoint(y, p), 0.1)
        assert len(calls) == 1 + 2 * (2 * 2)

    def test_layer_derives_geometry_once_per_point(self):
        # the kinetic part makes one step's passes, 1 + 3 (two updates meet the bound); each potential
        # gradient one pass over its stencil
        dec = manifold.Decoder.mlp_tanh([np.eye(2), np.eye(2)], [np.zeros(2), np.zeros(2)])
        field = manifold.MetricField(dec)
        shapes, products = [], []
        forward, product = dec._forward, field._product  # the unchecked pass and G
        dec._forward = lambda y: shapes.append(np.shape(y)) or forward(y)
        field._product = lambda y, jac: products.append(np.shape(y)) or product(y, jac)
        pt = manifold.PhasePoint(np.array([0.2, -0.1]), np.array([0.3, 0.4]))
        control.ndm_layer(field, quad_cost(), pt, 0.1)
        assert shapes == [(2,), (4, 2)] + [(2,)] * 3 + [(4, 2)]
        assert products == [(2,), (2, 2)]  # at y for the step's start, then both nodes' as one checked stack

    @pytest.mark.parametrize(
        "weights, y, message",
        [
            # |y|^2 overflows at y = 1e308, so the stencil step GRAD_STEP (1 + |y|) is inf
            (np.eye(2), [1e308, 0.0], r"^potential gradient's stencil step at y=\[1e\+308, 0\.0\] overflows: \|y\|"),
            # a finite stencil whose outputs 1e300 y pass the float range
            (
                [[1e300, 0.0], [0.0, 1.0]], [1e9, 0.0],
                r"^decoder output on the potential gradient's stencil at y=\[1000000000\.0, 0\.0\] is not finite$",
            ),
        ],
        ids=["stencil-step", "decoder-output"],
    )
    def test_task_cost_scores_finite_outputs_only(self, weights, y, message):
        # the potential's gradient used to score the non-finite outputs (y +- inf, or 1e300 y), 4 calls on
        # non-finite z before the run failed
        seen = []

        def cost(z):
            seen.append(z.copy())
            return 0.5 * float(z @ z)

        field = manifold.MetricField(manifold.Decoder.linear(weights))
        pt = manifold.PhasePoint(np.array(y), np.array([1e154, 0.0]))
        with pytest.raises(ValueError, match=message):
            control.ndm_layer(field, control.CostSpec(cost), pt, 1e154)
        assert all(np.isfinite(z).all() for z in seen)

    def test_stack_of_layers_runs(self):
        mf = identity_field()
        cost = quad_cost()
        pt = manifold.PhasePoint(np.array([0.2]), np.array([0.0]))
        for _ in range(10):
            pt = control.ndm_layer(mf, cost, pt, 0.05)
        assert np.isfinite(pt.y).all() and np.isfinite(pt.p).all()


def record_passes(decoder):
    """The list of points that the decoder's unchecked pass ``_forward`` is given from now on."""
    passes, forward = [], decoder._forward
    decoder._forward = lambda y: passes.append(y.copy()) or forward(y)
    return passes


def layer_setup(seed=7):
    """A tanh field R^2 -> R^3, its CostSpec, a start point, and the list of outputs its task cost scores."""
    ham = TestNdmLayer.curved_reduced(np.random.default_rng(seed))
    field, cost, scored = ham.metric_field, ham.cost, []
    task_cost = cost.task_cost
    cost.task_cost = lambda z: scored.append(z) or task_cost(z)
    return field, cost, manifold.PhasePoint(np.array([0.2, -0.1]), np.array([0.3, 0.4])), scored


def same_point(a, b):
    return a.y.tobytes() == b.y.tobytes() and a.p.tobytes() == b.p.tobytes()


class TestCarriedStart:
    """A layer from a point that ndm_layer returned starts from that point's f, J and grad V."""

    def test_rollout_takes_one_gradient_per_new_node(self):
        field, cost, pt, scored = layer_setup()
        for _ in range(8):
            pt = control.ndm_layer(field, cost, pt, 0.1)
        # 9 potential gradients, not 16, each at the 2d stencil points: 18d task-cost calls
        assert len(scored) == 9 * 2 * 2

    def test_rollout_is_bit_equal_to_fresh_layers(self):
        field, cost, pt, _ = layer_setup()
        chained = fresh = pt
        for _ in range(8):
            chained = control.ndm_layer(field, cost, chained, 0.1)
            fresh = control.ndm_layer(field, cost, manifold.PhasePoint(fresh.y.copy(), fresh.p.copy()), 0.1)
            assert same_point(chained, fresh)

    def test_later_layer_makes_no_pass_at_its_start_node(self):
        field, cost, pt, scored = layer_setup()
        pt = control.ndm_layer(field, cost, pt, 0.1)
        passes, scored[:] = record_passes(field.decoder), []
        end = control.ndm_layer(field, cost, pt, 0.1)
        assert not any(np.array_equal(y, pt.y) for y in passes)
        # one stencil, the end node's; its rows are end.y +- step e_i
        (stencil,) = [y for y in passes if y.shape == (4, 2)]
        np.testing.assert_allclose(stencil.mean(axis=0), end.y, rtol=1e-15)
        assert len(scored) == 2 * 2

    @pytest.mark.parametrize(
        "stale",
        [
            "y-written", "y-reshaped", "another-cost-spec", "another-task-cost",
            "another-decoder", "layers-reassigned", "another-field", "rebuilt-point",
        ],
    )
    def test_stale_start_is_derived_afresh(self, stale):
        field, cost, pt, _ = layer_setup()
        pt = control.ndm_layer(field, cost, pt, 0.1)
        other = manifold.Decoder.linear(np.eye(3, 2))
        if stale == "y-written":
            pt.y[0] += 0.01
        elif stale == "y-reshaped":  # the same bytes as a one-row stack, which no run takes
            pt.y, pt.p = pt.y.reshape(1, 2), pt.p.reshape(1, 2)
            message = r"^y and p must be one point each, .* got shapes \(1, 2\) and \(1, 2\)$"
            with pytest.raises(ValueError, match=message):
                control.ndm_layer(field, cost, pt, 0.1)
            return
        elif stale == "another-cost-spec":
            cost = control.CostSpec(lambda z: float(z @ z))
        elif stale == "another-task-cost":
            cost.task_cost = lambda z: float(z @ z)
        elif stale == "another-decoder":
            field.decoder = other
        elif stale == "layers-reassigned":  # the constructor's checks are bypassed, but f is another map
            field.decoder.layers = (field.decoder.layers[0], (2.0 * np.eye(3), np.zeros(3)))
        elif stale == "another-field":
            field = manifold.MetricField(other)
        else:
            pt = manifold.PhasePoint(pt.y, pt.p)
        passes = record_passes(field.decoder)
        out = control.ndm_layer(field, cost, pt, 0.1)
        # the start node's pass and both nodes' gradients
        assert np.array_equal(passes[0], pt.y) and [y.shape[-2:] for y in passes].count((4, 2)) == 2
        fresh = control.ndm_layer(field, cost, manifold.PhasePoint(pt.y.copy(), pt.p.copy()), 0.1)
        assert same_point(out, fresh)

    def test_carried_start_is_private_to_the_point(self):
        field, cost, pt, _ = layer_setup()
        end = control.ndm_layer(field, cost, pt, 0.1)
        rebuilt = manifold.PhasePoint(end.y, end.p)
        assert end._jet is not None and rebuilt._jet is None
        assert rebuilt == end and repr(rebuilt) == repr(end)
        # the task cost is a lambda, which does not pickle: a copy leaves the carried start behind
        for copied in (pickle.loads(pickle.dumps(end)), copy.copy(end), copy.deepcopy(end)):
            assert copied._jet is None and same_point(copied, end)
            assert same_point(control.ndm_layer(field, cost, copied, 0.1), control.ndm_layer(field, cost, end, 0.1))


class TestTrajectoryCost:
    def test_running_cost_formula(self):
        mf = manifold.MetricField(
            manifold.Decoder.linear(np.diag([2.0, 1.0])), eps_reg=0.0
        )
        cost = quad_cost()
        y = np.array([1.0, 2.0])
        u = np.array([0.5, 0.5])
        # u^T G u / 2 with G = diag(4, 1); z = (2, 2)
        expected = 0.5 * (4 * 0.25 + 0.25) + 0.5 * 8.0
        np.testing.assert_allclose(control.running_cost(mf, cost, y, u), expected)

    def test_trapezoid_accumulation(self):
        mf = identity_field()
        cost = control.CostSpec(task_cost=lambda z: float(z[0]))
        traj = [
            (np.array([0.0]), np.array([0.0]), 0.5),
            (np.array([2.0]), np.array([0.0]), 0.25),
            (np.array([4.0]), np.array([0.0]), 123.0),  # final dt unused
        ]
        # segment costs: 0.5*0.5*(0+2) + 0.5*0.25*(2+4)
        np.testing.assert_allclose(control.trajectory_cost(mf, cost, traj), 1.25)

    def test_single_record_costs_nothing(self):
        # no segment to integrate over, whatever the running cost at the record
        cost = control.CostSpec(task_cost=lambda z: 5.0)
        traj = [(np.array([0.0]), np.array([0.0]), 0.1)]
        assert control.trajectory_cost(identity_field(), cost, traj) == 0.0

    def test_bad_segment_dt_named(self):
        mf = identity_field()
        traj = [
            (np.array([0.0]), np.array([0.0]), 0.5),
            (np.array([1.0]), np.array([0.0]), -0.1),
            (np.array([2.0]), np.array([0.0]), 0.5),
        ]
        with pytest.raises(ValueError, match="segment 1"):
            control.trajectory_cost(mf, quad_cost(), traj)

    @pytest.mark.parametrize("cost", [quad_cost(), control.CostSpec(task_cost=lambda z: 0.0)], ids=["inf", "inf-times-zero"])
    def test_infinite_dt_rejected(self, cost):
        traj = [(np.array([0.0]), np.array([0.0]), np.inf), (np.array([1.0]), np.array([0.0]), 0.5)]
        with pytest.raises(ValueError, match="^segment 0 has non-positive dt inf$"):
            control.trajectory_cost(identity_field(), cost, traj)

    def test_empty_trajectory_rejected(self):
        with pytest.raises(ValueError, match="record"):
            control.trajectory_cost(identity_field(), quad_cost(), [])

    def test_nan_running_cost_rejected(self):
        # used to return nan as the cost
        nan_cost = control.CostSpec(task_cost=lambda z: float("nan"))
        with pytest.raises(ValueError, match="^running cost is nan$"):
            control.running_cost(identity_field(), nan_cost, np.zeros(1), np.zeros(1))
        cost = control.CostSpec(task_cost=lambda z: float("nan") if z[0] > 1.5 else 0.0)
        traj = [(np.array([float(k)]), np.array([0.0]), 0.5) for k in range(3)]
        with pytest.raises(ValueError, match="^record 2: running cost is nan$"):
            control.trajectory_cost(identity_field(), cost, traj)

    @pytest.mark.parametrize(
        "cost",
        [
            control.CostSpec(task_cost=lambda z: math.inf if z[0] > 0.5 else -math.inf),
        ],
        ids=["opposite-infinities"],
    )
    def test_nan_total_rejected(self, cost):
        traj = [(np.array([0.0]), np.array([0.0]), 0.5), (np.array([1.0]), np.array([0.0]), 0.5)]
        with pytest.raises(ValueError, match="^trajectory cost is nan"):
            control.trajectory_cost(identity_field(), cost, traj)

    def test_infinite_cost_is_its_limit(self):
        cost = control.CostSpec(task_cost=lambda z: math.inf)
        traj = [(np.array([0.0]), np.array([0.0]), 0.5), (np.array([1.0]), np.array([0.0]), 0.5)]
        assert control.trajectory_cost(identity_field(), cost, traj) == math.inf

    def test_overflowing_control_costs_inf(self):
        # u^T G u past the float range used to warn in matmul before returning inf
        cost = control.CostSpec(task_cost=lambda z: 0.0)
        assert control.running_cost(identity_field(), cost, [0.0], [1e200]) == math.inf

    def test_overflowing_metric_named_by_record(self):
        # metric() raises on a G past the float range, where it used to warn and return inf
        huge = manifold.MetricField(manifold.Decoder.linear([[1e200]]))
        traj = [(np.zeros(1), np.zeros(1), 0.5), (np.ones(1), np.zeros(1), 0.5)]
        with pytest.raises(ValueError, match=r"^record 0: metric at y=array\(\[0\.\]\) contains infs or NaNs$"):
            control.trajectory_cost(huge, quad_cost(), traj)

    def test_task_cost_scores_finite_outputs_only(self):
        # f(1e210) = 1e310 is inf while G = 1e200 is finite: the cost used to score z = [inf] and the record
        # came back as a cost of 0.0
        seen = []

        def cost(z):
            seen.append(z.copy())
            return 0.0

        field = manifold.MetricField(manifold.Decoder.linear([[1e100]]))
        with pytest.raises(ValueError, match=r"^decoder output at y=\[1e\+210\] is not finite$"):
            control.running_cost(field, control.CostSpec(cost), [1e210], [0.0])
        traj = [(np.zeros(1), np.zeros(1), 0.5), (np.array([1e210]), np.zeros(1), 0.5)]
        with pytest.raises(ValueError, match=r"^record 1: decoder output at y=\[1e\+210\] is not finite$"):
            control.trajectory_cost(field, control.CostSpec(cost), traj)
        assert len(seen) == 1 and np.isfinite(seen[0]).all()
