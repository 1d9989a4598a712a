"""Tests for optimal control, HJB residuals, and trajectory costs."""

import numpy as np
import pytest

from maniflow import control, manifold


def identity_field(eps_reg=0.0):
    return manifold.MetricField(manifold.Decoder.linear(np.eye(1)), eps_reg=eps_reg)


def quad_cost():
    return control.CostSpec(task_cost=lambda z: 0.5 * float(z @ z))


class TestCostSpec:
    def test_potential_task_only(self):
        cost = quad_cost()
        assert cost.potential(np.array([2.0])) == 2.0

    def test_workspace_term_weighted(self):
        cost = control.CostSpec(
            task_cost=lambda z: 1.0,
            ws_cost=lambda z, ws: float(ws),
            lam=0.5,
        )
        assert cost.potential(np.zeros(1), ws_state=4.0) == 3.0
        # no workspace state: the workspace term is dropped
        assert cost.potential(np.zeros(1)) == 1.0

    def test_negative_lam_rejected(self):
        with pytest.raises(ValueError, match="lam"):
            control.CostSpec(task_cost=lambda z: 0.0, lam=-0.1)


class TestValueFunction:
    def test_analytic_gradient_used(self):
        vf = control.ValueFunction(
            value=lambda y, t: 0.5 * float(y @ y),
            grad=lambda y, t: 10.0 * np.asarray(y),
        )
        np.testing.assert_allclose(vf.gradient(np.array([1.0]), 0.0), [10.0])

    def test_fd_gradient_fallback(self):
        vf = control.ValueFunction.from_callable(lambda y, t: 0.5 * float(y @ y))
        y = np.array([1.3, -0.4])
        np.testing.assert_allclose(vf.gradient(y, 0.0), y, atol=1e-8)

    def test_time_partial_fd(self):
        vf = control.ValueFunction.from_callable(lambda y, t: float(y[0]) * t * t)
        np.testing.assert_allclose(vf.dt(np.array([2.0]), 3.0), 12.0, atol=1e-6)


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
            value=lambda y, t: 0.5 * float(y @ y),
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
            value=lambda y, t: float(y @ y),  # wrong scale
            grad=lambda y, t: 2.0 * np.asarray(y, dtype=float),
            time_partial=lambda y, t: 0.0,
        )
        r = control.hjb_residual(mf, cost, vf, np.array([2.0]))
        # 0 + (4y^2)/2 - y^2/2 = 1.5 y^2 = 6
        np.testing.assert_allclose(r, 6.0, atol=1e-8)

    def test_time_dependent_value(self):
        mf = identity_field()
        cost = quad_cost()
        vf = control.ValueFunction(
            value=lambda y, t: 0.5 * float(y @ y) - t,
            grad=lambda y, t: np.asarray(y, dtype=float),
            time_partial=lambda y, t: -1.0,
        )
        r = control.hjb_residual(mf, cost, vf, np.array([1.5]), t=2.0)
        np.testing.assert_allclose(r, -1.0, atol=1e-12)


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

    def test_reduced_dy_matches_fd_of_full_value(self):
        rng = np.random.default_rng(3)
        w1 = np.vstack([np.eye(2), np.zeros((1, 2))]) + 0.3 * rng.normal(size=(3, 2))
        w2 = np.eye(3) + 0.3 * rng.normal(size=(3, 3))
        dec = manifold.Decoder.mlp_tanh([w1, w2], [0.1 * rng.normal(size=3), np.zeros(3)])
        goal = np.array([0.5, -0.2, 0.1])
        cost = control.CostSpec(task_cost=lambda z: 0.5 * float((z - goal) @ (z - goal)))
        ham = control.ReducedHamiltonian(manifold.MetricField(dec), cost)
        for _ in range(5):
            y = rng.uniform(-0.5, 0.5, size=2)
            p = rng.normal(size=2)
            fd = manifold._fd_gradient(lambda yy: ham(yy, p), y)
            assert np.linalg.norm(ham.dy(y, p) - fd) <= 1e-6 * np.linalg.norm(fd)

    def test_stack_of_layers_runs(self):
        mf = identity_field()
        cost = quad_cost()
        pt = manifold.PhasePoint(np.array([0.2]), np.array([0.0]))
        for _ in range(10):
            pt = control.ndm_layer(mf, cost, pt, 0.05)
        assert np.isfinite(pt.y).all() and np.isfinite(pt.p).all()


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

    def test_terminal_cost_added(self):
        mf = identity_field()
        cost = control.CostSpec(
            task_cost=lambda z: 0.0, terminal=lambda z: float(z[0]) ** 2
        )
        traj = [(np.array([1.0]), np.array([0.0]), 0.1), (np.array([3.0]), np.array([0.0]), 0.1)]
        np.testing.assert_allclose(control.trajectory_cost(mf, cost, traj), 9.0)

    def test_single_record_is_terminal_only(self):
        mf = identity_field()
        cost = control.CostSpec(task_cost=lambda z: 5.0, terminal=lambda z: 2.0)
        traj = [(np.array([0.0]), np.array([0.0]), 0.1)]
        np.testing.assert_allclose(control.trajectory_cost(mf, cost, traj), 2.0)

    def test_bad_segment_dt_named(self):
        mf = identity_field()
        traj = [
            (np.array([0.0]), np.array([0.0]), 0.5),
            (np.array([1.0]), np.array([0.0]), -0.1),
            (np.array([2.0]), np.array([0.0]), 0.5),
        ]
        with pytest.raises(ValueError, match="segment 1"):
            control.trajectory_cost(mf, quad_cost(), traj)

    def test_empty_trajectory_rejected(self):
        with pytest.raises(ValueError, match="record"):
            control.trajectory_cost(identity_field(), quad_cost(), [])

    def test_workspace_state_threaded_through(self):
        mf = identity_field()
        cost = control.CostSpec(
            task_cost=lambda z: 0.0, ws_cost=lambda z, ws: float(ws), lam=2.0
        )
        traj = [(np.array([0.0]), np.array([0.0]), 1.0), (np.array([0.0]), np.array([0.0]), 1.0)]
        np.testing.assert_allclose(
            control.trajectory_cost(mf, cost, traj, ws_state=3.0), 6.0
        )
