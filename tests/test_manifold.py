"""Tests for decoder geometry, leapfrog flows, shooting, and deviations."""

import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from maniflow import manifold


class Oscillator:
    """Separable H = (y^2 + p^2)/2 with analytic partials."""

    def __call__(self, y, p):
        return 0.5 * float(y @ y) + 0.5 * float(p @ p)

    def dy(self, y, p):
        return np.asarray(y, dtype=float)

    def dp(self, y, p):
        return np.asarray(p, dtype=float)


class Blows:
    """Free motion whose dy turns NaN once y reaches 2.5."""

    def __call__(self, y, p):
        return float(p @ p)

    def dy(self, y, p):
        return np.array([np.nan]) if y[0] >= 2.5 else np.array([0.0])

    def dp(self, y, p):
        return np.asarray(p, dtype=float)


def near_identity_decoder(noise=0.3, seed=0):
    rng = np.random.default_rng(seed)
    w1 = np.vstack([np.eye(2), np.zeros((1, 2))]) + noise * rng.normal(size=(3, 2))
    w2 = np.eye(3) + noise * rng.normal(size=(3, 3))
    return manifold.Decoder.mlp_tanh([w1, w2], [np.zeros(3), np.zeros(3)])


def random_tanh_decoder(rng, d, n, n_tanh, noise=0.3):
    """Near-identity mlp-tanh decoder R^d -> R^n with n_tanh tanh layers."""
    widths = [d] + [n] * (n_tanh + 1)
    weights = [
        np.eye(out_w, in_w) + noise * rng.normal(size=(out_w, in_w))
        for in_w, out_w in zip(widths, widths[1:])
    ]
    biases = [0.1 * rng.normal(size=w) for w in widths[1:]]
    return manifold.Decoder.mlp_tanh(weights, biases)


@st.composite
def layered_decoders(draw):
    """Linear or mlp-tanh decoders of random shape with arbitrary finite weights."""
    kind = draw(st.sampled_from(["linear", "mlp-tanh"]))
    d = draw(st.integers(1, 3))
    hidden = [] if kind == "linear" else draw(st.lists(st.integers(1, 4), max_size=2))
    widths = [d, *hidden, draw(st.integers(d, d + 2))]
    finite = st.floats(allow_nan=False, allow_infinity=False)
    weights = [draw(arrays(np.float64, (o, i), elements=finite)) for i, o in zip(widths, widths[1:])]
    biases = [draw(arrays(np.float64, o, elements=finite)) for o in widths[1:]]
    if kind == "linear":
        return manifold.Decoder.linear(weights[0], biases[0])
    return manifold.Decoder.mlp_tanh(weights, biases)


class TestDecoder:
    def test_linear_eval(self):
        a = np.array([[2.0, 0.0], [0.0, 3.0], [1.0, 1.0]])
        dec = manifold.Decoder.linear(a, offset=np.array([1.0, 0.0, 0.0]))
        np.testing.assert_allclose(dec(np.array([1.0, 2.0])), [3.0, 6.0, 3.0])
        np.testing.assert_allclose(dec.jet(np.zeros(2))[0], a)

    def test_mlp_forward_matches_manual(self):
        rng = np.random.default_rng(0)
        w1, b1 = rng.normal(size=(4, 2)), rng.normal(size=4)
        w2, b2 = rng.normal(size=(5, 4)), rng.normal(size=5)
        dec = manifold.Decoder.mlp_tanh([w1, w2], [b1, b2])
        y = rng.normal(size=2)
        expected = w2 @ np.tanh(w1 @ y + b1) + b2
        np.testing.assert_allclose(dec(y), expected)

    def test_mlp_jacobian_matches_fd(self):
        rng = np.random.default_rng(1)
        dec = manifold.Decoder.mlp_tanh(
            [rng.normal(size=(4, 3)), rng.normal(size=(5, 4))],
            [rng.normal(size=4), rng.normal(size=5)],
        )
        y = rng.normal(size=3)
        jac = dec.jet(y)[0]
        step = 1e-6
        for i in range(3):
            e = np.zeros(3)
            e[i] = step
            fd = (dec(y + e) - dec(y - e)) / (2 * step)
            np.testing.assert_allclose(jac[:, i], fd, atol=1e-8)

    def test_custom_decoder_fd_jacobian(self):
        dec = manifold.Decoder.custom(
            lambda y: np.array([y[0] ** 2, y[1], y[0] * y[1]]), 2, 3
        )
        y = np.array([1.5, -0.5])
        expected = np.array([[3.0, 0.0], [0.0, 1.0], [-0.5, 1.5]])
        np.testing.assert_allclose(dec.jet(y)[0], expected, atol=1e-7)

    def test_ambient_smaller_than_latent_rejected(self):
        with pytest.raises(ValueError, match="ambient"):
            manifold.Decoder.linear(np.zeros((1, 2)))

    def test_layer_width_mismatch(self):
        with pytest.raises(ValueError, match="width"):
            manifold.Decoder.mlp_tanh(
                [np.zeros((3, 2)), np.zeros((3, 4))], [np.zeros(3), np.zeros(3)]
            )

    def test_custom_output_shape_checked(self):
        dec = manifold.Decoder.custom(lambda y: np.zeros(4), 2, 3)
        with pytest.raises(ValueError, match="shape"):
            dec(np.zeros(2))

    def test_latent_point_shape_checked(self):
        dec = manifold.Decoder.linear(np.eye(2))
        with pytest.raises(ValueError, match="latent"):
            dec(np.zeros(3))


class TestDecoderIo:
    def test_linear_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        dec = manifold.Decoder.linear(rng.normal(size=(3, 2)), rng.normal(size=3))
        p = tmp_path / "dec.txt"
        manifold.save_decoder(dec, p)
        head, rest = p.read_text().split("\n", 1)
        p.write_text(f"# saved weights\n\n{head}  # kind\n{rest}")
        loaded = manifold.load_decoder(p)
        assert loaded.kind == "linear"
        np.testing.assert_array_equal(loaded.layers[0][0], dec.layers[0][0])
        np.testing.assert_array_equal(loaded.layers[0][1], dec.layers[0][1])

    def test_mlp_round_trip(self, tmp_path):
        dec = near_identity_decoder()
        p = tmp_path / "dec.txt"
        manifold.save_decoder(dec, p)
        loaded = manifold.load_decoder(p)
        y = np.array([0.4, -0.1])
        np.testing.assert_array_equal(loaded(y), dec(y))

    def test_custom_not_serialisable(self, tmp_path):
        dec = manifold.Decoder.custom(lambda y: y, 2, 2)
        with pytest.raises(ValueError, match="custom"):
            manifold.save_decoder(dec, tmp_path / "dec.txt")

    def test_unknown_kind(self, tmp_path):
        p = tmp_path / "dec.txt"
        p.write_text("decoder rbf\n")
        with pytest.raises(ValueError, match="kind"):
            manifold.load_decoder(p)

    def test_truncated_block(self, tmp_path):
        p = tmp_path / "dec.txt"
        p.write_text("decoder linear\nlayer 2 2\n1 0\n")
        with pytest.raises(ValueError, match="truncated"):
            manifold.load_decoder(p)

    @pytest.mark.parametrize(
        "text, lineno",
        [
            ("decoder linear\n# one layer\nlayer 2\n1 0\n0 1\n0 0\n", 3),
            ("decoder linear\n\nlayer -1 2\n", 3),
            ("\n# weights\nlayer 1 1\n1\n0\n", 3),
            ("decoder linear\nlayer 1 1\n1\n0\nlayer 1 1\n1\n0\n", 5),
            ("decoder mlp-tanh\nlayer 2 1\n1\n1\n0 0\n\nlayer 1 3\n1 1 1\n0\n", 7),
            ("# empty\ndecoder mlp-tanh\n", 2),
        ],
        ids=["bad-header", "negative-size", "no-decoder-line", "linear-two-layers", "width-mismatch", "no-layers"],
    )
    def test_error_names_line(self, tmp_path, text, lineno):
        p = tmp_path / "dec.txt"
        p.write_text(text)
        with pytest.raises(ValueError, match=f"^line {lineno}: "):
            manifold.load_decoder(p)

    @given(dec=layered_decoders())
    def test_round_trip_is_exact(self, tmp_path_factory, dec):
        p = tmp_path_factory.mktemp("dec") / "dec.txt"
        manifold.save_decoder(dec, p)
        loaded = manifold.load_decoder(p)
        assert loaded.kind == dec.kind
        assert len(loaded.layers) == len(dec.layers)
        for (w, b), (w0, b0) in zip(loaded.layers, dec.layers):
            assert w.shape == w0.shape and w.tobytes() == w0.tobytes()
            assert b.shape == b0.shape and b.tobytes() == b0.tobytes()

    @given(
        dec=layered_decoders(),
        where=st.floats(0.0, 1.0, exclude_max=True),
        bad=st.sampled_from(["", "oops", "layer", "layer 2", "layer x 1", "1 oops"]),
    )
    def test_malformed_line_names_a_line(self, tmp_path_factory, dec, where, bad):
        p = tmp_path_factory.mktemp("dec") / "dec.txt"
        manifold.save_decoder(dec, p)
        lines = p.read_text().splitlines()
        lines[int(where * len(lines))] = bad
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as info:
            manifold.load_decoder(p)
        named = re.match(r"line (\d+): ", str(info.value))
        assert named is not None, str(info.value)
        assert 1 <= int(named.group(1)) <= len(lines)


class TestMetricField:
    def test_metric_formula(self):
        a = np.array([[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]])
        mf = manifold.MetricField(manifold.Decoder.linear(a), eps_reg=1e-8)
        g = mf.metric(np.zeros(2))
        np.testing.assert_allclose(g, a.T @ a + 1e-8 * np.eye(2))

    def test_spd_on_random_points(self):
        dec = near_identity_decoder()
        mf = manifold.MetricField(dec)
        rng = np.random.default_rng(10)
        for _ in range(100):
            y = rng.uniform(-2.0, 2.0, size=2)
            g = manifold.pullback_metric(mf, y)
            np.testing.assert_allclose(g, g.T, atol=1e-14)
            assert np.all(np.linalg.eigvalsh(g) > 0)

    def test_singular_metric_detected(self):
        # rank-1 Jacobian and no regularisation
        dec = manifold.Decoder.linear(np.array([[1.0, 1.0], [2.0, 2.0]]))
        mf = manifold.MetricField(dec, eps_reg=0.0)
        with pytest.raises(manifold.SingularMetricError) as info:
            manifold.pullback_metric(mf, np.zeros(2))
        assert str(info.value) == f"metric at y={np.zeros(2)!r} is not positive definite"
        np.testing.assert_array_equal(info.value.y, np.zeros(2))
        # G = [[5, 5], [5, 5]] has eigenvalues 0 and 10
        assert abs(info.value.min_eigenvalue) <= 1e-14
        # a stack names its worst point: (y0, y0 y1) folds where y0 = 0
        fold = manifold.Decoder.custom(lambda y: np.array([y[0], y[0] * y[1]]), 2, 2)
        ys = np.array([[1.0, 0.5], [0.0, 2.0], [2.0, -1.0]])
        with pytest.raises(manifold.SingularMetricError) as info:
            manifold.MetricField(fold, eps_reg=0.0).at(ys)
        np.testing.assert_array_equal(info.value.y, ys[1])
        assert info.value.min_eigenvalue == 0.0

    def test_solve_matches_dense_solve(self):
        dec = near_identity_decoder()
        mf = manifold.MetricField(dec)
        rng = np.random.default_rng(4)
        y = rng.normal(size=2)
        rhs = rng.normal(size=2)
        np.testing.assert_allclose(
            mf.solve(y, rhs), np.linalg.solve(mf.metric(y), rhs), atol=1e-12
        )

    def test_negative_eps_rejected(self):
        with pytest.raises(ValueError, match="eps_reg"):
            manifold.MetricField(manifold.Decoder.linear(np.eye(2)), eps_reg=-1.0)

    def test_memo_matches_fresh_field(self):
        mf = manifold.MetricField(near_identity_decoder())
        rng = np.random.default_rng(11)
        y1, y2, rhs = rng.normal(size=2), rng.normal(size=2), rng.normal(size=2)

        def fresh(y, eps_reg=1e-8, decoder=mf.decoder):
            return manifold.MetricField(decoder, eps_reg=eps_reg).solve(y, rhs)

        for y in (y1, y2, y1):
            np.testing.assert_array_equal(mf.solve(y, rhs), fresh(y))
        mf.eps_reg = 0.5
        np.testing.assert_array_equal(mf.solve(y1, rhs), fresh(y1, eps_reg=0.5))
        mf.decoder = near_identity_decoder(seed=1)
        np.testing.assert_array_equal(mf.solve(y1, rhs), fresh(y1, 0.5, mf.decoder))

    def test_memoised_arrays_not_handed_out(self):
        mf = manifold.MetricField(near_identity_decoder())
        y = np.array([0.3, -0.2])
        expected = mf.metric(y).copy()
        mf.metric(y)[:] = 0.0
        manifold.pullback_metric(mf, y)[:] = 0.0
        np.testing.assert_array_equal(mf.metric(y), expected)
        np.testing.assert_allclose(mf.solve(y, expected[0]), [1.0, 0.0], atol=1e-12)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_metric_raises(self, bad):
        a = np.array([[1.0, 0.0], [0.0, 1.0], [bad, 1.0]])
        decoders = [
            manifold.Decoder.linear(a),
            manifold.Decoder.mlp_tanh([a, np.eye(3)], [np.zeros(3), np.zeros(3)]),
        ]
        for dec in decoders:
            mf = manifold.MetricField(dec)
            y = np.array([0.5, 0.5])
            with pytest.raises(ValueError, match="NaN"):
                mf.solve(y, np.ones(2))
            with pytest.raises(ValueError, match="NaN"):
                manifold.pullback_metric(mf, y)


class TestGeodesicHamiltonian:
    def test_value_and_partials(self):
        dec = manifold.Decoder.linear(np.diag([2.0, 1.0]))
        mf = manifold.MetricField(dec, eps_reg=0.0)
        ham = manifold.GeodesicHamiltonian(mf)
        y = np.zeros(2)
        p = np.array([2.0, 3.0])
        # G = diag(4, 1), H = p^T G^-1 p / 2 = (4/4 + 9)/2
        np.testing.assert_allclose(ham(y, p), 5.0)
        np.testing.assert_allclose(ham.dp(y, p), [0.5, 3.0])
        np.testing.assert_allclose(ham.dy(y, p), [0.0, 0.0])

    @pytest.mark.parametrize("n_tanh", [1, 2, 3])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_exact_dy_matches_fd(self, d, n_tanh):
        rng = np.random.default_rng(100 * d + n_tanh)
        for n in (d, d + 2):
            ham = manifold.GeodesicHamiltonian(
                manifold.MetricField(random_tanh_decoder(rng, d, n, n_tanh))
            )
            for _ in range(3):
                y = rng.uniform(-0.5, 0.5, size=d)
                p = rng.normal(size=d)
                fd = manifold._fd_gradient(lambda yy: ham(yy, p), y)
                exact = ham.dy(y, p)
                assert np.linalg.norm(exact - fd) <= 1e-6 * np.linalg.norm(fd)

    def test_tanh_jet_matches_jacobian(self):
        dec = random_tanh_decoder(np.random.default_rng(5), 3, 4, 2)
        y = np.array([0.2, -0.1, 0.4])
        jac, hess = dec.jet(y)
        np.testing.assert_allclose(jac, manifold._fd_gradient(dec, y), atol=1e-9)
        # the FD oracle's row i*3 + k, column j is d/dy_j of J[i, k]
        fd = manifold._fd_gradient(lambda yy: dec.jet(yy)[0].ravel(), y)
        np.testing.assert_allclose(hess.reshape(4, 3, 3), fd.reshape(4, 3, 3).transpose(0, 2, 1), atol=1e-8)
        hess = hess.reshape(4, 3, 3)
        np.testing.assert_array_equal(hess, hess.transpose(0, 2, 1))

    def test_linear_is_the_one_layer_case(self):
        rng = np.random.default_rng(11)
        a, b = np.eye(3, 2) + 0.3 * rng.normal(size=(3, 2)), rng.normal(size=3)
        y, p = np.array([0.3, -0.6]), np.array([0.8, 0.2])

        def outputs(dec):
            mf = manifold.MetricField(dec)
            ham = manifold.GeodesicHamiltonian(mf)
            traj = manifold.integrate(ham, manifold.PhasePoint(y, p), 0.1, 10)
            states = [np.concatenate([pt.y, pt.p]) for pt in traj]
            jac, hess = dec.jet(y)
            assert hess is None  # a one-layer decoder has no second derivatives
            return [dec(y), jac, mf.solve(y, p), ham.dy(y, p), *states, traj.energies]

        linear = outputs(manifold.Decoder.linear(a, b))
        layered = outputs(manifold.Decoder.mlp_tanh([a], [b]))
        for u, v in zip(linear, layered, strict=True):
            assert u.shape == v.shape and u.tobytes() == v.tobytes()

    def test_flat_geodesics_are_straight(self):
        dec = manifold.Decoder.linear(np.array([[1.0, 0.5], [0.0, 1.0], [0.3, -0.2]]))
        mf = manifold.MetricField(dec, eps_reg=0.0)
        ham = manifold.GeodesicHamiltonian(mf)
        y0 = np.array([0.2, -0.4])
        p0 = np.array([0.7, 0.1])
        traj = manifold.integrate(ham, manifold.PhasePoint(y0, p0), 0.25, 4)
        v = mf.solve(y0, p0)
        np.testing.assert_allclose(traj.final().y, y0 + v, atol=1e-12)
        np.testing.assert_allclose(traj.final().p, p0, atol=1e-12)


def custom_wrapper(dec):
    """The same map as a custom decoder, so its jet comes from central differences."""
    return manifold.Decoder.custom(dec, dec.latent_dim, dec.ambient_dim)


class TestCustomDecoder:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_jet_matches_layered(self, d):
        rng = np.random.default_rng(200 + d)
        dec = random_tanh_decoder(rng, d, d + 1, 2)
        for _ in range(3):
            y = rng.uniform(-0.5, 0.5, size=d)
            jac, hess = dec.jet(y)
            fd_jac, fd_hess = custom_wrapper(dec).jet(y)
            np.testing.assert_allclose(fd_jac, jac, rtol=0, atol=1e-7)
            assert fd_hess.shape == hess.shape
            assert np.linalg.norm(fd_hess - hess) <= 1e-5 * np.linalg.norm(hess)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_dy_matches_exact_and_fd(self, d):
        rng = np.random.default_rng(300 + d)
        dec = random_tanh_decoder(rng, d, d + 1, 2)
        exact_ham = manifold.GeodesicHamiltonian(manifold.MetricField(dec))
        ham = manifold.GeodesicHamiltonian(manifold.MetricField(custom_wrapper(dec)))
        for _ in range(3):
            y = rng.uniform(-0.5, 0.5, size=d)
            p = rng.normal(size=d)
            dy = ham.dy(y, p)
            exact = exact_ham.dy(y, p)
            fd = manifold._fd_gradient(lambda yy: ham(yy, p), y)
            assert np.linalg.norm(dy - exact) <= 1e-5 * np.linalg.norm(exact)
            assert np.linalg.norm(dy - fd) <= 1e-5 * np.linalg.norm(fd)

    def test_shooting_reaches_target(self):
        mf = manifold.MetricField(custom_wrapper(near_identity_decoder()))
        y_a = np.array([0.0, 0.0])
        y_b = np.array([0.8, 0.5])
        p = manifold.solve_shooting(mf, y_a, y_b, n_steps=12, tol=1e-8)
        assert np.linalg.norm(manifold.shoot_geodesic(mf, y_a, p, 12) - y_b) <= 1e-8


class TestLeapfrog:
    def test_oscillator_phase_rotation(self):
        ham = Oscillator()
        pt = manifold.PhasePoint(np.array([1.0]), np.array([0.0]))
        h = 0.1
        traj = manifold.integrate(ham, pt, h, 1000)
        # energy oscillates but stays within the known h^2/8 band
        drift = np.max(np.abs(traj.energies - traj.energies[0]))
        assert drift < 2.0 * h * h / 8.0

    def test_reversibility_separable(self):
        ham = Oscillator()
        pt = manifold.PhasePoint(np.array([0.7, -0.2]), np.array([0.1, 0.4]))
        fwd = pt
        for _ in range(50):
            fwd = manifold.leapfrog_step(ham, fwd, 0.05)
        back = fwd
        for _ in range(50):
            back = manifold.leapfrog_step(ham, back, -0.05)
        np.testing.assert_allclose(back.y, pt.y, atol=1e-10)
        np.testing.assert_allclose(back.p, pt.p, atol=1e-10)

    def test_unit_phase_space_determinant(self):
        ham = Oscillator()
        z0 = np.array([0.3, 0.8])
        h = 0.1
        step = 1e-6
        jac = np.empty((2, 2))
        for i in range(2):
            e = np.zeros(2)
            e[i] = step
            plus = manifold.leapfrog_step(
                ham, manifold.PhasePoint(z0[:1] + e[:1], z0[1:] + e[1:]), h
            )
            minus = manifold.leapfrog_step(
                ham, manifold.PhasePoint(z0[:1] - e[:1], z0[1:] - e[1:]), h
            )
            jac[0, i] = (plus.y[0] - minus.y[0]) / (2 * step)
            jac[1, i] = (plus.p[0] - minus.p[0]) / (2 * step)
        np.testing.assert_allclose(np.linalg.det(jac), 1.0, atol=1e-8)

    def test_integrate_records_all_nodes(self):
        ham = Oscillator()
        traj = manifold.integrate(ham, manifold.PhasePoint([1.0], [0.0]), 0.1, 7)
        assert len(traj) == 8
        assert traj.energies.shape == (8,)
        assert traj.final() is traj.points[-1]

    def test_zero_step_rejected(self):
        with pytest.raises(ValueError, match="non-zero"):
            manifold.integrate(Oscillator(), manifold.PhasePoint([1.0], [0.0]), 0.0, 3)

    def test_no_steps_rejected(self):
        with pytest.raises(ValueError, match="step"):
            manifold.integrate(Oscillator(), manifold.PhasePoint([1.0], [0.0]), 0.1, 0)

    def test_divergence_reports_step_index(self):
        with pytest.raises(manifold.IntegrationError, match="step 3"):
            manifold.integrate(Blows(), manifold.PhasePoint([0.0], [1.0]), 1.0, 5)

    def test_trajectory_csv_shape(self):
        ham = Oscillator()
        traj = manifold.integrate(ham, manifold.PhasePoint([1.0], [0.0]), 0.1, 3)
        lines = manifold.trajectory_csv(traj).strip().split("\n")
        assert lines[0] == "s,y0,p0,H"
        assert len(lines) == 5

    def test_trajectory_csv_text(self):
        traj = manifold.integrate(Oscillator(), manifold.PhasePoint([1.0], [0.0]), 0.1, 3)
        assert manifold.trajectory_csv(traj) == (
            "s,y0,p0,H\n"
            "0,1,0,0.5\n"
            "0.1,0.995,-0.09975,0.4999875313\n"
            "0.2,0.98005,-0.1985025,0.4999506225\n"
            "0.3,0.9552995,-0.295269975,0.4998907464\n"
        )


class TestShooting:
    def test_flat_shot_is_exact(self):
        dec = manifold.Decoder.linear(np.array([[1.2, 0.1], [0.0, 0.9], [0.2, 0.4]]))
        mf = manifold.MetricField(dec, eps_reg=0.0)
        y_a = np.array([0.0, 0.0])
        y_b = np.array([1.0, -0.5])
        p = manifold.solve_shooting(mf, y_a, y_b, n_steps=8)
        np.testing.assert_allclose(
            manifold.shoot_geodesic(mf, y_a, p, 8), y_b, atol=1e-12
        )

    def test_curved_shot_converges(self):
        mf = manifold.MetricField(near_identity_decoder())
        y_a = np.array([0.0, 0.0])
        y_b = np.array([0.8, 0.5])
        p = manifold.solve_shooting(mf, y_a, y_b, n_steps=24, tol=1e-8)
        end = manifold.shoot_geodesic(mf, y_a, p, 24)
        assert np.linalg.norm(end - y_b) <= 1e-8

    def test_exhausted_iterations_raise(self):
        mf = manifold.MetricField(near_identity_decoder())
        with pytest.raises(manifold.ShootingError, match="residual"):
            manifold.solve_shooting(
                mf, np.zeros(2), np.array([0.9, 0.4]), n_steps=8, max_iter=0
            )


class TestVariationalFlow:
    def test_oscillator_variational_matrix(self):
        ham = Oscillator()
        pt = manifold.PhasePoint(np.array([0.4]), np.array([-0.3]))
        df = manifold.variational_matrix(ham, pt)
        np.testing.assert_allclose(df, np.array([[0.0, 1.0], [-1.0, 0.0]]), atol=1e-6)

    def test_variational_matrix_trace_free(self):
        mf = manifold.MetricField(near_identity_decoder())
        ham = manifold.GeodesicHamiltonian(mf)
        pt = manifold.PhasePoint(np.array([0.3, -0.2]), np.array([0.2, 0.1]))
        df = manifold.variational_matrix(ham, pt)
        assert abs(np.trace(df)) < 1e-5

    def test_flat_deviation_exact(self):
        dec = manifold.Decoder.linear(np.array([[1.0, 0.3], [0.0, 1.2], [0.4, -0.2]]))
        mf = manifold.MetricField(dec, eps_reg=0.0)
        ham = manifold.GeodesicHamiltonian(mf)
        pt = manifold.PhasePoint(np.array([0.3, -0.2]), np.array([0.5, 0.1]))
        d0 = np.array([0.7, -0.3, 0.2, 0.5])
        traj = manifold.integrate(ham, pt, 1.0 / 50, 50)
        model = manifold.jacobi_propagate(ham, traj, d0)
        emp = manifold.empirical_deviations(ham, pt, d0, 1.0 / 50, 50)
        np.testing.assert_allclose(model[-1], emp[-1], atol=1e-8)

    def test_curved_deviation_matches_empirical(self):
        mf = manifold.MetricField(near_identity_decoder())
        ham = manifold.GeodesicHamiltonian(mf)
        y0 = np.array([0.3, -0.2])
        p0 = manifold.pullback_metric(mf, y0) @ np.array([-0.175, 0.175])
        d0 = np.array([0.7, -0.3, 0.2, 0.5])
        k = 200
        traj = manifold.integrate(ham, manifold.PhasePoint(y0, p0), 1.0 / k, k)
        model = manifold.jacobi_propagate(ham, traj, d0)
        emp = manifold.empirical_deviations(ham, manifold.PhasePoint(y0, p0), d0, 1.0 / k, k)
        rel = np.linalg.norm(model[-1] - emp[-1]) / np.linalg.norm(emp[-1])
        assert rel <= 1e-3

    def test_deviation_length_checked(self):
        ham = Oscillator()
        traj = manifold.integrate(ham, manifold.PhasePoint([1.0], [0.0]), 0.1, 2)
        with pytest.raises(ValueError, match="length"):
            manifold.jacobi_propagate(ham, traj, np.zeros(3))


class TestLosses:
    def test_loss_geo_flat_is_zero(self):
        dec = manifold.Decoder.linear(np.array([[1.0, 0.2], [0.1, 1.0], [0.0, 0.5]]))
        mf = manifold.MetricField(dec, eps_reg=0.0)
        pairs = [(np.zeros(2), np.array([1.0, 0.5])), (np.ones(2), np.array([0.0, 2.0]))]
        assert manifold.loss_geo(mf, pairs, n_steps=16) <= 1e-20

    def test_loss_geo_explicit_momentum(self):
        dec = manifold.Decoder.linear(np.eye(2))
        mf = manifold.MetricField(dec, eps_reg=0.0)
        # shoot with p = (1, 0) from origin: lands at (1, 0); target (0, 0)
        pairs = [(np.zeros(2), np.zeros(2), np.array([1.0, 0.0]))]
        np.testing.assert_allclose(manifold.loss_geo(mf, pairs, n_steps=8), 1.0)

    def test_loss_geo_pair_is_triple_with_flat_guess(self):
        mf = manifold.MetricField(near_identity_decoder())
        y_a, y_b = np.array([0.1, -0.2]), np.array([0.6, 0.3])
        guess = manifold.pullback_metric(mf, y_a) @ (y_b - y_a)
        pair = manifold.loss_geo(mf, [(y_a, y_b)], n_steps=8)
        assert pair > 0 and pair == manifold.loss_geo(mf, [(y_a, y_b, guess)], n_steps=8)

    @pytest.mark.parametrize("n_entries", [1, 4])
    def test_loss_geo_entry_length_checked(self, n_entries):
        mf = manifold.MetricField(manifold.Decoder.linear(np.eye(2)))
        with pytest.raises(ValueError, match=f"got {n_entries} entries"):
            manifold.loss_geo(mf, [(np.zeros(2),) * n_entries], n_steps=8)

    def test_loss_geo_takes_stacked_pairs(self):
        mf = manifold.MetricField(near_identity_decoder())
        pairs = [(np.array([0.1, -0.2]), np.array([0.6, 0.3])), (np.array([0.0, 0.4]), np.array([-0.3, 0.1]))]
        assert manifold.loss_geo(mf, np.array(pairs), n_steps=8) == manifold.loss_geo(mf, pairs, n_steps=8)

    def test_loss_geo_shoots_all_entries_as_one_stack(self, monkeypatch):
        mf = manifold.MetricField(near_identity_decoder())
        rng = np.random.default_rng(5)
        entries = [tuple(rng.normal(size=(3 if i % 3 == 0 else 2, 2)) * 0.4) for i in range(7)]
        each = [manifold.loss_geo(mf, [entry], n_steps=8) for entry in entries]
        shoot, calls = manifold.shoot_geodesic, []
        monkeypatch.setattr(manifold, "shoot_geodesic", lambda *args: calls.append(args) or shoot(*args))
        assert manifold.loss_geo(mf, entries, n_steps=8) == sum(each) / len(entries)
        assert len(calls) == 1

    def test_loss_geo_empty_rejected(self):
        mf = manifold.MetricField(manifold.Decoder.linear(np.eye(2)))
        with pytest.raises(ValueError, match="pair"):
            manifold.loss_geo(mf, [], n_steps=8)

    def test_loss_jac_small_for_consistent_case(self):
        ham = Oscillator()
        pt = manifold.PhasePoint(np.array([0.5]), np.array([0.2]))
        d0 = np.array([1.0, -0.5])
        traj = manifold.integrate(ham, pt, 0.01, 100)
        observed = manifold.empirical_deviations(ham, pt, d0, 0.01, 100)
        assert manifold.loss_jac(ham, [(traj, d0, observed)]) < 1e-8

    def test_loss_jac_shape_checked(self):
        ham = Oscillator()
        traj = manifold.integrate(ham, manifold.PhasePoint([1.0], [0.0]), 0.1, 2)
        with pytest.raises(ValueError, match="shape"):
            manifold.loss_jac(ham, [(traj, np.zeros(2), np.zeros((5, 2)))])

    def test_loss_jac_empty_rejected(self):
        with pytest.raises(ValueError, match="case"):
            manifold.loss_jac(Oscillator(), [])


class TestPhasePoint:
    def test_mismatched_lengths(self):
        with pytest.raises(ValueError, match="equal length"):
            manifold.PhasePoint(np.zeros(2), np.zeros(3))

    def test_dim(self):
        assert manifold.PhasePoint([1.0, 2.0], [0.0, 0.0]).dim == 2


class TestStackContract:
    """A (B, d) stack runs the per-point kernels slice by slice, so it is bit-equal to B single-point calls."""

    @pytest.mark.parametrize("kind", ["mlp-tanh", "linear", "custom"])
    def test_batched_jet_equals_pointwise(self, kind):
        rng = np.random.default_rng(21)
        dec = random_tanh_decoder(rng, 3, 4, 2)
        dec = {"mlp-tanh": dec, "linear": manifold.Decoder.linear(*dec.layers[0]), "custom": custom_wrapper(dec)}[kind]
        ys = rng.uniform(-0.5, 0.5, size=(2, 5, 3))
        jac, hess = dec.jet(ys)
        assert jac.shape == (2, 5, 4, 3)
        assert (hess is None) == (kind == "linear")
        for idx in np.ndindex(2, 5):
            point_jac, point_hess = dec.jet(ys[idx])
            np.testing.assert_array_equal(jac[idx], point_jac)
            if hess is not None:
                np.testing.assert_array_equal(hess[idx], point_hess)

    def test_stacked_integrate_equals_single_runs(self):
        rng = np.random.default_rng(22)
        ham = manifold.GeodesicHamiltonian(manifold.MetricField(random_tanh_decoder(rng, 3, 4, 2)))
        y0, p0 = rng.uniform(-0.5, 0.5, size=(4, 3)), 0.5 * rng.normal(size=(4, 3))
        stacked = manifold.integrate(ham, manifold.PhasePoint(y0, p0), 0.05, 16)
        assert stacked.ys.shape == stacked.ps.shape == (17, 4, 3)
        assert stacked.energies.shape == (17, 4)
        for b in range(4):
            single = manifold.integrate(ham, manifold.PhasePoint(y0[b], p0[b]), 0.05, 16)
            np.testing.assert_array_equal(stacked.ys[:, b], single.ys)
            np.testing.assert_array_equal(stacked.ps[:, b], single.ps)
            np.testing.assert_array_equal(stacked.energies[:, b], single.energies)

    def test_stacked_shots_equal_single_shots(self):
        rng = np.random.default_rng(23)
        mf = manifold.MetricField(near_identity_decoder())
        y_a, momenta = np.array([0.1, -0.2]), rng.normal(size=(5, 2))
        ends = manifold.shoot_geodesic(mf, y_a, momenta, 12)
        for end, p in zip(ends, momenta, strict=True):
            np.testing.assert_array_equal(end, manifold.shoot_geodesic(mf, y_a, p, 12))

    def test_stacked_variational_matrix_equals_pointwise(self):
        rng = np.random.default_rng(24)
        ham = manifold.GeodesicHamiltonian(manifold.MetricField(near_identity_decoder()))
        ys, ps = rng.uniform(-0.5, 0.5, size=(3, 2)), rng.normal(size=(3, 2))
        stacked = manifold.variational_matrix(ham, manifold.PhasePoint(ys, ps))
        assert stacked.shape == (3, 4, 4)
        for y, p, df in zip(ys, ps, stacked, strict=True):
            np.testing.assert_array_equal(df, manifold.variational_matrix(ham, manifold.PhasePoint(y, p)))

    def test_geometry_is_derived_once_per_node(self):
        dec = near_identity_decoder()
        shapes = []
        jet = dec.jet
        dec.jet = lambda y: shapes.append(np.shape(y)) or jet(y)
        ham = manifold.GeodesicHamiltonian(manifold.MetricField(dec))
        pt = manifold.PhasePoint([0.1, -0.2], [0.3, 0.4])
        traj = manifold.integrate(ham, pt, 0.1, 7)
        assert shapes == [(2,)] * 8
        shapes.clear()
        manifold.jacobi_propagate(ham, traj, np.ones(4))
        assert shapes == [(7, 8, 2)]  # 7 midpoints, 4d = 8 gradient points each
        shapes.clear()
        manifold.empirical_deviations(ham, pt, np.ones(4), 0.1, 7)
        assert shapes == [(2, 2)] * 8


class TestOneLayerDecoder:
    A = np.array([[1.0, 0.3], [0.0, 1.2], [0.4, -0.2]])

    def test_dy_is_exactly_zero(self):
        dec = manifold.Decoder.linear(self.A, np.array([0.5, -1.0, 2.0]))
        ham = manifold.GeodesicHamiltonian(manifold.MetricField(dec))
        assert dec.jet(np.zeros(2))[1] is None
        rng = np.random.default_rng(25)
        for shape in [(2,), (6, 2)]:
            dy = ham.dy(rng.normal(size=shape), rng.normal(size=shape))
            assert dy.shape == shape
            assert not dy.any() and not np.signbit(dy).any()

    def test_jacobi_reproduces_flat_deviations(self):
        mf = manifold.MetricField(manifold.Decoder.linear(self.A), eps_reg=0.0)
        ham = manifold.GeodesicHamiltonian(mf)
        pt = manifold.PhasePoint(np.array([0.3, -0.2]), np.array([0.5, 0.1]))
        d0 = np.array([0.7, -0.3, 0.2, 0.5])
        k = 20
        model = manifold.jacobi_propagate(ham, manifold.integrate(ham, pt, 1.0 / k, k), d0)
        # flat geodesics are straight: dy(t) = dy0 + t G^-1 dp0 and dp(t) = dp0
        t = np.arange(k + 1)[:, None] / k
        exact = np.hstack([d0[:2] + t * np.linalg.solve(self.A.T @ self.A, d0[2:]), np.tile(d0[2:], (k + 1, 1))])
        np.testing.assert_allclose(model, exact, rtol=0, atol=1e-9)


class TestFailureState:
    def test_integration_error_names_step(self):
        with pytest.raises(manifold.IntegrationError) as info:
            manifold.integrate(Blows(), manifold.PhasePoint([0.0], [1.0]), 1.0, 5)
        assert info.value.step == 3

    def test_integration_error_keeps_last_finite_node(self):
        with pytest.raises(manifold.IntegrationError) as info:
            manifold.integrate(Blows(), manifold.PhasePoint([0.0], [1.0]), 1.0, 5)
        np.testing.assert_array_equal(info.value.y, [2.0])
        np.testing.assert_array_equal(info.value.p, [1.0])

    def test_integration_error_reports_drift_so_far(self):
        # leapfrog is unstable for h > 2: the energy grows 16x a step until it overflows
        pt = manifold.PhasePoint([1.0], [0.0])
        with pytest.raises(manifold.IntegrationError) as info:
            manifold.integrate(Oscillator(), pt, 2.5, 1000)
        err = info.value
        before = manifold.integrate(Oscillator(), pt, 2.5, err.step - 1)
        np.testing.assert_array_equal(err.y, before.ys[-1])
        np.testing.assert_array_equal(err.p, before.ps[-1])
        assert err.drift == np.max(np.abs(before.energies - before.energies[0]))
        assert 1e300 < err.drift < np.inf

    def test_shooting_error_keeps_residual_history(self):
        mf = manifold.MetricField(near_identity_decoder())
        y_a, y_b = np.zeros(2), np.array([0.9, 0.4])
        with pytest.raises(manifold.ShootingError) as info:
            manifold.solve_shooting(mf, y_a, y_b, n_steps=8, tol=0.0, max_iter=3)
        residuals = info.value.residuals
        guess = manifold.pullback_metric(mf, y_a) @ (y_b - y_a)
        assert len(residuals) == 4
        assert residuals[0] == np.linalg.norm(manifold.shoot_geodesic(mf, y_a, guess, 8) - y_b)
        assert all(later <= earlier for earlier, later in zip(residuals, residuals[1:]))
        assert str(info.value).endswith(f"final residual {residuals[-1]:.3e}")

    def test_shooting_error_keeps_last_momentum(self):
        mf = manifold.MetricField(near_identity_decoder())
        y_a, y_b = np.zeros(2), np.array([0.9, 0.4])
        with pytest.raises(manifold.ShootingError) as info:
            manifold.solve_shooting(mf, y_a, y_b, n_steps=8, tol=0.0, max_iter=3)
        end = manifold.shoot_geodesic(mf, y_a, info.value.p, 8)
        assert np.linalg.norm(end - y_b) == info.value.residuals[-1]
