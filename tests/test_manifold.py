"""Tests for decoder geometry, leapfrog flows, shooting, and deviations."""

import copy
import gc
import math
import pickle
import re
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from maniflow import control, manifold
from maniflow._numbers import floats

from conftest import loop_fd_gradient


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


class DecoderPotential:
    """Separable H = (|p|^2 + |f(y)|^2)/2 of a decoder f; dy = J^T f takes a point or a stack."""

    def __init__(self, decoder):
        self.decoder = decoder

    def __call__(self, y, p):
        z = self.decoder(y)
        return 0.5 * float(p @ p + z @ z)

    def dy(self, y, p):
        z, jac = self.decoder._forward(floats(y))
        return (z[..., None, :] @ jac)[..., 0, :]

    def dp(self, y, p):
        return np.asarray(p, dtype=float)


def near_identity_decoder(noise=0.3, seed=0):
    rng = np.random.default_rng(seed)
    w1 = np.vstack([np.eye(2), np.zeros((1, 2))]) + noise * rng.normal(size=(3, 2))
    w2 = np.eye(3) + noise * rng.normal(size=(3, 3))
    return manifold.Decoder.mlp_tanh([w1, w2], [np.zeros(3), np.zeros(3)])


def curved_decoder(depth):
    """The seeded R^3 -> R^4 tanh decoder with ``depth`` tanh layers that the exact-derivative tests share."""
    return random_tanh_decoder(np.random.default_rng([510, depth]), 3, 4, depth)


def random_tanh_decoder(rng, d, n, n_tanh, noise=0.3):
    """Near-identity mlp-tanh decoder R^d -> R^n with n_tanh tanh layers."""
    widths = [d] + [n] * (n_tanh + 1)
    weights = [
        np.eye(out_w, in_w) + noise * rng.normal(size=(out_w, in_w))
        for in_w, out_w in zip(widths, widths[1:])
    ]
    biases = [0.1 * rng.normal(size=w) for w in widths[1:]]
    return manifold.Decoder.mlp_tanh(weights, biases)


def shot_end(mf, y_a, p, n_steps):
    """y(1) of the chord-step geodesic from y_a with momentum p, over n_steps steps of 1 / n_steps."""
    ham = manifold.GeodesicHamiltonian(mf)
    return manifold.integrate(ham, manifold.PhasePoint(y_a, p), 1 / n_steps, n_steps).ys[-1]


def saturating_decoder():
    """y -> tanh(y), coordinatewise: the slope in y_i rounds to exactly 0 at |y_i| = 40, so G is singular there."""
    return manifold.Decoder.mlp_tanh([np.eye(2), np.eye(2)], [np.zeros(2), np.zeros(2)])


# ints past the float range, which np.asarray(..., dtype=float) refuses with OverflowError
BIG_INTS = st.integers(2**1024, 2**1100) | st.integers(-(2**1100), -(2**1024))


@st.composite
def raw_arrays(draw, shape, elements):
    """An object array of the given shape, so that it can hold ints past the float range."""
    out = np.empty(shape, dtype=object)
    out.flat = draw(st.lists(elements, min_size=out.size, max_size=out.size))
    return out


@st.composite
def raw_layer_lists(draw):
    """(w, b) lists of 0 to 3 layers, each fitting its neighbours (3 in 4) or of any shape.

    Entries come from all floats (±inf and NaN included) and ints past the
    float range, or from finite floats only, so that some decoders build.
    """
    elements = draw(st.sampled_from([st.floats(allow_nan=False, allow_infinity=False), st.floats() | BIG_INTS]))
    widths = draw(st.lists(st.integers(0, 3), min_size=1, max_size=4))
    any_shape = array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3)
    layers = []
    for i, o in zip(widths, widths[1:]):
        fits = draw(st.sampled_from([True, True, True, False]))
        shapes = ((o, i), (o,)) if fits else (draw(any_shape), draw(any_shape))
        layers.append(tuple(draw(raw_arrays(shape, elements)) for shape in shapes))
    return layers


class TestDecoder:
    def test_linear_eval(self):
        a = np.array([[2.0, 0.0], [0.0, 3.0], [1.0, 1.0]])
        np.testing.assert_allclose(manifold.Decoder.linear(a)(np.array([1.0, 2.0])), [2.0, 6.0, 3.0])
        dec = manifold.Decoder([(a, np.array([1.0, 0.0, 0.0]))])
        np.testing.assert_allclose(dec(np.array([1.0, 2.0])), [3.0, 6.0, 3.0])
        out, jac = dec._forward(np.zeros(2))
        np.testing.assert_allclose(out, [1.0, 0.0, 0.0])
        np.testing.assert_allclose(jac, a)

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
        jac = dec._forward(y)[1]
        step = 1e-6
        for i in range(3):
            e = np.zeros(3)
            e[i] = step
            fd = (dec(y + e) - dec(y - e)) / (2 * step)
            np.testing.assert_allclose(jac[:, i], fd, atol=1e-8)

    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    def test_curvature_is_the_derivative_of_the_contracted_jacobian(self, depth):
        # C = sum_i c_i Hess f_i is the Jacobian of J^T c; the 1e-7 relative bound was fixed before the code
        rng = np.random.default_rng([51, depth])
        dec = curved_decoder(depth)
        ys, cs = rng.uniform(-0.5, 0.5, size=(5, 3)), rng.normal(size=(2, 5, 4))
        stack = dec._curvature(ys, cs)
        assert stack.shape == (2, 5, 3, 3)
        for b, k in np.ndindex(2, 5):
            oracle = loop_fd_gradient(lambda y: dec._forward(y)[1].T @ cs[b, k], ys[k])
            for curv in (stack[b, k], dec._curvature(ys[k], cs[b, k])):
                assert np.max(np.abs(curv - oracle)) <= 1e-7 * np.max(np.abs(oracle))

    def test_linear_decoder_has_no_curvature(self):
        rng = np.random.default_rng(51)
        dec = manifold.Decoder.linear(rng.normal(size=(4, 3)))
        curv = dec._curvature(rng.normal(size=(5, 3)), rng.normal(size=(2, 5, 4)))
        assert curv.shape == (2, 5, 3, 3) and not curv.any()

    def test_ambient_smaller_than_latent_rejected(self):
        with pytest.raises(ValueError, match="ambient"):
            manifold.Decoder.linear(np.zeros((1, 2)))

    def test_layer_width_mismatch(self):
        with pytest.raises(ValueError, match="width"):
            manifold.Decoder.mlp_tanh(
                [np.zeros((3, 2)), np.zeros((3, 4))], [np.zeros(3), np.zeros(3)]
            )

    def test_latent_point_shape_checked(self):
        dec = manifold.Decoder.linear(np.eye(2))
        with pytest.raises(ValueError, match="latent"):
            dec(np.zeros(3))

    def test_one_layer_decoder_checks_the_point_width(self):
        # the one-layer pass used to broadcast its weights over any point and return a (3, 2) J
        dec = manifold.Decoder.linear(np.eye(3, 2))
        message = r"^expected latent points of width 2, got shape \(5,\)$"
        for call in (dec, dec._forward, lambda y: manifold.pullback_metric(manifold.MetricField(dec), y)):
            with pytest.raises(ValueError, match=message):
                call(np.zeros(5))

    def test_overflowing_output_raises_without_warning(self):
        # w y + b past the float range used to warn in matmul and return inf
        dec = manifold.Decoder([([[1e300]], [1e300])])
        with pytest.raises(ValueError, match=r"^decoder output at y=array\(\[1\.e\+300\]\) is not finite$"):
            dec([1e300])

    def test_derived_fields_are_read_only(self):
        dec = near_identity_decoder()
        assert (dec.latent_dim, dec.ambient_dim) == (2, 3)
        for name in ("latent_dim", "ambient_dim"):
            with pytest.raises(AttributeError):
                setattr(dec, name, 1)
        assert list(vars(dec)) == ["layers"]

    def test_layers_are_read_only_copies(self):
        # a decoder used to share the caller's float arrays: a later write to them changed f and got past the
        # finiteness check made at construction
        w, b = np.asfortranarray(np.eye(3, 2)), np.zeros(3)
        dec = manifold.Decoder([(w, b)])
        w[0, 0], b[1] = np.nan, np.inf
        np.testing.assert_array_equal(dec([1.0, 2.0]), [1.0, 2.0, 0.0])
        assert isinstance(dec.layers, tuple) and dec.layers[0][0].strides == w.strides  # the caller's layout
        for array in (array for layer in dec.layers for array in layer):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0

    @given(layers=raw_layer_lists(), data=st.data())
    def test_builds_or_value_error(self, layers, data):
        # no OverflowError, IndexError or warning (warnings fail the test): a decoder or a ValueError;
        # a built decoder's f is finite at any finite point or a ValueError, and its unchecked pass
        # gives f and J of the stack's shape
        builds = [
            lambda: manifold.Decoder(layers),
            lambda: manifold.Decoder.mlp_tanh([w for w, _ in layers], [b for _, b in layers]),
            *(lambda w=w, b=b: manifold.Decoder([(w, b)]) for w, b in layers),
            *(lambda w=w: manifold.Decoder.linear(w) for w, _ in layers),
        ]
        for build in builds:
            try:
                dec = build()
            except ValueError:
                continue
            shape = data.draw(st.sampled_from([(dec.latent_dim,), (2, dec.latent_dim)]))
            y = data.draw(arrays(np.float64, shape, elements=st.floats(allow_nan=False, allow_infinity=False)))
            try:
                out = dec(y)
            except ValueError:
                out = None
            assert out is None or (out.shape == (*shape[:-1], dec.ambient_dim) and np.isfinite(out).all())
            with np.errstate(over="ignore", invalid="ignore"):
                out, jac = dec._forward(y)
            assert out.shape == (*shape[:-1], dec.ambient_dim)
            assert jac.shape == (*shape[:-1], dec.ambient_dim, dec.latent_dim)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: manifold.Decoder.linear(np.ones(3)), "linear decoder needs a 2-d matrix"),
        (lambda: manifold.Decoder.mlp_tanh([], []), "need matching, non-empty weight and bias lists"),
        (
            lambda: manifold.Decoder.mlp_tanh([np.ones((3, 2))], [np.zeros(2)]),
            "each layer needs a matrix and a matching bias vector",
        ),
        (lambda: manifold.Decoder.linear(np.zeros((1, 0))), "latent dimension must be >= 1"),
        (lambda: manifold.Decoder([]), "decoder needs at least one layer"),
        (
            lambda: manifold.Decoder([(np.eye(2), np.zeros(3))]),
            "each layer needs a matrix and a matching bias vector",
        ),
        (lambda: manifold.Decoder.linear([[np.nan]]), "layer 0 weights must be finite"),
        (lambda: manifold.Decoder([(np.eye(2), [0.0, np.inf])]), "layer 0 biases must be finite"),
        (
            lambda: manifold.Decoder.mlp_tanh([np.eye(2), np.eye(2)], [np.zeros(2), [np.inf, 0.0]]),
            "layer 1 biases must be finite",
        ),
    ],
    ids=[
        "linear-1d-matrix",
        "mlp-empty-lists",
        "mlp-bad-bias",
        "linear-zero-latent",
        "decoder-no-layers",
        "decoder-bias-mismatch",
        "linear-nan-weight",
        "decoder-inf-bias",
        "mlp-inf-bias",
    ],
)
def test_guard_message(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


class TestMetricField:
    def test_metric_formula(self):
        a = np.array([[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]])
        mf = manifold.MetricField(manifold.Decoder.linear(a), eps_reg=1e-8)
        g = manifold.pullback_metric(mf, np.zeros(2))
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
        # a stack names its worst point: tanh(40) rounds to 1, so the slope in y0 is exactly 0
        ys = np.array([[1.0, 0.5], [40.0, 2.0], [2.0, -1.0]])
        with pytest.raises(manifold.SingularMetricError) as info:
            manifold.pullback_metric(manifold.MetricField(saturating_decoder(), eps_reg=0.0), ys)
        np.testing.assert_array_equal(info.value.y, ys[1])
        assert info.value.min_eigenvalue == 0.0

    def test_solve_matches_dense_solve(self):
        dec = near_identity_decoder()
        mf = manifold.MetricField(dec)
        rng = np.random.default_rng(4)
        y = rng.normal(size=2)
        rhs = rng.normal(size=2)
        np.testing.assert_allclose(
            mf.solve(y, rhs), np.linalg.solve(manifold.pullback_metric(mf, y), rhs), atol=1e-12
        )

    def test_negative_eps_rejected(self):
        with pytest.raises(ValueError, match="eps_reg"):
            manifold.MetricField(manifold.Decoder.linear(np.eye(2)), eps_reg=-1.0)

    @pytest.mark.parametrize("eps_reg", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_eps_rejected(self, eps_reg):
        with pytest.raises(ValueError, match=f"^eps_reg must be >= 0, got {eps_reg!r}$"):
            manifold.MetricField(manifold.Decoder.linear(np.eye(2)), eps_reg=eps_reg)

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
        expected = manifold.pullback_metric(mf, y).copy()
        manifold.pullback_metric(mf, y)[:] = 0.0
        np.testing.assert_array_equal(manifold.pullback_metric(mf, y), expected)
        np.testing.assert_allclose(mf.solve(y, expected[0]), [1.0, 0.0], atol=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_metric_raises(self, bad):
        a = np.array([[1.0, 0.0], [0.0, 1.0], [bad, 1.0]])
        # the constructor refuses such weights; set on a built decoder, the metric check still rejects
        linear, tanh = manifold.Decoder.linear(np.eye(3, 2)), near_identity_decoder()
        linear.layers = [(a, np.zeros(3))]
        tanh.layers = [(a, np.zeros(3)), (np.eye(3), np.zeros(3))]
        for dec in (linear, tanh):
            mf = manifold.MetricField(dec)
            y = np.array([0.5, 0.5])
            with pytest.raises(ValueError, match="NaN"):
                mf.solve(y, np.ones(2))
            with pytest.raises(ValueError, match="NaN"):
                manifold.pullback_metric(mf, y)
            # _metric sets no errstate: its callers ignore overflow and invalid around it
            with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="NaN"):
                mf._metric(y)

    @pytest.mark.parametrize("scale", [1e-150, 1.0, 1e100])
    @pytest.mark.parametrize("kind", ["linear", "mlp-tanh-2", "mlp-tanh-3"])
    def test_metric_exactly_symmetric(self, kind, scale):
        # G takes no averaging pass: J^T J itself must be symmetric bit for bit
        rng = np.random.default_rng(11)
        a = rng.normal(size=(4, 3))
        if kind == "linear":
            dec = manifold.Decoder.linear(scale * a)
        else:
            tanh = random_tanh_decoder(rng, 3, 4, n_tanh=int(kind[-1]) - 1)
            (*inner, (w, b)) = tanh.layers
            dec = manifold.Decoder.mlp_tanh([*(wi for wi, _ in inner), scale * w], [*(bi for _, bi in inner), b])
        for eps_reg in (0.0, 1e-8, 0.5):
            mf = manifold.MetricField(dec, eps_reg=eps_reg)
            for y in (rng.normal(size=3), rng.normal(size=(5, 3))):
                g = mf._metric(y)
                assert g.tobytes() == np.ascontiguousarray(g.swapaxes(-1, -2)).tobytes()
                assert manifold.pullback_metric(mf, y).tobytes() == g.tobytes()

    def test_overflowing_solve_raises_without_warning(self):
        # G = 1e-200 is positive definite, but G^-1 rhs passes the float range: G^-1 @ rhs used to warn in matmul
        mf = manifold.MetricField(manifold.Decoder.linear([[1e-100]]), eps_reg=0.0)
        with pytest.raises(ValueError, match=r"^metric solve at y=array\(\[0\.\]\) is not finite$"):
            mf.solve(np.zeros(1), np.array([1e200]))

    def test_overflowing_metric_raises_without_warning(self):
        # finite weights whose J^T J passes the float range: the matmul used to warn first.  _metric
        # sets no errstate, so it runs under the one its callers set
        mf = manifold.MetricField(manifold.Decoder.linear([[1e200, 0.0], [0.0, 1.0]]))

        def metric(y):
            with np.errstate(over="ignore", invalid="ignore"):
                return mf._metric(y)

        for call in (
            metric,
            lambda y: manifold.pullback_metric(mf, y),
            lambda y: mf.solve(y, np.ones(2)),
            lambda y: manifold.GeodesicHamiltonian(mf)(y, np.ones(2)),
        ):
            with pytest.raises(ValueError, match=r"^metric at y=array\(\[0\., 0\.\]\) contains infs or NaNs$"):
                call(np.zeros(2))


def _seed_route_failure(mf, ys):
    """SingularMetricError's y and min_eigenvalue as np.linalg.cholesky and eigvalsh find them at the points ys."""
    with np.errstate(over="ignore", invalid="ignore"):
        g = mf._metric(ys)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(g)
    lowest = np.linalg.eigvalsh(g).min(axis=-1)
    worst = np.unravel_index(np.argmin(lowest), lowest.shape)
    return ys[worst], float(lowest[worst])


class TestGufuncRoute:
    """The engine's small solves and factorisations call numpy's linalg gufuncs, not the np.linalg wrappers."""

    def test_gufunc_signatures(self):
        # numpy.linalg._umath_linalg is private: a numpy that changes it fails here, by name
        assert manifold.solve1.signature == "(m,m),(m)->(m)"
        assert manifold.solve.signature == "(m,m),(m,n)->(m,n)"
        assert manifold.cholesky_lo.signature == "(m,m)->(m,m)"

    @pytest.mark.parametrize("stack", [(), (5,), (2, 3)])
    @pytest.mark.parametrize("d", range(1, 7))
    def test_same_bits_as_the_public_calls(self, d, stack):
        rng = np.random.default_rng([46, d, len(stack)])
        a = rng.normal(size=(*stack, d, d)) + d * np.eye(d)
        b = rng.normal(size=(*stack, d))
        assert manifold.solve1(a, b).tobytes() == np.linalg.solve(a, b[..., None])[..., 0].tobytes()
        g = a @ a.swapaxes(-1, -2) + np.eye(d)
        assert manifold.cholesky_lo(g).tobytes() == np.linalg.cholesky(g).tobytes()

    @pytest.mark.parametrize("stack", [(), (5,), (2, 3)])
    @pytest.mark.parametrize("d", range(1, 7))
    def test_vector_products_are_the_matmul_forms(self, d, stack):
        # the decoder pass, the chord step and the shooting gradient call np.matvec and
        # np.vecmat, and _stencil's norm np.vecdot, in place of matmul on an added axis
        rng = np.random.default_rng([50, d, len(stack)])
        for _ in range(20):
            w, y = rng.normal(size=(d + 3, d)), rng.normal(size=(*stack, d)) * 10.0 ** rng.uniform(-3, 3)
            assert np.matvec(w, y).tobytes() == (w @ y[..., None])[..., 0].tobytes()
            jac, chord = rng.normal(size=(*stack, d + 3, d)), rng.normal(size=(*stack, d + 3))
            assert np.vecmat(chord, jac).tobytes() == (jac.swapaxes(-1, -2) @ chord[..., None])[..., 0].tobytes()
            norm = np.sqrt(y[..., None, :] @ y[..., :, None])
            assert np.sqrt(np.vecdot(y, y))[..., None, None].tobytes() == norm.tobytes()
            _, step = manifold._stencil(y)
            assert step.tobytes() == (manifold.GRAD_STEP * (1.0 + norm)).tobytes()

    @pytest.mark.parametrize(
        "decoder, ys",
        [
            # G = w^T w of a rank-one w: rounding leaves its least eigenvalue just below 0
            (manifold.Decoder.linear(np.outer([0.3, -1.2, 0.7, 2.0], [1.1, -0.4, 0.9])), np.zeros(3)),
            (manifold.Decoder.linear(np.outer([0.3, -1.2, 0.7, 2.0], [1.1, -0.4, 0.9])), np.zeros((5, 3))),
            (saturating_decoder(), np.array([[1.0, 0.5], [40.0, 2.0], [2.0, -1.0]])),
            (saturating_decoder(), np.array([[[1.0, 0.5], [0.2, 2.0]], [[2.0, -1.0], [0.3, -40.0]]])),
        ],
        ids=["rank-one", "rank-one-stack", "saturated-stack", "saturated-2x2-stack"],
    )
    def test_non_spd_metric_names_the_seed_point(self, decoder, ys):
        mf = manifold.MetricField(decoder, eps_reg=0.0)
        y, lowest = _seed_route_failure(mf, ys)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(manifold.SingularMetricError) as info:
                manifold.pullback_metric(mf, ys)
        np.testing.assert_array_equal(info.value.y, y)
        assert info.value.min_eigenvalue == lowest

    def test_zero_d_rhs_solves_as_width_one(self):
        # np.linalg.solve read rhs[..., None], so a 0-d rhs was a width-1 vector and its solve 0-d
        mf = manifold.MetricField(manifold.Decoder.linear([[2.0]]), eps_reg=0.0)
        out = mf.solve([0.0], 1.0)
        assert out.shape == () and out == 0.25
        assert control.optimal_control(mf, 0.0, 1.0) == 0.25
        assert manifold.GeodesicHamiltonian(mf)([0.0], 1.0) == manifold.GeodesicHamiltonian(mf)([0.0], [1.0])

    def test_engine_calls_no_linalg_wrapper(self, monkeypatch):
        # each wrapper's argument checks cost several times its gufunc (README); an edit that brings one back fails here
        def refuse(*args, **kwargs):
            raise AssertionError("np.linalg wrapper called")

        monkeypatch.setattr(np.linalg, "solve", refuse)
        monkeypatch.setattr(np.linalg, "cholesky", refuse)
        mf = manifold.MetricField(near_identity_decoder())
        ham = manifold.GeodesicHamiltonian(mf)
        pt = manifold.PhasePoint([0.1, -0.2], [0.3, 0.4])
        traj = manifold.integrate(ham, pt, 0.1, 6)
        assert np.isfinite(manifold.jacobi_propagate(ham, traj, np.ones(4))).all()
        assert np.isfinite(manifold.empirical_deviations(ham, pt, np.ones(4), 0.1, 6)).all()
        spec = control.CostSpec(lambda z: 0.5 * float(z @ z))
        assert np.isfinite(control.ndm_layer(mf, spec, pt, 0.1).y).all()
        assert np.isfinite(control.optimal_control(mf, pt.y, pt.p)).all()
        assert np.isfinite(ham(pt.y, pt.p))

    @pytest.mark.parametrize("n_steps", [1, 6, 150])
    def test_one_factorisation_checks_each_node(self, monkeypatch, n_steps):
        # a node's finite Cholesky factor is its one check on the success path: G is not also tested finite.
        # The nodes are factorised as one stack per block of _CHECK_BLOCK, so 151 nodes take 3 calls
        calls = {"cholesky_lo": 0, "_metric": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(manifold, "cholesky_lo", counted("cholesky_lo", manifold.cholesky_lo))
        monkeypatch.setattr(manifold.MetricField, "_metric", counted("_metric", manifold.MetricField._metric))
        ham = manifold.GeodesicHamiltonian(manifold.MetricField(near_identity_decoder()))
        manifold.integrate(ham, manifold.PhasePoint([0.1, -0.2], [0.3, 0.4]), 0.1, n_steps)
        assert calls == {"cholesky_lo": -(-(n_steps + 1) // manifold._CHECK_BLOCK), "_metric": 0}

    def test_infinite_metric_on_the_chord_path_is_not_called_singular(self):
        # G = diag(inf, 1) has the factor diag(inf, 1), which holds no NaN: only a test of the factor's
        # finiteness rejects it, and the failure path names it non-finite, not singular
        mf = manifold.MetricField(manifold.Decoder.linear([[1e200, 0.0], [0.0, 1.0]]))
        ham = manifold.GeodesicHamiltonian(mf)
        pt = manifold.PhasePoint(np.zeros(2), np.ones(2))
        spec = control.CostSpec(lambda z: 0.5 * float(z @ z))
        for call in (
            lambda: manifold.integrate(ham, pt, 0.1, 3),
            lambda: manifold.leapfrog_step(ham, pt, 0.1),
            lambda: manifold.empirical_deviations(ham, pt, np.ones(4), 0.1, 3),
            lambda: control.ndm_layer(mf, spec, pt, 0.1),
        ):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match=r"(?s)^metric at y=array\(.*\) contains infs or NaNs$") as info:
                    call()
            assert not isinstance(info.value, manifold.SingularMetricError)


class TestGeodesicHamiltonian:
    def test_value_and_partials(self):
        dec = manifold.Decoder.linear(np.diag([2.0, 1.0]))
        mf = manifold.MetricField(dec, eps_reg=0.0)
        ham = manifold.GeodesicHamiltonian(mf)
        y = np.zeros(2)
        p = np.array([2.0, 3.0])
        # G = diag(4, 1), H = p^T G^-1 p / 2 = (4/4 + 9)/2
        np.testing.assert_allclose(ham(y, p), 5.0)
        # dH/dp = G^-1 p, the metric solve
        np.testing.assert_allclose(mf.solve(y, p), [0.5, 3.0])

    @pytest.mark.parametrize("cost", [None, control.CostSpec(lambda z: 0.0)], ids=["geodesic", "reduced"])
    def test_nan_energy_raises(self, cost):
        # G^-1 p of an infinite momentum holds a NaN, so H is NaN: it used to be returned
        mf = manifold.MetricField(manifold.Decoder.linear(np.eye(2)), eps_reg=0.0)
        ham = manifold.GeodesicHamiltonian(mf) if cost is None else control.ReducedHamiltonian(mf, cost)
        with pytest.raises(ValueError, match=r"^energy at y=\[0\.0, 0\.0\], p=\[inf, 0\.0\] is nan$"):
            ham([0.0, 0.0], [math.inf, 0.0])

    @pytest.mark.parametrize("n_tanh", [1, 2, 3])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_exact_dy_matches_fd(self, d, n_tanh):
        # the step's momenta are the exact y-derivatives of its discrete Lagrangian, taken from J:
        # p0 = -dL_d/dq0 and p1 = dL_d/dq1, against central differences of L_d itself.  Each step is
        # Newton-solved to its residual bound, so the gap is the differences' own error: 4.0e-8 relative
        # at worst over these 54 steps
        rng = np.random.default_rng(100 * d + n_tanh)
        h = 0.1
        for n in (d, d + 2):
            field = manifold.MetricField(random_tanh_decoder(rng, d, n, n_tanh))
            ham = manifold.GeodesicHamiltonian(field)

            def action(q0, q1):
                chord, move = field.decoder(q1) - field.decoder(q0), q1 - q0
                return (chord @ chord + field.eps_reg * (move @ move)) / (2.0 * h)

            for _ in range(3):
                y = rng.uniform(-0.5, 0.5, size=d)
                p = manifold.pullback_metric(field, y) @ rng.normal(size=d)
                end = manifold.leapfrog_step(ham, manifold.PhasePoint(y, p), h)
                for exact, fd in (
                    (p, -loop_fd_gradient(lambda q: action(q, end.y), y)),
                    (end.p, loop_fd_gradient(lambda q: action(y, q), end.y)),
                ):
                    assert np.linalg.norm(exact - fd) <= 1e-5 * np.linalg.norm(fd)

    def test_tanh_jet_matches_jacobian(self):
        dec = random_tanh_decoder(np.random.default_rng(5), 3, 4, 2)
        y = np.array([0.2, -0.1, 0.4])
        out, jac = dec._forward(y)
        assert out.tobytes() == dec(y).tobytes()
        np.testing.assert_allclose(jac, loop_fd_gradient(dec, y), atol=1e-9)

    def test_linear_is_the_one_layer_case(self):
        rng = np.random.default_rng(11)
        a = np.eye(3, 2) + 0.3 * rng.normal(size=(3, 2))
        y, p = np.array([0.3, -0.6]), np.array([0.8, 0.2])

        def outputs(dec):
            mf = manifold.MetricField(dec)
            ham = manifold.GeodesicHamiltonian(mf)
            traj = manifold.integrate(ham, manifold.PhasePoint(y, p), 0.1, 10)
            states = [np.concatenate([pt.y, pt.p]) for pt in traj.points]
            return [dec(y), *dec._forward(y), mf.solve(y, p), *states, traj.energies]

        linear = outputs(manifold.Decoder.linear(a))
        layered = outputs(manifold.Decoder.mlp_tanh([a], [np.zeros(3)]))
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

    @pytest.mark.parametrize(
        "call, n_steps",
        [
            ("integrate", 10**30),
            ("integrate", 10**18),
            ("solve_shooting", 10**30),
            ("solve_shooting", 2**63),
            ("solve_shooting", 10**12),
            ("solve_shooting", 10**7),
        ],
        ids=[
            "past-max-dimension",
            "array-too-big",
            "shooting-past-max-dimension",
            "shooting-past-index-range",
            "shooting-node-grid",
            "shooting-dense-hessian",
        ],
    )
    def test_unallocatable_step_count_is_named(self, call, n_steps):
        # numpy refuses each buffer before allocating; its message named neither n_steps nor the size.
        # solve_shooting's node grid and its dense ((n_steps - 1) d)^2 Hessian used to fail with numpy's
        # message, an IndexError or a MemoryError; now it fails before any decoder pass.  The Hessian case
        # asks for 2.84 PiB at 10**7: past a 47-bit user address space, so no overcommit policy can grant
        # it, yet within numpy's size limit, so it reaches the MemoryError branch.  At 10**6 it asked for
        # 29.1 TiB, which only the kernel's heuristic overcommit refused
        if call == "integrate":
            with pytest.raises(ValueError, match=f"^n_steps {n_steps} needs a node buffer too large to allocate$"):
                manifold.integrate(Oscillator(), manifold.PhasePoint([1.0], [0.0]), 0.1, n_steps)
            return
        dec = near_identity_decoder()
        passes, forward = [], dec._forward
        dec._forward = lambda y: passes.append(np.shape(y)) or forward(y)
        with pytest.raises(ValueError, match=f"^n_steps {n_steps} needs a dense Hessian too large to allocate$"):
            manifold.solve_shooting(manifold.MetricField(dec), np.zeros(2), np.array([0.9, 0.4]), n_steps=n_steps)
        assert passes == []

    def test_divergence_reports_step_index(self):
        with pytest.raises(manifold.IntegrationError, match="step 3"):
            manifold.integrate(Blows(), manifold.PhasePoint([0.0], [1.0]), 1.0, 5)

    def test_leapfrog_step_zero_step_rejected(self):
        with pytest.raises(ValueError, match="non-zero"):
            manifold.leapfrog_step(Oscillator(), manifold.PhasePoint([1.0], [0.0]), 0.0)

    def test_leapfrog_step_divergence_raises_with_state(self):
        with pytest.raises(manifold.IntegrationError, match="step 1") as info:
            manifold.leapfrog_step(Blows(), manifold.PhasePoint([2.5], [1.0]), 1.0)
        np.testing.assert_array_equal(info.value.y, [2.5])
        np.testing.assert_array_equal(info.value.p, [1.0])
        assert info.value.drift is None

    def test_leapfrog_step_is_one_step_of_integrate(self):
        ham = manifold.GeodesicHamiltonian(manifold.MetricField(near_identity_decoder()))
        pt = manifold.PhasePoint([0.1, -0.2], [0.3, 0.4])
        step = manifold.leapfrog_step(ham, pt, -0.05)
        final = manifold.integrate(ham, pt, -0.05, 1).final()
        np.testing.assert_array_equal(step.y, final.y)
        np.testing.assert_array_equal(step.p, final.p)


def test_runs_leave_no_reference_cycle():
    # _leapfrog's check and failure closures used to refer to each other, so every run left an unreachable
    # cycle holding its node buffer and inputs until the cyclic collector freed it
    field = manifold.MetricField(near_identity_decoder())
    ham = manifold.GeodesicHamiltonian(field)
    cost = control.CostSpec(lambda z: 0.5 * float(z @ z))
    reduced = control.ReducedHamiltonian(field, cost)
    pt, delta = manifold.PhasePoint([0.2, -0.1], [0.3, 0.4]), np.array([1.0, 0.0, 0.0, 1.0])

    def runs():
        for hamiltonian in (ham, reduced, Oscillator()):
            start = manifold.PhasePoint(pt.y, pt.p)
            traj = manifold.integrate(hamiltonian, start, 0.05, 8)
            manifold.leapfrog_step(hamiltonian, start, 0.05)
            # for ham, start carries integrate's run, and only the shifted point runs
            manifold.empirical_deviations(hamiltonian, start, delta, 0.05, 8)
            manifold.jacobi_propagate(hamiltonian, traj, delta)
        layer = pt
        for _ in range(3):
            layer = control.ndm_layer(field, cost, layer, 0.05)

    runs()  # first calls fill lazy imports and caches
    gc.collect()
    gc.disable()
    try:
        runs()
        assert gc.collect() == 0
        # a point keeps no run alive: its trajectory and node buffer go with their last reference
        start = manifold.PhasePoint(pt.y, pt.p)
        traj = manifold.integrate(ham, start, 0.05, 8)
        assert manifold.empirical_deviations(ham, start, delta, 0.05, 8).shape == (9, 4)
        dropped, buffer = weakref.ref(traj), weakref.ref(traj.ys.base)
        del traj
        assert start._run is not None and dropped() is None and buffer() is None
        assert gc.collect() == 0
    finally:
        gc.enable()


class TestShooting:
    def test_flat_shot_is_exact(self):
        dec = manifold.Decoder.linear(np.array([[1.2, 0.1], [0.0, 0.9], [0.2, 0.4]]))
        mf = manifold.MetricField(dec, eps_reg=0.0)
        y_a = np.array([0.0, 0.0])
        y_b = np.array([1.0, -0.5])
        p = manifold.solve_shooting(mf, y_a, y_b, n_steps=8)
        np.testing.assert_allclose(shot_end(mf, y_a, p, 8), y_b, atol=1e-12)

    def test_curved_shot_converges(self):
        mf = manifold.MetricField(near_identity_decoder())
        y_a = np.array([0.0, 0.0])
        y_b = np.array([0.8, 0.5])
        p = manifold.solve_shooting(mf, y_a, y_b, n_steps=24, tol=1e-8)
        end = shot_end(mf, y_a, p, 24)
        assert np.linalg.norm(end - y_b) <= 1e-8

    def test_no_steps_rejected(self):
        # 1 / n_steps used to raise ZeroDivisionError before the step count was checked
        mf = manifold.MetricField(near_identity_decoder())
        with pytest.raises(ValueError, match="n_steps must be an integer >= 1, got 0"):
            manifold.solve_shooting(mf, np.zeros(2), np.array([0.5, 0.2]), n_steps=0)

    def test_exhausted_iterations_raise(self, monkeypatch):
        monkeypatch.setattr(manifold, "_SHOOTING_ITERATIONS", 0)
        mf = manifold.MetricField(near_identity_decoder())
        with pytest.raises(manifold.ShootingError, match="residual"):
            manifold.solve_shooting(mf, np.zeros(2), np.array([0.9, 0.4]), n_steps=8)

    @staticmethod
    def flat_field():
        return manifold.MetricField(manifold.Decoder.linear([[2, 0.3], [0.1, 1], [0.5, -0.4]]), eps_reg=0)

    def test_flat_guess_within_tol_is_returned_without_iterating(self, monkeypatch):
        # on a flat metric the straight line is the discrete geodesic, and its first chord's
        # momentum is the flat-chart guess G(y_a)(y_b - y_a)
        monkeypatch.setattr(manifold, "_SHOOTING_ITERATIONS", 0)
        p = manifold.solve_shooting(self.flat_field(), np.zeros(2), np.array([0.9, 0.4]))
        np.testing.assert_allclose(p, [4.034, 0.95], rtol=1e-15)

    def test_steps_that_raise_the_residual_are_rejected(self, monkeypatch):
        # tol 0 cannot be met at rounding level, so every iteration tries a step;
        # a rejected step keeps the residual, and the history never rises
        monkeypatch.setattr(manifold, "_SHOOTING_ITERATIONS", 5)
        with pytest.raises(manifold.ShootingError, match="no convergence after 5 iterations") as info:
            manifold.solve_shooting(self.flat_field(), np.zeros(2), np.array([0.9, 0.4]), tol=0.0)
        residuals = info.value.residuals
        assert len(residuals) == 6
        assert 0.0 < residuals[-1] <= 1e-12
        assert all(later <= earlier for earlier, later in zip(residuals, residuals[1:]))
        assert any(later == earlier for earlier, later in zip(residuals, residuals[1:]))
        np.testing.assert_allclose(info.value.p, [4.034, 0.95], rtol=1e-15)

    def test_solve_runs_one_pass_per_iteration_and_no_shot(self, monkeypatch):
        # each iteration is one stacked pass over the n + 1 nodes; the momentum needs one more pass, over q_1
        monkeypatch.setattr(manifold, "_leapfrog", None)  # no shot and no integration
        monkeypatch.setattr(manifold, "_SHOOTING_ITERATIONS", 3)
        dec = near_identity_decoder()
        shapes = []
        forward = dec._forward
        dec._forward = lambda y: shapes.append(np.shape(y)) or forward(y)
        with pytest.raises(manifold.ShootingError) as info:
            manifold.solve_shooting(manifold.MetricField(dec), np.zeros(2), np.array([0.8, 0.5]), 16, 0.0)
        assert len(info.value.residuals) == 4
        assert shapes == [(17, 2)] * 4 + [(2,)]

    @pytest.mark.parametrize(
        "y_a,y_b,message",
        [
            (np.zeros(2), np.array([0.5]), r"y_b must have shape \(2,\), got \(1,\)"),
            (np.zeros(3), np.array([0.5, 0.5]), r"y_a must have shape \(2,\), got \(3,\)"),
        ],
    )
    def test_endpoint_of_wrong_shape_rejected(self, y_a, y_b, message):
        # a length-1 y_b used to broadcast against the 2-d point and "converge"
        mf = manifold.MetricField(manifold.Decoder.linear(np.eye(2)), eps_reg=0.0)
        with pytest.raises(ValueError, match=message):
            manifold.solve_shooting(mf, y_a, y_b, n_steps=8)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "minus-inf"])
    def test_non_finite_endpoint_rejected(self, bad):
        # used to fail only once shot, as IntegrationError at step 1
        mf = manifold.MetricField(manifold.Decoder.linear(np.eye(2)), eps_reg=0.0)
        shown = re.escape(f"[{bad}, 0.5]")
        with pytest.raises(ValueError, match=f"^y_b must be finite, got {shown}$"):
            manifold.solve_shooting(mf, np.zeros(2), [bad, 0.5])

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"tol": -1.0}, "tol must be a number >= 0, got -1.0"),
            ({"tol": math.nan}, "tol must be a number >= 0, got nan"),
        ],
        ids=["negative-tol", "nan-tol"],
    )
    def test_bad_tolerance_or_iteration_count_rejected(self, kwargs, message):
        # a negative or NaN tol used to run every iteration and report a residual of 0
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            manifold.solve_shooting(self.flat_field(), np.zeros(2), np.array([0.9, 0.4]), **kwargs)


def one_step_tangent(ham, y, p, h):
    """T of one leapfrog step at (y, p): column i is the unit deviation e_i propagated one step."""
    traj = manifold.integrate(ham, manifold.PhasePoint(y, p), h, 1)
    return np.column_stack([manifold.jacobi_propagate(ham, traj, e)[1] for e in np.eye(2 * len(y))])


class TestVariationalFlow:
    @pytest.mark.parametrize("h", [0.1, -0.3, 1.5])
    def test_oscillator_tangent_is_the_leapfrog_matrix(self, h):
        tangent = one_step_tangent(Oscillator(), np.array([0.4]), np.array([-0.3]), h)
        c = 1.0 - h * h / 2.0
        np.testing.assert_allclose(tangent, [[c, h], [-h * (1.0 - h * h / 4.0), c]], rtol=0, atol=1e-9)

    @pytest.mark.parametrize("d", [1, 3])
    def test_tangent_is_symplectic(self, d):
        # the leapfrog is symplectic for a separable H; its explicit kicks are not for the geodesic H
        rng = np.random.default_rng(27)
        ham = DecoderPotential(random_tanh_decoder(rng, d, d + 1, 2))
        omega = np.block([[np.zeros((d, d)), np.eye(d)], [-np.eye(d), np.zeros((d, d))]])
        for y, p in zip(rng.uniform(-0.5, 0.5, size=(4, d)), rng.normal(size=(4, d)), strict=True):
            tangent = one_step_tangent(ham, y, p, 0.1)
            np.testing.assert_allclose(tangent.T @ omega @ tangent, omega, rtol=0, atol=1e-8)

    def test_chord_step_is_symplectic(self):
        # the chord step is the variational integrator of L_d, so T^T Omega T = Omega for the geodesic H;
        # its exact tangent meets that at rounding: 2.2e-15 at most over these ten decoders (the central
        # difference of the step met it at 1.3e-9, and the staged step gave 0.71)
        for seed in range(10):
            rng = np.random.default_rng([36, seed])
            d = 2 + seed % 2
            field = manifold.MetricField(pool_decoder(rng, d))
            omega = np.block([[np.zeros((d, d)), np.eye(d)], [-np.eye(d), np.zeros((d, d))]])
            y = rng.uniform(-0.5, 0.5, size=d)
            p = manifold.pullback_metric(field, y) @ rng.normal(size=d)
            tangent = one_step_tangent(manifold.GeodesicHamiltonian(field), y, p, 0.1)
            np.testing.assert_allclose(tangent.T @ omega @ tangent, omega, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    def test_chord_tangent_is_the_derivative_of_the_step(self, depth):
        # the exact tangent from the recorded nodes against central differences of leapfrog_step itself;
        # the 1e-7 relative bound was fixed before the code.  The oracle's step is 1e-6 (1 + |z|): its
        # truncation error falls as the step squared, and at GRAD_STEP it alone is 1.0e-7 at depth 2
        # (|z| = 7.7), against 1.0e-9 here
        rng = np.random.default_rng([52, depth])
        field = manifold.MetricField(curved_decoder(depth))
        ham = manifold.GeodesicHamiltonian(field)
        y = rng.uniform(-0.5, 0.5, size=3)
        p = manifold.pullback_metric(field, y) @ rng.normal(size=3)

        def step(z):
            end = manifold.leapfrog_step(ham, manifold.PhasePoint(z[:3], z[3:]), 0.1)
            return np.concatenate([end.y, end.p])

        oracle = loop_fd_gradient(step, np.concatenate([y, p]), 1e-6)
        tangent = one_step_tangent(ham, y, p, 0.1)
        assert np.max(np.abs(tangent - oracle)) <= 1e-7 * np.max(np.abs(oracle))

    @pytest.mark.parametrize("node", [0, 2])
    def test_singular_newton_matrix_is_named(self, node):
        # with eps_reg = 0, tanh(100 y) saturates to 1.0 at y = 0.5, so J = 0 there and M = J0^T J1 = 0
        # for the step from node k to it
        dec = manifold.Decoder.mlp_tanh([[[100.0]], [[1.0]]], [[0.0], [0.0]])
        ham = manifold.GeodesicHamiltonian(manifold.MetricField(dec, eps_reg=0.0))
        ys = np.array([[0.0], [0.001], [0.002], [0.003]])
        ys[node + 1] = 0.5
        traj = manifold.PhaseTrajectory(0.1, ys, np.zeros((4, 1)), np.zeros(4))
        with pytest.raises(ValueError, match=rf"^singular Newton matrix J0\^T J1 \+ eps_reg I at node {node}$"):
            manifold.jacobi_propagate(ham, traj, np.ones(2))
        ys[node + 1] = math.nan  # a node no run records, so the matrix is NaN, not singular
        with pytest.raises(ValueError, match=rf"^non-finite Newton matrix J0\^T J1 \+ eps_reg I at node {node}$"):
            manifold.jacobi_propagate(ham, traj, np.ones(2))

    def test_trajectory_of_another_field_is_named(self):
        # the exact tangent reads node k + 1 as the given field's step from node k; a trajectory recorded under
        # another decoder used to give deviations 0.040 off that field's own empirical ones, with no error
        own = manifold.GeodesicHamiltonian(manifold.MetricField(near_identity_decoder()))
        other = manifold.GeodesicHamiltonian(manifold.MetricField(near_identity_decoder(seed=1)))
        traj = manifold.integrate(own, manifold.PhasePoint([0.1, -0.2], [0.3, 0.4]), 0.1, 8)
        assert np.isfinite(manifold.jacobi_propagate(own, traj, np.ones(4))).all()
        with pytest.raises(ValueError, match=r"^node 1 is not this field's chord step from node 0: step residual"):
            manifold.jacobi_propagate(other, traj, np.ones(4))
        # and so is a node whose recorded momentum is not the one the step took
        ps = traj.ps.copy()
        ps[3] *= 1.0 + 1e-9
        moved = manifold.PhaseTrajectory(traj.step, traj.ys, ps, traj.energies)
        with pytest.raises(ValueError, match=r"^node 4 is not this field's chord step from node 3: step residual"):
            manifold.jacobi_propagate(own, moved, np.ones(4))
        ps[3] = math.nan
        with pytest.raises(ValueError, match=r"^node 4 is not this field's chord step from node 3: step residual nan"):
            manifold.jacobi_propagate(own, moved, np.ones(4))

    def test_curved_deviation_is_the_tangent_of_the_n_step_map(self):
        # the frozen-matrix RK2 of the continuous variational flow was 0.1 off this oracle
        ham = manifold.GeodesicHamiltonian(manifold.MetricField(near_identity_decoder()))
        z0, d0, h, n = np.array([0.3, -0.2, -0.4, 0.5]), np.array([0.7, -0.3, 0.2, 0.5]), 1.0 / 8, 8

        def nodes(z):
            traj = manifold.integrate(ham, manifold.PhasePoint(z[:2], z[2:]), h, n)
            return np.hstack([traj.ys, traj.ps]).ravel()

        oracle = (loop_fd_gradient(nodes, z0) @ d0).reshape(n + 1, 4)
        model = manifold.jacobi_propagate(ham, manifold.integrate(ham, manifold.PhasePoint(z0[:2], z0[2:]), h, n), d0)
        gap = np.max(np.linalg.norm(model - oracle, axis=1)) / np.max(np.linalg.norm(oracle, axis=1))
        assert gap <= 1e-7

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

    def test_stacked_trajectory_rejected(self):
        # a stacked trajectory used to fail inside numpy's matmul
        ham = manifold.GeodesicHamiltonian(manifold.MetricField(near_identity_decoder()))
        pt = manifold.PhasePoint(np.zeros((3, 2)), np.full((3, 2), 0.2))
        traj = manifold.integrate(ham, pt, 0.1, 4)
        message = r"trajectory must hold one point's \(n\+1, d\) nodes, got ys \(5, 3, 2\) and ps \(5, 3, 2\)"
        with pytest.raises(ValueError, match=message):
            manifold.jacobi_propagate(ham, traj, np.ones(4))

    @pytest.mark.parametrize("node", [0, 2])
    def test_node_past_square_root_of_float_range_is_named(self, node):
        # its stencil step GRAD_STEP (1 + |z|) overflows; this used to raise
        # IntegrationError "non-finite state or energy at step 0".  Only the staged step's tangent takes a stencil
        ham = DecoderPotential(random_tanh_decoder(np.random.default_rng(1), 1, 2, 1))
        ys = np.zeros((4, 1))
        ys[node] = 1e200
        traj = manifold.PhaseTrajectory(0.1, ys, np.zeros((4, 1)), np.zeros(4))
        with pytest.raises(ValueError, match=rf"^stencil step at node {node} overflows: \|\(y, p\)\| is past"):
            manifold.jacobi_propagate(ham, traj, np.ones(2))

    @pytest.mark.parametrize(
        "y,delta0,message",
        [
            # a length-3 delta0 at d = 2 used to broadcast into a (5, 4) answer
            ([0.3, -0.2], np.ones(3), r"delta0 must have shape \(4,\), got \(3,\)"),
            ([[0.3, -0.2]] * 2, np.ones(4), r"pt0 must be one phase point of shape \(2,\)"),
        ],
        ids=["delta0-length", "pt0-stack"],
    )
    def test_empirical_deviations_arguments_checked(self, y, delta0, message):
        pt = manifold.PhasePoint(y, np.full(np.shape(y), 0.1))
        with pytest.raises(ValueError, match=message):
            manifold.empirical_deviations(Oscillator(), pt, delta0, 0.1, 3)

    def test_empirical_deviations_past_float_range_rejected(self):
        # the shifted run moves 1.7e303 a step, so three steps apart over the 1e-5 shift pass the float range
        ham = manifold.GeodesicHamiltonian(manifold.MetricField(manifold.Decoder.linear(np.eye(2))))
        pt = manifold.PhasePoint([0.0, 0.0], [1.0, 0.0])
        with pytest.raises(ValueError, match="^empirical deviations are not finite$"):
            manifold.empirical_deviations(ham, pt, [0.0, 0.0, 1.7e308, 0.0], 1.0, 3)


def pool_decoder(rng, d):
    """Near-identity two-layer tanh decoder R^d -> R^(d+1), as the geodesic benchmark draws them."""
    w1 = np.vstack([np.eye(d), np.zeros((1, d))]) + 0.2 * rng.normal(size=(d + 1, d))
    w2 = np.eye(d + 1) + 0.2 * rng.normal(size=(d + 1, d + 1))
    return manifold.Decoder.mlp_tanh([w1, w2], [0.1 * rng.normal(size=d + 1), np.zeros(d + 1)])


def pool_query(index):
    """Query ``index`` of the benchmark's 30-query geodesic pool: decoder, y_a, y_b at distance 0.5, unit delta0."""
    d = 2 if index < 10 else 3
    rng = np.random.default_rng([20260, index])
    decoder = pool_decoder(rng, d)
    y_a = rng.uniform(-0.5, 0.5, size=d)
    direction = rng.normal(size=d)
    delta0 = rng.normal(size=2 * d)
    return decoder, y_a, y_a + 0.5 * direction / np.linalg.norm(direction), delta0 / np.linalg.norm(delta0)


def test_pool_geodesics_retrace_their_nodes():
    """The solve's momentum re-integrates onto y_b, with small energy drift and Jacobi gap, on all 30 queries.

    Measured maxima over the pool: endpoint error 9.7e-11 (the bound is the
    solve's tol), relative energy drift 8.2e-6 (3.0e-2 for the staged step),
    Jacobi gap 1.9e-5 (the benchmark's smallest band is 1.4e-3).
    """
    for index in range(30):
        decoder, y_a, y_b, delta0 = pool_query(index)
        field = manifold.MetricField(decoder)
        ham = manifold.GeodesicHamiltonian(field)
        p = manifold.solve_shooting(field, y_a, y_b, n_steps=32, tol=1e-8)
        pt0 = manifold.PhasePoint(y_a, p)
        traj = manifold.integrate(ham, pt0, 1.0 / 32, 32)
        assert np.linalg.norm(traj.ys[-1] - y_b) <= 1e-8
        assert np.max(np.abs(traj.energies - traj.energies[0])) <= 2e-5 * traj.energies[0]
        jac = manifold.jacobi_propagate(ham, traj, delta0)
        emp = manifold.empirical_deviations(ham, pt0, delta0, 1.0 / 32, 32)
        assert np.max(np.linalg.norm(jac - emp, axis=1)) <= 1e-4 * np.max(np.linalg.norm(emp, axis=1))


def test_pool_runs_come_back_or_raise():
    """40 steps of h = 0.05 from each pool query's momentum, then 40 of -h, return to the start or raise.

    The fixed Newton schedule returned query 18 5.8e-2 off and query 28
    4.2e8 off, both as successes.  Now 29 queries come back within 3.2e-12,
    and query 28's step 37 stays above the bound after 30 updates.
    """
    for index in range(30):
        decoder, y_a, y_b, _ = pool_query(index)
        field = manifold.MetricField(decoder)
        ham = manifold.GeodesicHamiltonian(field)
        p = manifold.solve_shooting(field, y_a, y_b, n_steps=32, tol=1e-8)
        if index == 28:
            with pytest.raises(manifold.IntegrationError, match="^relative Newton residual .* at step 37$"):
                manifold.integrate(ham, manifold.PhasePoint(y_a, p), 0.05, 40)
            continue
        there = manifold.integrate(ham, manifold.PhasePoint(y_a, p), 0.05, 40).final()
        back = manifold.integrate(ham, there, -0.05, 40).final()
        assert np.abs(back.y - y_a).max() <= 1e-10 and np.abs(back.p - p).max() <= 1e-10


def test_two_step_shot_lands_on_its_end():
    # the fixed schedule's step 1 ran 3 iterations from an O(h^2) start, and at h = 0.5 missed y_b by 2.7e-5
    field = manifold.MetricField(near_identity_decoder())
    y_b = np.array([0.8, 0.5])
    p = manifold.solve_shooting(field, np.zeros(2), y_b, n_steps=2)
    assert np.linalg.norm(shot_end(field, np.zeros(2), p, 2) - y_b) <= 1e-8


def test_converged_run_retraces_with_negative_step():
    # L_d(q1, q0, -h) = -L_d(q0, q1, h), so a step of -h from a converged step's end returns to its start
    ham = manifold.GeodesicHamiltonian(manifold.MetricField(random_tanh_decoder(np.random.default_rng(46), 3, 4, 2)))
    start = manifold.PhasePoint([0.2, -0.1, 0.3], [0.2, 0.05, -0.15])
    there = manifold.integrate(ham, start, 0.1, 12)
    back = manifold.integrate(ham, there.final(), -0.1, 12)
    np.testing.assert_allclose(back.ys[::-1], there.ys, rtol=0, atol=1e-12)
    np.testing.assert_allclose(back.ps[::-1], there.ps, rtol=0, atol=1e-12)


FINITE = st.floats(allow_nan=False, allow_infinity=False)


# d, then a point y, a momentum p and a deviation delta0 of width 2d, from all finite floats
POINTS = st.integers(1, 3).flatmap(
    lambda d: st.tuples(*(arrays(np.float64, n, elements=FINITE) for n in (d, d, 2 * d)))
)
COSTS = {"running_cost", "trajectory_cost", "hjb_residual"}


def _squares(x) -> float:
    """sum x_i^2 / 2 over Python floats: inf past the float range, and no warning."""
    return 0.5 * sum(v * v for v in np.ravel(x).tolist())


@pytest.mark.parametrize(
    "call",
    [
        "integrate",
        "leapfrog_step",
        "solve_shooting",
        "optimal_control",
        "jacobi_propagate",
        "empirical_deviations",
        "pullback_metric",
        "MetricField.solve",
        "ndm_layer",
        "running_cost",
        "trajectory_cost",
        "hjb_residual",
    ],
)
@given(point=POINTS, h=FINITE, n_steps=st.integers(1, 4))
# a node past the float range's square root: _stencil's |x|^2 overflowed
@example(point=(np.array([1e200]), np.array([0.0]), np.ones(2)), h=0.1, n_steps=2)
# a momentum whose shift by 1e-5 delta0 overflows
@example(point=(np.array([0.0]), np.array([1.79767516e308]), np.array([0.0, 1.79767516e308])), h=0.1, n_steps=2)
def test_finite_input_gives_finite_result_or_value_error(call, point, h, n_steps):
    """Each public function of manifold and control gives a finite result, +-inf for a cost, or a ValueError.

    A warning fails the test.
    """
    y, p, delta0 = point
    d = y.shape[0]
    field = manifold.MetricField(random_tanh_decoder(np.random.default_rng(d), d, d + 1, 1))
    ham = manifold.GeodesicHamiltonian(field)
    spec = control.CostSpec(_squares)
    # V = (1 + t) * _squares
    value_fn = control.ValueFunction(lambda x, t: (1.0 + t) * np.asarray(x), lambda x, t: _squares(x))

    pt = manifold.PhasePoint(y, p)

    def traj():
        return manifold.integrate(ham, pt, h, n_steps)

    run = {
        "integrate": traj,
        "leapfrog_step": lambda: manifold.leapfrog_step(ham, pt, h),
        "solve_shooting": lambda: manifold.solve_shooting(field, y, p, n_steps=n_steps),
        "optimal_control": lambda: control.optimal_control(field, y, p),
        "jacobi_propagate": lambda: manifold.jacobi_propagate(ham, traj(), delta0),
        "empirical_deviations": lambda: manifold.empirical_deviations(ham, pt, delta0, h, n_steps),
        "pullback_metric": lambda: manifold.pullback_metric(field, y),
        "MetricField.solve": lambda: field.solve(y, p),
        "ndm_layer": lambda: control.ndm_layer(field, spec, pt, h),
        "running_cost": lambda: control.running_cost(field, spec, y, p),
        "trajectory_cost": lambda: control.trajectory_cost(field, spec, [(y, p, h), (p, y, h)]),
        "hjb_residual": lambda: control.hjb_residual(field, spec, value_fn, y, h),
    }[call]
    try:
        out = run()
    except ValueError as error:
        # the package's own error, or a plain ValueError: no numpy class (LinAlgError, AxisError) escapes
        assert not isinstance(error, np.linalg.LinAlgError)
        assert not type(error).__module__.startswith("numpy")
        return
    if call == "integrate":
        assert all(np.isfinite(values).all() for values in (out.ys, out.ps, out.energies))
    elif call in ("leapfrog_step", "ndm_layer"):
        assert np.isfinite(out.y).all() and np.isfinite(out.p).all()
    elif call in COSTS:
        assert not math.isnan(out)
    else:
        assert np.isfinite(out).all()


class TestStencil:
    """Every finite difference of the engine comes from one stencil."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 9])
    def test_stacked_stencil_takes_the_norm_of_each_point(self, n):
        xs = np.random.default_rng([28, n]).normal(size=(64, n))
        points, step = manifold._stencil(xs)
        assert points.shape == (64, 2 * n, n) and step.shape == (64, 1, 1)
        for x, x_points, x_step in zip(xs, points, step, strict=True):
            assert x_step[0, 0] == manifold.GRAD_STEP * (1.0 + np.linalg.norm(x))
            shifts = x_step[0, 0] * np.eye(n)
            np.testing.assert_array_equal(x_points, np.vstack([x + shifts, x - shifts]))

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("base_step", [manifold.GRAD_STEP])
    def test_fd_gradient_equals_loop_oracle(self, seed, base_step):
        # the quotient the engine takes of values at the stencil's points is the oracle's, bit for bit
        rng = np.random.default_rng([26, seed])
        n = 1 + seed
        x = rng.normal(size=n) * 10.0 ** rng.integers(-3, 3)
        a, w, b = rng.normal(size=n), rng.normal(size=(n + 2, n)), rng.normal(size=n + 2)
        for f in (lambda v: float(np.sin(a @ v) + v @ v), lambda v: np.tanh(w @ v + b)):
            oracle = loop_fd_gradient(f, x, base_step)
            points, step = manifold._stencil(x)
            values = np.array([f(point) for point in points], dtype=float).reshape(2 * n, -1)
            np.testing.assert_array_equal(manifold._central(values, step).reshape(oracle.shape), oracle)


class TestPhasePoint:
    def test_mismatched_lengths(self):
        with pytest.raises(ValueError, match="equal length"):
            manifold.PhasePoint(np.zeros(2), np.zeros(3))


class TestStackContract:
    """A (B, d) stack runs the per-point kernels slice by slice, so it is bit-equal to B single-point calls."""

    @pytest.mark.parametrize("kind", ["mlp-tanh", "linear"])
    def test_batched_jet_equals_pointwise(self, kind):
        rng = np.random.default_rng(21)
        dec = random_tanh_decoder(rng, 3, 4, 2)
        dec = {"mlp-tanh": dec, "linear": manifold.Decoder.linear(dec.layers[0][0])}[kind]
        ys = rng.uniform(-0.5, 0.5, size=(2, 5, 3))
        out, jac = dec._forward(ys)
        assert out.shape == (2, 5, 4) and jac.shape == (2, 5, 4, 3)
        np.testing.assert_array_equal(dec(ys), out)
        for idx in np.ndindex(2, 5):
            point_out, point_jac = dec._forward(ys[idx])
            np.testing.assert_array_equal(out[idx], point_out)
            np.testing.assert_array_equal(jac[idx], point_jac)

    @staticmethod
    def seed_22_rows(scale):
        """The three-layer tanh decoder of seed 22, with four starts whose momenta are ``scale`` normal draws."""
        rng = np.random.default_rng(22)
        ham = manifold.GeodesicHamiltonian(manifold.MetricField(random_tanh_decoder(rng, 3, 4, 2)))
        return ham, rng.uniform(-0.5, 0.5, size=(4, 3)), scale * rng.normal(size=(4, 3))

    def test_stacked_integrate_equals_single_runs(self):
        # every step of these rows converges, each row after its own number of updates (18 to 34 over
        # the 16 steps): a row that meets the bound keeps its iterate while the others update, so it
        # stays bit-equal to its single run
        ham, y0, p0 = self.seed_22_rows(0.1)
        stacked = manifold.integrate(ham, manifold.PhasePoint(y0, p0), 0.05, 16)
        assert stacked.ys.shape == stacked.ps.shape == (17, 4, 3)
        assert stacked.energies.shape == (17, 4)
        for b in range(4):
            single = manifold.integrate(ham, manifold.PhasePoint(y0[b], p0[b]), 0.05, 16)
            np.testing.assert_array_equal(stacked.ys[:, b], single.ys)
            np.testing.assert_array_equal(stacked.ps[:, b], single.ps)
            np.testing.assert_array_equal(stacked.energies[:, b], single.energies)

    def test_stacked_shots_equal_single_shots(self):
        # momenta of 0.3 normal draws, whose steps all converge, each row after its own number of updates
        rng = np.random.default_rng(23)
        mf = manifold.MetricField(near_identity_decoder())
        y_a, momenta = np.array([0.1, -0.2]), 0.3 * rng.normal(size=(5, 2))
        ends = shot_end(mf, np.tile(y_a, (5, 1)), momenta, 12)
        for end, p in zip(ends, momenta, strict=True):
            np.testing.assert_array_equal(end, shot_end(mf, y_a, p, 12))

    def test_unconverged_rows_raise_at_their_step(self):
        # the rows these stack tests used to run: the fixed Newton schedule returned them as successes, with
        # relative step residuals up to 2e+1 and energy drifts up to 1.1e5.  Each now raises at the step whose
        # residual stays above the bound after 30 updates, and a stack at the first such step among its rows
        ham, y0, p0 = self.seed_22_rows(0.5)
        for b, step in ((0, 6), (1, 5), (3, 15)):
            message = f"^relative Newton residual .* after 30 updates at step {step}$"
            with pytest.raises(manifold.IntegrationError, match=message) as info:
                manifold.integrate(ham, manifold.PhasePoint(y0[b], p0[b]), 0.05, 16)
            before = manifold.integrate(ham, manifold.PhasePoint(y0[b], p0[b]), 0.05, step - 1)
            np.testing.assert_array_equal(info.value.y, before.ys[-1])
            np.testing.assert_array_equal(info.value.p, before.ps[-1])
        manifold.integrate(ham, manifold.PhasePoint(y0[2], p0[2]), 0.05, 16)
        with pytest.raises(manifold.IntegrationError, match="at step 5$"):
            manifold.integrate(ham, manifold.PhasePoint(y0, p0), 0.05, 16)
        mf = manifold.MetricField(near_identity_decoder())
        momenta = np.random.default_rng(23).normal(size=(5, 2))
        for b, step in ((1, 7), (2, 6)):
            with pytest.raises(manifold.IntegrationError, match=f"at step {step}$"):
                shot_end(mf, np.array([0.1, -0.2]), momenta[b], 12)

    def test_stacked_tangents_equal_single_steps(self):
        rng = np.random.default_rng(24)
        ham = manifold.GeodesicHamiltonian(manifold.MetricField(near_identity_decoder()))
        traj = manifold.integrate(ham, manifold.PhasePoint([0.1, -0.2], [0.3, 0.4]), 0.1, 5)
        deltas = manifold.jacobi_propagate(ham, traj, rng.normal(size=4))
        for k in range(5):
            nodes = slice(k, k + 2)
            step = manifold.PhaseTrajectory(traj.step, traj.ys[nodes], traj.ps[nodes], traj.energies[nodes])
            np.testing.assert_array_equal(manifold.jacobi_propagate(ham, step, deltas[k])[1], deltas[k + 1])

    def test_geometry_is_derived_once_per_node(self):
        # one decoder pass at the start and one at each Newton iterate, the last of which ends the step:
        # at h = 0.1 every step of this run takes two updates to meet the bound, so 3 passes.  G is formed
        # at the start for step 1's start, and once for each node as one stack per block of nodes, which
        # checks it; no G is checked alone
        dec = near_identity_decoder()
        field = manifold.MetricField(dec)
        shapes, products, nodes, contractions = [], [], [], []
        forward, product, geometry, curvature = dec._forward, field._product, field._geometry, dec._curvature
        dec._forward = lambda y: shapes.append(np.shape(y)) or forward(y)
        field._product = lambda y, jac: products.append(np.shape(y)) or product(y, jac)
        field._geometry = lambda y, jac: nodes.append(np.shape(y)) or geometry(y, jac)
        dec._curvature = lambda y, c: contractions.append((np.shape(y), np.shape(c))) or curvature(y, c)
        ham = manifold.GeodesicHamiltonian(field)
        pt = manifold.PhasePoint([0.1, -0.2], [0.3, 0.4])
        for n in (1, 2, 7):
            shapes.clear(), products.clear()
            traj = manifold.integrate(ham, pt, 0.1, n)
            assert shapes == [(2,)] * (1 + 3 * n) and products == [(2,), (n + 1, 2)]
        shapes.clear(), products.clear()
        manifold.jacobi_propagate(ham, traj, np.ones(4))
        # the exact tangents re-run no step: one pass over the 8 recorded nodes, and one contraction there
        # against each node's two chords (as a step's start and as its end); no node is checked again
        assert shapes == [(8, 2)] and products == [(8, 2)] and contractions == [((8, 2), (2, 8, 3))]
        shapes.clear(), products.clear()
        # a fresh point runs the base and shifted points as a stack of two
        manifold.empirical_deviations(ham, manifold.PhasePoint(pt.y, pt.p), np.ones(4), 0.1, 7)
        assert shapes == [(2, 2)] * 22 and products == [(2, 2), (8, 2, 2)] and nodes == []
        shapes.clear(), products.clear()
        # pt carries integrate's 7-step run from it, so only the shifted point runs, as one row
        manifold.empirical_deviations(ham, pt, np.ones(4), 0.1, 7)
        assert shapes == [(2,)] * 22 and products == [(2,), (8, 2)] and nodes == []

    @pytest.mark.parametrize("h, scale", [(0.1, 1e-4), (1e-3, 1e-2), (1e-4, 1e-8)])
    def test_short_step_stops_at_round_off(self, h, scale):
        # |h p| of 5e-6 to 5e-13 against |J| |f| near 1: the residual's rounding is above 1e-12 |h p|, so
        # the bound alone would run these steps to 30 updates and raise.  Each stops at the rounding
        # floor and moves by h G^-1 p
        ham = manifold.GeodesicHamiltonian(manifold.MetricField(near_identity_decoder()))
        pt = manifold.PhasePoint([0.1, -0.2], scale * np.array([0.3, 0.4]))
        traj = manifold.integrate(ham, pt, h, 8)
        move = 8 * h * ham.metric_field.solve(pt.y, pt.p)
        np.testing.assert_allclose(traj.ys[-1] - pt.y, move, rtol=1e-3)

    def test_quartic_start_needs_one_update_per_step(self):
        # from step 5 on, the start extrapolated through the last five nodes is close enough that one
        # update meets the bound (with a 100x margin here), so each step makes 2 passes: the start's and
        # the update's.  Every step makes at least 2, so 56 passes over steps 5 to 32 means 2 at each
        dec, y_a, y_b, _ = pool_query(10)
        field = manifold.MetricField(dec)
        ham = manifold.GeodesicHamiltonian(field)
        pt = manifold.PhasePoint(y_a, manifold.pullback_metric(field, y_a) @ (y_b - y_a))
        passes, forward = [], dec._forward
        dec._forward = lambda y: passes.append(np.shape(y)) or forward(y)
        manifold.integrate(ham, pt, 1 / 32, 4)
        first = len(passes)
        passes.clear()
        manifold.integrate(ham, pt, 1 / 32, 32)
        assert len(passes) - first == 2 * 28


def record_passes(decoder) -> list:
    """The shape of each point the decoder's forward pass takes from now on."""
    shapes, forward = [], decoder._forward
    decoder._forward = lambda y: shapes.append(np.shape(y)) or forward(y)
    return shapes


class TestCarriedBaseRun:
    """``empirical_deviations`` from a point that ``integrate`` ran takes that run's rows as its base rows."""

    @staticmethod
    def recorded(index=12):
        """Pool query ``index``: its field, Hamiltonian, delta0, a point recorded by integrate, and the trajectory."""
        decoder, y_a, y_b, delta0 = pool_query(index)
        field = manifold.MetricField(decoder)
        ham = manifold.GeodesicHamiltonian(field)
        pt0 = manifold.PhasePoint(y_a, manifold.solve_shooting(field, y_a, y_b, n_steps=32, tol=1e-8))
        return field, ham, delta0, pt0, manifold.integrate(ham, pt0, 1 / 32, 32)

    def test_carried_result_is_a_fresh_points_from_one_row_passes(self):
        for index in range(30):
            field, ham, delta0, pt0, traj = self.recorded(index)
            d = pt0.y.shape[0]
            fresh = manifold.PhasePoint(pt0.y.copy(), pt0.p.copy())
            passes = record_passes(field.decoder)
            carried = manifold.empirical_deviations(ham, pt0, delta0, 1 / 32, 32)
            assert passes and set(passes) == {(d,)}
            passes.clear()
            expected = manifold.empirical_deviations(ham, fresh, delta0, 1 / 32, 32)
            assert passes and set(passes) == {(2, d)}
            assert carried.tobytes() == expected.tobytes()

    STALE = [
        "y-written", "y-reassigned", "p-written", "p-reassigned", "another-h", "another-n-steps",
        "another-field", "with-a-potential", "eps-reg-changed", "decoder-reassigned", "layers-reassigned",
        "ys-written", "ys-reassigned", "trajectory-collected", "copied", "unpickled", "integrated-again",
    ]

    @pytest.mark.parametrize("stale", STALE)
    def test_stale_record_takes_the_stack(self, stale):
        field, ham, delta0, pt0, traj = self.recorded()
        h, n_steps = 1 / 32, 32
        if stale == "y-written":
            pt0.y[0] += 1e-3
        elif stale == "y-reassigned":  # the same bytes in another array
            pt0.y = pt0.y.copy()
        elif stale == "p-written":
            pt0.p[1] -= 1e-3
        elif stale == "p-reassigned":
            pt0.p = pt0.p.copy()
        elif stale == "another-h":
            h = 1 / 40
        elif stale == "another-n-steps":
            n_steps = 31
        elif stale == "another-field":  # the same decoder and eps_reg
            field = manifold.MetricField(field.decoder)
            ham = manifold.GeodesicHamiltonian(field)
        elif stale == "with-a-potential":  # the same field
            ham = control.ReducedHamiltonian(field, control.CostSpec(lambda z: 0.5 * float(z @ z)))
        elif stale == "eps-reg-changed":
            field.eps_reg = 1e-3
        elif stale == "decoder-reassigned":
            field.decoder = pool_query(13)[0]
        elif stale == "layers-reassigned":  # the constructor's checks are bypassed, but f is another map
            (w1, b1), (w2, b2) = field.decoder.layers
            field.decoder.layers = ((w1, b1), (2.0 * w2, b2))
        elif stale == "ys-written":
            traj.ys[5, 0] += 1e-3
        elif stale == "ys-reassigned":  # the same bytes in another array
            traj.ys = traj.ys.copy()
        elif stale == "trajectory-collected":
            ref = weakref.ref(traj)
            del traj
            assert ref() is None
        elif stale == "copied":
            pt0 = copy.copy(pt0)
        elif stale == "unpickled":
            pt0 = pickle.loads(pickle.dumps(pt0))
        else:  # the record is that of the latest run
            manifold.integrate(ham, pt0, 1 / 40, 32)
        d = pt0.y.shape[0]
        passes = record_passes(field.decoder)
        out = manifold.empirical_deviations(ham, pt0, delta0, h, n_steps)
        # stacks of two rows only (and, with a potential, their gradients' stencils)
        assert (2, d) in passes and (d,) not in passes
        fresh = manifold.PhasePoint(pt0.y.copy(), pt0.p.copy())
        assert out.tobytes() == manifold.empirical_deviations(ham, fresh, delta0, h, n_steps).tobytes()

    def test_only_a_one_point_chord_run_without_potential_is_recorded(self):
        field, ham, _, pt0, _ = self.recorded()
        assert pt0._run is not None
        reduced = control.ReducedHamiltonian(field, control.CostSpec(lambda z: 0.5 * float(z @ z)))
        stacked = manifold.PhasePoint(np.stack([pt0.y, pt0.y]), np.stack([pt0.p, pt0.p]))
        for hamiltonian, pt in ((Oscillator(), pt0), (reduced, pt0), (ham, stacked)):
            pt = manifold.PhasePoint(pt.y, pt.p)
            manifold.integrate(hamiltonian, pt, 1 / 32, 8)
            assert pt._run is None

    def test_record_is_private_to_the_point(self):
        _, _, _, pt0, _ = self.recorded()
        rebuilt = manifold.PhasePoint(pt0.y, pt0.p)
        assert pt0._run is not None and rebuilt._run is None
        assert rebuilt == pt0 and repr(rebuilt) == repr(pt0)
        for copied in (pickle.loads(pickle.dumps(pt0)), copy.copy(pt0), copy.deepcopy(pt0)):
            assert copied._run is None

    def test_diverging_shifted_run_raises_the_stacks_error(self):
        # the base run is smooth; the shifted momentum, 0.3 + 1e-5 * 1e5, runs y_0 into the tanh's saturation,
        # where G and the Newton matrix are singular (eps_reg = 0), and its step 14 raises
        field = manifold.MetricField(saturating_decoder(), eps_reg=0.0)
        ham = manifold.GeodesicHamiltonian(field)
        pt0 = manifold.PhasePoint([0.1, -0.2], [0.3, 0.4])
        traj = manifold.integrate(ham, pt0, 0.05, 40)  # held, so that pt0's record stays valid
        delta0 = np.array([0.0, 0.0, 1e5, 0.0])
        fresh = manifold.PhasePoint(pt0.y.copy(), pt0.p.copy())
        with pytest.raises(manifold.IntegrationError, match="^singular Newton matrix .* at step 14$") as expected:
            manifold.empirical_deviations(ham, fresh, delta0, 0.05, 40)
        passes = record_passes(field.decoder)
        with pytest.raises(manifold.IntegrationError) as raised:
            manifold.empirical_deviations(ham, pt0, delta0, 0.05, 40)
        # the one-row try, then the stack (whose lost row then reruns alone to name its Newton matrix)
        assert passes[0] == (2,) and (2, 2) in passes
        assert str(raised.value) == str(expected.value) and raised.value.step == expected.value.step
        assert raised.value.y.tobytes() == expected.value.y.tobytes()
        assert raised.value.p.tobytes() == expected.value.p.tobytes()
        assert raised.value.drift is expected.value.drift is None


class TestOneLayerDecoder:
    A = np.array([[1.0, 0.3], [0.0, 1.2], [0.4, -0.2]])

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

    def test_non_finite_start_fails_at_step_zero(self):
        # node 0's energy overflows: it used to warn in multiply, then fail at step 1 with drift nan
        ham = manifold.GeodesicHamiltonian(manifold.MetricField(near_identity_decoder()))
        with pytest.raises(manifold.IntegrationError, match="^non-finite state or energy at step 0$") as info:
            manifold.integrate(ham, manifold.PhasePoint([0.0, 0.0], [1e200, 0.0]), 0.1, 3)
        err = info.value
        assert (err.step, err.y, err.p, err.drift) == (0, None, None, None)

    @pytest.mark.parametrize("seed", range(6))
    def test_drift_to_non_finite_y_names_its_step(self, seed):
        # y leaves the float range within one step; at(y) used to raise a plain ValueError.
        # The tanh saturates along the way, where G is eps_reg I and y moves at |p| / eps_reg
        rng = np.random.default_rng(seed)
        w1 = np.vstack([np.eye(2), np.zeros((1, 2))]) + 0.3 * rng.normal(size=(3, 2))
        w2 = np.eye(3) + 0.3 * rng.normal(size=(3, 3))
        dec = manifold.Decoder.mlp_tanh([w1, w2], [0.1 * rng.normal(size=3), np.zeros(3)])
        field = manifold.MetricField(dec)
        # the first step of the shot from the flat-chart guess G(y_a)(y_b - y_a) towards y_b = (1e302, 0), as a
        # stack of one; integrate would fail at step 0 instead, since that momentum's energy overflows
        p = manifold.pullback_metric(field, [0.0, 0.0]) @ [1e302, 0.0]
        pt = manifold.PhasePoint([[0.0, 0.0]], [p])
        with pytest.raises(manifold.IntegrationError, match="^non-finite state or energy at step 1$") as info:
            manifold.leapfrog_step(manifold.GeodesicHamiltonian(field), pt, 0.25)
        assert info.value.step == 1
        np.testing.assert_array_equal(info.value.y, [[0.0, 0.0]])
        assert np.isfinite(info.value.p).all()

    def test_singular_metric_at_finite_y_is_not_renamed(self):
        ham = manifold.GeodesicHamiltonian(manifold.MetricField(saturating_decoder(), eps_reg=0.0))
        with pytest.raises(manifold.SingularMetricError):
            manifold.integrate(ham, manifold.PhasePoint([40.0, 2.0], [1.0, 0.0]), 0.1, 3)

    def test_shooting_past_float_range_fails_at_step_zero(self):
        # the straight line's action gradient has a norm past the float range: the solve fails on its
        # starting line, before any step, where the flat guess used to overflow its start's energy
        mf = manifold.MetricField(near_identity_decoder())
        message = "^the action's gradient norm on the straight line is not finite: inf$"
        with pytest.raises(manifold.ShootingError, match=message) as info:
            manifold.solve_shooting(mf, [0.0, 0.0], [1e200, 0.0])
        assert info.value.residuals == [math.inf] and info.value.p is None

    def test_first_chord_momentum_past_float_range_rejected(self):
        # one step has no interior node to solve for, so the solve converges at once; its chord y_b - y_a overflows
        mf = manifold.MetricField(manifold.Decoder.linear(np.eye(2)))
        with pytest.raises(manifold.ShootingError, match="^the momentum of the first chord is not finite: ") as info:
            manifold.solve_shooting(mf, [-1.7e308, 0.0], [1.7e308, 0.0], n_steps=1)
        assert info.value.residuals == [0.0] and not np.isfinite(info.value.p).any()

    def test_straight_line_past_float_range_reports_its_state(self):
        # the straight line (1 - t) y_a + t y_b has finite nodes and exact ends; y_a + t (y_b - y_a) made
        # node 0 NaN once y_b - y_a overflowed, so the error reported a NaN norm and a NaN momentum
        mf = manifold.MetricField(manifold.Decoder.linear(np.eye(2)))
        y_a, y_b = [-1.7e308, 0.0], [1.7e308, 0.0]
        with pytest.raises(manifold.ShootingError, match="^the action's gradient norm on the straight line") as info:
            manifold.solve_shooting(mf, y_a, y_b, n_steps=4)
        assert info.value.residuals == [math.inf]
        with pytest.raises(manifold.ShootingError, match="^the momentum of the first chord is not finite: ") as info:
            manifold.solve_shooting(mf, y_a, y_b, n_steps=1)
        np.testing.assert_equal(info.value.p, [math.inf, math.nan])  # J^T (y_b - y_a) with y_b - y_a = [inf, 0]

    @staticmethod
    def steep_field():
        """A 1 -> 1 tanh decoder of weight 100 and eps_reg = 0: tanh' is exactly 0 from |y| ~ 0.2 on."""
        decoder = manifold.Decoder.mlp_tanh([np.array([[100.0]]), np.array([[1.0]])], [np.zeros(1), np.zeros(1)])
        return manifold.MetricField(decoder, eps_reg=0)

    def test_singular_newton_matrix_names_itself(self):
        # step 1's second iterate lies where tanh' is 0, so J0^T J1 + 0 I is 0: np.linalg.solve raised a bare
        # LinAlgError, and the gufunc's NaN read as a non-finite state
        ham = manifold.GeodesicHamiltonian(self.steep_field())
        message = r"^singular Newton matrix J0\^T J1 \+ eps_reg I at step 1$"
        # in the last stack the other row updates on after the lost one turns NaN, rebuilding its matrix
        for pt in (
            manifold.PhasePoint([0.0], [1e4]),
            manifold.PhasePoint([[0.0], [0.0]], [[1.0], [1e4]]),
            manifold.PhasePoint([[0.0], [0.0]], [[1e4], [200.0]]),
        ):
            with pytest.raises(manifold.IntegrationError, match=message) as info:
                manifold.integrate(ham, pt, 0.1, 3)
            err = info.value
            assert err.step == 1 and err.drift == 0.0
            np.testing.assert_array_equal(err.y, pt.y)
            np.testing.assert_array_equal(err.p, pt.p)

    def test_singular_shooting_hessian_raises_shooting_error(self):
        # from 0.5 to 1.0 every node is saturated: J = 0, so the Hessian is 0 and the gradient's norm 0
        message = r"^singular Gauss-Newton Hessian at gradient norm 0\.000e\+00$"
        with pytest.raises(manifold.ShootingError, match=message) as info:
            manifold.solve_shooting(self.steep_field(), [0.5], [1.0], 4)
        assert info.value.residuals == [0.0] and info.value.p is None

    @pytest.mark.parametrize("case", ["integrate", "solve_shooting"])
    def test_singular_system_is_the_packages_error(self, case):
        field = self.steep_field()
        ham = manifold.GeodesicHamiltonian(field)
        run = {
            "integrate": lambda: manifold.integrate(ham, manifold.PhasePoint([0.0], [1e4]), 0.1, 3),
            "solve_shooting": lambda: manifold.solve_shooting(field, [0.5], [1.0], 4),
        }[case]
        with pytest.raises(ValueError) as info:
            run()
        assert type(info.value).__module__ == "maniflow.manifold"

    def test_shooting_error_keeps_residual_history(self, monkeypatch):
        monkeypatch.setattr(manifold, "_SHOOTING_ITERATIONS", 3)
        mf = manifold.MetricField(near_identity_decoder())
        y_a, y_b = np.zeros(2), np.array([0.9, 0.4])
        with pytest.raises(manifold.ShootingError) as info:
            manifold.solve_shooting(mf, y_a, y_b, n_steps=8, tol=0.0)
        residuals = info.value.residuals
        # the action's gradient on the straight line, node by node
        nodes = y_a + np.linspace(0.0, 1.0, 9)[:, None] * (y_b - y_a)
        out, jac = mf.decoder._forward(nodes)
        grad = [
            (jac[k].T @ (2 * out[k] - out[k - 1] - out[k + 1]) + mf.eps_reg * (2 * nodes[k] - nodes[k - 1] - nodes[k + 1])) * 8
            for k in range(1, 8)
        ]
        assert len(residuals) == 4
        assert residuals[0] == pytest.approx(np.linalg.norm(grad), rel=1e-9)
        assert all(later <= earlier for earlier, later in zip(residuals, residuals[1:]))
        assert residuals[-1] <= 1e-6 * residuals[0]
        assert str(info.value).endswith(f"final residual {residuals[-1]:.3e}")

    def test_shooting_error_keeps_last_momentum(self, monkeypatch):
        # the momentum of the nodes the solve stopped at, which after 3 iterations already retrace the geodesic
        mf = manifold.MetricField(near_identity_decoder())
        y_a, y_b = np.zeros(2), np.array([0.9, 0.4])
        with monkeypatch.context() as patch:
            patch.setattr(manifold, "_SHOOTING_ITERATIONS", 3)
            with pytest.raises(manifold.ShootingError) as info:
                manifold.solve_shooting(mf, y_a, y_b, n_steps=8, tol=0.0)
        assert np.linalg.norm(shot_end(mf, y_a, info.value.p, 8) - y_b) <= 1e-8
        np.testing.assert_allclose(info.value.p, manifold.solve_shooting(mf, y_a, y_b, n_steps=8), rtol=1e-8)


class TestBlockCheck:
    """The chord step checks its nodes a block at a time; each error, with its step, state and drift, is the
    one the node-by-node check raised, whose values the expected ones below are."""

    @staticmethod
    def saturating_run(p, n_steps, passes=None):
        """integrate from y = 0 at h = 1 on a 2 -> 3 tanh decoder with eps_reg = 0: at p = (1, 0.3), step 4's
        Newton matrix is singular; ``passes`` collects one entry per decoder pass."""
        rng = np.random.default_rng(2)
        w1 = np.vstack([np.eye(2), np.zeros((1, 2))]) + rng.normal(size=(3, 2))
        w2 = np.eye(3) + rng.normal(size=(3, 3))
        dec = manifold.Decoder.mlp_tanh([w1, w2], [0.1 * rng.normal(size=3), np.zeros(3)])
        if passes is not None:
            forward = dec._forward
            dec._forward = lambda y: passes.append(np.shape(y)) or forward(y)
        ham = manifold.GeodesicHamiltonian(manifold.MetricField(dec, eps_reg=0.0))
        p = np.array(p)
        with pytest.raises(manifold.IntegrationError) as info:
            manifold.integrate(ham, manifold.PhasePoint(np.zeros(p.shape), p), 1.0, n_steps)
        return info.value

    def test_long_run_reports_an_early_failure_within_a_block(self):
        # 10,000 steps asked for: the run stops at the block that holds step 4's lost node, so it makes no
        # more decoder passes than a run of 4 + _CHECK_BLOCK steps, which raises the same error
        passes, bound = [], []
        err = self.saturating_run([1.0, 0.3], 10_000, passes)
        assert (type(err), str(err), err.step) == (
            manifold.IntegrationError, "singular Newton matrix J0^T J1 + eps_reg I at step 4", 4
        )
        np.testing.assert_array_equal(err.y, [0.990545154507049, -0.5453078956465572])
        np.testing.assert_array_equal(err.p, [0.3072484238931239, 0.05639702158788998])
        assert err.drift == 0.00041664106911987187
        short = self.saturating_run([1.0, 0.3], 4 + manifold._CHECK_BLOCK, bound)
        assert (str(short), short.step, short.drift) == (str(err), err.step, err.drift)
        assert len(passes) <= len(bound)

    def test_stacked_run_names_its_bad_rows_error(self):
        # row 0 runs on; row 1 is the single run above, whose lost node the stack's rerun names
        err = self.saturating_run([[1e-3, 3e-4], [1.0, 0.3]], 500)
        assert (str(err), err.step) == ("singular Newton matrix J0^T J1 + eps_reg I at step 4", 4)
        np.testing.assert_array_equal(
            err.y, [[7.085623165697521e-04, -4.217054195198282e-04], [0.990545154507049, -0.5453078956465572]]
        )
        np.testing.assert_array_equal(
            err.p, [[1.0000745813704174e-03, 3.0004195886459587e-04], [0.3072484238931239, 0.05639702158788998]]
        )
        assert err.drift == 0.00041664106911987187

    def test_task_cost_sees_no_output_of_a_non_finite_y(self):
        # with a linear decoder G stays finite at y = inf: step 1 leaves the float range, and the node check
        # used to take the potential's gradient and value there first
        finite = []

        def cost(z):
            finite.append(bool(np.isfinite(z).all()))
            return 0.5 * float(z @ z)

        ham = control.ReducedHamiltonian(manifold.MetricField(manifold.Decoder.linear(np.eye(2))), control.CostSpec(cost))
        with pytest.raises(manifold.IntegrationError, match="^non-finite state or energy at step 1$") as info:
            manifold.integrate(ham, manifold.PhasePoint([0.0, 0.0], [1e150, 0.0]), 1e160, 100)
        err = info.value
        assert (err.step, err.drift) == (1, 0.0)
        np.testing.assert_array_equal(err.y, [0.0, 0.0])
        np.testing.assert_array_equal(err.p, [1e150, 0.0])
        assert finite and all(finite)

    def test_task_cost_error_past_a_bad_node_gives_way_to_the_node(self):
        # node 0's energy overflows, and step 1 lands at y = 1e308, whose stencil step is inf: a cost that
        # raises there would have hidden node 0's error, which the node-by-node check raised before step 1
        def cost(z):
            if not np.isfinite(z).all():
                raise ValueError("task cost of a non-finite output")
            return 0.5 * float(z @ z)

        ham = control.ReducedHamiltonian(manifold.MetricField(manifold.Decoder.linear(np.eye(2))), control.CostSpec(cost))
        with pytest.raises(manifold.IntegrationError, match="^non-finite state or energy at step 0$") as info:
            manifold.integrate(ham, manifold.PhasePoint([0.0, 0.0], [1e300, 0.0]), 1e8, 100)
        assert (info.value.step, info.value.y, info.value.p, info.value.drift) == (0, None, None, None)
