"""Tests for spin energies, Gibbs attention, and micro updates."""

import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from maniflow import spins


def unit_spins(rng, n, d):
    s = rng.normal(size=(n, d))
    return s / np.linalg.norm(s, axis=1, keepdims=True)


def brute_two_body(system):
    """Double-loop oracle for the pair + field energy."""
    j = 0.5 * (system.couplings + system.couplings.T)
    s = system.spins
    e = 0.0
    for i in range(len(s)):
        for jdx in range(i + 1, len(s)):
            e -= j[i, jdx] * float(s[i] @ s[jdx])
        e -= float(system.fields[i] @ s[i])
    return e


def ffn_reference(h, bath):
    """The feed-forward target (h + W2 tanh(W1 h + b1)) / ||.|| of one spin h alone."""
    u = bath.W1 @ h if bath.b1 is None else bath.W1 @ h + bath.b1
    t = h + bath.W2 @ np.tanh(u)
    return t / np.linalg.norm(t)


class TestSpinValidation:
    def test_unit_spin_accepted(self):
        assert spins.SpinSystem(np.array([[1.0, 0.0]]), np.zeros((1, 1))).spins.tolist() == [[1.0, 0.0]]

    def test_norm_tolerance(self):
        spins.SpinSystem(np.array([[0.0, 1.0], [1.0 + 5e-10, 0.0]]), np.zeros((2, 2)))
        with pytest.raises(ValueError, match="^spin 1 has norm 1.000000005, expected 1 within 1e-09$"):
            spins.SpinSystem(np.array([[0.0, 1.0], [1.0 + 5e-9, 0.0]]), np.zeros((2, 2)))

    def test_system_names_bad_spin(self):
        s = np.array([[1.0, 0.0], [0.5, 0.5]])
        with pytest.raises(ValueError, match="spin 1"):
            spins.SpinSystem(s, np.zeros((2, 2)))

    def test_couplings_shape(self):
        s = np.eye(2)
        with pytest.raises(ValueError, match="couplings"):
            spins.SpinSystem(s, np.zeros((3, 3)))

    def test_couplings_finite(self):
        s = np.eye(2)
        j = np.array([[0.0, np.inf], [0.0, 0.0]])
        with pytest.raises(ValueError, match="finite"):
            spins.SpinSystem(s, j)

    def test_fields_shape(self):
        with pytest.raises(ValueError, match="fields"):
            spins.SpinSystem(np.eye(2), np.zeros((2, 2)), fields=np.zeros(2))

    def test_one_spin_shapes(self):
        system = spins.SpinSystem(np.array([0.6, 0.8]), np.zeros((1, 1)))
        assert system.spins.shape == (1, 2)

    # a NaN norm compares False against any tolerance, so it must fail the check, not pass it
    @pytest.mark.parametrize(
        "vec",
        [[np.nan, 0.0], [np.nan, np.nan], [np.inf, 0.0], [0.5, 0.0], [1e300, 0.0]],
        ids=["nan", "all-nan", "inf", "short", "huge"],
    )
    def test_spin_off_unit_norm_rejected(self, vec):
        with pytest.raises(ValueError, match="^spin 1 has norm .*, expected 1 within 1e-09$"):
            spins.SpinSystem(np.array([[0.0, 1.0], vec]), np.zeros((2, 2)))

    @pytest.mark.parametrize(
        "row, fields, message",
        [
            ([np.nan, 0.0], None, "spin 1 has norm"),
            ([np.inf, 0.0], None, "spin 1 has norm"),
            ([1e300, 0.0], None, "spin 1 has norm inf"),
            ([0.0, 1.0], [[0.0, 0.0], [np.inf, 0.0]], "fields must be finite"),
            ([0.0, 1.0], [[0.0, -np.inf], [0.0, 0.0]], "fields must be finite"),
            ([0.0, 1.0], [[np.nan, 0.0], [0.0, 0.0]], "fields must be finite"),
        ],
        ids=["nan-spin", "inf-spin", "huge-spin", "inf-field", "minus-inf-field", "nan-field"],
    )
    def test_system_rejects_non_finite(self, row, fields, message):
        s = np.array([[1.0, 0.0], row])
        with pytest.raises(ValueError, match=message):
            spins.SpinSystem(s, np.zeros((2, 2)), fields=None if fields is None else np.array(fields))

    # numpy 2 reprs a scalar as np.float64(...); a message shows the plain number
    @pytest.mark.parametrize("vec, norm", [([np.nan, 0.0], "nan"), ([1.5, 0.0], "1.5")], ids=["nan", "norm-1.5"])
    def test_norm_reported_as_plain_number(self, vec, norm):
        with pytest.raises(ValueError) as system_err:
            spins.SpinSystem(np.array([[1.0, 0.0], vec]), np.zeros((2, 2)))
        assert str(system_err.value) == f"spin 1 has norm {norm}, expected 1 within 1e-09"


class TestAttentionCouplings:
    def test_scaling(self):
        q = np.array([[1.0, 0.0], [0.0, 1.0]])
        k = np.array([[2.0, 0.0], [0.0, 3.0]])
        j = spins.attention_couplings(q, k)
        np.testing.assert_allclose(j, np.array([[2.0, 0.0], [0.0, 3.0]]) / np.sqrt(2.0))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            spins.attention_couplings(np.zeros((2, 2)), np.zeros((3, 2)))

    @pytest.mark.parametrize(
        "q, k, message",
        [
            (np.full((2, 2), 1e200), np.full((2, 2), 1e200), "a query-key coupling overflows the float range"),
            (np.array([[1e200, 1e200]]), np.array([[1e200, -1e200]]), "a query-key coupling overflows the float range"),
            (np.array([[np.nan, 0.0], [0.0, 1.0]]), np.eye(2), "queries must be finite"),
            (np.eye(2), np.array([[1.0, 0.0], [0.0, np.inf]]), "keys must be finite"),
        ],
        ids=["overflow", "inf-minus-inf", "nan-query", "inf-key"],
    )
    def test_non_finite_rejected(self, q, k, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            spins.attention_couplings(q, k)


class TestEnergies:
    def test_two_body_matches_brute_force(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n, d = int(rng.integers(2, 7)), int(rng.integers(2, 5))
            sys0 = spins.SpinSystem(
                unit_spins(rng, n, d),
                rng.normal(size=(n, n)),
                fields=rng.normal(size=(n, d)),
            )
            np.testing.assert_allclose(
                spins.two_body_energy(sys0), brute_two_body(sys0), rtol=1e-12
            )

    def test_asymmetric_couplings_match_symmetrised(self):
        rng = np.random.default_rng(9)
        s = unit_spins(rng, 4, 3)
        j = rng.normal(size=(4, 4))
        raw = spins.SpinSystem(s, j)
        sym = spins.SpinSystem(s, 0.5 * (j + j.T))
        np.testing.assert_allclose(
            spins.two_body_energy(raw), spins.two_body_energy(sym), rtol=1e-12
        )

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            n, d = 5, 3
            s = unit_spins(rng, n, d)
            j = rng.normal(size=(n, n))
            h = rng.normal(size=(n, d))
            grad = spins.energy_gradient(spins.SpinSystem(s, j, fields=h))
            step = 1e-6
            for i in range(n):
                for a in range(d):
                    plus = s.copy()
                    minus = s.copy()
                    plus[i, a] += step
                    minus[i, a] -= step
                    fd = (
                        spins.lattice_energy(j, plus, h)
                        - spins.lattice_energy(j, minus, h)
                    ) / (2 * step)
                    assert abs(fd - grad[i, a]) <= 1e-5 * max(1.0, abs(fd))

    @pytest.mark.parametrize(
        "couplings, fields",
        [
            (np.full((3, 3), 1e308), None),
            (np.zeros((3, 3)), np.full((3, 1), 1e308)),
            (np.full((3, 3), 5e307), np.full((3, 1), 1e307)),
        ],
        ids=["couplings", "fields", "couplings-plus-fields"],
    )
    def test_read_out_overflow_rejected_at_construction(self, couplings, fields):
        # each used to warn in a read-out of aligned spins
        with pytest.raises(ValueError, match="^couplings and fields too large: .* overflows the float range$"):
            spins.SpinSystem(np.ones((3, 1)), couplings, fields)

    def test_largest_bounded_system_reads_out_finite(self):
        # sum_{i<j} |J~_ij| = 1.35e308 is finite although sum |J~| is not
        j = np.array([[0.0, 1e308], [1.7e308, 0.0]])
        system = spins.SpinSystem(np.ones((2, 1)), j)
        assert spins.two_body_energy(system) == -1.35e308
        np.testing.assert_array_equal(spins.energy_gradient(system), [[-1.35e308], [-1.35e308]])
        assert spins.lattice_energy(j, np.ones((2, 1))) == -1.35e308

    @pytest.mark.parametrize(
        "couplings, fields, shown",
        [(np.full((3, 3), 1e308), None, "-inf"), (np.zeros((3, 3)), np.full((3, 1), np.nan), "nan")],
        ids=["overflow", "nan-field"],
    )
    def test_lattice_energy_checks_its_result(self, couplings, fields, shown):
        with pytest.raises(ValueError, match=f"^lattice energy is {shown}, not finite$"):
            spins.lattice_energy(couplings, np.ones((3, 1)), fields)


class TestGibbsAttention:
    def test_matches_direct_softmax(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            n, d = int(rng.integers(2, 8)), 3
            sys0 = spins.SpinSystem(unit_spins(rng, n, d), rng.normal(size=(n, n)))
            beta = float(rng.uniform(0.1, 3.0))
            i = int(rng.integers(0, n))
            pi = spins.gibbs_attention(sys0, i, beta)
            e_row = -sys0.couplings[i] * (sys0.spins @ sys0.spins[i])
            logits = np.array([-beta * e_row[j] for j in range(n) if j != i])
            ref = np.exp(logits) / np.sum(np.exp(logits))
            np.testing.assert_allclose(np.delete(pi, i), ref, atol=1e-12)
            assert pi[i] == 0.0
            np.testing.assert_allclose(np.sum(pi), 1.0, atol=1e-12)

    def test_large_beta_stays_finite(self):
        rng = np.random.default_rng(1)
        sys0 = spins.SpinSystem(unit_spins(rng, 5, 3), rng.normal(size=(5, 5)) * 50)
        pi = spins.gibbs_attention(sys0, 0, beta=100.0)
        assert np.isfinite(pi).all()
        np.testing.assert_allclose(np.sum(pi), 1.0, atol=1e-12)

    def test_weights_are_the_full_row_softmax(self):
        # scaling only the j != i entries leaves every weight's bits as they
        # were when the whole row, self term included, was scaled
        rng = np.random.default_rng(32)
        for _ in range(50):
            n, d = int(rng.integers(2, 10)), int(rng.integers(1, 5))
            sys0 = spins.SpinSystem(unit_spins(rng, n, d), rng.normal(size=(n, n)) * rng.uniform(0.1, 50.0))
            beta = float(rng.uniform(-5.0, 100.0))
            i = int(rng.integers(0, n))
            logits = -beta * (-sys0.couplings[i] * (sys0.spins @ sys0.spins[i]))
            mask = np.arange(n) != i
            w = np.exp(logits[mask] - np.max(logits[mask]))
            want = np.zeros(n)
            want[mask] = w / np.sum(w)
            assert spins.gibbs_attention(sys0, i, beta).tobytes() == want.tobytes()

    @pytest.mark.parametrize("beta", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "minus-inf"])
    def test_non_finite_beta_rejected(self, beta):
        sys0 = spins.SpinSystem(np.eye(3), np.ones((3, 3)))
        with pytest.raises(ValueError, match=f"^beta must be finite, got {beta!r}$"):
            spins.gibbs_attention(sys0, 0, beta)

    def test_huge_beta_on_orthonormal_spins(self):
        # every j != i bond energy is 0; only the self term, which is not
        # scaled, would overflow
        sys0 = spins.SpinSystem(np.eye(3), np.full((3, 3), 10.0))
        np.testing.assert_array_equal(spins.gibbs_attention(sys0, 0, 1e308), [0.0, 0.5, 0.5])

    def test_scaled_energy_past_float_range_rejected(self):
        sys0 = spins.SpinSystem(np.tile([1.0, 0.0], (3, 1)), np.full((3, 3), 10.0))
        with pytest.raises(ValueError, match="^beta 1e\\+308 scales a bond energy of spin 1 past the float range$"):
            spins.gibbs_attention(sys0, 1, 1e308)

    def test_single_spin_rejected(self):
        sys0 = spins.SpinSystem(np.array([[1.0, 0.0]]), np.zeros((1, 1)))
        with pytest.raises(ValueError, match="two spins"):
            spins.gibbs_attention(sys0, 0, 1.0)


class TestMicroStep:
    def test_norms_preserved(self):
        rng = np.random.default_rng(21)
        sys0 = spins.SpinSystem(unit_spins(rng, 6, 3), rng.normal(size=(6, 6)))
        bath = spins.BathParams(eta=0.05, gamma=0.01)
        out = spins.micro_step(sys0, bath)
        np.testing.assert_allclose(np.linalg.norm(out.spins, axis=1), 1.0, atol=1e-9)

    def test_relaxation_decreases_energy(self):
        # pure gradient relaxation with a small rate never raises the
        # pair energy on any of 100 random systems
        bath = spins.BathParams(eta=1e-3)
        for seed in range(100):
            rng = np.random.default_rng(seed)
            j = rng.normal(size=(6, 6))
            j = 0.5 * (j + j.T)
            j /= np.linalg.norm(j)
            sys0 = spins.SpinSystem(unit_spins(rng, 6, 3), j)
            e0 = spins.two_body_energy(sys0)
            e1 = spins.two_body_energy(spins.micro_step(sys0, bath))
            assert e1 <= e0 + 1e-12

    def test_collapse_names_neuron(self):
        sys0 = spins.SpinSystem(np.eye(2), np.zeros((2, 2)))
        bath = spins.BathParams(gamma=1.0)  # update = s - s = 0
        with pytest.raises(ValueError, match="neuron 0"):
            spins.micro_step(sys0, bath)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("eta", np.nan),
            ("eta", np.inf),
            ("eta_ff", np.nan),
            ("eta_ff", -np.inf),
            ("gamma", np.nan),
            ("W1", np.array([[1.0, np.nan]])),
            ("W2", np.array([[np.inf], [0.0]])),
            ("b1", np.array([np.nan])),
        ],
        ids=["eta-nan", "eta-inf", "eta_ff-nan", "eta_ff-minus-inf", "gamma-nan", "W1", "W2", "b1"],
    )
    def test_non_finite_parameter_named(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            spins.BathParams(**{name: value})

    def test_huge_feed_forward_weights_name_the_neuron(self):
        # the target's row norm overflows, and the normaliser names the neuron
        bath = spins.BathParams(eta_ff=1.0, W1=np.full((2, 2), 1e300), W2=np.full((2, 2), 1e300))
        message = "^feed-forward target of neuron 0 has norm inf; cannot normalise$"
        with pytest.raises(ValueError, match=message):
            spins.micro_step(spins.SpinSystem(np.eye(2), np.zeros((2, 2))), bath)

    def test_gamma_length_checked(self):
        # gamma is one scalar: an array is refused when the bath is built, even one per neuron
        with pytest.raises(ValueError, match=r"^gamma must be a scalar, got shape \(2,\)$"):
            spins.BathParams(gamma=np.array([0.5, 0.9]))

    @pytest.mark.parametrize("name", ["eta", "eta_ff"])
    def test_rate_length_checked(self, name):
        # refused, by name, when the bath is built: micro_step's `bath.eta != 0.0` needs a scalar
        with pytest.raises(ValueError, match=rf"^{name} must be a scalar, got shape \(2,\)$"):
            spins.BathParams(**{name: np.array([0.1, 0.2])})

    def test_non_finite_spin_named(self):
        # a bath changed after it was checked: the normaliser still refuses
        sys0 = spins.SpinSystem(np.eye(2), np.zeros((2, 2)))
        bath = spins.BathParams()
        bath.gamma = math.nan
        with pytest.raises(ValueError, match="^neuron 0 has norm nan during micro step$"):
            spins.micro_step(sys0, bath)

    def test_overflow_named_without_warning(self):
        sys0 = spins.SpinSystem(np.eye(2), np.full((2, 2), 1e300))
        with pytest.raises(ValueError, match="^neuron 0 has norm inf during micro step$"):
            spins.micro_step(sys0, spins.BathParams(eta=1e300))

    @given(
        n=st.integers(1, 4),
        d=st.integers(1, 3),
        hidden=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
        scalars=st.tuples(st.floats(), st.floats(), st.floats()),
        data=st.data(),
    )
    def test_finite_unit_rows_or_value_error(self, n, d, hidden, seed, scalars, data):
        rng = np.random.default_rng(seed)
        sys0 = spins.SpinSystem(unit_spins(rng, n, d), rng.normal(size=(n, n)), rng.normal(size=(n, d)))
        eta, eta_ff, gamma = scalars
        weights = dict(
            W1=data.draw(arrays(np.float64, (hidden, d))),
            W2=data.draw(arrays(np.float64, (d, hidden))),
            b1=data.draw(arrays(np.float64, hidden)),
        )
        try:
            out = spins.micro_step(sys0, spins.BathParams(eta, eta_ff, gamma, **weights))
        except ValueError:
            return
        assert np.isfinite(out.spins).all()
        np.testing.assert_allclose(np.linalg.norm(out.spins, axis=1), 1.0, rtol=0, atol=1e-12)

    def test_leak_is_one_expression(self):
        # the update is s - eta dH/ds - gamma s, then row norms, bit for bit
        rng = np.random.default_rng(33)
        sys0 = spins.SpinSystem(unit_spins(rng, 256, 32), rng.normal(size=(256, 256)))
        for gamma in (0.0, 0.01, 0.3, -0.2, 0.999):
            out = spins.micro_step(sys0, spins.BathParams(eta=0.05, gamma=gamma))
            u = sys0.spins - 0.05 * spins.energy_gradient(sys0) - gamma * sys0.spins
            want = u / np.linalg.norm(u, axis=1)[:, None]
            assert out.spins.tobytes() == want.tobytes()

    def test_feed_forward_nudge_moves_toward_target(self):
        rng = np.random.default_rng(30)
        bath = spins.BathParams(
            eta_ff=0.3,
            W1=rng.normal(size=(4, 2)),
            W2=rng.normal(size=(2, 4)),
        )
        sys0 = spins.SpinSystem(np.eye(2), np.zeros((2, 2)))
        target = ffn_reference(sys0.spins[0], bath)
        out = spins.micro_step(sys0, bath)
        d_before = np.linalg.norm(target - sys0.spins[0])
        d_after = np.linalg.norm(target - out.spins[0])
        assert d_after < d_before

    def test_successor_equals_validated_system(self):
        # micro_step skips SpinSystem's checks on what it builds; the result
        # must be the system that validation gives, and the input unchanged
        rng = np.random.default_rng(31)
        sys0 = spins.SpinSystem(unit_spins(rng, 5, 3), rng.normal(size=(5, 5)), rng.normal(size=(5, 3)))
        before = sys0.spins.copy()
        bath = spins.BathParams(eta=0.05, eta_ff=0.2, gamma=0.01, W1=rng.normal(size=(4, 3)), W2=rng.normal(size=(3, 4)))
        out = spins.micro_step(sys0, bath)
        want = spins.SpinSystem(out.spins.copy(), sys0.couplings, sys0.fields)
        assert type(out) is spins.SpinSystem
        for name in ("spins", "couplings", "fields"):
            got, ref = getattr(out, name), getattr(want, name)
            assert got.dtype == ref.dtype and got.shape == ref.shape and got.tobytes() == ref.tobytes(), name
        assert sys0.spins.tobytes() == before.tobytes()


def two_product_pair_field(j, s):
    """Row i is sum_{j != i} J~_ij s_j taken from the raw J: two products and a diagonal correction."""
    return 0.5 * (j @ s + j.T @ s) - np.diag(j)[:, None] * s


class TestSymmetrisedOnce:
    """A system's stored J~ against the pair field written on the raw couplings.

    Bounds are a few float64 eps of each quantity's scale, the sum of the
    absolute terms it adds up; 16 ticks of 256 x 32 spins stay within
    4e-15 of the oracle's spins.
    """

    EPS = np.finfo(float).eps

    def case(self, seed):
        rng = np.random.default_rng(seed)
        n, d, hidden = 256, 32, 64
        # query-key couplings: asymmetric, with a non-zero diagonal
        j = spins.attention_couplings(rng.normal(size=(n, d)), rng.normal(size=(n, d)))
        assert np.all(np.diag(j) != 0.0) and not np.array_equal(j, j.T)
        system = spins.SpinSystem(unit_spins(rng, n, d), j, 0.1 * rng.normal(size=(n, d)))
        bath = spins.BathParams(
            eta=0.05,
            eta_ff=0.2,
            gamma=0.01,
            W1=rng.normal(size=(hidden, d)) / np.sqrt(d),
            W2=rng.normal(size=(d, hidden)) / np.sqrt(hidden),
            b1=0.1 * rng.normal(size=hidden),
        )
        return system, bath

    @staticmethod
    def abs_sym(j):
        a = np.abs(0.5 * (j + j.T))
        np.fill_diagonal(a, 0.0)
        return a

    def energy_close(self, got, j, s, h):
        want = -0.5 * np.sum(s * two_product_pair_field(j, s)) - np.sum(h * s)
        scale = 0.5 * np.sum(np.abs(s) * (self.abs_sym(j) @ np.abs(s))) + np.sum(np.abs(h * s))
        assert abs(got - want) <= 8 * self.EPS * scale

    @pytest.mark.parametrize("seed", range(4))
    def test_gradient_and_energy(self, seed):
        system, _ = self.case(seed)
        j, s, h = system.couplings, system.spins, system.fields
        want = -two_product_pair_field(j, s) - h
        scale = self.abs_sym(j) @ np.abs(s) + np.abs(h)
        assert np.all(np.abs(spins.energy_gradient(system) - want) <= 8 * self.EPS * scale)
        self.energy_close(spins.two_body_energy(system), j, s, h)
        self.energy_close(spins.lattice_energy(j, s, h), j, s, h)
        np.testing.assert_array_equal(system._sym, system._sym.T)
        assert not np.any(np.diag(system._sym))

    def test_halving_first_is_bit_equal(self):
        # no entry's half is subnormal here, so halving first changes no bit
        rng = np.random.default_rng(17)
        for _ in range(200):
            n = int(rng.integers(1, 41))
            j = rng.normal(size=(n, n)) * 10.0 ** rng.integers(-280, 301, size=(n, n))
            want = (j + j.T) * 0.5
            np.fill_diagonal(want, 0.0)
            assert spins.SpinSystem(unit_spins(rng, n, 2), j)._sym.tobytes() == want.tobytes()

    def test_huge_couplings_do_not_overflow(self):
        # J~ halves before the sum, in the system and in lattice_energy's own J~ alike
        j = np.array([[0.0, 1e308], [1.7e308, 0.0]])
        half_sum = 0.5 * 1e308 + 0.5 * 1.7e308
        np.testing.assert_array_equal(spins.SpinSystem(np.eye(2), j)._sym, [[0.0, half_sum], [half_sum, 0.0]])
        np.testing.assert_array_equal(spins._symmetrised(j), [[0.0, half_sum], [half_sum, 0.0]])

    @pytest.mark.parametrize("seed", range(2))
    def test_sixteen_ticks(self, seed):
        system, bath = self.case(seed)
        j, h = system.couplings, system.fields
        s = system.spins
        out = system
        for _ in range(16):
            out = spins.micro_step(out, bath)
            assert out._sym is system._sym
            targets = spins._feed_forward_targets(s, bath)
            u = s + bath.eta * (two_product_pair_field(j, s) + h) + bath.eta_ff * (targets - s) - bath.gamma * s
            s = u / np.linalg.norm(u, axis=1, keepdims=True)
        assert np.max(np.abs(out.spins - s)) <= 4e-15
        self.energy_close(spins.two_body_energy(out), j, s, h)


class TestBatchedFfn:
    """micro_step computes all N feed-forward targets as one batch; each row
    must be the target of its spin alone (summation order differs: 1e-15)."""

    @pytest.mark.parametrize("biases", [True, False])
    def test_rows_match_single_spin(self, biases):
        rng = np.random.default_rng(40)
        n, d, hidden = 9, 5, 7
        bath = spins.BathParams(
            eta_ff=1.0,
            W1=rng.normal(size=(hidden, d)),
            W2=rng.normal(size=(d, hidden)),
            b1=rng.normal(size=hidden) if biases else None,
        )
        s = unit_spins(rng, n, d)
        single = np.stack([ffn_reference(row, bath) for row in s])
        np.testing.assert_allclose(spins._feed_forward_targets(s, bath), single, rtol=0, atol=1e-15)
        # with eta_ff = 1 and no relaxation or leak, the update is the target
        out = spins.micro_step(spins.SpinSystem(s, np.zeros((n, n))), bath)
        np.testing.assert_allclose(out.spins, single, rtol=0, atol=1e-15)

    def test_collapse_on_later_spin_names_it(self):
        # tanh(20) rounds to exactly 1, so t_i = s_i + W2 = s_i - s_2 vanishes for spin 2 only
        bath = spins.BathParams(eta_ff=0.5, W1=np.zeros((1, 3)), W2=-np.eye(3)[:, 2:], b1=np.array([20.0]))
        sys0 = spins.SpinSystem(np.eye(3), np.zeros((3, 3)))
        with pytest.raises(ValueError, match="neuron 2 collapsed"):
            spins.micro_step(sys0, bath)

    def test_collapse_reports_plain_norm(self):
        bath = spins.BathParams(eta_ff=1.0, W1=np.zeros((1, 2)), W2=np.array([[-1.0], [0.0]]), b1=np.array([20.0]))
        with pytest.raises(ValueError) as ffn_err:
            spins.micro_step(spins.SpinSystem(np.eye(2), np.zeros((2, 2))), bath)
        assert str(ffn_err.value) == "feed-forward target of neuron 0 collapsed to norm 0.0; cannot normalise"
        with pytest.raises(ValueError) as step_err:
            spins.micro_step(spins.SpinSystem(np.eye(2), np.zeros((2, 2))), spins.BathParams(gamma=1.0))
        assert str(step_err.value) == "neuron 0 collapsed to norm 0.0 during micro step"

    def test_collapse_bound_is_strict(self):
        # a target of norm exactly 1e-12 is kept, as micro_step keeps such a spin
        bath = spins.BathParams(eta_ff=1.0, W1=np.zeros((2, 2)), W2=np.zeros((2, 2)))
        np.testing.assert_array_equal(spins._feed_forward_targets(np.array([[1e-12, 0.0]]), bath), [[1.0, 0.0]])
        with pytest.raises(ValueError, match="collapsed to norm 9.9"):
            spins._feed_forward_targets(np.array([[9.9e-13, 0.0]]), bath)


def _ffn_on_four_wide_spins(w1_shape, w2_shape):
    bath = spins.BathParams(eta_ff=0.5, W1=np.zeros(w1_shape), W2=np.zeros(w2_shape))
    return spins.micro_step(spins.SpinSystem(np.eye(4), np.zeros((4, 4))), bath)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: spins.SpinSystem(np.ones((1, 1, 1)), np.zeros((1, 1))), "spins must form an (N, d) matrix"),
        # used to report an overflow for what is 0 / sqrt(0)
        (
            lambda: spins.attention_couplings(np.zeros((2, 0)), np.zeros((2, 0))),
            "queries and keys need d >= 1 columns, got shape (2, 0)",
        ),
        (lambda: spins.gibbs_attention(spins.SpinSystem(np.eye(2), np.zeros((2, 2))), 2, 1.0), "spin index 2 out of range"),
        (
            lambda: spins.micro_step(spins.SpinSystem(np.eye(2), np.zeros((2, 2))), spins.BathParams(eta_ff=1.0)),
            "the feed-forward target needs W1 and W2 on the bath",
        ),
        # numpy's matmul and broadcast messages named none of these
        (
            lambda: _ffn_on_four_wide_spins((5, 3), (4, 5)),
            "W1 must have the spins' width 4 as its columns, got shape (5, 3)",
        ),
        (
            lambda: spins.BathParams(eta_ff=0.5, W1=np.zeros((5, 4)), W2=np.zeros((4, 5)), b1=np.zeros(7)),
            "b1 must have shape (5,), got (7,)",
        ),
        (
            lambda: _ffn_on_four_wide_spins((5, 4), (3, 5)),
            "W2 must have the spins' width 4 as its rows, got shape (3, 5)",
        ),
        (
            lambda: spins.BathParams(W1=np.zeros((5, 4)), W2=np.zeros((4, 6))),
            "W2 must be a (d, 5) matrix, got shape (4, 6)",
        ),
        (lambda: spins.BathParams(W1=np.zeros(5)), "W1 must be an (h, d) matrix, got shape (5,)"),
    ],
    ids=[
        "system-3d",
        "attention-zero-width",
        "gibbs-index-out-of-range",
        "ffn-without-weights",
        "ffn-w1-width",
        "bath-b1-length",
        "ffn-w2-height",
        "bath-w2-hidden",
        "bath-w1-matrix",
    ],
)
def test_guard_message(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
