"""Tests for spin energies, Gibbs attention, and micro updates."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from maniflow import _text, spins


def unit_spins(rng, n, d):
    s = rng.normal(size=(n, d))
    return s / np.linalg.norm(s, axis=1, keepdims=True)


def brute_two_body(system):
    """Double-loop oracle for the pair + field energy."""
    j = 0.5 * (system.couplings + system.couplings.T)
    s = system.spins
    e = 0.0
    for i in range(system.n_spins):
        for jdx in range(i + 1, system.n_spins):
            e -= j[i, jdx] * float(s[i] @ s[jdx])
        e -= float(system.fields[i] @ s[i])
    return e


class TestSpinValidation:
    def test_unit_spin_accepted(self):
        spins.Spin(np.array([1.0, 0.0]))

    def test_norm_tolerance(self):
        spins.Spin(np.array([1.0 + 5e-10, 0.0]))
        with pytest.raises(ValueError, match="norm"):
            spins.Spin(np.array([1.0 + 5e-9, 0.0]))

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

    def test_three_body_index_order(self):
        with pytest.raises(ValueError, match="i < j < k"):
            spins.SpinSystem(np.eye(3), np.zeros((3, 3)), three_body=[(0, 2, 1, 1.0)])


class TestAttentionCouplings:
    def test_scaling(self):
        q = np.array([[1.0, 0.0], [0.0, 1.0]])
        k = np.array([[2.0, 0.0], [0.0, 3.0]])
        j = spins.attention_couplings(q, k)
        np.testing.assert_allclose(j, np.array([[2.0, 0.0], [0.0, 3.0]]) / np.sqrt(2.0))

    def test_symmetrize_flag(self):
        rng = np.random.default_rng(0)
        q = rng.normal(size=(4, 3))
        k = rng.normal(size=(4, 3))
        j = spins.attention_couplings(q, k, symmetrize=True)
        np.testing.assert_allclose(j, j.T)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            spins.attention_couplings(np.zeros((2, 2)), np.zeros((3, 2)))


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

    def test_three_body_default_form(self):
        s = np.eye(3)
        sys0 = spins.SpinSystem(s, np.zeros((3, 3)), three_body=[(0, 1, 2, 2.0)])
        # orthonormal spins: all pairwise dots vanish
        assert spins.three_body_energy(sys0) == 0.0
        aligned = np.tile(np.array([1.0, 0.0, 0.0]), (3, 1))
        sys1 = spins.SpinSystem(aligned, np.zeros((3, 3)), three_body=[(0, 1, 2, 2.0)])
        # f = 1*1 + 1*1 + 1*1 = 3, energy = -K f
        np.testing.assert_allclose(spins.three_body_energy(sys1), -6.0)

    def test_three_body_rejects_asymmetric_form(self):
        sys0 = spins.SpinSystem(np.eye(3), np.zeros((3, 3)), three_body=[(0, 1, 2, 1.0)])
        bad = lambda a, b, c: float(a @ b)  # ignores c: not permutation symmetric
        with pytest.raises(ValueError, match="symmetric"):
            spins.three_body_energy(sys0, f=bad)

    def test_bond_energies_use_raw_couplings(self):
        rng = np.random.default_rng(2)
        s = unit_spins(rng, 3, 2)
        j = rng.normal(size=(3, 3))
        e = spins.bond_energies(spins.SpinSystem(s, j))
        assert e.shape == (3, 3)
        np.testing.assert_allclose(np.diag(e), 0.0)
        np.testing.assert_allclose(e[0, 1], -j[0, 1] * float(s[0] @ s[1]))
        np.testing.assert_allclose(e[1, 0], -j[1, 0] * float(s[0] @ s[1]))


class TestGibbsAttention:
    def test_matches_direct_softmax(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            n, d = int(rng.integers(2, 8)), 3
            sys0 = spins.SpinSystem(unit_spins(rng, n, d), rng.normal(size=(n, n)))
            beta = float(rng.uniform(0.1, 3.0))
            i = int(rng.integers(0, n))
            pi = spins.gibbs_attention(sys0, i, beta)
            e_row = spins.bond_energies(sys0)[i]
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

    def test_single_spin_rejected(self):
        sys0 = spins.SpinSystem(np.array([[1.0, 0.0]]), np.zeros((1, 1)))
        with pytest.raises(ValueError, match="two spins"):
            spins.gibbs_attention(sys0, 0, 1.0)

    def test_head_output_mix(self):
        w = np.array([0.25, 0.75])
        v = np.array([[1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_allclose(spins.head_output(w, v), [0.25, 0.75])


class TestCtmCouplings:
    def test_effective_influence_sums_lags(self):
        taps = np.arange(24, dtype=float).reshape(2, 3, 4)
        w = spins.effective_influence(spins.SynapseKernel(taps))
        np.testing.assert_allclose(w, taps.sum(axis=-1))

    def test_blend_endpoints(self):
        rng = np.random.default_rng(8)
        w = rng.normal(size=(3, 3))
        hist = unit_spins(rng, 3, 2)[None, :, :].repeat(4, axis=0)
        j1 = spins.ctm_couplings(w, hist, alpha=1.0)
        np.testing.assert_allclose(j1, 0.5 * (w + w.T))
        j0 = spins.ctm_couplings(w, hist, alpha=0.0)
        corr = hist[0] @ hist[0].T
        np.testing.assert_allclose(j0, corr)

    def test_result_symmetric(self):
        rng = np.random.default_rng(13)
        w = rng.normal(size=(4, 4))
        hist = np.stack([unit_spins(rng, 4, 3) for _ in range(5)])
        j = spins.ctm_couplings(w, hist, alpha=0.4)
        np.testing.assert_allclose(j, j.T, atol=1e-14)

    def test_alpha_out_of_range(self):
        with pytest.raises(ValueError, match="alpha"):
            spins.ctm_couplings(np.zeros((2, 2)), np.zeros((1, 2, 3)), alpha=1.5)


class TestFfnTarget:
    def rand_bath(self, rng, d, hidden, kind="tanh", ext=0):
        return spins.BathParams(
            eta_ff=0.5,
            W1=rng.normal(size=(hidden, d + ext)),
            W2=rng.normal(size=(d, hidden)),
            b1=rng.normal(size=hidden),
            b2=rng.normal(size=d),
            nonlinearity=kind,
        )

    def test_unit_norm_output(self):
        rng = np.random.default_rng(3)
        bath = self.rand_bath(rng, 3, 5)
        h = unit_spins(rng, 1, 3)[0]
        t = spins.ffn_target(h, bath)
        np.testing.assert_allclose(np.linalg.norm(t), 1.0, atol=1e-12)

    def test_gelu_against_reference(self):
        from scipy.special import erf

        rng = np.random.default_rng(4)
        bath = self.rand_bath(rng, 2, 4, kind="gelu")
        h = np.array([1.0, 0.0])
        u = bath.W1 @ h + bath.b1
        a = 0.5 * u * (1.0 + erf(u / np.sqrt(2.0)))
        ref = h + bath.W2 @ a + bath.b2
        ref /= np.linalg.norm(ref)
        np.testing.assert_allclose(spins.ffn_target(h, bath), ref, atol=1e-14)

    def test_external_drive_appended(self):
        rng = np.random.default_rng(6)
        bath = self.rand_bath(rng, 2, 4, ext=3)
        h = np.array([0.0, 1.0])
        x = rng.normal(size=3)
        t1 = spins.ffn_target(h, bath, x_ext=x)
        t2 = spins.ffn_target(h, bath, x_ext=np.zeros(3))
        assert not np.allclose(t1, t2)

    def test_collapse_raises(self):
        d = 2
        bath = spins.BathParams(
            eta_ff=1.0,
            W1=np.zeros((2, d)),
            W2=np.zeros((d, 2)),
            b2=np.array([-1.0, 0.0]),
        )
        with pytest.raises(ValueError, match="collapsed"):
            spins.ffn_target(np.array([1.0, 0.0]), bath)

    def test_unknown_nonlinearity(self):
        with pytest.raises(ValueError, match="nonlinearity"):
            spins.BathParams(nonlinearity="relu")


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

    def test_per_neuron_gamma(self):
        sys0 = spins.SpinSystem(np.eye(2), np.zeros((2, 2)))
        bath = spins.BathParams(gamma=np.array([0.5, 0.9]))
        out = spins.micro_step(sys0, bath)
        # leak shrinks then renormalises: directions unchanged without couplings
        np.testing.assert_allclose(out.spins, np.eye(2), atol=1e-12)

    def test_gamma_length_checked(self):
        sys0 = spins.SpinSystem(np.eye(2), np.zeros((2, 2)))
        bath = spins.BathParams(gamma=np.array([0.5, 0.9, 0.1]))
        with pytest.raises(ValueError, match="gamma"):
            spins.micro_step(sys0, bath)

    def test_feed_forward_nudge_moves_toward_target(self):
        rng = np.random.default_rng(30)
        bath = spins.BathParams(
            eta_ff=0.3,
            W1=rng.normal(size=(4, 2)),
            W2=rng.normal(size=(2, 4)),
        )
        sys0 = spins.SpinSystem(np.eye(2), np.zeros((2, 2)))
        target = spins.ffn_target(sys0.spins[0], bath)
        out = spins.micro_step(sys0, bath)
        d_before = np.linalg.norm(target - sys0.spins[0])
        d_after = np.linalg.norm(target - out.spins[0])
        assert d_after < d_before


class TestSpinIo:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(12)
        s = unit_spins(rng, 5, 4)
        p = tmp_path / "spins.txt"
        spins.save_spin_matrix(p, s)
        np.testing.assert_array_equal(spins.load_spin_matrix(p), s)

    @pytest.mark.parametrize(
        "text, message",
        [("1 2\n3 x\n", "line 2: "), ("1 2\n# a comment\n3\n", "line 3: expected 2 values, got 1")],
        ids=["bad-value", "ragged-row"],
    )
    def test_bad_line_is_named(self, tmp_path, text, message):
        p = tmp_path / "bad.txt"
        p.write_text(text)
        with pytest.raises(_text.FormatError, match=f"^{message}"):
            spins.load_spin_matrix(p)

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "empty.txt"
        p.write_text("# no rows\n")
        with pytest.raises(ValueError, match="no spin rows"):
            spins.load_spin_matrix(p)

    def test_three_dimensional_array_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="shape"):
            spins.save_spin_matrix(tmp_path / "s.txt", np.zeros((2, 2, 2)))
        assert not (tmp_path / "s.txt").exists()

    def test_writes_what_savetxt_writes(self, tmp_path):
        s = np.array([[-0.0, 1e308, 5e-324], [0.1, -1.0 / 3.0, 2.0]])
        spins.save_spin_matrix(tmp_path / "a.txt", s)
        np.savetxt(tmp_path / "b.txt", s, fmt="%.17g")
        assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()

    def test_single_row_shape(self, tmp_path):
        p = tmp_path / "one.txt"
        spins.save_spin_matrix(p, np.array([1.0, 0.0]))
        out = spins.load_spin_matrix(p)
        assert out.shape == (1, 2)

    @pytest.mark.parametrize(
        "shape",
        [
            st.tuples(st.integers(2, 6), st.just(1)),
            st.tuples(st.just(1), st.integers(1, 5)),
            st.tuples(st.integers(1, 6), st.integers(1, 5)),
        ],
        ids=["one-dimensional-spins", "one-spin", "any"],
    )
    @given(data=st.data())
    def test_round_trip_property(self, tmp_path_factory, shape, data):
        finite = st.floats(allow_nan=False, allow_infinity=False)
        s = data.draw(arrays(np.float64, data.draw(shape), elements=finite))
        p = tmp_path_factory.mktemp("spins") / "spins.txt"
        spins.save_spin_matrix(p, s)
        out = spins.load_spin_matrix(p)
        assert out.shape == s.shape
        assert out.tobytes() == s.tobytes()
