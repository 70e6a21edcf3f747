import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import gammaln

from seqvol.errors import DimensionMismatch, DomainError, NotPositiveDefinite
from seqvol.linalg import (
    check_spd,
    chol_upper,
    log_multigamma,
    positive_eigenvalues,
    positive_spectrum,
    psd_sqrt,
    rank_cut,
    spd_inverse,
    spd_logdet,
    sym_sqrt,
    stacked_eigh,
    sym_sqrt_pair,
)

from conftest import random_spd


class TestSymSqrt:
    def test_identity(self):
        for p in (1, 2, 5):
            np.testing.assert_allclose(sym_sqrt(np.eye(p)), np.eye(p), atol=1e-14)

    def test_diagonal(self):
        np.testing.assert_allclose(sym_sqrt(np.diag([4.0, 9.0])),
                                   np.diag([2.0, 3.0]), atol=1e-12)

    def test_multiply_back_random(self, rng):
        m = random_spd(rng, 3)
        r = sym_sqrt(m)
        assert np.max(np.abs(r @ r - m)) / np.max(np.abs(m)) < 1e-10
        # r itself is SPD and commutes with m
        assert np.all(np.linalg.eigvalsh(r) > 0)
        assert np.max(np.abs(r @ m - m @ r)) < 1e-10

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), p=st.integers(1, 6))
    def test_square_roundtrip_property(self, seed, p):
        m = random_spd(np.random.default_rng(seed), p)
        r = sym_sqrt(m)
        assert np.max(np.abs(r @ r - m)) / max(1.0, np.max(np.abs(m))) < 1e-10

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefinite):
            sym_sqrt(np.diag([1.0, -1.0]))
        with pytest.raises(NotPositiveDefinite):
            sym_sqrt(np.zeros((2, 2)))

    def test_tolerates_extreme_conditioning(self):
        m = np.diag([1e-14, 1.0])
        r = sym_sqrt(m)
        np.testing.assert_allclose(np.diag(r), [1e-7, 1.0])

    def test_pair_consistent(self, rng):
        m = random_spd(rng, 4)
        root, inv_root = sym_sqrt_pair(m)
        np.testing.assert_allclose(root @ inv_root, np.eye(4), atol=1e-10)
        np.testing.assert_allclose(root, sym_sqrt(m), atol=1e-12)


class TestPsdSqrt:
    def test_zero_matrix(self):
        np.testing.assert_array_equal(psd_sqrt(np.zeros((3, 3))), np.zeros((3, 3)))

    def test_clamps_roundoff_negatives(self):
        m = np.diag([1.0, -1e-13])
        r = psd_sqrt(m)
        assert r[1, 1] == 0.0

    def test_rejects_genuine_negatives(self):
        with pytest.raises(NotPositiveDefinite):
            psd_sqrt(np.diag([1.0, -1e-3]))


class TestCholUpper:
    def test_identity_and_diag(self):
        np.testing.assert_allclose(chol_upper(np.eye(3)), np.eye(3))
        np.testing.assert_allclose(chol_upper(np.diag([4.0, 25.0])),
                                   np.diag([2.0, 5.0]))

    def test_multiply_back(self, rng):
        m = random_spd(rng, 4)
        u = chol_upper(m)
        assert np.allclose(np.tril(u, -1), 0.0)
        assert np.all(np.diag(u) > 0)
        assert np.max(np.abs(u.T @ u - m)) < 1e-10

    def test_repeated_calls_bit_identical(self, rng):
        m = random_spd(rng, 5)
        u1, u2 = chol_upper(m), chol_upper(m.copy())
        np.testing.assert_array_equal(u1, u2)

    def test_rejects_non_pd(self):
        with pytest.raises(NotPositiveDefinite):
            chol_upper(np.diag([1.0, -2.0]))

    def test_rejects_asymmetric(self):
        with pytest.raises(NotPositiveDefinite):
            chol_upper(np.array([[1.0, 0.5], [0.1, 1.0]]))


class TestPositiveEigenvalues:
    def test_zero_matrix(self):
        assert len(positive_eigenvalues(np.zeros((3, 3)), 1e-10)) == 0

    def test_mixed_signs(self):
        out = positive_eigenvalues(np.diag([3.0, 0.0, -1.0]), 1e-10)
        np.testing.assert_allclose(out, [3.0])

    def test_rank_one(self, rng):
        v = rng.standard_normal(4)
        out = positive_eigenvalues(np.outer(v, v), 1e-10)
        assert len(out) == 1
        np.testing.assert_allclose(out[0], v @ v, rtol=1e-12)

    def test_known_rank(self, rng):
        for rank in (1, 2, 3):
            vs = rng.standard_normal((rank, 5))
            m = vs.T @ vs
            assert len(positive_eigenvalues(m, 1e-8)) == rank

    def test_sorted_descending(self, rng):
        out = positive_eigenvalues(random_spd(rng, 5), 1e-12)
        assert np.all(np.diff(out) <= 0)


class TestRankCut:
    def test_stack_matches_each_spectrum(self, rng):
        w = np.sort(rng.standard_normal((6, 4)) * 10.0 ** rng.integers(-9, 3, (6, 1)))
        for rel_tol in (1e-10, 1e-8):
            for row, kept in zip(w, rank_cut(w, rel_tol)):
                threshold = rel_tol * max(1.0, float(np.max(np.abs(row))))
                np.testing.assert_array_equal(kept, row > threshold)

    def test_empty_spectrum(self):
        assert rank_cut(np.empty(0), 1e-8).shape == (0,)


class TestStackedEigh:
    @pytest.mark.parametrize("p", [2, 3, 8])
    def test_non_finite_member_gets_nan_spectrum(self, rng, p):
        good = random_spd(rng, p)
        for bad in (np.full((p, p), np.nan), np.diag(np.full(p, np.inf))):
            stack = np.array([good, bad, good])
            w, v = stacked_eigh(stack)
            w_only = stacked_eigh(stack, values_only=True)
            ref_w, ref_v = np.linalg.eigh(good)
            for i in (0, 2):
                np.testing.assert_array_equal(w[i], ref_w)
                np.testing.assert_array_equal(v[i], ref_v)
                np.testing.assert_array_equal(w_only[i], np.linalg.eigvalsh(good))
            assert np.isnan(w[1]).all() and np.isnan(w_only[1]).all()
            np.testing.assert_array_equal(positive_spectrum(w), [True, False, True])

    def test_common_path_is_numpy(self, rng):
        stack = np.array([random_spd(rng, 3) for _ in range(4)])
        for got, ref in zip(stacked_eigh(stack), np.linalg.eigh(stack)):
            np.testing.assert_array_equal(got, ref)


class TestLogMultigamma:
    def test_univariate_reduction(self):
        for a in (0.7, 1.5, 20.0):
            assert log_multigamma(1, a) == pytest.approx(float(gammaln(a)), rel=1e-14)

    def test_bivariate_expansion(self):
        a = 3.2
        expected = 0.5 * math.log(math.pi) + gammaln(a) + gammaln(a - 0.5)
        assert log_multigamma(2, a) == pytest.approx(expected, rel=1e-14)

    def test_value_p2(self):
        expected = 0.5 * math.log(math.pi) + gammaln(1.5) + gammaln(1.0)
        assert log_multigamma(2, 1.5) == pytest.approx(expected, rel=1e-14)

    @settings(max_examples=60, deadline=None)
    @given(p=st.integers(2, 8), a_off=st.floats(0.3, 50.0))
    def test_recursion(self, p, a_off):
        # Gamma_p(a) = pi^{(p-1)/2} Gamma(a) Gamma_{p-1}(a - 1/2)
        a = 0.5 * (p - 1) + a_off
        lhs = log_multigamma(p, a)
        rhs = (0.5 * (p - 1) * math.log(math.pi) + gammaln(a)
               + log_multigamma(p - 1, a - 0.5))
        assert lhs == pytest.approx(rhs, abs=1e-12 * max(1.0, abs(rhs)))

    def test_domain(self):
        with pytest.raises(DomainError):
            log_multigamma(3, 1.0)
        with pytest.raises(DomainError):
            log_multigamma(0, 1.0)


class TestValidationHelpers:
    def test_check_spd_passes_and_symmetrizes(self, rng):
        m = random_spd(rng, 3)
        out = check_spd(m + 1e-15 * rng.standard_normal((3, 3)))
        np.testing.assert_array_equal(out, out.T)

    def test_check_spd_rejects(self):
        with pytest.raises(NotPositiveDefinite):
            check_spd(np.diag([1.0, 0.0]))
        with pytest.raises(DimensionMismatch):
            check_spd(np.ones((2, 3)))

    def test_spd_inverse_and_logdet(self, rng):
        m = random_spd(rng, 4)
        np.testing.assert_allclose(spd_inverse(m) @ m, np.eye(4), atol=1e-10)
        assert spd_logdet(m) == pytest.approx(np.linalg.slogdet(m)[1], rel=1e-12)
