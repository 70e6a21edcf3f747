import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import gammaln

from seqvol.errors import DimensionMismatch, DomainError, NotPositiveDefinite
from seqvol.filtering import beta_dof_m
from seqvol.linalg import (
    check_spd,
    chol_lower,
    chol_upper,
    log_multigamma,
    log_multigamma_ratio,
    positive_eigenvalues,
    positive_spectrum,
    psd_sqrt,
    rank_cut,
    spd_eigh,
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

    @pytest.mark.parametrize("p", [2, 3, 8])
    def test_rejects_non_finite(self, p):
        # on such input LAPACK alone raises a bare LinAlgError at p >= 3
        for bad in (np.full((p, p), np.nan), np.diag(np.full(p, np.inf)),
                    np.diag([np.inf] + [1.0] * (p - 1))):
            with np.errstate(invalid="ignore"):
                for decompose in (spd_eigh, sym_sqrt):
                    with pytest.raises(NotPositiveDefinite, match="non-finite"):
                        decompose(bad)

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

    def test_every_cholesky_fails_the_same_way(self):
        # chol_upper, spd_inverse, spd_logdet and the samplers' stacked
        # factorizations share one checked Cholesky, and so one error
        not_pd = np.array([[1.0, 2.0], [2.0, 1.0]])
        for kernel in (chol_upper, spd_inverse, spd_logdet):
            with pytest.raises(NotPositiveDefinite, match="^Cholesky factorization failed: "):
                kernel(not_pd)
        with pytest.raises(NotPositiveDefinite, match="^Cholesky factorization failed: "):
            chol_lower(np.stack([np.eye(2), not_pd]))


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


# entries of sorted spectra: NaN sorts last
_SPECTRUM_ENTRIES = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, math.nan, math.inf, -math.inf])


class TestRankCut:
    @settings(max_examples=400, deadline=None)
    @given(w=hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=3, min_side=0,
                                                     max_side=5), elements=_SPECTRUM_ENTRIES),
           rel_tol=st.floats(0.0, 1.0, exclude_max=True))
    def test_equals_largest_magnitude_formula(self, w, rel_tol):
        # rank_cut reads the ends of an ascending spectrum
        w = np.sort(w, axis=-1)
        with np.errstate(invalid="ignore", over="ignore"):
            largest = np.abs(w).max(axis=-1, initial=0.0)[..., None]
            np.testing.assert_array_equal(rank_cut(w, rel_tol),
                                          w > rel_tol * np.maximum(1.0, largest))

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
        # nothing is raised, and LAPACK's floating-point flags (invalid, and
        # divide for an infinite diagonal) are the caller's to silence
        good = random_spd(rng, p)
        off_diagonal = np.eye(p, k=1) + np.eye(p, k=-1) > 0
        for bad in (np.full((p, p), np.nan), np.diag(np.full(p, np.inf)),
                    np.diag([-np.inf] + [1.0] * (p - 1)),
                    np.where(off_diagonal, np.inf, np.eye(p))):
            stack = np.array([good, bad, good])
            with warnings.catch_warnings(), np.errstate(invalid="ignore", divide="ignore"):
                warnings.simplefilter("error")
                w, v = stacked_eigh(stack)
                w_only = stacked_eigh(stack, values_only=True)
                assert np.isnan(stacked_eigh(bad, values_only=True)).all()
            ref_w, ref_v = stacked_eigh(good[None])
            for i in (0, 2):
                np.testing.assert_array_equal(w[i], ref_w[0])
                np.testing.assert_array_equal(v[i], ref_v[0])
                np.testing.assert_array_equal(w_only[i], stacked_eigh(good[None], True)[0])
            assert np.isnan(w[1]).all() and np.isnan(w_only[1]).all()
            np.testing.assert_array_equal(positive_spectrum(w), [True, False, True])

    @staticmethod
    def _classes_2x2(rng):
        """The input classes of the closed form, 40 matrices each."""
        rot = [np.linalg.qr(rng.standard_normal((2, 2)))[0] for _ in range(40)]
        spd = np.array([random_spd(rng, 2) for _ in range(40)])
        b = rng.standard_normal((40, 2, 2))
        return {
            "spd": spd,
            "negated": -spd,
            "indefinite": np.eye(2) - b @ b.swapaxes(-1, -2) / 1.3,  # like L_t
            "diagonal": np.array([np.diag(d) for d in rng.uniform(-3, 3, (40, 2))]),
            "graded_diagonal": np.array([np.diag(d) for d in rng.choice([-1.0, 1.0], (40, 2))
                                         * 10.0 ** rng.uniform(-14, 0, (40, 2))]),
            "multiple_of_identity": rng.uniform(-3, 3, (40, 1, 1)) * np.eye(2),
            "zero": np.zeros((40, 2, 2)),
            "condition_1e14": np.array([(r * [1.0, 1e-14]) @ r.T for r in rot]),
            "scaled_1e200": 1e200 * spd,
            "scaled_1e-200": 1e-200 * spd,
        }

    def test_closed_form_2x2_against_lapack(self, rng):
        # bounds fixed before the first run: 4 eps, relative to max |lambda|
        bound = 4 * np.finfo(float).eps
        for name, m in self._classes_2x2(rng).items():
            m = 0.5 * (m + m.swapaxes(-1, -2))
            w, v = stacked_eigh(m)
            ref = np.linalg.eigvalsh(m)
            scale = np.abs(ref).max(axis=-1)[:, None, None]
            scale[scale == 0.0] = 1.0
            assert np.all(np.diff(w, axis=-1) >= 0.0), name
            np.testing.assert_array_equal(stacked_eigh(m, values_only=True), w)
            assert np.all(np.abs(w - ref) <= bound * scale[..., 0]), name
            assert np.all(np.abs(v.swapaxes(-1, -2) @ v - np.eye(2)) <= bound), name
            rebuilt = (v * w[:, None, :]) @ v.swapaxes(-1, -2)
            assert np.all(np.abs(rebuilt - m) <= bound * scale), name
            if name.endswith("diagonal"):  # no cancellation: each eigenvalue to itself
                diag = np.sort(np.diagonal(m, axis1=-2, axis2=-1), axis=-1)
                assert np.all(np.abs(w - diag) <= bound * np.abs(diag)), name

    _entries = (st.floats(allow_nan=True, allow_infinity=True)
                | st.floats(-10.0, 10.0) | st.sampled_from([0.0, -0.0, 1.0, 1e-200, 1e200, 1.5e308,
                                                             -1.5e308, 1.7e308, -1.7e308]))

    @settings(max_examples=300, deadline=None)
    @given(abc=hnp.arrays(np.float64, st.tuples(st.integers(2, 6), st.just(3)),
                          elements=_entries),
           values_only=st.booleans())
    def test_member_equals_itself_alone(self, abc, values_only):
        # a member alone, as a stack of one and as one matrix, gives its bits in the stack
        m = np.empty((len(abc), 2, 2))
        m[:, 0, 0], m[:, 1, 0], m[:, 1, 1] = abc.T
        m[:, 0, 1] = m[:, 1, 0]
        def decompose(x):
            out = stacked_eigh(x, values_only)
            return (out,) if values_only else out

        with np.errstate(all="ignore"):
            stacked = decompose(m)
            for i in range(len(m)):
                for alone in (decompose(m[i:i + 1]), decompose(m[i])):
                    for got, ref in zip(alone, stacked):
                        np.testing.assert_array_equal(got.reshape(ref[i].shape), ref[i])

    @pytest.mark.parametrize("p", [3, 8])
    def test_lapack_kernels_give_numpys_bits(self, rng, p):
        # the kernels np.linalg.eigh and eigvalsh wrap, called directly. Both
        # read the lower triangle, so an unsymmetrized stack is a fair input
        for shape in ((), (1,), (5,), (2, 3)):
            stack = rng.standard_normal(shape + (p, p))
            for m in (stack, stack @ stack.swapaxes(-1, -2)):
                for got, ref in zip(stacked_eigh(m), np.linalg.eigh(m)):
                    np.testing.assert_array_equal(got, ref)
                np.testing.assert_array_equal(stacked_eigh(m, values_only=True),
                                              np.linalg.eigvalsh(m))
        # a non-finite member leaves the others' bits as numpy gives them alone
        stack = np.array([random_spd(rng, p) for _ in range(4)])
        stack[1, -1, 0] = np.nan
        stack[2] = np.diag(np.full(p, np.inf))
        with np.errstate(invalid="ignore", divide="ignore"):
            w, v = stacked_eigh(stack)
            w_only = stacked_eigh(stack, values_only=True)
        for i in (0, 3):
            for got, ref in zip((w[i], v[i], w_only[i]),
                                (*np.linalg.eigh(stack[i]), np.linalg.eigvalsh(stack[i]))):
                np.testing.assert_array_equal(got, ref)
        assert np.isnan(w[1:3]).all() and np.isnan(w_only[1:3]).all()


class TestPositiveSpectrum:
    """``positive_spectrum`` reads the ends of an ascending spectrum; on
    sorted input it equals the test against the spectral radius."""

    @settings(max_examples=400, deadline=None)
    @given(w=hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=3, max_side=5),
                        elements=_SPECTRUM_ENTRIES),
           rel_tol=st.none() | st.floats(0.0, 1.0, exclude_max=True))
    def test_equals_spectral_radius_formula(self, w, rel_tol):
        w = np.sort(w, axis=-1)
        tol = w.shape[-1] * np.finfo(float).eps if rel_tol is None else rel_tol
        with np.errstate(invalid="ignore", over="ignore"):
            expected = w[..., 0] > tol * np.abs(w).max(axis=-1)
            np.testing.assert_array_equal(positive_spectrum(w, rel_tol), expected)


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


def _log_multigamma_50_digits(p, a):
    import mpmath
    with mpmath.workdps(50):
        a = mpmath.mpf(a)  # the float argument, exactly
        return float(p * (p - 1) / 4 * mpmath.log(mpmath.pi)
                     + mpmath.fsum(mpmath.loggamma(a - mpmath.mpf(j) / 2) for j in range(p)))


class TestLogMultigammaExtendedPrecision:
    # the sum of math.lgamma terms against 50-digit mpmath; measured worst
    # error at the likelihood arguments is 1.3e-15 of max(1, |value|)

    @pytest.mark.parametrize("p", range(1, 9))
    def test_loglik_constant_arguments(self, p):
        # the two gamma arguments of likelihood.loglik_constant, 2/3 < delta < 1
        for d in np.linspace(0.67, 0.999, 34):
            for a in ((d * (1 - p) + p) / (2 * (1 - d)),
                      (d * (2 - p) + p - 1) / (2 * (1 - d))):
                exact = _log_multigamma_50_digits(p, a)
                assert abs(log_multigamma(p, a) - exact) <= 1e-14 * max(1.0, abs(exact)), (p, d)

    @pytest.mark.parametrize("p", (1, 2, 3, 8))
    def test_gwishart_arguments(self, p):
        # singular beta B_p(m/2, 1/2) and its transformed density at the
        # model's m, inverted Wishart degrees of freedom, and the edge of the domain
        args = [0.5 * (p + 1), 0.5 * (p + 7.5), 0.5 * (p - 1) + 1e-3]
        for delta in (0.7, 0.9, 0.99):
            m = beta_dof_m(delta, p)
            args += [0.5 * m, 0.5 * (m + 1)]
        for a in args:
            exact = _log_multigamma_50_digits(p, a)
            assert abs(log_multigamma(p, a) - exact) <= 1e-14 * max(1.0, abs(exact)), (p, a)


class TestLogMultigammaRatio:
    # log Gamma_p(a + 1/2) - log Gamma_p(a) against 50-digit mpmath, as error
    # over max(1, |value|); differencing two log_multigamma sums misses this
    # bound by up to 20x at the likelihood arguments

    @staticmethod
    def _exact(p, a):
        import mpmath
        with mpmath.workdps(50):
            a = mpmath.mpf(a)  # the float argument, exactly
            half = mpmath.mpf(1) / 2
            return float(mpmath.fsum(mpmath.loggamma(a + half - half * j)
                                     - mpmath.loggamma(a - half * j) for j in range(p)))

    @pytest.mark.parametrize("p", (1, 2, 3, 5, 8))
    def test_loglik_constant_argument(self, p):
        # the smaller gamma argument of likelihood.loglik_constant, 2/3 < delta < 1
        for d in np.linspace(0.67, 0.999, 119):
            a = (d * (2 - p) + p - 1) / (2 * (1 - d))
            exact = self._exact(p, a)
            assert abs(log_multigamma_ratio(p, a) - exact) <= 1e-14 * max(1.0, abs(exact)), (p, d)

    @pytest.mark.parametrize("p", (1, 2, 3, 8))
    def test_near_and_across_the_series_threshold(self, p):
        # x = a - (p-1)/2 from the edge of the domain through the switch to
        # the asymptotic series at 20
        for x in (1e-3, 0.5, 1.0, 7.3, 19.5, 19.999, 20.0, 20.5, 1e4):
            a = x + 0.5 * (p - 1)
            exact = self._exact(p, a)
            assert abs(log_multigamma_ratio(p, a) - exact) <= 1e-14 * max(1.0, abs(exact)), (p, x)

    def test_domain(self):
        with pytest.raises(DomainError):
            log_multigamma_ratio(3, 1.0)
        with pytest.raises(DomainError):
            log_multigamma_ratio(0, 1.0)


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
        # definite means the smallest eigenvalue exceeds 1e-10 times the largest
        for diagonal in ([0.0, 0.0, 0.0], [-1.0, -1.0, -1.0], [-2.0, 0.5, 1.0],
                         [1e-10, 0.5, 1.0]):
            with pytest.raises(NotPositiveDefinite, match="not positive definite"):
                check_spd(np.diag(diagonal))
        accepted = np.diag([2e-10, 0.5, 1.0])
        np.testing.assert_array_equal(check_spd(accepted), accepted)

    def test_spd_inverse_and_logdet(self, rng):
        m = random_spd(rng, 4)
        np.testing.assert_allclose(spd_inverse(m) @ m, np.eye(4), atol=1e-10)
        assert spd_logdet(m) == pytest.approx(np.linalg.slogdet(m)[1], rel=1e-12)
