import math

import numpy as np
import pytest
from scipy.linalg import sqrtm
from scipy.special import gammaln
from scipy.stats import beta as beta_dist

import seqvol.likelihood
from seqvol.errors import DimensionMismatch, DomainError, EmptyInput, NotPositiveDefinite
from seqvol.filtering import ModelConfig, filter_run, steady_Q
from seqvol.gwishart import RANK_REL_TOL, giw_estimator
from seqvol.likelihood import (
    loglik_at_filter_path,
    loglik_constant,
    loglik_from_records,
    loglik_path,
    perf_metrics,
)
from seqvol.linalg import chol_upper, spd_inverse, stacked_eigh
from seqvol.simulate import evolve_precision, simulate_path

from conftest import random_spd
from scalar_oracle import run_scalar_pipeline


@pytest.fixture
def config1():
    return ModelConfig(delta=0.7, phi=1.0, omega=np.array([[0.8]]))


@pytest.fixture
def config2():
    return ModelConfig(delta=0.8, phi=1.0, omega=np.diag([0.5, 1.5]))


class TestConstant:
    def test_scalar_gamma_arguments(self, config1):
        q = steady_Q(config1)
        n_obs = 7
        delta = config1.delta
        expected = n_obs * (
            -math.log(math.pi)
            - 0.5 * math.log(q[0, 0])
            - 0.5 * math.log(config1.k)
            + gammaln(1.0 / (2 * (1 - delta)))  # = (d(1-p)+p)/(2(1-d)) at p=1
            - gammaln(delta / (2 * (1 - delta)))
        )
        assert loglik_constant(config1, q, n_obs) == pytest.approx(expected, rel=1e-12)

    def test_zero_observations(self, config2):
        assert loglik_constant(config2, steady_Q(config2), 0) == 0.0

    def test_linear_in_n(self, config2):
        q = steady_Q(config2)
        assert loglik_constant(config2, q, 8) == pytest.approx(
            2.0 * loglik_constant(config2, q, 4), rel=1e-14)

    @pytest.mark.parametrize("p", (1, 2, 3, 5, 8))
    def test_against_50_digits(self, p):
        # the float inputs (log|Q|, k, the gamma argument) carried exactly
        # into 50-digit arithmetic; the gamma ratio near delta = 1 is a
        # difference of two sums near 1e3 unless it is telescoped
        import mpmath
        half = mpmath.mpf(1) / 2
        with mpmath.workdps(50):
            for d in np.linspace(0.67, 0.999, 119):
                config = ModelConfig(delta=float(d), phi=1.0,
                                     omega=np.diag(np.linspace(0.3, 2.0, p)))
                q = steady_Q(config)
                a = mpmath.mpf((d * (2 - p) + p - 1) / (2 * (1 - d)))
                ratio = mpmath.fsum(mpmath.loggamma(a + half - half * j)
                                    - mpmath.loggamma(a - half * j) for j in range(p))
                exact = float(-p * mpmath.log(mpmath.pi)
                              - half * mpmath.mpf(np.linalg.slogdet(q)[1])
                              - p * half * mpmath.log(mpmath.mpf(config.k)) + ratio)
                got = loglik_constant(config, q, 1)
                assert abs(got - exact) <= 1e-14 * max(1.0, abs(exact)), (p, d)


class TestLoglikPath:
    def _random_path(self, rng, config, n_obs):
        # evolve so the path stays inside the transition support
        sigmas = [random_spd(rng, config.p, 0.5, 2.0)]
        for _ in range(n_obs):
            sigmas.append(evolve_precision(rng, sigmas[-1], config))
        es = [0.3 * rng.standard_normal(config.p) for _ in range(n_obs)]
        return sigmas, es

    def test_breakdown_consistency(self, rng, config2):
        sigmas, es = self._random_path(rng, config2, 12)
        bd = loglik_path(sigmas, es, config2, steady_Q(config2))
        regrouped = (bd.constant_c + bd.quad_term + bd.chol_logdet_term
                     + bd.lt_term + bd.sigma_logdet_term)
        assert bd.total == regrouped  # total is defined as this sum
        assert sum(bd.per_step) == pytest.approx(bd.total, abs=1e-9)
        assert len(bd.per_step) == 12

    def test_requires_n_plus_one_sigmas(self, rng, config2):
        sigmas, es = self._random_path(rng, config2, 5)
        with pytest.raises(DimensionMismatch):
            loglik_path(sigmas[:-1], es, config2, steady_Q(config2))

    def test_per_step_constant_is_the_filters(self, monkeypatch):
        # each step carries the filter's c1 at every length N, and the total N c1;
        # (N c1) / N differs from c1 in the last bit for some N. With the term
        # groups zeroed, a step's value is its constant alone
        config = ModelConfig(delta=0.85, phi=0.9, omega=np.diag([0.3, 0.6, 1.2]))
        q, c1 = steady_Q(config), config._solo_setup.c1[0]
        monkeypatch.setattr(seqvol.likelihood, "terms_from_spectra",
                            lambda e, *args: (np.zeros(len(e)),) * 4)
        sigmas, es = [np.eye(3)] * 400, [np.zeros(3)] * 399
        for n in range(1, 400):
            bd = loglik_path(sigmas[:n + 1], es[:n], config, q)
            assert bd.constant_c == n * c1 and bd.per_step == [c1] * n, n

    def test_zero_errors_zero_quad(self, rng, config2):
        sigmas, _ = self._random_path(rng, config2, 6)
        es = [np.zeros(2)] * 6
        bd = loglik_path(sigmas, es, config2, steady_Q(config2))
        assert bd.quad_term == 0.0

    def test_scalar_term_by_term(self, rng, config1):
        # recompute every term with plain floats; path on the support
        n_obs = 9
        k = config1.k
        sigmas = [float(rng.uniform(0.5, 2.0))]
        for _ in range(n_obs):
            sigmas.append(sigmas[-1] / (k * rng.uniform(0.2, 0.95)))
        es = [float(0.5 * rng.standard_normal()) for _ in range(n_obs)]
        q = steady_Q(config1)
        bd = loglik_path([np.array([[s]]) for s in sigmas],
                         [np.array([e]) for e in es], config1, q)
        k, delta, qs = config1.k, config1.delta, q[0, 0]
        quad = sum(-0.5 * e * e / (qs * s) for e, s in zip(es, sigmas[1:]))
        chol = sum((2 * delta - 1) / (2 * (1 - delta)) * math.log(s)
                   for s in sigmas[:-1])
        lt = sum(-0.5 * math.log(1.0 - sp / (k * st))
                 for sp, st in zip(sigmas[:-1], sigmas[1:]))
        sig = sum(-(3 * delta - 2) / (2 * (1 - delta)) * math.log(s)
                  for s in sigmas[1:])
        assert bd.quad_term == pytest.approx(quad, rel=1e-10)
        assert bd.chol_logdet_term == pytest.approx(chol, rel=1e-10)
        assert bd.lt_term == pytest.approx(lt, rel=1e-10)
        assert bd.sigma_logdet_term == pytest.approx(sig, rel=1e-10)

    def test_evolution_generated_path_has_rank_one_lt(self, rng):
        # along an exact evolution path the L_t matrix is I - B_t: rank 1
        from seqvol.gwishart import RANK_REL_TOL
        from seqvol.linalg import chol_upper, positive_eigenvalues, spd_inverse
        config = ModelConfig(delta=0.8, phi=1.0, omega=np.eye(3))
        sigma = random_spd(rng, 3)
        for _ in range(15):
            sigma_next = evolve_precision(rng, sigma, config)
            u = chol_upper(spd_inverse(sigma))
            inner = np.eye(3) - np.linalg.solve(
                u.T, np.linalg.solve(u.T, spd_inverse(sigma_next)).T).T / config.k
            assert len(positive_eigenvalues(0.5 * (inner + inner.T),
                                            RANK_REL_TOL)) == 1
            sigma = sigma_next

    def test_domain_error_reports_step(self, config2):
        sigmas = [np.eye(2), np.eye(2), 1e-6 * np.eye(2), np.eye(2)]
        es = [0.1 * np.ones(2)] * 3
        with pytest.raises(DomainError, match="t=2"):
            loglik_path(sigmas, es, config2, steady_Q(config2))

    def test_errors_in_time_order(self, config2):
        # a step with no positive L_t before a non-SPD matrix raises first, and
        # a non-SPD matrix before such a step
        collapse = np.eye(2) / (2.0 * config2.k)  # L_t = I - 2 I
        es = [0.1 * np.ones(2)] * 4
        sigmas = [np.eye(2), collapse, np.eye(2), -np.eye(2), np.eye(2)]
        with pytest.raises(DomainError, match="t=1"):
            loglik_path(sigmas, es, config2, steady_Q(config2))
        sigmas = [np.eye(2), np.eye(2), -np.eye(2), np.eye(2), collapse]
        with pytest.raises(NotPositiveDefinite):
            loglik_path(sigmas, es, config2, steady_Q(config2))

    def test_monotone_decrease_in_error_scale(self, rng, config2):
        sigmas, es = self._random_path(rng, config2, 8)
        q = steady_Q(config2)
        base = loglik_path(sigmas, es, config2, q).total
        es_scaled = [e.copy() for e in es]
        es_scaled[3] = 2.5 * es_scaled[3]
        assert loglik_path(sigmas, es_scaled, config2, q).total < base

    def test_scalar_decomposition_with_derived_offset(self, rng, config1):
        # The implemented objective equals the exact scalar likelihood sum
        # log N(y_t; m, Q s_t) + log p(s_t | s_{t-1}) plus the closed-form
        # offset sum_t[-1/2 ln s_{t-1} + 5/2 ln s_t] + N[(m-1)/2 ln k +
        # 1/2 ln 2]; asserting the identity pins every implemented
        # coefficient against textbook normal and beta densities.
        n_obs = 12
        delta = config1.delta
        k = config1.k
        m_beta = config1.beta_m
        q = steady_Q(config1)
        qs = q[0, 0]
        sigmas = [float(rng.uniform(0.5, 2.0))]
        for _ in range(n_obs):
            # keep transitions inside the support b = s_prev/(k s_t) in (0,1)
            b = rng.uniform(0.2, 0.95)
            sigmas.append(sigmas[-1] / (k * b))
        es = [float(0.4 * rng.standard_normal()) for _ in range(n_obs)]

        bd = loglik_path([np.array([[s]]) for s in sigmas],
                         [np.array([e]) for e in es], config1, q)

        exact = 0.0
        for t in range(1, n_obs + 1):
            s_prev, s_t, e = sigmas[t - 1], sigmas[t], es[t - 1]
            exact += (-0.5 * math.log(2 * math.pi * qs * s_t)
                      - 0.5 * e * e / (qs * s_t))
            b = s_prev / (k * s_t)
            exact += float(beta_dist(m_beta / 2, 0.5).logpdf(b))
            exact += math.log(b / s_t)  # |db/ds_t| = b/s_t
        offset = sum(-0.5 * math.log(sigmas[t - 1]) + 2.5 * math.log(sigmas[t])
                     for t in range(1, n_obs + 1))
        offset += n_obs * ((m_beta - 1) / 2 * math.log(k) + 0.5 * math.log(2.0))
        assert bd.total == pytest.approx(exact + offset, abs=1e-8)


class TestTermsFromSpectra:
    @pytest.mark.parametrize("p", [1, 2, 3, 8])
    def test_path_equals_its_transitions(self, rng, p):
        # one call on a T + 1 path gives, bit for bit, the T calls on its
        # two-row paths; the stack holds a NaN member from step 3 and a step
        # (t = 5 of member 2) with no positive L_t eigenvalue
        n_steps, n_members = 9, 4
        sigmas = np.array([[random_spd(rng, p) for _ in range(n_members)]
                           for _ in range(n_steps + 1)])
        deltas = np.linspace(0.75, 0.95, n_members)
        k = np.array([ModelConfig(delta=d, phi=1.0, omega=np.eye(p)).k for d in deltas])
        sigmas[5, 2] = sigmas[4, 2] / (2.0 * k[2])
        w, v = np.linalg.eigh(sigmas)
        w[3:, 1], v[3:, 1] = np.nan, np.nan
        e = rng.standard_normal((n_steps, n_members, p))
        q_inv = np.array([random_spd(rng, p) for _ in range(n_members)])
        with np.errstate(invalid="ignore"):
            path = seqvol.likelihood.terms_from_spectra(e, w, v, q_inv, k, deltas)
            steps = [seqvol.likelihood.terms_from_spectra(e[t:t + 1], w[t:t + 2],
                                                          v[t:t + 2], q_inv, k, deltas)
                     for t in range(n_steps)]
        assert path[2][4, 2] == -np.inf
        assert np.isnan(path[0][3:, 1]).all() and np.isfinite(path[0][:, [0, 2, 3]]).all()
        for group, got in zip(path, zip(*steps)):
            assert group.tobytes() == np.concatenate(got).tobytes()

    @pytest.mark.parametrize("decompose", ["closed_form", "lapack"])
    def test_p2_closed_form_against_the_definition(self, rng, decompose):
        # the p = 2 closed form against the term groups computed here from
        # their definition, U the upper Cholesky factor of Sigma_{t-1}^{-1}, on
        # the eigenvectors of the closed-form eigensolver (rotations) and on
        # LAPACK's (which may be reflections)
        n_steps, n_members, p = 40, 6, 2
        sigmas = np.array([[random_spd(rng, p) for _ in range(n_members)]
                           for _ in range(n_steps + 1)])
        deltas = np.linspace(0.75, 0.95, n_members)
        k = np.array([ModelConfig(delta=d, phi=1.0, omega=np.eye(p)).k for d in deltas])
        e = rng.standard_normal((n_steps, n_members, p))
        q_inv = np.array([random_spd(rng, p) for _ in range(n_members)])
        w, v = stacked_eigh(sigmas) if decompose == "closed_form" else np.linalg.eigh(sigmas)
        quad, chol, lt, sig = seqvol.likelihood.terms_from_spectra(e, w, v, q_inv, k, deltas)

        path = (v * w[..., None, :]) @ v.swapaxes(-1, -2)  # the spectra's own matrices
        compared = 0
        for t in range(1, n_steps + 1):
            for b in range(n_members):
                d, prev, cur = deltas[b], path[t - 1, b], path[t, b]
                u = np.linalg.cholesky(np.linalg.inv(prev)).T
                x = np.linalg.solve(sqrtm(cur), e[t - 1, b])
                want = (-0.5 * x @ q_inv[b] @ x,
                        -(2 * d - 1) / (1 - d) * np.log(np.diag(u)).sum(),
                        -(3 * d - 2) / (2 * (1 - d)) * np.linalg.slogdet(cur)[1])
                got = (quad[t - 1, b], chol[t - 1, b], sig[t - 1, b])
                assert got == pytest.approx(want, rel=1e-13), (t, b)
                u_inv = np.linalg.inv(u)
                inner = np.eye(p) - u_inv.T @ np.linalg.inv(cur) @ u_inv / k[b]
                eigs = np.linalg.eigvalsh(0.5 * (inner + inner.T))
                cut = RANK_REL_TOL * max(1.0, np.abs(eigs).max())
                if np.abs(eigs - cut).min() < 1e-6:
                    continue  # an eigenvalue this near the cut may fall either side of it
                compared += 1
                kept = eigs > cut
                want_lt = -0.5 * p * np.log(eigs[kept]).sum() if kept.any() else -np.inf
                assert lt[t - 1, b] == pytest.approx(want_lt, rel=1e-12, abs=1e-12), (t, b)
        assert compared == n_steps * n_members


class TestLoglikAtFilterPath:
    def test_deterministic(self, rng, config2):
        ys = 0.3 * rng.standard_normal((40, 2))
        a = loglik_at_filter_path(ys, config2)
        b = loglik_at_filter_path(ys.copy(), config2)
        assert a.total == b.total
        assert a.per_step == b.per_step

    def test_scalar_pipeline_agreement(self, config1):
        rng = np.random.default_rng(12)
        path = simulate_path(rng, config1, n_steps=300)
        bd = loglik_at_filter_path(path.ys, config1)
        _, total = run_scalar_pipeline(path.ys[:, 0], delta=0.7, phi=1.0, omega=0.8)
        assert bd.total == pytest.approx(total, rel=1e-10)

    def test_config_construction_order_invariance(self, rng):
        ys = 0.3 * rng.standard_normal((30, 2))
        c1 = ModelConfig(delta=0.8, phi=1.0, omega=np.diag([0.5, 1.5]))
        c2 = ModelConfig(omega=np.diag([0.5, 1.5]), phi=1.0, delta=0.8)
        assert loglik_at_filter_path(ys, c1).total == loglik_at_filter_path(ys, c2).total


class TestLoglikFromRecords:
    @pytest.mark.parametrize("standardization", ["forecast_cov", "posterior_st"])
    @pytest.mark.parametrize("mean_mode", ["plain", "phi_scaled"])
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_one_pass_matches_path_oracle(self, p, mean_mode, standardization):
        config = ModelConfig(delta=0.85, phi=0.9,
                             omega=np.diag(np.linspace(0.5, 1.5, p)),
                             forecast_mean_mode=mean_mode,
                             standardization_mode=standardization)
        # a path from the model itself stays inside the transition support
        ys = simulate_path(np.random.default_rng(p), config, n_steps=120).ys
        records, _ = filter_run(ys, config)
        bd = loglik_from_records(records, config)

        # the plugged path: prior estimate at time 0, then each S_t^*
        q = steady_Q(config)
        sigma0 = giw_estimator(spd_inverse(q), config.s0, config.posterior_dof)
        oracle = loglik_path([sigma0] + [r.s_star for r in records],
                             [r.e for r in records], config, q)
        for group in ("total", "constant_c", "quad_term", "chol_logdet_term",
                      "lt_term", "sigma_logdet_term"):
            assert getattr(bd, group) == pytest.approx(getattr(oracle, group),
                                                       rel=1e-12), group
        assert bd.per_step == pytest.approx(oracle.per_step, rel=1e-12)
        if p == 1:
            _, total = run_scalar_pipeline(ys[:, 0], delta=0.85, phi=0.9, omega=0.5,
                                           phi_scaled_mean=mean_mode == "phi_scaled")
            assert bd.total == pytest.approx(total, rel=1e-10)

    def test_records_without_terms_are_refused(self, rng, config2):
        ys = 0.3 * rng.standard_normal((20, 2))
        records, _ = filter_run(ys, config2, compute_loglik=False)
        with pytest.raises(DomainError, match="compute_loglik=False"):
            loglik_from_records(records, config2)


class TestIdentityBAccuracy:
    def test_lt_against_extended_precision_definition(self):
        self._check_lt(8, (3e-4, 4e-4, 6e-4, 1e-3))

    def test_p2_lt_against_extended_precision_definition(self):
        # the same at p = 2, where B B' and L_t's spectrum run in closed form;
        # half the p = 8 shocks put its smallest kept eigenvalue below 1e-7
        self._check_lt(2, (1.5e-4, 2e-4, 3e-4, 5e-4))

    @staticmethod
    def _check_lt(p, scales):
        # The filter takes L_t from the spectrum of I - B B'/k (identity B).
        # Check its lt term at the 4 steps of a p-variate run with the smallest
        # kept L_t eigenvalues against the definition, U = upper Cholesky
        # factor of Sigma_{t-1}^{-1}, evaluated with 50 digits. Observations
        # planted next to their forecast mean put kept eigenvalues near the
        # 1e-8 cut.
        import mpmath
        n_obs = 200
        rng = np.random.default_rng(8)
        corr = 0.3 + 0.7 * np.eye(p)
        ys = 0.01 * rng.standard_normal((n_obs, p)) @ np.linalg.cholesky(corr).T
        config = ModelConfig(delta=0.7, phi=1.0, omega=np.eye(p))
        for t, scale in zip((50, 90, 130, 170), scales):
            _, state = filter_run(ys[:t], config, compute_loglik=False)
            ys[t] = state.m + scale * ys[t]
        records, _ = filter_run(ys, config)
        q = steady_Q(config)
        sigmas = ([giw_estimator(spd_inverse(q), config.s0, config.posterior_dof)]
                  + [r.s_star for r in records])

        def smallest_kept(t):
            u = chol_upper(spd_inverse(sigmas[t - 1]))
            a = np.linalg.solve(u.T, np.linalg.solve(u.T, spd_inverse(sigmas[t])).T).T
            eigs = np.linalg.eigvalsh(np.eye(p) - 0.5 * (a + a.T) / config.k)
            kept = eigs[eigs > RANK_REL_TOL * max(1.0, np.max(np.abs(eigs)))]
            return kept.min() if kept.size else np.inf

        steps = sorted(range(1, n_obs + 1), key=smallest_kept)[:4]
        assert smallest_kept(steps[0]) < 1e-7
        mpmath.mp.dps = 50
        k = mpmath.mpf(config.k)
        for t in steps:
            low = mpmath.cholesky(mpmath.inverse(mpmath.matrix(sigmas[t - 1].tolist())))
            low_inv = mpmath.inverse(low)  # U = low', so U'^{-1} = low^{-1}
            inner = mpmath.eye(p) - (low_inv * mpmath.inverse(mpmath.matrix(
                sigmas[t].tolist())) * low_inv.T) / k
            eigs, _ = mpmath.eigsy((inner + inner.T) / 2)
            eigs = [eigs[i] for i in range(p)]
            threshold = RANK_REL_TOL * max(1, max(abs(x) for x in eigs))
            exact = -p / 2 * mpmath.fsum(mpmath.log(x) for x in eigs if x > threshold)
            assert abs(records[t - 1].terms[2] - float(exact)) <= 2e-6, t


def _run(es, us):
    """A run with the two columns perf_metrics reads: ``e`` and ``u``, one row per step."""
    es, us = np.asarray(es, dtype=float), np.asarray(us, dtype=float)
    run = np.recarray(len(es), [("e", float, es.shape[1:]), ("u", float, us.shape[1:])])
    run.e, run.u = es, us
    return run


class TestPerfMetrics:
    def test_zero_errors(self):
        report = perf_metrics(_run(np.zeros((4, 2)), np.zeros((4, 2))))
        np.testing.assert_array_equal(report.mse, [0.0, 0.0])
        np.testing.assert_array_equal(report.msse, [0.0, 0.0])
        np.testing.assert_array_equal(report.mad, [0.0, 0.0])
        np.testing.assert_array_equal(report.me, [0.0, 0.0])

    def test_single_observation(self):
        report = perf_metrics(_run([[1.0, -2.0]], [[0.5, 0.5]]))
        np.testing.assert_allclose(report.me, [1.0, -2.0])
        np.testing.assert_allclose(report.mse, [1.0, 4.0])
        np.testing.assert_allclose(report.mad, [1.0, 2.0])
        assert report.n_obs == 1

    def test_variance_decomposition_bound(self, rng):
        draws = rng.standard_normal((59, 2, 3))  # e_t, then u_t, step by step
        report = perf_metrics(_run(draws[:, 0], draws[:, 1]))
        assert np.all(report.mse >= report.me ** 2 - 1e-12)
        assert np.all(report.mad >= 0)

    def test_permutation_covariance(self, rng):
        es = rng.standard_normal((25, 3))
        us = rng.standard_normal((25, 3))
        base = perf_metrics(_run(es, us))
        perm = [2, 0, 1]
        permuted = perf_metrics(_run(es[:, perm], us[:, perm]))
        np.testing.assert_allclose(permuted.mse, base.mse[perm])
        np.testing.assert_allclose(permuted.msse, base.msse[perm])
        np.testing.assert_allclose(permuted.mad, base.mad[perm])
        np.testing.assert_allclose(permuted.me, base.me[perm])

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            perf_metrics(_run(np.empty((0, 2)), np.empty((0, 2))))

    def test_well_specified_msse_near_one(self):
        # numerically tame regime; the matched prior scale makes the run
        # well specified from t=1 (a diffuse S0 needs ~k/(k-1) steps to
        # reach the data scale, miscalibrating early standardized errors)
        delta = 0.99
        omega = np.diag([0.4, 1.0])
        base = ModelConfig(delta=delta, phi=1.0, omega=omega)
        s0 = steady_Q(base) / base.forecast_cov_factor
        config = ModelConfig(delta=delta, phi=1.0, omega=omega, s0=s0)
        from seqvol.filtering import limit_P
        from seqvol.linalg import sym_sqrt
        rng = np.random.default_rng(77)
        theta0 = sym_sqrt(limit_P(1.0, omega)) @ rng.standard_normal(2)
        path = simulate_path(rng, config, sigma0=np.eye(2), theta0=theta0,
                             n_steps=2000)
        records, _ = filter_run(path.ys, config, compute_loglik=False)
        report = perf_metrics(records)
        assert np.all(report.msse > 0.8) and np.all(report.msse < 1.2)
