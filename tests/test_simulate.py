import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import gamma as gamma_dist
from scipy.stats import kstest

from seqvol.errors import (DimensionMismatch, DomainError, FilterNumericalError,
                           NotPositiveDefinite)
from seqvol.filtering import ModelConfig, steady_Q
from seqvol.gwishart import (
    GWParams,
    SingularBetaParams,
    gw_logpdf,
    sample_singular_beta,
    sample_wishart_scaled,
)
from seqvol.linalg import (DEFAULT_REL_TOL, chol_upper, positive_eigenvalues, spd_inverse,
                           spectral, sym, sym_sqrt)
from seqvol.simulate import SimPath, _evolve, evolve_precision, simulate_path

from conftest import random_spd


@pytest.fixture
def config2():
    return ModelConfig(delta=0.8, phi=1.0, omega=np.diag([0.5, 1.5]))


class TestEvolvePrecision:
    def test_scalar_reduction(self, config2):
        # p=1: sigma_t = delta * sigma_prev / b with b ~ Beta(m/2, 1/2);
        # replay the same rng stream to recover b and check the identity
        config = ModelConfig(delta=0.7, phi=1.0, omega=np.array([[0.8]]))
        from seqvol.gwishart import SingularBetaParams, sample_singular_beta
        sigma_prev = 2.3
        out = evolve_precision(np.random.default_rng(5),
                               np.array([[sigma_prev]]), config)
        params = SingularBetaParams(m=config.beta_m, n_int=1, p=1)
        b = sample_singular_beta(np.random.default_rng(5), params)[0, 0]
        assert out[0, 0] == pytest.approx(0.7 * sigma_prev / b, rel=1e-12)

    def test_rank_one_deficiency_every_draw(self, rng, config2):
        sigma = random_spd(rng, 2)
        for _ in range(100):
            nxt = evolve_precision(rng, sigma, config2)
            from seqvol.linalg import chol_upper, spd_inverse
            u = chol_upper(spd_inverse(sigma))
            b = np.linalg.solve(u.T, np.linalg.solve(
                u.T, spd_inverse(nxt)).T).T / config2.k
            b = 0.5 * (b + b.T)
            assert len(positive_eigenvalues(np.eye(2) - b, 1e-8)) == 1
            sigma = nxt

    def test_random_walk_precision_mean(self, rng):
        # with Omega = I: E[Sigma_t^{-1}] = m k Q S^{-1} when
        # Sigma_{t-1}^{-1} ~ W_p(1/(1-d)+p-1, Q S^{-1})
        delta, p = 0.8, 2
        config = ModelConfig(delta=delta, phi=1.0, omega=np.eye(p))
        q = steady_Q(config)[0, 0]  # scalar matrix: Q = q I
        s = random_spd(rng, p)
        s_inv = np.linalg.inv(s)
        df = 1.0 / (1.0 - delta) + p - 1
        n_draws = 8000
        vals = np.empty((n_draws, p, p))
        for i in range(n_draws):
            prec_prev = sample_wishart_scaled(rng, df, q * s_inv)
            sigma_prev = np.linalg.inv(prec_prev)
            sigma_next = evolve_precision(rng, 0.5 * (sigma_prev + sigma_prev.T),
                                          config)
            vals[i] = np.linalg.inv(sigma_next)
        expected = config.beta_m * config.k * q * s_inv
        err = np.abs(vals.mean(axis=0) - expected)
        se = vals.std(axis=0) / math.sqrt(n_draws)
        assert np.all(err <= 3.5 * se)

    def test_marginal_gw_closure_scalar(self, rng):
        # one evolution step maps the scalar posterior-precision law to the
        # forecast law GW_1(m, Q, k/S); KS against the gw_logpdf CDF
        delta = 0.75
        config = ModelConfig(delta=delta, phi=1.0, omega=np.array([[1.0]]))
        q = steady_Q(config)[0, 0]
        s = 1.7
        m = config.beta_m
        nu0 = 1.0 / (1.0 - delta)  # = m + 1 at p=1
        draws = np.empty(4000)
        for i in range(len(draws)):
            prec_prev = rng.gamma(shape=nu0 / 2.0, scale=2.0 * q / s)
            sigma_next = evolve_precision(rng, np.array([[1.0 / prec_prev]]), config)
            draws[i] = 1.0 / sigma_next[0, 0]
        params = GWParams(nu=m, Ainv=np.array([[q]]),
                          Sinv=np.array([[config.k / s]]))
        xs = np.linspace(1e-9, np.quantile(draws, 0.9999) * 3, 4001)
        pdf = np.array([math.exp(gw_logpdf(params, np.array([[x]]))) for x in xs])
        cdf = np.concatenate([[0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2 * np.diff(xs))])
        cdf /= max(cdf[-1], 1.0)
        assert kstest(draws, lambda v: np.interp(v, xs, cdf)).pvalue > 0.01
        # cross-check against the closed scalar form Gamma(m/2, 2kQ/S)
        assert kstest(draws, gamma_dist(a=m / 2, scale=2 * config.k * q / s).cdf
                      ).pvalue > 0.01


class TestSimulatePath:
    def test_same_seed_identical(self, config2):
        a = simulate_path(123, config2, n_steps=50)
        b = simulate_path(123, config2, n_steps=50)
        np.testing.assert_array_equal(a.ys, b.ys)
        np.testing.assert_array_equal(a.thetas, b.thetas)
        for s1, s2 in zip(a.sigmas, b.sigmas):
            np.testing.assert_array_equal(s1, s2)
        assert a.seed == 123

    def test_generator_passthrough(self, config2):
        gen = np.random.default_rng(9)
        path = simulate_path(gen, config2, n_steps=10)
        assert path.seed is None
        assert path.ys.shape == (10, 2)

    def test_lengths_consistent(self, config2):
        path = simulate_path(5, config2, n_steps=17)
        assert path.ys.shape == (17, 2)
        assert path.thetas.shape == (17, 2)
        assert len(path.sigmas) == 18
        assert all(np.all(np.linalg.eigvalsh(s) > 0) for s in path.sigmas)

    def test_degenerate_state_innovation(self, config2):
        # omega = 0, phi = 1: the signal freezes at theta0
        theta0 = np.array([0.3, -0.7])
        path = simulate_path(7, config2, theta0=theta0, n_steps=25,
                             omega=np.zeros((2, 2)))
        np.testing.assert_allclose(path.thetas,
                                   np.tile(theta0, (25, 1)), atol=1e-14)

    def test_observation_noise_covariance(self, config2):
        # E[(y_t - theta_t)(y_t - theta_t)' - Sigma_t] = 0
        n_reps = 3000
        devs = np.empty((n_reps, 2, 2))
        for i in range(n_reps):
            path = simulate_path(10_000 + i, config2, n_steps=3)
            d = path.ys[2] - path.thetas[2]
            devs[i] = np.outer(d, d) - path.sigmas[3]
        err = np.abs(devs.mean(axis=0))
        se = devs.std(axis=0) / math.sqrt(n_reps)
        assert np.all(err <= 3 * se)

    def test_rejects_bad_args(self, config2):
        with pytest.raises(DomainError):
            simulate_path(1, config2, n_steps=0)
        for n_steps in (2.5, True, "3", 3.0, np.float64(3.0), None):
            # rejected before any draw: the generator is not advanced
            gen = np.random.default_rng(4)
            with pytest.raises(DomainError, match=re.escape(f"n_steps={n_steps!r} must be an")):
                simulate_path(gen, config2, n_steps=n_steps)
            assert gen.random() == np.random.default_rng(4).random()
        assert simulate_path(1, config2, n_steps=np.int64(3)).ys.shape == (3, 2)
        with pytest.raises(DomainError):
            SimPath(ys=np.zeros((3, 2)), thetas=np.zeros((2, 2)),
                    sigmas=[np.eye(2)] * 4, seed=None)

    @pytest.mark.parametrize("kwargs, error, message", [
        ({"theta0": [math.nan, 0.0]}, DomainError, r"theta0=\[nan, 0.0\] must be finite"),
        ({"theta0": [0.0, math.inf]}, DomainError, r"theta0=\[0.0, inf\] must be finite"),
        ({"theta0": np.zeros(3)}, DimensionMismatch,
         r"theta0 has shape \(3,\), expected \(2,\)"),
        ({"theta0": 0.0}, DimensionMismatch, r"theta0 has shape \(\), expected \(2,\)"),
        ({"sigma0": np.eye(3)}, DimensionMismatch,
         r"sigma0 has shape \(3, 3\), expected \(2, 2\)"),
        ({"sigma0": np.ones(2)}, DimensionMismatch, "sigma0 must be square"),
        ({"omega": np.eye(3)}, DimensionMismatch,
         r"omega has shape \(3, 3\), expected \(2, 2\)"),
    ])
    def test_rejects_bad_start(self, config2, kwargs, error, message):
        # rejected before any draw, not as numpy's error or a NaN path
        with pytest.raises(error, match=message):
            simulate_path(1, config2, n_steps=5, **kwargs)


class TestLongRunRobustness:
    # The evolution is exactly scale-equivariant, so renormalizing the scale
    # between 1000-step chunks tests "no factorization failure" without
    # overflow, as long as log(sigma) within a chunk stays far below float64's
    # 709 nats (``_evolve`` raises if sigma stops being finite and positive
    # definite). Shape (conditioning) still degenerates for p >= 2, at
    # max_i - min_i of psi((m-i+1)/2) - psi((m-i+2)/2) ln-cond per step
    # (0.171/0.061/0.012 at delta=0.7/0.8/0.9 for p=2), which caps the
    # attainable horizon in double precision.
    @pytest.mark.parametrize("delta", [0.7, 0.8, 0.9])
    def test_scalar_never_fails_100k_steps(self, delta):
        config = ModelConfig(delta=delta, phi=1.0, omega=np.array([[1.0]]))
        rng = np.random.default_rng(int(delta * 100))
        sigma = np.array([[1.0]])
        for _ in range(100):
            sigmas = _evolve(rng, sigma, config, 1000)[0]
            assert np.all(sigmas[:, 0, 0] > 0)
            sigma = sigmas[-1] / sigmas[-1, 0, 0]

    @pytest.mark.parametrize("delta,p,horizon", [
        (0.7, 2, 100), (0.7, 5, 40),
        (0.8, 2, 250), (0.8, 5, 100),
        (0.9, 2, 800), (0.9, 5, 350),
    ])
    def test_multivariate_stays_pd_within_horizon(self, delta, p, horizon):
        config = ModelConfig(delta=delta, phi=1.0, omega=np.eye(p))
        rng = np.random.default_rng(p * 1000 + int(delta * 100))
        sigma = np.eye(p)
        for _ in range(horizon):
            sigma = evolve_precision(rng, sigma, config)
            w = np.linalg.eigvalsh(sigma)
            assert w[0] > 0
            sigma = sigma / w[-1]


def _dense_sigmas(sigma0, bs, k):
    """The dense precision step, ``Sigma_t = (k U' B_t U)^{-1}`` with ``U``
    the upper Cholesky factor of ``Sigma_{t-1}^{-1}``, iterated over ``bs``."""
    sigmas = [sigma0]
    for b in bs:
        u = chol_upper(spd_inverse(sigmas[-1]))
        sigmas.append(spd_inverse(sym(k * (u.T @ b @ u))))
    return sigmas


class TestFactoredEvolution:
    @pytest.mark.parametrize("delta,p,n_steps,seed", [(0.95, 3, 300, 41),
                                                      (0.99, 2, 2000, 42)])
    def test_matches_dense_recursion_on_the_same_shocks(self, delta, p, n_steps, seed):
        # a path draws all B_t first, so a fresh generator on the same seed
        # replays its shocks
        config = ModelConfig(delta=delta, phi=1.0, omega=np.eye(p))
        path = simulate_path(seed, config, n_steps=n_steps)
        params = SingularBetaParams(m=config.beta_m, n_int=1, p=p)
        bs = sample_singular_beta(np.random.default_rng(seed), params, size=n_steps)
        for t, (got, ref) in enumerate(zip(path.sigmas, _dense_sigmas(np.eye(p), bs, config.k))):
            assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref)), t

    @pytest.mark.parametrize("delta", [0.99, 0.7])
    def test_p2_factor_chain_against_exact_arithmetic(self, delta, monkeypatch):
        # U_t = L_t' U_{t-1} over floats, against Fraction arithmetic on the
        # same float64 L_t. Each step rounds a diagonal entry once and the
        # off-diagonal l00 b + l10 c at most twice, so after t steps every
        # entry errs by at most gamma_{2t} = 2tu / (1 - 2tu), u = 2^-53, of
        # the same chain on |L_t'| and |U_0| (Higham 2002, sections 3.1 and 3.5);
        # that bound, not a tolerance, was fixed before the first run
        n_steps, seed = 300, 17
        config = ModelConfig(delta=delta, phi=1.0, omega=np.eye(2))
        factors = []

        def inv(a, _inv=np.linalg.inv):  # _evolve inverts the stack of U_t
            factors.append(a.copy())
            return _inv(a)

        monkeypatch.setattr(np.linalg, "inv", inv)
        try:
            _evolve(np.random.default_rng(seed), np.eye(2), config, n_steps)
        except FilterNumericalError:  # Sigma_t may leave float64 at delta = 0.7
            pass
        us = factors[-1]
        assert us.shape == (n_steps, 2, 2) and not us[:, 1, 0].any()
        params = SingularBetaParams(m=config.beta_m, n_int=1, p=2)
        lows = np.linalg.cholesky(
            sample_singular_beta(np.random.default_rng(seed), params, size=n_steps))
        lows *= math.sqrt(config.k)
        u = Fraction(1, 2 ** 53)
        exact = bound = [Fraction(1), Fraction(0), Fraction(1)]  # U_0 = I, exactly
        for t, (low, got) in enumerate(zip(lows.tolist(), us), start=1):
            (l00, _), (l10, l11) = (map(Fraction, row) for row in low)
            a, b, c = exact
            exact = [l00 * a, l00 * b + l10 * c, l11 * c]
            a, b, c = bound
            bound = [abs(l00) * a, abs(l00) * b + abs(l10) * c, abs(l11) * c]
            gamma = 2 * t * u / (1 - 2 * t * u)
            for x, ref, size in zip(got[(0, 0, 1), (0, 1, 1)].tolist(), exact, bound):
                assert abs(Fraction(x) - ref) <= gamma * size, t

    @pytest.mark.parametrize("phi", [0.0, 0.7, 1.0])
    def test_p2_signal_is_numpys_recursion_bit_for_bit(self, phi):
        # the path's own shocks, replayed in its draw order (all B_t, then
        # z_t, then eps_t), through numpy's phi * theta + s
        config = ModelConfig(delta=0.95, phi=phi, omega=np.array([[0.5, 0.1], [0.1, 1.2]]))
        theta0, n_steps = np.array([0.3, -1.1]), 400
        path = simulate_path(23, config, theta0=theta0, n_steps=n_steps)
        gen = np.random.default_rng(23)
        _, w, v = _evolve(gen, np.eye(2), config, n_steps)
        omega_sqrt = sym_sqrt(config.omega, DEFAULT_REL_TOL)
        draws = np.stack([gen.standard_normal((n_steps, 2)) @ omega_sqrt,
                          gen.standard_normal((n_steps, 2))], axis=-1)
        shocks = spectral(v, np.sqrt(w)) @ draws
        theta = theta0
        for t in range(n_steps):
            theta = phi * theta + shocks[t, :, 0]
            assert path.thetas[t].tobytes() == theta.tobytes(), t
        assert path.ys.tobytes() == (path.thetas + shocks[..., 1]).tobytes()

    def test_decompositions_do_not_grow_with_the_path(self, config2, monkeypatch):
        calls = {"n": 0}
        for name in ("eigh", "eigvalsh", "cholesky", "inv", "solve"):
            def counted(*args, _fn=getattr(np.linalg, name), **kwargs):
                calls["n"] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counted)
        counts = []
        for n_steps in (50, 500):
            calls["n"] = 0
            simulate_path(3, config2, sigma0=np.eye(2), n_steps=n_steps)
            counts.append(calls["n"])
        assert counts[0] == counts[1] > 0

    def test_degenerating_path_fails_at_a_step(self):
        # at delta = 0.7, p = 2 the condition number of Sigma_t leaves double
        # precision within a few hundred steps
        config = ModelConfig(delta=0.7, phi=1.0, omega=np.eye(2))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(FilterNumericalError) as info:
                simulate_path(5, config, n_steps=2000)
        assert 1 <= info.value.t <= 2000
        assert isinstance(info.value.cause, NotPositiveDefinite)
        assert f"step t={info.value.t}: " in str(info.value)
