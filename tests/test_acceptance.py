"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s``.

Criteria 7 and 8 are implemented exactly as specified and FAIL: the
generative volatility evolution is a random matrix product with distinct
Lyapunov exponents, so at (delta=0.7, p=2) the log condition number of the
volatility matrix grows by ~0.171 per step and every path degenerates
numerically long before N=2000 (the one-step law was verified before
concluding: E[B] = m/(m+n) I and the deficient eigenvalue of I-B follows
Beta(p/2, (m-p+1)/2) by KS; the growth rate per ln-cond unit/step is
max_i - min_i of psi((m-i+1)/2) - psi((m-i+2)/2), m = delta/(1-delta) + p - 1:
0.171 at delta=0.7 p=2, 0.061 at 0.8, 0.012 at 0.9, 0.0001 at 0.99). The
neighbouring "substance" tests demonstrate the same statistical claims in an
attainable regime and pass.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import invwishart, kstest

import seqvol as sv
from seqvol.errors import SeqvolError
from seqvol.filtering import ModelConfig, filter_run, limit_P, steady_Q
from seqvol.gwishart import (
    GIWParams,
    GWParams,
    SingularBetaParams,
    giw_estimator,
    giw_logpdf,
    gw_logpdf,
    sample_singular_beta,
    sample_wishart_scaled,
)
from seqvol.likelihood import loglik_at_filter_path, perf_metrics
from seqvol.linalg import sym_sqrt
from seqvol.search import SearchSpec, coordinate_search
from seqvol.simulate import simulate_path

from conftest import random_spd
from scalar_oracle import run_scalar_pipeline


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {status}  {name}{detail}")
    return ok


def well_specified_config(delta, omega):
    """Config whose prior scale matches the generative initial state.

    ``S0`` is chosen so the time-1 forecast covariance equals the steady
    law at ``sigma_0 = I``; without this the S-recursion needs ~k/(k-1)
    steps to find the data scale and early standardized errors are
    arbitrarily miscalibrated.
    """
    base = ModelConfig(delta=delta, phi=1.0, omega=omega)
    s0 = steady_Q(base) / base.forecast_cov_factor
    return ModelConfig(delta=delta, phi=1.0, omega=omega, s0=s0)


def test_criterion_01_distribution_identities(rng):
    started = time.perf_counter()
    worst = 0.0
    for p in (1, 2, 3, 5):
        for _ in range(50):
            n = 2 * p + rng.uniform(0.5, 8.0)
            s = random_spd(rng, p)
            x = random_spd(rng, p)
            ref = invwishart(df=n - p - 1, scale=s).logpdf(x)
            a_case = giw_logpdf(GIWParams(n=n, A=np.eye(p), S=s), x)
            s_case = giw_logpdf(GIWParams(n=n, A=s, S=np.eye(p)), x)
            worst = max(worst, abs(a_case - ref), abs(s_case - ref))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-10 and elapsed < 5.0
    assert report(1, "inverted-Wishart reductions", ok,
                  f" (max log-space error {worst:.2e}, {elapsed:.2f}s)")


def test_criterion_02_univariate_normalization(rng):
    started = time.perf_counter()
    worst = 0.0
    for _ in range(10):
        n = 2 + rng.uniform(1.5, 8.0)
        a = rng.uniform(0.3, 3.0)
        s = rng.uniform(0.3, 3.0)
        giw = GIWParams(n=n, A=np.array([[a]]), S=np.array([[s]]))
        val, _ = quad(lambda x: math.exp(giw_logpdf(giw, np.array([[x]]))),
                      1e-10, np.inf, limit=300)
        worst = max(worst, abs(val - 1.0))
        gw = GWParams(nu=n - 2, Ainv=np.array([[1 / a]]), Sinv=np.array([[1 / s]]))
        val, _ = quad(lambda y: math.exp(gw_logpdf(gw, np.array([[y]]))),
                      1e-12, np.inf, limit=300)
        worst = max(worst, abs(val - 1.0))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-6 and elapsed < 10.0
    assert report(2, "p=1 density normalization", ok,
                  f" (max |integral-1| {worst:.2e}, {elapsed:.2f}s)")


def test_criterion_03_estimator_contract(rng):
    worst_sym = worst_scalar = worst_ident = 0.0
    for _ in range(100):
        p = int(rng.integers(1, 4))
        n = 2 * p + 2 + rng.uniform(0.5, 10.0)
        a, s = random_spd(rng, p), random_spd(rng, p)
        est = giw_estimator(a, s, n)
        worst_sym = max(worst_sym, float(np.max(np.abs(
            est - giw_estimator(s, a, n)))))
        if p == 1:
            worst_scalar = max(worst_scalar, abs(
                est[0, 0] - a[0, 0] * s[0, 0] / (n - 4.0)))
        worst_ident = max(worst_ident, float(np.max(np.abs(
            giw_estimator(np.eye(p), s, n) - s / (n - 2 * p - 2)))))
    ok = worst_sym <= 1e-12 and worst_scalar <= 1e-12 and worst_ident <= 1e-12
    assert report(3, "point estimator requirements", ok,
                  f" (swap {worst_sym:.1e}, scalar {worst_scalar:.1e}, "
                  f"identity {worst_ident:.1e})")


@pytest.mark.slow
def test_criterion_04_convolution(rng):
    started = time.perf_counter()
    n_draws = 100_000
    ok = True
    details = []
    for p, n_int in ((2, 1), (3, 2)):
        m = 5.5
        s = random_spd(rng, p)
        params = SingularBetaParams(m=m, n_int=n_int, p=p)
        h = sample_wishart_scaled(rng, m + n_int, s, size=n_draws)
        b = sample_singular_beta(rng, params, size=n_draws)
        # U(H) = L' for H = L L', so G = U'BU = L B L'
        low = np.linalg.cholesky(h)
        g = low @ b @ np.swapaxes(low, -1, -2)
        draws = 0.5 * (g + np.swapaxes(g, -1, -2))
        err = np.abs(draws.mean(axis=0) - m * s)
        se = draws.std(axis=0) / math.sqrt(n_draws)
        ok &= bool(np.all(err <= 3 * se))
        details.append(f"p={p} max|err|/se={np.max(err / se):.2f}")

    # p=1 with general (a, s): KS against the gw_logpdf-implied CDF
    m, n_int, a, s_scalar = 4.2, 1, 1.3, 0.6
    h = rng.gamma(shape=(m + n_int) / 2, scale=2 * a * s_scalar, size=n_draws)
    b = rng.beta(m / 2, n_int / 2, size=n_draws)
    g = h * b
    gw = GWParams(nu=m, Ainv=np.array([[a]]), Sinv=np.array([[s_scalar]]))
    xs = np.linspace(1e-9, float(np.quantile(g, 0.99995)) * 4, 20_001)
    pdf = np.array([math.exp(gw_logpdf(gw, np.array([[x]]))) for x in xs])
    cdf = np.concatenate([[0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2 * np.diff(xs))])
    cdf /= max(cdf[-1], 1.0)
    pvalue = kstest(g, lambda v: np.interp(v, xs, cdf)).pvalue
    ok &= pvalue > 0.01
    elapsed = time.perf_counter() - started
    ok &= elapsed < 60.0
    details.append(f"KS p={pvalue:.3f}, {elapsed:.1f}s")
    assert report(4, "beta-Wishart convolution", ok, " (" + ", ".join(details) + ")")


def test_criterion_05_limit_theorem(rng):
    from conftest import iterate_P_to_convergence
    started = time.perf_counter()
    worst_iter = worst_comm = 0.0
    for i in range(100):
        p = int(rng.integers(1, 4))
        omega = random_spd(rng, p, eig_low=0.05, eig_high=3.0)
        for phi in (0.0, 0.5, 1.0, 1.5):
            direct = limit_P(phi, omega)
            iterated = iterate_P_to_convergence(phi, omega, p0=1000.0, tol=1e-14)
            worst_iter = max(worst_iter, float(np.max(np.abs(direct - iterated))))
            worst_comm = max(worst_comm, float(np.max(np.abs(
                direct @ omega - omega @ direct))))
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    golden_err = float(np.max(np.abs(limit_P(1.0, np.eye(3)) - golden * np.eye(3))))
    elapsed = time.perf_counter() - started
    ok = (worst_iter <= 1e-10 and worst_comm <= 1e-10
          and golden_err <= 1e-10 and elapsed < 5.0)
    assert report(5, "steady-state limit of P", ok,
                  f" (iter {worst_iter:.1e}, commute {worst_comm:.1e}, "
                  f"golden {golden_err:.1e}, {elapsed:.2f}s)")


def test_criterion_06_scalar_oracle_equivalence():
    delta, phi, omega = 0.7, 1.0, 0.8
    config = ModelConfig(delta=delta, phi=phi, omega=np.array([[omega]]))
    worst = 0.0
    worst_step_ll = 0.0

    def rel(a, b):
        return abs(a - b) / max(1.0, abs(a), abs(b))

    for seed in range(10):
        path = simulate_path(seed, config, n_steps=1000)
        records, state = filter_run(path.ys, config)
        breakdown = loglik_at_filter_path(path.ys, config)
        oracle, oracle_total = run_scalar_pipeline(
            path.ys[:, 0], delta=delta, phi=phi, omega=omega)
        for rec, ref in zip(records, oracle):
            worst = max(worst,
                        rel(rec.e[0], ref["e"]),
                        rel(rec.u[0], ref["u"]),
                        rel(rec.s_star[0, 0], ref["sigma"]))
            # per-step contributions contain log(L_t); near the transition
            # support boundary that log amplifies representation noise, so
            # the per-step check carries a wider documented bound
            worst_step_ll = max(worst_step_ll, rel(rec.loglik_t, ref["loglik"]))
        worst = max(worst, rel(state.m[0], oracle[-1]["m"]))
        worst = max(worst, rel(breakdown.total, oracle_total))
    ok = worst <= 1e-10 and worst_step_ll <= 1e-8
    assert report(6, "p=1 pipeline vs independent scalar oracle", ok,
                  f" (max relative deviation {worst:.2e}, "
                  f"per-step loglik {worst_step_ll:.2e})")


def _criterion7_protocol(delta, n_steps, seeds):
    """Literal criterion-7 recipe at given (delta, N): returns pass count."""
    z_true = np.array([0.30, 0.60])
    omega = np.diag(z_true / (1 - z_true))
    config = well_specified_config(delta, omega)
    p_lim_root = sym_sqrt(limit_P(1.0, omega))
    passes = 0
    failures = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        theta0 = p_lim_root @ rng.standard_normal(2)
        try:
            path = simulate_path(rng, config, sigma0=np.eye(2), theta0=theta0,
                                 n_steps=n_steps)
            records, _ = filter_run(path.ys, config, compute_loglik=False)
            rep = perf_metrics(records)
            es = np.array([r.e for r in records])
            se = es.std(axis=0) / math.sqrt(len(records))
            ok = (bool(np.all((rep.msse > 0.8) & (rep.msse < 1.2)))
                  and bool(np.all(np.abs(rep.me) <= 3 * se)))
            passes += ok
        except (SeqvolError, np.linalg.LinAlgError) as exc:
            failures.append(f"seed {seed}: {type(exc).__name__}")
    return passes, failures


@pytest.mark.slow
def test_criterion_07_well_specified_recovery_as_specified():
    """Literal protocol: delta=0.7, p=2, N=2000. Expected to FAIL.

    The evolution's Lyapunov gap (~0.171 ln-units/step at these settings)
    degenerates every path numerically within ~150-270 steps; no seed can
    complete the run in floating point (N=2000 would need ~e^341 of dynamic
    range). The module docstring carries the verification details.
    """
    started = time.perf_counter()
    passes, failures = _criterion7_protocol(0.7, 2000, range(20))
    elapsed = time.perf_counter() - started
    ok = passes >= 18 and elapsed < 30.0
    report(7, "well-specified recovery (as specified: delta=0.7, N=2000)", ok,
           f" ({passes}/20 seeds; {len(failures)} degenerated numerically; "
           "unattainable in floating point - see this test's docstring)")
    assert ok, (
        f"criterion 7 is numerically unattainable as specified: {passes}/20 "
        f"seeds passed; {len(failures)} runs degenerated "
        f"(volatility condition number grows ~e^0.171t at delta=0.7, p=2). "
        "The substance is demonstrated in the attainable-regime test below."
    )


@pytest.mark.slow
def test_criterion_07_substance_attainable_regime():
    """Same statistical claim where double precision suffices (delta=0.99)."""
    started = time.perf_counter()
    passes, failures = _criterion7_protocol(0.99, 2000, range(20))
    elapsed = time.perf_counter() - started
    ok = passes >= 18 and elapsed < 30.0
    assert report(7, "well-specified recovery (attainable regime: delta=0.99)",
                  ok, f" ({passes}/20 seeds, {elapsed:.1f}s)")


@pytest.mark.slow
def test_criterion_08_search_recovery_as_specified():
    """Literal protocol: recover z from delta=0.7, N=3000 data. Expected to FAIL.

    Data generation degenerates as in criterion 7; in attainable regimes the
    plug-in likelihood has no interior maximum at the true z (at p=1 the
    quadratic and L_t terms are exactly invariant to the forecast-precision
    scale at the plug-in path, leaving d(total)/d(ln Q) = -N, so the
    objective collapses to the smallest grid point). The coordinate-search
    algorithm itself is verified in tests/test_search.py.
    """
    z_true = np.array([0.30, 0.60])
    omega = np.diag(z_true / (1 - z_true))
    config = well_specified_config(0.7, omega)
    spec = SearchSpec(q=2, delta_candidates=(0.7,), max_sweeps=6)
    hits = 0
    degenerated = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        try:
            path = simulate_path(rng, config, sigma0=np.eye(2),
                                 theta0=np.zeros(2), n_steps=3000)
            z, _, _ = coordinate_search(path.ys, config, spec)
            hits += bool(np.all(np.abs(z - z_true) <= 0.05))
        except (SeqvolError, np.linalg.LinAlgError):
            degenerated += 1
    ok = hits >= 16
    report(8, "search recovery (as specified: delta=0.7, N=3000)", ok,
           f" ({hits}/20 replications; {degenerated} degenerated numerically; "
           "unattainable - see this test's docstring)")
    assert ok, (
        f"criterion 8 is unattainable as specified: {hits}/20 replications "
        f"recovered z (+-0.05); {degenerated}/20 simulations degenerated "
        "numerically before N=3000. The coordinate-search algorithm is "
        "verified against exhaustive grids in tests/test_search.py."
    )


def test_criterion_09_z_omega_pairings():
    pairs = {0.99: 99.000, 0.44: 0.786, 0.92: 11.500}
    ok = True
    for z, w in pairs.items():
        got = round(sv.z_to_omega([z])[0, 0], 3)
        ok &= got == w
    assert report(9, "z to innovation-scale pairings", ok,
                  f" ({', '.join(f'{z}->{w}' for z, w in pairs.items())})")


@pytest.mark.slow
def test_criterion_10_performance_envelope():
    rng = np.random.default_rng(0)
    p, n_steps = 8, 4773
    corr = 0.3 + 0.7 * np.eye(p)
    ys = 0.01 * rng.standard_normal((n_steps, p)) @ np.linalg.cholesky(corr).T
    config = ModelConfig(delta=0.7, phi=1.0, omega=np.eye(p))
    loglik_at_filter_path(ys[:100], config)  # warm the code paths
    started = time.perf_counter()
    breakdown = loglik_at_filter_path(ys, config)
    elapsed = time.perf_counter() - started
    ok = elapsed < 2.0 and math.isfinite(breakdown.total)
    assert report(10, "p=8, N=4773 filter + likelihood runtime", ok,
                  f" ({elapsed:.2f}s < 2s)")


@pytest.mark.slow
def test_criterion_11_rank_one_deficiency(rng):
    n_draws = 10_000
    ok = True
    for p in (2, 5):
        params = SingularBetaParams(m=p + 2.4, n_int=1, p=p)
        draws = sample_singular_beta(rng, params, size=n_draws)
        eigs = np.linalg.eigvalsh(np.eye(p) - draws)
        thresholds = 1e-8 * np.maximum(1.0, np.max(np.abs(eigs), axis=-1))
        counts = np.sum(eigs > thresholds[:, None], axis=-1)
        ok &= bool(np.all(counts == 1))
    assert report(11, "sampled rank deficiency is exactly one", ok,
                  f" ({n_draws} draws at p=2 and p=5)")
