"""Sequential volatility filter: one-step forecasting and closed-form updates.

The filter carries the sufficient statistics ``(m_t, P_t, S_t)`` through
time. One step consists of a multivariate-t one-step forecast, a rank-one
update of the scale matrix ``S_t``, the deterministic Riccati-type recursion
for ``P_t``, and a symmetric point estimate ``S_t^*`` of the posterior
volatility matrix used both as output and to form the adaptive gain.

The forecast-precision matrix ``Q`` is frozen at its limit ``P + Omega + I``
for the whole run; ``P_t`` itself still follows its exact recursion because
the gain needs it.

The same pass evaluates each step's plug-in likelihood terms, so each matrix
is decomposed once per step; :func:`seqvol.likelihood.loglik_path` is the
oracle for arbitrary paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import likelihood as _likelihood
from .errors import (
    DimensionMismatch,
    DomainError,
    FilterNumericalError,
    NotPositiveDefinite,
)
from .linalg import (DEFAULT_REL_TOL, check_spd, spd_eigh, spd_inverse,
                     sqrt_pair_from_eigh, sym_sqrt, sym_sqrt_pair)

FORECAST_MEAN_MODES = ("plain", "phi_scaled")
STANDARDIZATION_MODES = ("forecast_cov", "posterior_st")


def discount_k(delta: float, p: int) -> float:
    """Discount constant ``k = (delta(1-p)+p) / (delta(2-p)+p-1)``.

    Always exceeds 1 on the admissible range; for ``p = 1`` it is
    ``1/delta``.
    """
    if p < 1:
        raise DomainError(f"dimension must be positive, got {p}")
    if not 2.0 / 3.0 < delta < 1.0:
        raise DomainError(f"delta={delta} violates the 2/3 < delta < 1 requirement")
    return (delta * (1 - p) + p) / (delta * (2 - p) + p - 1)


def beta_dof_m(delta: float, p: int) -> float:
    """Beta degrees of freedom ``m = delta/(1-delta) + p - 1``."""
    if p < 1:
        raise DomainError(f"dimension must be positive, got {p}")
    if not 0.0 < delta < 1.0:
        raise DomainError(f"delta={delta} must lie in (0, 1)")
    return delta / (1.0 - delta) + p - 1


@dataclass(frozen=True)
class ModelConfig:
    """Fixed hyperparameters defining one filter instance.

    ``delta`` is the discount factor (must satisfy ``2/3 < delta < 1`` so
    the one-step forecast variance and the posterior point estimate exist),
    ``phi`` the AR coefficient of the signal, ``omega`` the SPD state
    innovation scale. Priors default to the diffuse guideline
    ``m0 = 0, p0 = 1000, s0 = I``.

    ``forecast_mean_mode``: "plain" forecasts with ``m_{t-1}`` as-is;
    "phi_scaled" uses ``phi * m_{t-1}`` (standard state-space logic; the two
    coincide for ``phi = 1``).

    ``standardization_mode``: "forecast_cov" whitens the forecast error with
    the time ``t-1`` forecast covariance (the choice under which the
    standardized errors have identity second moment); "posterior_st" uses
    the updated ``S_t`` instead.
    """

    delta: float
    phi: float
    omega: np.ndarray
    m0: np.ndarray | None = None
    p0: float = 1000.0
    s0: np.ndarray | None = None
    tol: float = DEFAULT_REL_TOL
    forecast_mean_mode: str = "plain"
    standardization_mode: str = "forecast_cov"
    p: int = field(init=False)

    def __post_init__(self):
        omega = check_spd(self.omega, rel_tol=self.tol, name="omega")
        p = omega.shape[0]
        if not 2.0 / 3.0 < self.delta < 1.0:
            raise DomainError(
                f"delta={self.delta} violates the 2/3 < delta < 1 requirement"
            )
        if self.p0 <= 0:
            raise DomainError(f"p0={self.p0} must be positive")
        m0 = np.zeros(p) if self.m0 is None else np.asarray(self.m0, dtype=float)
        if m0.shape != (p,):
            raise DimensionMismatch(f"m0 has shape {m0.shape}, expected ({p},)")
        s0 = np.eye(p) if self.s0 is None else check_spd(self.s0, rel_tol=self.tol, name="s0")
        if s0.shape != (p, p):
            raise DimensionMismatch(f"s0 has shape {s0.shape}, expected {(p, p)}")
        if self.forecast_mean_mode not in FORECAST_MEAN_MODES:
            raise DomainError(f"unknown forecast_mean_mode {self.forecast_mean_mode!r}")
        if self.standardization_mode not in STANDARDIZATION_MODES:
            raise DomainError(f"unknown standardization_mode {self.standardization_mode!r}")
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "m0", m0)
        object.__setattr__(self, "s0", s0)
        object.__setattr__(self, "p", p)

    @property
    def k(self) -> float:
        return discount_k(self.delta, self.p)

    @property
    def beta_m(self) -> float:
        return beta_dof_m(self.delta, self.p)

    @property
    def posterior_dof(self) -> float:
        """Degrees of freedom ``1/(1-delta) + 2p`` of the posterior family."""
        return 1.0 / (1.0 - self.delta) + 2 * self.p

    @property
    def forecast_dof(self) -> float:
        """Student-t degrees of freedom ``delta/(1-delta)`` of the forecast."""
        return self.delta / (1.0 - self.delta)

    @property
    def forecast_cov_factor(self) -> float:
        """Scalar ``(1-delta) / ((3 delta - 2) k)`` mapping S to forecast covariance."""
        return (1.0 - self.delta) / ((3.0 * self.delta - 2.0) * self.k)


@dataclass(frozen=True)
class FilterState:
    """Sufficient statistics carried between steps."""

    t: int
    m: np.ndarray
    P: np.ndarray
    S: np.ndarray
    # (S^{-1/2}, eigenvalues, eigenvectors of S^*), set by filter_step only:
    # not an init field, so a state built by hand or by replace() has none
    _threaded: tuple | None = field(default=None, init=False, repr=False,
                                    compare=False)


@dataclass(frozen=True)
class ForecastDist:
    """Multivariate Student-t one-step forecast distribution.

    Follows the matrix-variate convention without the 1/dof factor in the
    kernel, so ``covariance = scale / (dof - 2)`` for ``dof > 2``.
    """

    dof: float
    location: np.ndarray
    scale: np.ndarray
    covariance: np.ndarray


@dataclass(frozen=True)
class StepRecord:
    """Per-step output bundle."""

    t: int
    forecast: ForecastDist
    e: np.ndarray
    u: np.ndarray
    s_star: np.ndarray
    loglik_t: float
    # (quad, chol_logdet, lt, sigma_logdet); None when loglik_t is NaN (not
    # computed) or -inf (no positive L_t eigenvalue)
    terms: tuple[float, float, float, float] | None = None


@dataclass(frozen=True)
class _RunContext:
    """Quantities constant along a run, hoisted out of the step loop."""

    q: np.ndarray
    q_inv: np.ndarray
    q_inv_sqrt: np.ndarray
    c1: float  # per-step additive constant of the log-likelihood
    compute_loglik: bool = True


def limit_P(phi: float, omega: np.ndarray) -> np.ndarray:
    """Limit of the ``P_t`` recursion as a function of ``phi`` and ``omega``.

    The fixed point of ``P = R (R + I)^{-1}`` with ``R = phi^2 P + omega``
    commutes with ``omega``, so it is obtained by applying the scalar root

    ``lam(w) = (sqrt((w + 1 - phi^2)^2 + 4 phi^2 w) - w - (1 - phi^2)) / (2 phi^2)``

    to each eigenvalue ``w`` of ``omega`` (``lam(w) = w/(1+w)`` for
    ``phi = 0``). The spectrum of the result lies in ``(0, 1)``.
    """
    omega = np.asarray(omega, dtype=float)
    w, v = np.linalg.eigh(0.5 * (omega + omega.T))
    if w[0] <= 0.0:
        raise NotPositiveDefinite("omega must be positive definite")
    phi2 = phi * phi
    if phi2 == 0.0:
        lam = w / (1.0 + w)
    else:
        shift = w + 1.0 - phi2
        lam = (np.sqrt(shift * shift + 4.0 * phi2 * w) - shift) / (2.0 * phi2)
    out = (v * lam) @ v.T
    return 0.5 * (out + out.T)


def steady_Q(config: ModelConfig) -> np.ndarray:
    """Steady-state forecast precision scale ``Q = P + omega + I``."""
    return limit_P(config.phi, config.omega) + config.omega + np.eye(config.p)


def iterate_P_to_convergence(phi: float, omega: np.ndarray, p0: float,
                             max_iter: int = 200_000,
                             tol: float = 1e-13) -> np.ndarray:
    """Iterate the ``P_t`` recursion from ``p0 I`` until it stabilizes.

    Serves as the independent route to the limit: no spectral shortcut, just
    the matrix recursion run to a fixed point.
    """
    omega = check_spd(omega, name="omega")
    if p0 <= 0:
        raise DomainError(f"p0={p0} must be positive")
    p = omega.shape[0]
    eye = np.eye(p)
    phi2 = phi * phi
    current = p0 * eye
    for _ in range(max_iter):
        r = phi2 * current + omega
        nxt = np.linalg.solve(r + eye, r)
        nxt = 0.5 * (nxt + nxt.T)
        if np.max(np.abs(nxt - current)) < tol:
            return nxt
        current = nxt
    raise DomainError(f"P recursion did not converge within {max_iter} iterations")


def filter_init(config: ModelConfig) -> FilterState:
    """Initial state ``(t=0, m0, p0 I, S0)``."""
    return FilterState(
        t=0,
        m=config.m0.copy(),
        P=config.p0 * np.eye(config.p),
        S=config.s0.copy(),
    )


def _make_context(config: ModelConfig, q: np.ndarray,
                  compute_loglik: bool = True) -> _RunContext:
    q_inv = spd_inverse(q)
    return _RunContext(
        q=q,
        q_inv=q_inv,
        q_inv_sqrt=sym_sqrt(q_inv),
        c1=_likelihood.loglik_constant(config, q, 1) if compute_loglik else math.nan,
        compute_loglik=compute_loglik,
    )


def _estimate_sigma(s: np.ndarray, s_sqrt: np.ndarray, ctx: _RunContext,
                    n: float, p: int) -> np.ndarray:
    # giw_estimator with A = Q^{-1} fixed: reuse the precomputed A^{1/2}.
    est = (s_sqrt @ ctx.q_inv @ s_sqrt + ctx.q_inv_sqrt @ s @ ctx.q_inv_sqrt)
    est /= 2.0 * n - 4.0 * p - 4.0
    return 0.5 * (est + est.T)


def filter_step(state: FilterState, y: np.ndarray, config: ModelConfig,
                q: np.ndarray, *, ctx: _RunContext | None = None
                ) -> tuple[FilterState, StepRecord]:
    """Advance the filter by one observation.

    ``q`` is the steady forecast precision scale from :func:`steady_Q`.
    When called standalone the run context is rebuilt; :func:`filter_run`
    hoists it. Each matrix is decomposed once per step: the new state
    carries the inverse root of ``S_t`` (the next ``forecast_cov``
    standardizer) and the eigendecomposition of ``S_t^*`` (the next
    likelihood factor ``U``); a state without them has them derived from
    ``state.S``.
    """
    p = config.p
    y = np.asarray(y, dtype=float)
    if y.shape != (p,):
        raise DimensionMismatch(f"observation has shape {y.shape}, expected ({p},)")
    if ctx is None:
        ctx = _make_context(config, np.asarray(q, dtype=float))
    k = config.k
    n = config.posterior_dof

    if state._threaded is None:
        s_sqrt, s_inv_sqrt = sym_sqrt_pair(state.S)
        w_prev, v_prev = spd_eigh(_estimate_sigma(state.S, s_sqrt, ctx, n, p))
    else:
        s_inv_sqrt, w_prev, v_prev = state._threaded

    forecast_mean = state.m if config.forecast_mean_mode == "plain" else config.phi * state.m
    e = y - forecast_mean
    s_new = state.S / k + np.outer(e, e)

    phi2 = config.phi * config.phi
    r = phi2 * state.P + config.omega
    p_new = np.linalg.solve(r + np.eye(p), r)
    p_new = 0.5 * (p_new + p_new.T)

    s_sqrt_new, s_inv_sqrt_new = sym_sqrt_pair(s_new)
    s_star = _estimate_sigma(s_new, s_sqrt_new, ctx, n, p)
    w_star, v_star = spd_eigh(s_star)
    star_sqrt, star_inv_sqrt = sqrt_pair_from_eigh(w_star, v_star)
    gain = star_sqrt @ p_new @ star_inv_sqrt
    m_new = state.m + gain @ e

    cov_factor = config.forecast_cov_factor
    if config.standardization_mode == "posterior_st":
        s_inv_sqrt = s_inv_sqrt_new
    u = (s_inv_sqrt @ e) / math.sqrt(cov_factor)

    terms = None
    if ctx.compute_loglik:
        u_chol = _likelihood._chol_upper_of_inverse(w_prev, v_prev)
        try:
            terms = _likelihood._step_terms_threaded(
                u_chol, w_star, v_star, e, p, k, config.delta, ctx.q_inv)
            loglik_t = ctx.c1 + sum(terms)
        except DomainError:
            # a zero-error step puts the plug-in path on the boundary of the
            # transition's support (L_t = 0); the state update is still well
            # defined, so record a -inf contribution instead of aborting
            loglik_t = -math.inf
    else:
        loglik_t = math.nan

    forecast = ForecastDist(
        dof=config.forecast_dof,
        location=forecast_mean,
        scale=state.S / k,
        covariance=cov_factor * state.S,
    )
    new_state = FilterState(t=state.t + 1, m=m_new, P=p_new, S=s_new)
    object.__setattr__(new_state, "_threaded", (s_inv_sqrt_new, w_star, v_star))
    record = StepRecord(
        t=state.t + 1,
        forecast=forecast,
        e=e,
        u=u,
        s_star=s_star,
        loglik_t=loglik_t,
        terms=terms,
    )
    return new_state, record


def filter_run(ys, config: ModelConfig, *, compute_loglik: bool = True
               ) -> tuple[list[StepRecord], FilterState]:
    """Filter a whole series; the first numerical failure aborts with its index.

    Returns the per-step records and the final state. With
    ``compute_loglik`` each record carries its additive log-likelihood
    contribution and term groups, which
    :func:`seqvol.likelihood.loglik_from_records` sums.
    """
    ys = np.asarray(ys, dtype=float)
    if ys.size == 0:
        return [], filter_init(config)
    if ys.ndim == 1:
        ys = ys[:, None]
    if ys.ndim != 2 or ys.shape[1] != config.p:
        raise DimensionMismatch(f"series has shape {ys.shape}, expected (N, {config.p})")

    q = steady_Q(config)
    ctx = _make_context(config, q, compute_loglik)
    state = filter_init(config)
    records: list[StepRecord] = []
    for t, y in enumerate(ys, start=1):
        try:
            state, record = filter_step(state, y, config, q, ctx=ctx)
        except (NotPositiveDefinite, DomainError, ValueError,
                np.linalg.LinAlgError) as exc:
            raise FilterNumericalError(t, exc) from exc
        records.append(record)
    return records, state
