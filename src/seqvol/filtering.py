"""Sequential volatility filter: one-step forecasting and closed-form updates.

The filter carries the sufficient statistics ``(m_t, P_t, S_t)`` through
time. One step consists of a multivariate-t one-step forecast, a rank-one
update of the scale matrix ``S_t``, the deterministic Riccati-type recursion
for ``P_t``, and a symmetric point estimate ``S_t^*`` of the posterior
volatility matrix used both as output and to form the adaptive gain.

The forecast-precision matrix ``Q`` is frozen at its limit ``P + Omega + I``
for the whole run; ``P_t`` itself still follows its exact recursion because
the gain needs it.

One stacked recursion, :func:`_recursion`, is the only code that runs a
filter step. It runs ``B`` candidate ``(delta, Omega)`` settings in
lockstep along a leading axis and yields each step's state and outputs
with the eigendecomposition of ``S_t^*`` it carries anyway; it does not
evaluate the likelihood. The plug-in likelihood terms come from
consecutive ``S^*`` spectra (:func:`seqvol.likelihood.terms_from_spectra`):
:func:`seqvol.search.evaluate_candidates`, the many-candidate case,
evaluates them per step over its candidate stack. :func:`filter_run`, the
``B = 1`` case, and :func:`filter_step`, its one-observation case, copy
each step into arrays allocated once per run and evaluate the terms and
the forecast scales over blocks of time steps, one stacked operation per
block.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterator, NamedTuple

import numpy as np

from . import likelihood as _likelihood
from .errors import (
    DimensionMismatch,
    DomainError,
    FilterNumericalError,
    NotPositiveDefinite,
)
from .linalg import check_spd, positive_spectrum, spectral, stacked_eigh, sym
from .linalg import sym_sqrt_pair  # noqa: F401  (bench/tracer.py patches this name)

FORECAST_MEAN_MODES = ("plain", "phi_scaled")
STANDARDIZATION_MODES = ("forecast_cov", "posterior_st")

# steps per stacked evaluation of the likelihood terms and forecast scales in a
# filter run: spreads the per-call cost of the kernels over many steps, and
# bounds the memory for S and the S^* spectra, which the run keeps only per block
_BLOCK = 256


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
    forecast_mean_mode: str = "plain"
    standardization_mode: str = "forecast_cov"
    p: int = field(init=False)

    def __post_init__(self):
        omega = check_spd(self.omega, name="omega")
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
        s0 = np.eye(p) if self.s0 is None else check_spd(self.s0, name="s0")
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
    def estimator_denominator(self) -> float:
        """``2n - 4p - 4`` of the point estimator, ``n`` the posterior dof."""
        return 2.0 * self.posterior_dof - 4.0 * self.p - 4.0

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


def limit_P(phi: float, omega: np.ndarray) -> np.ndarray:
    """Limit of the ``P_t`` recursion as a function of ``phi`` and ``omega``.

    The fixed point of ``P = R (R + I)^{-1}`` with ``R = phi^2 P + omega``
    commutes with ``omega``, so it is obtained by applying the scalar root

    ``lam(w) = (sqrt((w + 1 - phi^2)^2 + 4 phi^2 w) - w - (1 - phi^2)) / (2 phi^2)``

    to each eigenvalue ``w`` of ``omega`` (``lam(w) = w/(1+w)`` for
    ``phi = 0``). The spectrum of the result lies in ``(0, 1)``. ``omega``
    may be one matrix or a stack of them.
    """
    w, v = np.linalg.eigh(sym(np.asarray(omega, dtype=float)))
    if np.any(w[..., 0] <= 0.0):
        raise NotPositiveDefinite("omega must be positive definite")
    phi2 = phi * phi
    if phi2 == 0.0:
        lam = w / (1.0 + w)
    else:
        shift = w + 1.0 - phi2
        lam = (np.sqrt(shift * shift + 4.0 * phi2 * w) - shift) / (2.0 * phi2)
    return spectral(v, lam)


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


class _Start(NamedTuple):
    """Per-candidate constants of a stacked run, and the start spectrum."""

    w_star: np.ndarray  # eigenvalues of the start state's S^*, (B, p)
    v_star: np.ndarray  # its eigenvectors, (B, p, p)
    q_inv: np.ndarray  # Q^{-1}, (B, p, p)
    k: np.ndarray  # discount constant, (B,)
    c1: np.ndarray  # per-step log-likelihood constant, (B,)


class _Step(NamedTuple):
    """One observation's recursion results for every candidate of a stacked run.

    ``(w_star, v_star)`` is the spectrum of ``S_t^*``; with the previous
    step's (or the start's) it is all :func:`terms_from_spectra` needs
    besides ``e``, so the likelihood terms are left to the caller: per step
    over candidates in the search, per time block in :func:`_filter`.
    """

    f: np.ndarray  # forecast mean, (B, p)
    e: np.ndarray  # forecast error, (B, p)
    u: np.ndarray  # standardized forecast error, (B, p)
    s_star: np.ndarray  # point estimate S_t^*, (B, p, p)
    w_star: np.ndarray  # eigenvalues of S_t^*, (B, p)
    v_star: np.ndarray  # eigenvectors of S_t^*, (B, p, p)
    m: np.ndarray  # state after the step
    P: np.ndarray
    S: np.ndarray
    # (B,): an S_t or S_t^* spectrum, at this step or before, was not
    # positive definite at machine level
    failed: np.ndarray


def _recursion(ys, base: ModelConfig, deltas: np.ndarray, omegas: np.ndarray,
               q: np.ndarray, start: tuple) -> tuple[_Start, Iterator[_Step]]:
    """The filter recursion for ``B`` candidates in lockstep.

    Candidate ``b`` has discount factor ``deltas[b]``, innovation scale
    ``omegas[b]`` and forecast precision scale ``q[b]``, and starts from
    row ``b`` of the ``start = (m, P, S)`` stacks; every other setting comes
    from ``base``. Checks the series and returns the :class:`_Start` and an
    iterator of one :class:`_Step` per observation. A candidate's values do
    not depend on the rest of its stack, bit for bit. Callers silence
    floating-point warnings. A failed candidate is flagged in ``failed``
    and restarts every step from its start state and spectra, so its values
    are meaningless but finite and the stacked decompositions of the others
    run once (:func:`stacked_eigh` retries a stack that holds a non-finite
    member).
    """
    p = base.p
    ys = np.asarray(ys, dtype=float)
    if ys.ndim == 1:
        ys = ys[:, None]
    if ys.ndim != 2 or ys.shape[1] != p:
        raise DimensionMismatch(f"series has shape {ys.shape}, expected (N, {p})")
    # a non-finite Q (an overflowing Omega) fails its candidate from the start;
    # I stands in for it, so that its decompositions stay finite
    bad_q = ~np.isfinite(q).all(axis=(-2, -1))
    q = np.where(bad_q[:, None, None], np.eye(p), q)
    # each distinct discount factor's scalars, gathered per candidate
    distinct, index = np.unique(deltas, return_inverse=True)
    configs = [replace(base, delta=float(d)) for d in distinct]
    k = np.array([c.k for c in configs])[index]
    denom = np.array([c.estimator_denominator for c in configs])[index]
    root_cov = np.sqrt([c.forecast_cov_factor for c in configs])[index, None]
    c1 = np.empty(len(deltas))
    for i, config in enumerate(configs):
        c1[index == i] = _likelihood.loglik_constant(config, q[index == i], 1)
    k3, denom3 = k[:, None, None], denom[:, None, None]
    phi = base.phi
    eye = np.eye(p)
    wq, vq = stacked_eigh(q)
    q_inv = spectral(vq, 1.0 / wq)
    q_inv_sqrt = spectral(vq, 1.0 / np.sqrt(wq))

    def estimate(s, ws, vs):  # giw_estimator with A = Q^{-1} fixed
        s_sqrt = spectral(vs, np.sqrt(ws))
        return sym((s_sqrt @ q_inv @ s_sqrt + q_inv_sqrt @ s @ q_inv_sqrt) / denom3)

    initial = start + stacked_eigh(start[2])
    initial += stacked_eigh(estimate(start[2], *initial[3:]))

    def steps():
        m, p_mat, s, ws, vs, w_star, v_star = initial
        failed = bad_q | ~(positive_spectrum(ws) & positive_spectrum(w_star))
        for y in ys:
            f = m if base.forecast_mean_mode == "plain" else phi * m
            e = y - f
            s = s / k3 + e[:, :, None] * e[:, None, :]
            r = phi * phi * p_mat + omegas
            p_mat = sym(np.linalg.solve(r + eye, r))

            w_base, v_base = ws, vs  # S_{t-1}, the forecast_cov standardizer
            ws, vs = stacked_eigh(s)
            s_star = estimate(s, ws, vs)
            w_star, v_star = stacked_eigh(s_star)
            failed = failed | ~(positive_spectrum(ws) & positive_spectrum(w_star))
            root = np.sqrt(w_star)
            gain = spectral(v_star, root) @ p_mat @ spectral(v_star, 1.0 / root)
            m = m + (gain @ e[:, :, None])[:, :, 0]

            if base.standardization_mode == "posterior_st":
                w_base, v_base = ws, vs
            vte = v_base.swapaxes(-1, -2) @ e[:, :, None]
            u = (v_base @ (vte / np.sqrt(w_base)[:, :, None]))[:, :, 0] / root_cov
            if failed.any():
                m, p_mat, s, ws, vs, w_star, v_star = (
                    np.where(failed.reshape((-1,) + (1,) * (x.ndim - 1)), x0, x)
                    for x, x0 in zip((m, p_mat, s, ws, vs, w_star, v_star), initial))
            yield _Step(f, e, u, s_star, w_star, v_star, m, p_mat, s, failed)

    return _Start(initial[5], initial[6], q_inv, k, c1), steps()


def _filter(ys, config: ModelConfig, q: np.ndarray, state: FilterState,
            compute_loglik: bool) -> tuple[list[StepRecord], FilterState]:
    """Run :func:`_recursion` for one candidate from ``state``, as records.

    The step loop copies each step into arrays allocated once per run. At
    the end of each block of ``_BLOCK`` steps it evaluates the block's
    forecast scales and likelihood terms, one stacked operation each, from
    ``S`` and the ``S^*`` spectra, which it holds only for the open block.
    Each record holds views into the run's arrays.
    """
    p, t, k = config.p, state.t, config.k
    # steps done, and the open block's first step; a LinAlgError is reported
    # at step t + i + 1, the step being run or the last step of a block
    i = lo = 0
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        try:
            start, steps = _recursion(ys, config, np.array([config.delta]),
                                      config.omega[None], q[None],
                                      (state.m[None], state.P[None], state.S[None]))
            n = len(ys)
            f, e, u = np.empty((3, n, p))
            s_star, scale, covariance = (np.empty((n, p, p)) for _ in range(3))
            terms = np.empty((4, n))  # quad, chol_logdet, lt, sigma_logdet
            # S and the S^* spectrum of the step before the open block, then of its steps
            S = np.empty((_BLOCK + 1, p, p))
            w_star, v_star = np.empty((_BLOCK + 1, p)), np.empty((_BLOCK + 1, p, p))
            S[0], w_star[0], v_star[0] = state.S, start.w_star[0], start.v_star[0]
            for step in steps:
                if step.failed[0]:
                    raise FilterNumericalError(t + i + 1, NotPositiveDefinite(
                        "S_t or S_t^* is not positive definite at machine precision"))
                j = i + 1 - lo  # this step's row in the block's S and spectra
                f[i], e[i], u[i], s_star[i] = step.f[0], step.e[0], step.u[0], step.s_star[0]
                S[j], w_star[j], v_star[j] = step.S[0], step.w_star[0], step.v_star[0]
                if j == _BLOCK or i + 1 == n:  # the block is full, or the series ends
                    scale[lo:i + 1] = S[:j] / k
                    covariance[lo:i + 1] = config.forecast_cov_factor * S[:j]
                    if compute_loglik:
                        terms[:, lo:i + 1] = _likelihood.terms_from_spectra(
                            w_star[:j], v_star[:j], w_star[1:j + 1], v_star[1:j + 1],
                            e[lo:i + 1], start.q_inv, start.k, config.delta)
                    S[0], w_star[0], v_star[0] = S[j], w_star[j], v_star[j]
                    lo = i + 1
                i += 1
        except np.linalg.LinAlgError as exc:
            raise FilterNumericalError(t + i + 1, exc) from exc
    if n == 0:
        return [], state
    if compute_loglik:
        quad, chol, lt, sig = terms
        logliks = (start.c1[0] + (quad + chol + lt + sig)).tolist()
        # a zero-error step puts the plug-in path on the boundary of the
        # transition's support (L_t = 0): the state update is still defined,
        # so the step contributes -inf and carries no terms
        groups = [None if g[2] == -np.inf else g for g in zip(*terms.tolist())]
    else:
        logliks, groups = [float("nan")] * n, [None] * n
    forecasts = zip(f, scale, covariance)
    dof = config.forecast_dof
    records = [StepRecord(t=t + r + 1, forecast=ForecastDist(dof, *fc), e=e[r], u=u[r],
                          s_star=s_star[r], loglik_t=loglik_t, terms=g)
               for r, (fc, loglik_t, g) in enumerate(zip(forecasts, logliks, groups))]
    return records, FilterState(t=t + n, m=step.m[0], P=step.P[0], S=S[0].copy())


def filter_step(state: FilterState, y: np.ndarray, config: ModelConfig,
                q: np.ndarray) -> tuple[FilterState, StepRecord]:
    """Advance the filter by one observation.

    ``q`` is the steady forecast precision scale from :func:`steady_Q`.
    Runs the filter's recursion on one observation, started from ``state``;
    a numerical failure raises :class:`FilterNumericalError` with the step
    index.
    """
    y = np.asarray(y, dtype=float)
    if y.shape != (config.p,):
        raise DimensionMismatch(f"observation has shape {y.shape}, expected ({config.p},)")
    records, new_state = _filter(y[None], config, np.asarray(q, dtype=float), state, True)
    return new_state, records[0]


def filter_run(ys, config: ModelConfig, *, compute_loglik: bool = True
               ) -> tuple[list[StepRecord], FilterState]:
    """Filter a whole series; the first numerical failure aborts with its index.

    Returns the per-step records and the final state. With
    ``compute_loglik`` each record carries its additive log-likelihood
    contribution and term groups, which
    :func:`seqvol.likelihood.loglik_from_records` sums. A step whose
    ``L_t`` has no positive eigenvalue contributes ``-inf`` and does not
    stop the run.
    """
    return _filter(ys, config, steady_Q(config), filter_init(config), compute_loglik)
