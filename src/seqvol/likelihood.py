"""Closed-form plug-in log-likelihood of a volatility path, and fit metrics.

The log-likelihood of a path ``Sigma_0 .. Sigma_N`` given the one-step
forecast errors decomposes into an additive constant plus four term groups:
a quadratic form in the whitened errors, a log-determinant of the upper
Cholesky factors of the previous precisions, a log-determinant of the
positive-eigenvalue matrices ``L_t`` of the transition, and a
log-determinant of the volatility matrices themselves. The breakdown is
returned so each group can be audited; per-step sums are accumulated in
fixed time order, so results are deterministic and reproducible.
At the filter's own path the filter evaluates the terms in its one pass and
:func:`loglik_from_records` sums them; :func:`loglik_path` is the oracle for
arbitrary paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np
from scipy.linalg.lapack import dtrtrs

from .errors import DimensionMismatch, DomainError, EmptyInput, NotPositiveDefinite
from .gwishart import RANK_REL_TOL
from .linalg import log_multigamma, spd_inverse, spd_logdet

if TYPE_CHECKING:  # import would be circular at runtime
    from .filtering import ModelConfig, StepRecord


_NO_POSITIVE_LT = "transition matrix L_t has no positive eigenvalues"


@dataclass(frozen=True)
class LikelihoodBreakdown:
    """Plug-in log-likelihood split into its additive term groups."""

    total: float
    constant_c: float
    quad_term: float
    chol_logdet_term: float
    lt_term: float
    sigma_logdet_term: float
    per_step: list[float]

    @classmethod
    def from_terms(cls, constant: float, terms, per_step: list[float]
                   ) -> "LikelihoodBreakdown":
        """Sum per-step ``(quad, chol_logdet, lt, sigma_logdet)`` in time order."""
        quad = chol = lt = sig = 0.0
        for quad_t, chol_t, lt_t, sig_t in terms:
            quad += quad_t
            chol += chol_t
            lt += lt_t
            sig += sig_t
        return cls(total=constant + quad + chol + lt + sig, constant_c=constant,
                   quad_term=quad, chol_logdet_term=chol, lt_term=lt,
                   sigma_logdet_term=sig, per_step=per_step)


@dataclass(frozen=True)
class PerfReport:
    """One-step forecast performance measures, one entry per coordinate."""

    mse: np.ndarray
    msse: np.ndarray
    mad: np.ndarray
    me: np.ndarray
    n_obs: int


def loglik_constant(config: "ModelConfig", q: np.ndarray, n_obs: int) -> float:
    """Additive constant of the log-likelihood for ``n_obs`` observations.

    ``c = N [ -p log pi - (1/2) log|Q| - (p/2) log k
    + log{ Gamma_p((d(1-p)+p)/(2(1-d))) / Gamma_p((d(2-p)+p-1)/(2(1-d))) } ]``
    """
    if n_obs == 0:
        return 0.0
    p = config.p
    d = config.delta
    gamma_hi = log_multigamma(p, (d * (1 - p) + p) / (2.0 * (1.0 - d)))
    gamma_lo = log_multigamma(p, (d * (2 - p) + p - 1) / (2.0 * (1.0 - d)))
    per = (-p * math.log(math.pi)
           - 0.5 * spd_logdet(np.asarray(q, dtype=float))
           - 0.5 * p * math.log(config.k)
           + gamma_hi - gamma_lo)
    return n_obs * per


def _eigh_pd(sigma: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    w, v = np.linalg.eigh(sigma)
    if not np.isfinite(w).all():
        raise NotPositiveDefinite("volatility matrix in path has non-finite entries")
    scale = float(w[-1])
    if scale <= 0.0 or w[0] <= p * np.finfo(float).eps * scale:
        raise NotPositiveDefinite("volatility matrix in path is not positive definite")
    return w, v


def _chol_upper_of_inverse(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Upper factor U with U'U = Sigma^{-1}, from Sigma's eigendecomposition."""
    inv = (v / w) @ v.T
    try:
        lower = np.linalg.cholesky(0.5 * (inv + inv.T))
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(f"Cholesky of inverse failed: {exc}") from exc
    return lower.T


def _step_terms_threaded(u_chol_prev: np.ndarray, w: np.ndarray, v: np.ndarray,
                         e: np.ndarray, p: int, k: float, delta: float,
                         q_inv: np.ndarray) -> tuple[float, float, float, float]:
    """Term groups given the previous factor and the current spectrum."""
    log_u = float(np.sum(np.log(np.diag(u_chol_prev))))
    sqrt_w = np.sqrt(w)
    x = v @ ((v.T @ e) / sqrt_w)
    quad = -0.5 * float(x @ q_inv @ x)
    chol = -(2.0 * delta - 1.0) / (1.0 - delta) * log_u

    # W = U'^{-1} Sigma^{-1} U^{-1} = A A' with A = U'^{-1} V diag(1/sqrt(w))
    # trtrs directly: at p=8 solve_triangular's wrapper costs 4x the solve
    a, info = dtrtrs(u_chol_prev, v / sqrt_w, lower=0, trans=1)
    if info != 0:
        raise NotPositiveDefinite(f"triangular solve failed (trtrs info={info})")
    inner = np.eye(p) - (a @ a.T) / k
    l_eigs = np.linalg.eigvalsh(0.5 * (inner + inner.T))
    threshold = RANK_REL_TOL * max(1.0, abs(float(l_eigs[0])), float(l_eigs[-1]))
    l_eigs = l_eigs[l_eigs > threshold]
    if l_eigs.size == 0:
        raise DomainError(_NO_POSITIVE_LT)
    lt = -0.5 * p * float(np.sum(np.log(l_eigs)))

    sig = -(3.0 * delta - 2.0) / (2.0 * (1.0 - delta)) * float(np.sum(np.log(w)))
    return quad, chol, lt, sig


def step_terms(sigma_prev: np.ndarray, sigma_t: np.ndarray, e: np.ndarray,
               config: "ModelConfig", q_inv: np.ndarray
               ) -> tuple[float, float, float, float]:
    """Per-step term group values ``(quad, chol_logdet, lt, sigma_logdet)``.

    ``L_t`` is the diagonal of positive eigenvalues of
    ``I - k^{-1} U'^{-1} Sigma_t^{-1} U^{-1}`` with ``U`` the upper Cholesky
    factor of ``Sigma_{t-1}^{-1}``; eigenvalues are kept at relative
    tolerance 1e-8. Raises :class:`DomainError` when none survive.
    """
    p = config.p
    w_prev, v_prev = _eigh_pd(0.5 * (sigma_prev + sigma_prev.T), p)
    u_chol = _chol_upper_of_inverse(w_prev, v_prev)
    w, v = _eigh_pd(0.5 * (sigma_t + sigma_t.T), p)
    return _step_terms_threaded(u_chol, w, v, np.asarray(e, dtype=float),
                                p, config.k, config.delta, q_inv)


def loglik_path(sigmas: Sequence[np.ndarray], es: Sequence[np.ndarray],
                config: "ModelConfig", q: np.ndarray) -> LikelihoodBreakdown:
    """Log-likelihood of a volatility path against forecast errors.

    ``sigmas`` must hold ``N + 1`` SPD matrices (the time-0 matrix supplies
    the first transition term); ``es`` the ``N`` forecast errors.
    """
    n_obs = len(es)
    if len(sigmas) != n_obs + 1:
        raise DimensionMismatch(
            f"need N+1 = {n_obs + 1} volatility matrices, got {len(sigmas)}"
        )
    q = np.asarray(q, dtype=float)
    q_inv = spd_inverse(q)
    constant = loglik_constant(config, q, n_obs)
    c1 = constant / n_obs if n_obs else 0.0
    p, k, delta = config.p, config.k, config.delta

    terms: list[tuple[float, float, float, float]] = []
    per_step: list[float] = []
    # thread each matrix's eigendecomposition to the next transition
    w, v = _eigh_pd(0.5 * (sigmas[0] + np.asarray(sigmas[0]).T), p)
    for t in range(1, n_obs + 1):
        u_chol = _chol_upper_of_inverse(w, v)
        e = np.asarray(es[t - 1], dtype=float)
        w, v = _eigh_pd(0.5 * (sigmas[t] + np.asarray(sigmas[t]).T), p)
        try:
            quad, chol, lt, sig = _step_terms_threaded(u_chol, w, v, e, p, k,
                                                       delta, q_inv)
        except DomainError as exc:
            raise DomainError(f"t={t}: {exc}") from exc
        terms.append((quad, chol, lt, sig))
        per_step.append(c1 + quad + chol + lt + sig)
    return LikelihoodBreakdown.from_terms(constant, terms, per_step)


def loglik_from_records(records: Sequence["StepRecord"],
                        config: "ModelConfig") -> LikelihoodBreakdown:
    """Likelihood breakdown of a run: sums the term groups its records carry.

    Equals :func:`loglik_path` on the records' ``S_t^*`` after the prior
    point estimate. Raises :class:`DomainError` for records filtered without
    the likelihood, and at the first step with no positive ``L_t``
    eigenvalue.
    """
    from .filtering import steady_Q  # deferred: avoids import cycle

    for rec in records:
        if rec.terms is None:
            if math.isnan(rec.loglik_t):
                raise DomainError("records carry no likelihood terms: "
                                  "filter_run ran with compute_loglik=False")
            raise DomainError(f"t={rec.t}: {_NO_POSITIVE_LT}")
    constant = loglik_constant(config, steady_Q(config), len(records))
    return LikelihoodBreakdown.from_terms(constant, [rec.terms for rec in records],
                                          [rec.loglik_t for rec in records])


def loglik_at_filter_path(ys, config: "ModelConfig") -> LikelihoodBreakdown:
    """Model-selection objective: likelihood at the filtered point estimates.

    One filter pass, summed by :func:`loglik_from_records`; the path is the
    prior point estimate, then each ``S_t^*``. Deterministic given
    ``(ys, config)``.
    """
    from .filtering import filter_run  # deferred: avoids import cycle

    records, _ = filter_run(ys, config)
    return loglik_from_records(records, config)


def perf_metrics(records: Sequence["StepRecord"]) -> PerfReport:
    """MSE, MSSE, MAD and ME vectors over a run's per-step records."""
    if len(records) == 0:
        raise EmptyInput("no step records to summarize")
    es = np.array([r.e for r in records])
    us = np.array([r.u for r in records])
    return PerfReport(
        mse=np.mean(es ** 2, axis=0),
        msse=np.mean(us ** 2, axis=0),
        mad=np.mean(np.abs(es), axis=0),
        me=np.mean(es, axis=0),
        n_obs=len(records),
    )
