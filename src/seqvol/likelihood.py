"""Closed-form plug-in log-likelihood of a volatility path, and fit metrics.

The log-likelihood of a path ``Sigma_0 .. Sigma_N`` given the one-step
forecast errors decomposes into an additive constant plus four term groups:
a quadratic form in the whitened errors, a log-determinant of the upper
Cholesky factors of the previous precisions, a log-determinant of the
positive-eigenvalue matrices ``L_t`` of the transition, and a
log-determinant of the volatility matrices themselves. The breakdown is
returned so each group can be audited; per-step sums are accumulated in
fixed time order, so results are deterministic and reproducible.

:func:`terms_from_spectra` is the one place the term groups are computed,
from the eigendecompositions of ``Sigma_{t-1}`` and ``Sigma_t``, for one
transition or a stack. The filter calls it on blocks of time steps and the
search on stacks of candidates, and :func:`loglik_from_records` sums what
the filter recorded. :func:`loglik_path` and :func:`step_terms` score a given
path (say a simulated truth) with the same term math, so the independent
checks of the terms are the test suite's scalar and mpmath oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import DimensionMismatch, DomainError, EmptyInput
from .gwishart import RANK_REL_TOL
from .linalg import log_multigamma_ratio, rank_cut, spd_eigh, spd_inverse, stacked_eigh, sym

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

    The two gamma arguments differ by exactly 1/2, so the ratio is taken by
    :func:`~seqvol.linalg.log_multigamma_ratio`. ``q`` may be a stack of
    matrices; the result is then one constant each.
    """
    if n_obs == 0:
        return 0.0
    p = config.p
    d = config.delta
    per = (-p * math.log(math.pi)
           - 0.5 * np.linalg.slogdet(q)[1]
           - 0.5 * p * math.log(config.k)
           + log_multigamma_ratio(p, (d * (2 - p) + p - 1) / (2.0 * (1.0 - d))))
    return n_obs * per


def terms_from_spectra(w_prev, v_prev, w, v, e, q_inv, k, delta):
    """Term groups ``(quad, chol_logdet, lt, sigma_logdet)`` of transitions.

    ``(w_prev, v_prev)`` and ``(w, v)`` are the eigendecompositions of
    ``Sigma_{t-1}`` and ``Sigma_t``; every argument may carry leading stack
    axes, ``k`` and ``delta`` one value per transition. With ``U`` the upper
    Cholesky factor of ``Sigma_{t-1}^{-1}``:

    * ``sum log diag(U) = -1/2 sum log w_prev``;
    * ``L_t`` holds the positive eigenvalues of
      ``I - k^{-1} U'^{-1} Sigma_t^{-1} U^{-1}``, kept at relative tolerance
      1e-8. They are those of ``I - k^{-1} B B'`` with
      ``B = diag(w^{-1/2}) V' V_prev diag(w_prev^{1/2})``, since ``XY`` and
      ``YX`` share their nonzero eigenvalues (Horn & Johnson, *Matrix
      Analysis*, Thm 1.3.22). ``lt`` is ``-inf`` when none is kept.
    """
    k = np.asarray(k, dtype=float)
    vt = v.swapaxes(-1, -2)
    root = np.sqrt(w)
    x = v @ ((vt @ e[..., None]) / root[..., None])
    quad = -0.5 * (x.swapaxes(-1, -2) @ q_inv @ x)[..., 0, 0]
    log_u = -0.5 * np.log(w_prev).sum(axis=-1)
    chol = -(2.0 * delta - 1.0) / (1.0 - delta) * log_u

    b = (vt @ v_prev) * (np.sqrt(w_prev)[..., None, :] / root[..., None])
    # eigvalsh reads one triangle of the symmetric matrix
    bbt = b @ b.swapaxes(-1, -2)
    l_eigs = stacked_eigh(np.eye(w.shape[-1]) - bbt / k[..., None, None], values_only=True)
    kept = rank_cut(l_eigs, RANK_REL_TOL)  # ascending: the largest is kept if any is
    lt = -0.5 * w.shape[-1] * np.log(np.where(kept, l_eigs, 1.0)).sum(axis=-1)
    lt = np.where(kept[..., -1], lt, -np.inf)

    sig = -(3.0 * delta - 2.0) / (2.0 * (1.0 - delta)) * np.log(w).sum(axis=-1)
    return quad, chol, lt, sig


def _transition(w_prev, v_prev, w, v, e, config, q_inv) -> tuple[float, ...]:
    terms = tuple(map(float, terms_from_spectra(w_prev, v_prev, w, v, e, q_inv,
                                                config.k, config.delta)))
    if terms[2] == -math.inf:
        raise DomainError(_NO_POSITIVE_LT)
    return terms


def step_terms(sigma_prev: np.ndarray, sigma_t: np.ndarray, e: np.ndarray,
               config: "ModelConfig", q_inv: np.ndarray
               ) -> tuple[float, float, float, float]:
    """Per-step term group values ``(quad, chol_logdet, lt, sigma_logdet)``.

    See :func:`terms_from_spectra`. Raises :class:`DomainError` when ``L_t``
    has no positive eigenvalue.
    """
    return _transition(*spd_eigh(sym(np.asarray(sigma_prev, dtype=float))),
                       *spd_eigh(sym(np.asarray(sigma_t, dtype=float))),
                       np.asarray(e, dtype=float), config, q_inv)


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
    c1 = loglik_constant(config, q, 1)  # per step, as the filter's records carry it
    constant = n_obs * c1 if n_obs else 0.0

    terms: list[tuple[float, float, float, float]] = []
    per_step: list[float] = []
    # thread each matrix's eigendecomposition to the next transition
    w, v = spd_eigh(sym(np.asarray(sigmas[0], dtype=float)))
    for t in range(1, n_obs + 1):
        w_prev, v_prev = w, v
        w, v = spd_eigh(sym(np.asarray(sigmas[t], dtype=float)))
        try:
            quad, chol, lt, sig = _transition(w_prev, v_prev, w, v,
                                              np.asarray(es[t - 1], dtype=float),
                                              config, q_inv)
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
    for rec in records:
        if rec.terms is None:
            if math.isnan(rec.loglik_t):
                raise DomainError("records carry no likelihood terms: "
                                  "filter_run ran with compute_loglik=False")
            raise DomainError(f"t={rec.t}: {_NO_POSITIVE_LT}")
    constant = len(records) * config._solo_setup.c1[0] if records else 0.0
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
