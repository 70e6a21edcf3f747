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
from the eigendecompositions of a path ``Sigma_{t-1}, Sigma_t, ...``, one
path or a stack: at ``p >= 3`` as stacked matrix products, and at ``p = 2``
in closed form, elementwise over the entries of the spectra, ``e_t`` and
``Q^{-1}``'s lower triangle. The filter calls it on blocks of time steps and the
search on stacks of candidates, and :func:`loglik_from_records` sums a filter
run's ``terms`` column. :func:`loglik_path` and :func:`step_terms` score a
given path (say a simulated truth) with the same term math, so the
independent checks of the terms are the test suite's scalar and mpmath
oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import DimensionMismatch, DomainError, EmptyInput, NotPositiveDefinite
from .gwishart import RANK_REL_TOL
from .linalg import (_ARRAY_OPS, _eigh2, log_multigamma_ratio, rank_cut, rank_floor, spd_eigh,
                     spd_inverse, stacked_eigh, sym)

if TYPE_CHECKING:  # import would be circular at runtime
    from .filtering import ModelConfig


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
    def from_terms(cls, c1: float, terms: np.ndarray, per_step: list[float]
                   ) -> "LikelihoodBreakdown":
        """Add up ``N`` steps: constant ``c1`` each, ``(N, 4)`` term groups in time order.

        ``np.add.accumulate`` from a zero row adds one step at a time, as a
        loop would, whatever the layout; ``np.sum`` adds pairwise down a
        contiguous axis.
        """
        constant = len(terms) * c1 if len(terms) else 0.0
        quad, chol, lt, sig = np.add.accumulate(np.vstack([np.zeros(4), terms]))[-1].tolist()
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


def terms_from_spectra(e, w, v, q_inv, k, delta):
    """Term groups ``(quad, chol_logdet, lt, sigma_logdet)`` of ``T`` transitions.

    ``e`` holds the ``T`` forecast errors and ``(w, v)`` the ascending
    eigendecompositions of the path ``Sigma_0 .. Sigma_T``, each taken to its
    root and log-determinant once; every argument may carry stack axes after
    the first, ``k`` and ``delta`` one value per path. With ``U`` the upper
    Cholesky factor of ``Sigma_{t-1}^{-1}``:

    * ``sum log diag(U) = -1/2 sum log w_{t-1}``;
    * ``L_t`` holds the positive eigenvalues of
      ``I - k^{-1} U'^{-1} Sigma_t^{-1} U^{-1}``, kept at relative tolerance
      1e-8. They are those of ``I - k^{-1} B B'`` with
      ``B = diag(w_t^{-1/2}) V_t' V_{t-1} diag(w_{t-1}^{1/2})``, since ``XY`` and
      ``YX`` share their nonzero eigenvalues (Horn & Johnson, *Matrix
      Analysis*, Thm 1.3.22). ``lt`` is ``-inf`` when none is kept.

    At ``p = 2`` ``quad``, ``B B'`` and ``L_t``'s spectrum run in closed form
    (:func:`_quad_lt2`), elementwise over the ``(T, ...)`` entries with no
    matrix product: it reads the four entries of each ``V``, ``Q^{-1}``'s
    lower triangle, and takes ``L_t``'s two eigenvalues from
    :func:`~seqvol.linalg._eigh2`. At ``p >= 3`` they are stacked matrix
    products and :func:`~seqvol.linalg.stacked_eigh` (:func:`_quad_lt`).
    """
    k = np.asarray(k, dtype=float)
    quad, log_det, lt = (_quad_lt2 if w.shape[-1] == 2 else _quad_lt)(e, w, v, q_inv, k)
    log_u = -0.5 * log_det[:-1]
    chol = -(2.0 * delta - 1.0) / (1.0 - delta) * log_u
    sig = -(3.0 * delta - 2.0) / (2.0 * (1.0 - delta)) * log_det[1:]
    return quad, chol, lt, sig


def _quad_lt(e, w, v, q_inv, k):
    """``quad``, ``log |Sigma_t|`` along the path and ``lt``, as stacked matrix products."""
    root, log_det = np.sqrt(w), np.log(w).sum(axis=-1)
    vt = v[1:].swapaxes(-1, -2)
    x = v[1:] @ ((vt @ e[..., None]) / root[1:, ..., None])
    quad = -0.5 * (x.swapaxes(-1, -2) @ q_inv @ x)[..., 0, 0]

    b = (vt @ v[:-1]) * (root[:-1, ..., None, :] / root[1:, ..., None])
    # a copy of B', not a view: numpy multiplies an operand by its own
    # transpose with one syrk call per matrix, several times slower than gemm
    # at small p; eigvalsh reads one triangle of the symmetric product
    bbt = b @ b.swapaxes(-1, -2).copy()
    l_eigs = stacked_eigh(np.eye(w.shape[-1]) - bbt / k[..., None, None], values_only=True)
    kept = rank_cut(l_eigs, RANK_REL_TOL)  # ascending: the largest is kept if any is
    lt = -0.5 * w.shape[-1] * np.log(np.where(kept, l_eigs, 1.0)).sum(axis=-1)
    return quad, log_det, np.where(kept[..., -1], lt, -np.inf)


def _quad_lt2(e, w, v, q_inv, k):
    """:func:`_quad_lt` at ``p = 2``, elementwise over the entries of each 2 x 2 matrix.

    Reads all four entries of each ``V`` and assumes nothing of its form
    (``np.linalg.eigh`` may give a reflection where
    :func:`~seqvol.linalg._eigh2` gives a rotation). Only ``Q^{-1}``'s lower
    triangle is read.
    """
    w0, w1 = w[..., 0], w[..., 1]
    r0, r1 = np.sqrt(w0), np.sqrt(w1)
    log_det = np.log(w0) + np.log(w1)
    v00, v01, v10, v11 = v[..., 0, 0], v[..., 0, 1], v[..., 1, 0], v[..., 1, 1]
    a00, a01, a10, a11 = v00[1:], v01[1:], v10[1:], v11[1:]  # V_t
    e0, e1 = e[..., 0], e[..., 1]
    # x = V_t diag(r_t)^-1 V_t' e_t, and quad = -x' Q^-1 x / 2
    z0, z1 = (a00 * e0 + a10 * e1) / r0[1:], (a01 * e0 + a11 * e1) / r1[1:]
    x0, x1 = a00 * z0 + a01 * z1, a10 * z0 + a11 * z1
    qa, qb, qc = q_inv[..., 0, 0], q_inv[..., 1, 0], q_inv[..., 1, 1]
    quad = -0.5 * (x0 * (qa * x0 + qb * x1) + x1 * (qb * x0 + qc * x1))
    # numpy's loops may return either NaN operand of a sum of two NaNs, by the
    # array's layout: one canonical NaN gives a failed member the bytes of its
    # solo run
    quad = np.where(quad == quad, quad, np.nan)

    # B = V_t' V_{t-1} diag(r_{t-1}) / r_t, each entry a product, then B B'
    s0, s1 = r0[:-1], r1[:-1]
    b00 = (a00 * v00[:-1] + a10 * v10[:-1]) * s0 / r0[1:]
    b01 = (a00 * v01[:-1] + a10 * v11[:-1]) * s1 / r0[1:]
    b10 = (a01 * v00[:-1] + a11 * v10[:-1]) * s0 / r1[1:]
    b11 = (a01 * v01[:-1] + a11 * v11[:-1]) * s1 / r1[1:]
    c00, c10, c11 = b00 * b00 + b01 * b01, b10 * b00 + b11 * b01, b10 * b10 + b11 * b11
    l0, l1 = _eigh2(1.0 - c00 / k, -c10 / k, 1.0 - c11 / k, _ARRAY_OPS, values_only=True)
    floor = rank_floor(l0, l1, RANK_REL_TOL)  # rank_cut's rule on the pair
    kept = l1 > floor  # ascending: the larger is kept if any is
    lt = -(np.log(np.where(l0 > floor, l0, 1.0)) + np.log(np.where(kept, l1, 1.0)))
    return quad, log_det, np.where(kept, lt, -np.inf)


def step_terms(sigma_prev: np.ndarray, sigma_t: np.ndarray, e: np.ndarray,
               config: "ModelConfig", q_inv: np.ndarray
               ) -> tuple[float, float, float, float]:
    """Per-step term group values ``(quad, chol_logdet, lt, sigma_logdet)``.

    See :func:`terms_from_spectra`. Raises :class:`DomainError` when ``L_t``
    has no positive eigenvalue.
    """
    ws, vs = map(np.array, zip(*(spd_eigh(sym(np.asarray(s, dtype=float)))
                                 for s in (sigma_prev, sigma_t))))
    terms = tuple(float(g[0]) for g in terms_from_spectra(
        np.asarray(e, dtype=float)[None], ws, vs, q_inv, config.k, config.delta))
    if terms[2] == -math.inf:
        raise DomainError(_NO_POSITIVE_LT)
    return terms


def loglik_path(sigmas: Sequence[np.ndarray], es: Sequence[np.ndarray],
                config: "ModelConfig", q: np.ndarray) -> LikelihoodBreakdown:
    """Log-likelihood of a volatility path against forecast errors.

    ``sigmas`` must hold ``N + 1`` SPD matrices (the time-0 matrix supplies
    the first transition term); ``es`` the ``N`` forecast errors. One
    :func:`terms_from_spectra` call scores the path; errors come in time order.
    """
    n_obs = len(es)
    if len(sigmas) != n_obs + 1:
        raise DimensionMismatch(
            f"need N+1 = {n_obs + 1} volatility matrices, got {len(sigmas)}"
        )
    q = np.asarray(q, dtype=float)
    q_inv = spd_inverse(q)
    c1 = loglik_constant(config, q, 1)  # per step, as a filter run's loglik_t has it

    spectra, failure = [], None
    try:
        for sigma in sigmas:
            spectra.append(spd_eigh(sym(np.asarray(sigma, dtype=float))))
    except (DimensionMismatch, NotPositiveDefinite) as exc:
        if not spectra:
            raise
        failure = exc  # raised once the transitions before this matrix are scored
    ws, vs = map(np.array, zip(*spectra))
    quad, chol, lt, sig = terms_from_spectra(
        np.array(es[:len(ws) - 1], dtype=float).reshape(ws[1:].shape), ws, vs, q_inv,
        config.k, config.delta)
    steps = np.flatnonzero(lt == -np.inf)
    if steps.size:
        raise DomainError(f"t={steps[0] + 1}: {_NO_POSITIVE_LT}")
    if failure is not None:
        raise failure
    return LikelihoodBreakdown.from_terms(
        c1, np.stack([quad, chol, lt, sig], axis=-1), (c1 + quad + chol + lt + sig).tolist())


def loglik_from_records(run: np.recarray, config: "ModelConfig") -> LikelihoodBreakdown:
    """Likelihood breakdown of a run: sums its ``terms`` column in time order.

    ``run`` is :func:`~seqvol.filtering.filter_run`'s record array. Equals
    :func:`loglik_path` on its ``S_t^*`` after the prior point estimate.
    Raises :class:`DomainError` at the first step whose ``loglik_t`` is NaN
    (filtered without the likelihood) or ``-inf`` (no positive ``L_t``
    eigenvalue).
    """
    bad = np.flatnonzero(np.isnan(run.loglik_t) | (run.loglik_t == -np.inf))
    if bad.size:
        if np.isnan(run.loglik_t[bad[0]]):
            raise DomainError("records carry no likelihood terms: "
                              "filter_run ran with compute_loglik=False")
        raise DomainError(f"t={run.t[bad[0]]}: {_NO_POSITIVE_LT}")
    return LikelihoodBreakdown.from_terms(config._solo_setup.c1[0], run.terms,
                                          run.loglik_t.tolist())


def loglik_at_filter_path(ys, config: "ModelConfig") -> LikelihoodBreakdown:
    """Model-selection objective: likelihood at the filtered point estimates.

    One filter pass, summed by :func:`loglik_from_records`; the path is the
    prior point estimate, then each ``S_t^*``. Deterministic given
    ``(ys, config)``.
    """
    from .filtering import filter_run  # deferred: avoids import cycle

    run, _ = filter_run(ys, config)
    return loglik_from_records(run, config)


def perf_metrics(run: np.recarray) -> PerfReport:
    """MSE, MSSE, MAD and ME vectors over a run's ``e`` and ``u`` columns."""
    if len(run) == 0:
        raise EmptyInput("no step records to summarize")
    es, us = run.e, run.u
    return PerfReport(
        mse=np.mean(es ** 2, axis=0),
        msse=np.mean(us ** 2, axis=0),
        mad=np.mean(np.abs(es), axis=0),
        me=np.mean(es, axis=0),
        n_obs=len(run),
    )
