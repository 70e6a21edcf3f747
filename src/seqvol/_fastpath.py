"""Batched candidate evaluation for the hyperparameter search.

Evaluates the filter-plus-likelihood objective for a whole stack of state
innovation scale candidates simultaneously, using stacked (batched) numpy
linear algebra: one pass over the series serves every candidate. The math
mirrors ``filtering.filter_run`` + ``likelihood.loglik_path`` exactly; an
equivalence test pins the two paths against each other.

Candidates that go numerically bad inside the stacked pass turn into NaN
and are reported as ``-inf``; a batched LAPACK failure (one bad candidate
can poison a stacked call) falls back to the reference per-candidate
pipeline, which skips candidates individually.
"""

from __future__ import annotations

import logging
import math

import numpy as np

from .errors import SeqvolError
from .gwishart import RANK_REL_TOL
from .likelihood import loglik_at_filter_path, perf_metrics
from .linalg import log_multigamma

logger = logging.getLogger(__name__)

LOGPI = math.log(math.pi)


def _bat_sym(mats: np.ndarray) -> np.ndarray:
    return 0.5 * (mats + np.swapaxes(mats, -1, -2))


def _bat_apply(w: np.ndarray, v: np.ndarray, fn) -> np.ndarray:
    """Spectral map ``V f(w) V'`` over a stack of eigendecompositions."""
    return _bat_sym((v * fn(w)[..., None, :]) @ np.swapaxes(v, -1, -2))


def _limit_p_batch(phi: float, omegas: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(omegas)
    phi2 = phi * phi
    if phi2 == 0.0:
        lam = w / (1.0 + w)
    else:
        shift = w + 1.0 - phi2
        lam = (np.sqrt(shift * shift + 4.0 * phi2 * w) - shift) / (2.0 * phi2)
    return _bat_sym((v * lam[..., None, :]) @ np.swapaxes(v, -1, -2))


def evaluate_candidates(ys: np.ndarray, base_config, delta: float,
                        omegas: np.ndarray, objective: str = "loglik"
                        ) -> np.ndarray:
    """Objective values for a stack of candidate innovation scales.

    ``omegas`` has shape ``(B, p, p)``; every candidate shares ``delta`` and
    the remaining settings of ``base_config``. Returns a ``(B,)`` array;
    candidates that fail numerically get ``-inf``.
    """
    try:
        return _evaluate_batch(ys, base_config, delta, omegas, objective)
    except np.linalg.LinAlgError as exc:
        logger.warning("batched evaluation failed (%s); falling back to per-candidate", exc)
        return _evaluate_reference(ys, base_config, delta, omegas, objective)


def _evaluate_reference(ys, base_config, delta, omegas, objective) -> np.ndarray:
    from dataclasses import replace

    from .filtering import filter_run

    out = np.full(omegas.shape[0], -np.inf)
    for idx in range(omegas.shape[0]):
        try:
            config = replace(base_config, delta=delta, omega=omegas[idx])
            if objective == "loglik":
                out[idx] = loglik_at_filter_path(ys, config).total
            else:
                records, _ = filter_run(ys, config, compute_loglik=False)
                msse = perf_metrics(records).msse
                out[idx] = -float(np.linalg.norm(msse - 1.0))
        except (SeqvolError, np.linalg.LinAlgError) as exc:
            logger.warning("candidate %d skipped: %s", idx, exc)
    return out


def _evaluate_batch(ys, base_config, delta, omegas, objective) -> np.ndarray:
    ys = np.asarray(ys, dtype=float)
    n_obs, p = ys.shape
    nb = omegas.shape[0]
    phi = base_config.phi
    phi2 = phi * phi
    k = (delta * (1 - p) + p) / (delta * (2 - p) + p - 1)
    n_dof = 1.0 / (1.0 - delta) + 2 * p
    denom = 2.0 * n_dof - 4.0 * p - 4.0
    cov_factor = (1.0 - delta) / ((3.0 * delta - 2.0) * k)
    eye = np.eye(p)
    want_loglik = objective == "loglik"
    chol_coef = -(2.0 * delta - 1.0) / (1.0 - delta)
    sig_coef = -(3.0 * delta - 2.0) / (2.0 * (1.0 - delta))

    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        p_lim = _limit_p_batch(phi, omegas)
        q = p_lim + omegas + eye
        q_inv = _bat_sym(np.linalg.inv(q))
        wq, vq = np.linalg.eigh(q_inv)
        q_inv_sqrt = _bat_apply(wq, vq, np.sqrt)

        gamma_hi = log_multigamma(p, (delta * (1 - p) + p) / (2.0 * (1.0 - delta)))
        gamma_lo = log_multigamma(p, (delta * (2 - p) + p - 1) / (2.0 * (1.0 - delta)))
        _, logdet_q = np.linalg.slogdet(q)
        const = n_obs * (-p * LOGPI - 0.5 * logdet_q - 0.5 * p * math.log(k)
                         + gamma_hi - gamma_lo)

        s = np.broadcast_to(base_config.s0, (nb, p, p)).copy()
        ws, vs = np.linalg.eigh(s)
        s0_sqrt = _bat_apply(ws, vs, np.sqrt)
        prev_sigma = _bat_sym((s0_sqrt @ q_inv @ s0_sqrt
                               + q_inv_sqrt @ s @ q_inv_sqrt) / denom)
        prev_w, prev_v = np.linalg.eigh(prev_sigma)

        m = np.broadcast_to(base_config.m0, (nb, p)).copy()
        p_mat = np.broadcast_to(base_config.p0 * eye, (nb, p, p)).copy()

        totals = np.zeros(nb)
        usq = np.zeros((nb, p))
        failed = np.zeros(nb, dtype=bool)

        for t in range(n_obs):
            f = m if base_config.forecast_mean_mode == "plain" else phi * m
            e = ys[t][None, :] - f
            prev_s_w, prev_s_v = ws, vs
            s = s / k + e[:, :, None] * e[:, None, :]
            r = phi2 * p_mat + omegas
            p_mat = _bat_sym(np.linalg.solve(r + eye, r))

            ws, vs = np.linalg.eigh(s)
            s_sqrt = _bat_apply(ws, vs, np.sqrt)
            s_star = _bat_sym((s_sqrt @ q_inv @ s_sqrt
                               + q_inv_sqrt @ s @ q_inv_sqrt) / denom)
            wst, vst = np.linalg.eigh(s_star)
            star_sqrt = _bat_apply(wst, vst, np.sqrt)
            star_inv_sqrt = _bat_apply(wst, vst, lambda x: 1.0 / np.sqrt(x))
            gain = star_sqrt @ p_mat @ star_inv_sqrt
            m = m + np.einsum("bij,bj->bi", gain, e)

            if want_loglik:
                prev_inv = _bat_apply(prev_w, prev_v, lambda x: 1.0 / x)
                u_low = np.linalg.cholesky(prev_inv)  # prev_inv = L L', U = L'
                log_u = np.sum(np.log(np.diagonal(u_low, axis1=-2, axis2=-1)),
                               axis=-1)
                sig_inv = _bat_apply(wst, vst, lambda x: 1.0 / x)
                half = np.linalg.solve(u_low, sig_inv)
                w_mat = np.swapaxes(
                    np.linalg.solve(u_low, np.swapaxes(half, -1, -2)), -1, -2)
                inner = _bat_sym(eye - w_mat / k)
                l_eigs = np.linalg.eigvalsh(inner)
                thresh = RANK_REL_TOL * np.maximum(1.0, np.max(np.abs(l_eigs), axis=-1))
                pos = l_eigs > thresh[:, None]
                failed |= ~pos.any(axis=-1)
                safe = np.where(pos, l_eigs, 1.0)
                lt = -0.5 * p * np.sum(np.log(safe), axis=-1)

                x = np.einsum("bij,bj->bi", star_inv_sqrt, e)
                quad = -0.5 * np.einsum("bi,bij,bj->b", x, q_inv, x)
                logdet_sig = np.sum(np.log(wst), axis=-1)
                totals += quad + chol_coef * log_u + lt + sig_coef * logdet_sig
                prev_w, prev_v = wst, vst
            else:
                base_w, base_v = ((prev_s_w, prev_s_v)
                                  if base_config.standardization_mode == "forecast_cov"
                                  else (ws, vs))
                base_inv_sqrt = _bat_apply(base_w, base_v, lambda x: 1.0 / np.sqrt(x))
                u_vec = np.einsum("bij,bj->bi", base_inv_sqrt, e) / math.sqrt(cov_factor)
                usq += u_vec ** 2

        if want_loglik:
            out = totals + const
        else:
            out = -np.linalg.norm(usq / n_obs - 1.0, axis=-1)

    out[failed] = -np.inf
    out[~np.isfinite(out)] = -np.inf
    return out
