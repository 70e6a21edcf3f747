"""Batched candidate evaluation for the hyperparameter search.

Evaluates the filter-plus-likelihood objective for a whole stack of
``(delta, Omega)`` candidates at once with stacked numpy linear algebra:
one pass over the series serves every candidate. The math is that of
``filtering.filter_run`` + ``likelihood.loglik_from_records``, and an
equivalence test pins the two paths against each other. A candidate's
value does not depend on the rest of its stack, bit for bit.

``L_t`` takes one stacked solve per step, in the form of
``likelihood._step_terms_threaded``: ``W = A A'`` with
``A = U'^{-1} V diag(w^{-1/2})``, where ``U' U`` is the previous precision
and ``V diag(w) V'`` is ``S_t^*``.

A candidate fails when an ``S_t`` or ``S_t^*`` spectrum is not positive at
the filter's machine-level threshold, when its previous precision is not
finite, or when an ``L_t`` has no positive eigenvalue. Failed candidates
are masked, not rerun: each gets the identity in the stacked Cholesky (the
one call here that a non-PD matrix makes raise) and comes back as ``-inf``.
"""

from __future__ import annotations

import math

import numpy as np

from .gwishart import RANK_REL_TOL
from .linalg import log_multigamma, sym

LOGPI = math.log(math.pi)


def _spectral(v: np.ndarray, fw: np.ndarray) -> np.ndarray:
    """Spectral map ``V diag(f(w)) V'`` over a stack, given the values ``f(w)``."""
    return sym((v * fw[..., None, :]) @ np.swapaxes(v, -1, -2))


def _limit_p_batch(phi: float, omegas: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(omegas)
    phi2 = phi * phi
    if phi2 == 0.0:
        lam = w / (1.0 + w)
    else:
        shift = w + 1.0 - phi2
        lam = (np.sqrt(shift * shift + 4.0 * phi2 * w) - shift) / (2.0 * phi2)
    return _spectral(v, lam)


def _delta_coefficients(delta: float, p: int) -> tuple[float, ...]:
    """Per-discount-factor scalars, in the order ``evaluate_candidates`` unpacks them."""
    k = (delta * (1 - p) + p) / (delta * (2 - p) + p - 1)
    n_dof = 1.0 / (1.0 - delta) + 2 * p
    return (
        k,
        2.0 * n_dof - 4.0 * p - 4.0,
        (1.0 - delta) / ((3.0 * delta - 2.0) * k),
        -(2.0 * delta - 1.0) / (1.0 - delta),
        -(3.0 * delta - 2.0) / (2.0 * (1.0 - delta)),
        math.log(k),
        log_multigamma(p, (delta * (1 - p) + p) / (2.0 * (1.0 - delta))),
        log_multigamma(p, (delta * (2 - p) + p - 1) / (2.0 * (1.0 - delta))),
    )


def evaluate_candidates(ys: np.ndarray, base_config, deltas,
                        omegas: np.ndarray, objective: str = "loglik"
                        ) -> np.ndarray:
    """Objective values for a stack of ``(delta, Omega)`` candidates.

    ``omegas`` has shape ``(B, p, p)``; ``deltas`` is one discount factor
    shared by every candidate or a ``(B,)`` array of them. The remaining
    settings come from ``base_config``. Returns a ``(B,)`` array; candidates
    that fail numerically get ``-inf``.
    """
    ys = np.asarray(ys, dtype=float)
    n_obs, p = ys.shape
    nb = omegas.shape[0]
    phi = base_config.phi
    phi2 = phi * phi
    # each distinct discount factor's scalars, gathered per candidate
    distinct, index = np.unique(np.broadcast_to(np.asarray(deltas, dtype=float), (nb,)),
                                return_inverse=True)
    (k, denom, cov_factor, chol_coef, sig_coef, log_k, gamma_hi, gamma_lo) = np.array(
        [_delta_coefficients(float(d), p) for d in distinct])[index].T
    k3, denom3 = k[:, None, None], denom[:, None, None]
    eye = np.eye(p)
    tiny = p * np.finfo(float).eps  # positivity threshold of linalg.spd_eigh
    want_loglik = objective == "loglik"

    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        p_lim = _limit_p_batch(phi, omegas)
        q = p_lim + omegas + eye
        q_inv = sym(np.linalg.inv(q))
        wq, vq = np.linalg.eigh(q_inv)
        q_inv_sqrt = _spectral(vq, np.sqrt(wq))

        _, logdet_q = np.linalg.slogdet(q)
        const = n_obs * (-p * LOGPI - 0.5 * logdet_q - 0.5 * p * log_k
                         + gamma_hi - gamma_lo)

        s = np.broadcast_to(base_config.s0, (nb, p, p)).copy()
        ws, vs = np.linalg.eigh(s)
        s0_sqrt = _spectral(vs, np.sqrt(ws))
        prev_sigma = sym((s0_sqrt @ q_inv @ s0_sqrt
                          + q_inv_sqrt @ s @ q_inv_sqrt) / denom3)
        prev_w, prev_v = np.linalg.eigh(prev_sigma)

        m = np.broadcast_to(base_config.m0, (nb, p)).copy()
        p_mat = np.broadcast_to(base_config.p0 * eye, (nb, p, p)).copy()

        totals = np.zeros(nb)
        usq = np.zeros((nb, p))
        failed = ~(prev_w[:, 0] > tiny * prev_w[:, -1])

        for t in range(n_obs):
            f = m if base_config.forecast_mean_mode == "plain" else phi * m
            e = ys[t][None, :] - f
            prev_s_w, prev_s_v = ws, vs
            s = s / k3 + e[:, :, None] * e[:, None, :]
            r = phi2 * p_mat + omegas
            p_mat = sym(np.linalg.solve(r + eye, r))

            ws, vs = np.linalg.eigh(s)
            failed |= ~(ws[:, 0] > tiny * ws[:, -1])
            s_sqrt = _spectral(vs, np.sqrt(ws))
            s_star = sym((s_sqrt @ q_inv @ s_sqrt + q_inv_sqrt @ s @ q_inv_sqrt) / denom3)
            wst, vst = np.linalg.eigh(s_star)
            failed |= ~(wst[:, 0] > tiny * wst[:, -1])
            root_w = np.sqrt(wst)
            star_sqrt = _spectral(vst, root_w)
            star_inv_sqrt = _spectral(vst, 1.0 / root_w)
            gain = star_sqrt @ p_mat @ star_inv_sqrt
            m = m + np.einsum("bij,bj->bi", gain, e)

            if want_loglik:
                prev_inv = _spectral(prev_v, 1.0 / prev_w)
                failed |= ~np.isfinite(prev_inv).all(axis=(-2, -1))
                prev_inv[failed] = eye  # a non-PD matrix would make the stack raise
                u_low = np.linalg.cholesky(prev_inv)  # prev_inv = L L', U = L'
                log_u = np.sum(np.log(np.diagonal(u_low, axis1=-2, axis2=-1)),
                               axis=-1)
                # W = U'^{-1} Sigma^{-1} U^{-1} = A A', A = U'^{-1} V diag(w^{-1/2})
                a = np.linalg.solve(u_low, vst / root_w[:, None, :])
                inner = sym(eye - (a @ np.swapaxes(a, -1, -2)) / k3)
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
                base_inv_sqrt = _spectral(base_v, 1.0 / np.sqrt(base_w))
                u_vec = (np.einsum("bij,bj->bi", base_inv_sqrt, e)
                         / np.sqrt(cov_factor)[:, None])
                usq += u_vec ** 2

        if want_loglik:
            out = totals + const
        else:
            out = -np.linalg.norm(usq / n_obs - 1.0, axis=-1)

    out[failed] = -np.inf
    out[~np.isfinite(out)] = -np.inf
    return out
