"""Exact forward simulation of the volatility state-space model.

Generates observation, signal and volatility paths from the generative
model. The precision evolves multiplicatively,
``Sigma_t^{-1} = k U_{t-1}' B_t U_{t-1}``, where ``U_{t-1}`` is the upper
Cholesky factor of ``Sigma_{t-1}^{-1}`` and the ``B_t`` are i.i.d. rank-one
singular-beta shocks (Uhlig 1997). With ``B_t = L_t L_t'``, the matrix
``sqrt(k) L_t' U_{t-1}`` is upper triangular with a positive diagonal, so it
is the next factor exactly: ``U_t = sqrt(k) L_t' U_{t-1}``. The simulator
carries the precision as this product of triangular factors (Benettin et
al. 1980): all ``B_t`` are drawn and factored as one stack, the step loop
holds one triangular product, and ``Sigma_t = U_t^{-1} U_t^{-T}`` with its
symmetric root comes from stacked decompositions after the loop. A path
makes the same number of decompositions whatever its length.

The signal follows an AR(1) with innovation ``Sigma_t^{1/2} Omega^{1/2} z_t``
and the observation adds ``Sigma_t^{1/2} eps_t``, with ``z_t`` and ``eps_t``
standard normal. The innovation has the model's covariance
``Sigma_t^{1/2} Omega Sigma_t^{1/2}`` without forming its square root
(equality is in distribution, not of the matrix factors). A path draws all
``B_t`` first, then all ``z_t``, then all ``eps_t``.

For ``p >= 2`` the condition number of ``Sigma_t`` grows geometrically, so
long paths at small ``delta`` leave double precision. The simulator raises
:class:`FilterNumericalError` at the first step whose factor ``U_t`` is not
finite and nonsingular, or whose ``Sigma_t`` is not positive definite at
machine precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, FilterNumericalError, NotPositiveDefinite
from .filtering import ModelConfig
from .gwishart import SingularBetaParams, sample_singular_beta
from .linalg import (
    DEFAULT_REL_TOL,
    check_spd,
    chol_lower,
    chol_upper,
    positive_spectrum,
    psd_sqrt,
    spd_inverse,
    spectral,
    stacked_eigh,
    sym,
    sym_sqrt,
)


@dataclass(frozen=True)
class SimPath:
    """A simulated trajectory: observations, signal, and volatility matrices.

    ``sigmas`` has one more entry than ``ys``: the time-0 matrix that seeded
    the evolution. ``seed`` records the integer seed when one was supplied,
    making the path fully reproducible.
    """

    ys: np.ndarray
    thetas: np.ndarray
    sigmas: list[np.ndarray]
    seed: int | None

    def __post_init__(self):
        n = self.ys.shape[0]
        if self.thetas.shape != self.ys.shape or len(self.sigmas) != n + 1:
            raise DomainError("inconsistent path lengths")


def _evolve(gen: np.random.Generator, sigma0: np.ndarray, config: ModelConfig,
            n_steps: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``Sigma_1 .. Sigma_n`` after ``sigma0``, with their spectra ``(w, V)``.

    Draws the ``n_steps`` shocks in one call. The factors are checked before
    the stacked inverse, so that LAPACK never sees a singular member; the
    first failing step ``t`` (1-based) raises :class:`FilterNumericalError`.
    """
    params = SingularBetaParams(m=config.beta_m, n_int=1, p=config.p)
    lows = chol_lower(sample_singular_beta(gen, params, size=n_steps))
    lows *= math.sqrt(config.k)
    us = np.empty_like(lows)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        u = chol_upper(spd_inverse(sigma0))
        for t in range(n_steps):
            u = np.matmul(lows[t].T, u, out=us[t])
        diag = np.diagonal(us, axis1=-2, axis2=-1)
        sound = np.isfinite(us).all(axis=(-2, -1)) & (diag > 0.0).all(axis=-1)
        n_ok = n_steps if sound.all() else int(np.argmin(sound))
        inv_u = np.linalg.inv(us[:n_ok])
        sigmas = sym(inv_u @ inv_u.swapaxes(-1, -2))
        w, v = stacked_eigh(sigmas)
    pd = positive_spectrum(w)
    if not pd.all():
        t = int(np.argmin(pd))
        cause = (f"Sigma_t is numerically singular (eigenvalues {w[t, 0]:.3e} "
                 f"to {w[t, -1]:.3e})" if np.isfinite(w[t]).all()
                 else "Sigma_t is not finite")
        raise FilterNumericalError(t + 1, NotPositiveDefinite(cause))
    if n_ok < n_steps:
        raise FilterNumericalError(n_ok + 1, NotPositiveDefinite(
            "the precision's Cholesky factor U_t is not finite and nonsingular"))
    return sigmas, w, v


def evolve_precision(rng: np.random.Generator, sigma_prev: np.ndarray,
                     config: ModelConfig) -> np.ndarray:
    """One multiplicative precision step.

    ``Sigma_t^{-1} = k U(Sigma_{t-1}^{-1})' B_t U(Sigma_{t-1}^{-1})`` with
    ``B_t`` a rank-one-deficient singular beta draw: the one-step case of
    :func:`simulate_path`'s evolution, drawing one ``B_t`` per call.
    """
    return _evolve(rng, sigma_prev, config, 1)[0][0]


def simulate_path(rng, config: ModelConfig, sigma0: np.ndarray | None = None,
                  theta0: np.ndarray | None = None, n_steps: int = 1, *,
                  omega: np.ndarray | None = None) -> SimPath:
    """Simulate ``n_steps`` observations from the generative model.

    ``rng`` may be a ``numpy.random.Generator`` or an integer seed; an
    integer is recorded on the returned path. ``omega`` overrides the
    config's state innovation scale and may be positive semi-definite
    (including zero, which freezes the signal when ``phi = 1``); the filter
    itself requires a strictly positive definite matrix, so this degenerate
    case lives in the simulator only. Raises :class:`FilterNumericalError`
    with the step index when the path leaves double precision.
    """
    if n_steps < 1:
        raise DomainError(f"n_steps={n_steps} must be at least 1")
    seed = rng if isinstance(rng, (int, np.integer)) else None
    gen = np.random.default_rng(rng)

    p = config.p
    sigma0 = np.eye(p) if sigma0 is None else check_spd(sigma0, name="sigma0")
    theta = np.zeros(p) if theta0 is None else np.asarray(theta0, dtype=float)
    if omega is None:
        omega_sqrt = sym_sqrt(config.omega, DEFAULT_REL_TOL)
    else:
        omega_sqrt = psd_sqrt(np.asarray(omega, dtype=float))

    sigmas, w, v = _evolve(gen, sigma0, config, n_steps)
    # columns: the state innovation's Omega^{1/2} z_t, the observation's eps_t
    draws = np.stack([gen.standard_normal((n_steps, p)) @ omega_sqrt,
                      gen.standard_normal((n_steps, p))], axis=-1)
    shocks = spectral(v, np.sqrt(w)) @ draws
    thetas = np.empty((n_steps, p))
    for t in range(n_steps):
        theta = thetas[t] = config.phi * theta + shocks[t, :, 0]
    return SimPath(ys=thetas + shocks[..., 1], thetas=thetas,
                   sigmas=[sigma0.copy(), *sigmas], seed=seed)
