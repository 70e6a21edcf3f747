"""Exact forward simulation of the volatility state-space model.

Generates observation, signal and volatility paths from the generative
model: the precision matrix evolves multiplicatively through a rank-one
singular-beta shock, the signal follows an AR(1) whose innovation scale is
``Sigma_t^{1/2} Omega Sigma_t^{1/2}``, and the observation adds Gaussian
noise scaled by ``Sigma_t^{1/2}``.

The state innovation is realized as ``Sigma_t^{1/2} Omega^{1/2} z_t`` with
``z_t`` standard normal, which has the required covariance without forming
the combined matrix square root each step (equality is in distribution, not
of the matrix factors).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .filtering import ModelConfig
from .gwishart import SingularBetaParams, sample_singular_beta
from .linalg import DEFAULT_REL_TOL, check_spd, chol_upper, psd_sqrt, spd_inverse, sym_sqrt


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


def evolve_precision(rng: np.random.Generator, sigma_prev: np.ndarray,
                     config: ModelConfig) -> np.ndarray:
    """One multiplicative precision step.

    ``Sigma_t^{-1} = k U(Sigma_{t-1}^{-1})' B_t U(Sigma_{t-1}^{-1})`` with
    ``B_t`` a rank-one-deficient singular beta draw.
    """
    params = SingularBetaParams(m=config.beta_m, n_int=1, p=config.p)
    b = sample_singular_beta(rng, params)
    u = chol_upper(spd_inverse(sigma_prev))
    precision = config.k * (u.T @ b @ u)
    return spd_inverse(0.5 * (precision + precision.T))


def simulate_path(rng, config: ModelConfig, sigma0: np.ndarray | None = None,
                  theta0: np.ndarray | None = None, n_steps: int = 1, *,
                  omega: np.ndarray | None = None) -> SimPath:
    """Simulate ``n_steps`` observations from the generative model.

    ``rng`` may be a ``numpy.random.Generator`` or an integer seed; an
    integer is recorded on the returned path. ``omega`` overrides the
    config's state innovation scale and may be positive semi-definite
    (including zero, which freezes the signal when ``phi = 1``); the filter
    itself requires a strictly positive definite matrix, so this degenerate
    case lives in the simulator only.
    """
    if n_steps < 1:
        raise DomainError(f"n_steps={n_steps} must be at least 1")
    seed = rng if isinstance(rng, (int, np.integer)) else None
    gen = np.random.default_rng(rng)

    p = config.p
    sigma = np.eye(p) if sigma0 is None else check_spd(sigma0, name="sigma0")
    theta = np.zeros(p) if theta0 is None else np.asarray(theta0, dtype=float)
    if omega is None:
        omega_sqrt = sym_sqrt(config.omega, DEFAULT_REL_TOL)
    else:
        omega_sqrt = psd_sqrt(np.asarray(omega, dtype=float))

    ys = np.empty((n_steps, p))
    thetas = np.empty((n_steps, p))
    sigmas = [sigma.copy()]
    for t in range(n_steps):
        sigma = evolve_precision(gen, sigma, config)
        sigma_sqrt = sym_sqrt(sigma)
        z = gen.standard_normal(p)
        theta = config.phi * theta + sigma_sqrt @ (omega_sqrt @ z)
        eps = gen.standard_normal(p)
        y = theta + sigma_sqrt @ eps
        sigmas.append(sigma)
        thetas[t] = theta
        ys[t] = y
    return SimPath(ys=ys, thetas=thetas, sigmas=sigmas, seed=seed)
