"""Sequential volatility filter: one-step forecasting and closed-form updates.

The filter carries the sufficient statistics ``(m_t, P_t, S_t)`` through
time. One step consists of a multivariate-t one-step forecast, a rank-one
update of the scale matrix ``S_t``, the deterministic Riccati-type recursion
for ``P_t``, and a symmetric point estimate ``S_t^*`` of the posterior
volatility matrix used both as output and to form the adaptive gain.

The gain's ``P_t = V diag(lambda_t) V'`` never reads the data: ``P_0 = p0 I``
commutes with ``Omega = V diag(w) V'``, and ``lambda <- r / (r + 1)``, ``r =
phi^2 lambda + w``. The forecast precision ``Q`` is frozen at the limit
``P + Omega + I = V diag(lam(w) + w + 1) V'``, ``lam(w)`` the map's limit.

One stacked recursion, :func:`_recursion`, is the only code that runs a
filter step. It runs ``B`` candidate ``(delta, Omega)`` settings in
lockstep along a leading axis, and yields blocks of consecutive steps with
time as the leading axis. Only the part of a step that depends on the step
before runs in the step loop; each block evaluates the standardized errors
and the likelihood terms (:func:`seqvol.likelihood.terms_from_spectra`)
once over its steps. :func:`seqvol.search.evaluate_candidates`, the
many-candidate case, adds up each block's terms; :func:`filter_run`, the
``B = 1`` case, and :func:`filter_step`, its one-observation case, copy
the blocks into arrays allocated once per run.
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
from .linalg import check_spd, positive_spectrum, spd_eigh, spectral, stacked_eigh, sym
from .linalg import sym_sqrt_pair  # noqa: F401  (bench/tracer.py patches this name)

FORECAST_MEAN_MODES = ("plain", "phi_scaled")
STANDARDIZATION_MODES = ("forecast_cov", "posterior_st")

# candidate-steps per block of a stacked run: spreads the per-call cost of the
# block's kernels over many steps, and bounds the memory of the block's arrays
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
        if not np.isfinite(self.phi):
            raise DomainError(f"phi={self.phi} must be finite")
        if not 0.0 < self.p0 < np.inf:
            raise DomainError(f"p0={self.p0} must be positive and finite")
        m0 = np.zeros(p) if self.m0 is None else np.asarray(self.m0, dtype=float)
        if m0.shape != (p,):
            raise DimensionMismatch(f"m0 has shape {m0.shape}, expected ({p},)")
        if not np.isfinite(m0).all():
            raise DomainError(f"m0={m0.tolist()} must be finite")
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
    """Sufficient statistics carried between steps (``p_eigs``: see :func:`_p_eigs`)."""

    t: int
    m: np.ndarray
    P: np.ndarray
    S: np.ndarray
    p_eigs: np.ndarray | None = None


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


def _limit_eigs(phi: float, w: np.ndarray) -> np.ndarray:
    """Eigenvalues ``lam(w)`` of :func:`limit_P` from those ``w`` of ``omega``."""
    phi2 = phi * phi
    if phi2 == 0.0:
        return w / (1.0 + w)
    shift = w + 1.0 - phi2
    return (np.sqrt(shift * shift + 4.0 * phi2 * w) - shift) / (2.0 * phi2)


def limit_P(phi: float, omega: np.ndarray) -> np.ndarray:
    """Limit of the ``P_t`` recursion as a function of ``phi`` and ``omega``.

    The fixed point of ``P = R (R + I)^{-1}`` with ``R = phi^2 P + omega``
    commutes with ``omega``, so it is obtained by applying the scalar root

    ``lam(w) = (sqrt((w + 1 - phi^2)^2 + 4 phi^2 w) - w - (1 - phi^2)) / (2 phi^2)``

    to each eigenvalue ``w`` of ``omega`` (``lam(w) = w/(1+w)`` for
    ``phi = 0``). The spectrum of the result lies in ``(0, 1)``.
    """
    w, v = spd_eigh(sym(np.asarray(omega, dtype=float)))
    return spectral(v, _limit_eigs(phi, w))


def steady_Q(config: ModelConfig) -> np.ndarray:
    """Steady-state forecast precision scale ``Q = P + omega + I``."""
    return limit_P(config.phi, config.omega) + config.omega + np.eye(config.p)


def filter_init(config: ModelConfig) -> FilterState:
    """Initial state ``(t=0, m0, p0 I, S0)``."""
    return FilterState(t=0, m=config.m0.copy(), P=config.p0 * np.eye(config.p),
                       S=config.s0.copy(), p_eigs=np.full(config.p, config.p0))


def _p_eigs(state: FilterState, v: np.ndarray) -> np.ndarray:
    """Eigenvalues of ``state.P`` in Omega's eigenbasis ``v``.

    ``state.p_eigs`` if they rebuild ``P = V diag V'`` to 1e-12 of its largest
    entry, else the diagonal of ``V' P V`` if that does; a ``P`` that does not
    commute with Omega raises :class:`DomainError`.
    """
    p_mat = np.asarray(state.P, dtype=float)
    if p_mat.shape != v.shape:
        raise DimensionMismatch(f"state P has shape {p_mat.shape}, expected {v.shape}")
    for lam in (state.p_eigs, np.diag(v.T @ p_mat @ v)):
        if lam is not None and (np.abs((v * lam) @ v.T - p_mat).max()
                                <= 1e-12 * np.abs(p_mat).max()):
            return np.asarray(lam, dtype=float)
    raise DomainError("state P does not commute with omega (it is not V diag V' over its V)")


class _Block(NamedTuple):
    """``T`` consecutive steps of a stacked run of ``B`` candidates, time first."""

    f: np.ndarray  # forecast mean, (T, B, p)
    e: np.ndarray  # forecast error, (T, B, p)
    u: np.ndarray  # standardized forecast error, (T, B, p)
    s_star: np.ndarray  # point estimate S_t^*, (T, B, p, p)
    s_prev: np.ndarray  # S_{t-1}, which scales the forecast, (T, B, p, p)
    # (T, B): an S_t or S_t^* spectrum, at this step or before, was not
    # positive definite at machine level
    failed: np.ndarray
    # (quad, chol_logdet, lt, sigma_logdet), each (T, B); None without loglik
    terms: tuple[np.ndarray, ...] | None
    m: np.ndarray  # with P, S and p_eigs: FilterState after the last step, stacked
    P: np.ndarray
    S: np.ndarray
    p_eigs: np.ndarray


def _recursion(ys, base: ModelConfig, deltas: np.ndarray, omegas: np.ndarray, omega_eigh: tuple,
               start: tuple, loglik: bool) -> tuple[np.ndarray, Iterator[_Block]]:
    """The filter recursion for ``B`` candidates in lockstep.

    Candidate ``b`` has discount factor ``deltas[b]`` and innovation scale
    ``omegas[b]``, with eigendecomposition row ``b`` of ``omega_eigh = (w,
    V)``, which gives its ``Q``. It starts from row ``b`` of ``start = (m,
    p_eigs, S)``, ``p_eigs`` being ``P``'s eigenvalues in the basis ``V``;
    the rest comes from ``base``. Checks the series and returns the per-step
    log-likelihood constant ``c1``, ``(B,)``, and an iterator of blocks
    (:class:`_Block`) of at most ``_BLOCK`` candidate-steps each. The step
    loop runs only what the next step needs: ``S_t``, ``S_t^*`` and their
    spectra, ``P_t`` from its ``p`` eigenvalues, the gain and ``m_t``. Each
    block then evaluates ``u_t`` and, with ``loglik``, the likelihood terms
    (:func:`seqvol.likelihood.terms_from_spectra`) over all its steps.

    A candidate's values depend neither on the rest of its stack nor on the
    block size, bit for bit. Callers silence floating-point warnings. A
    failed candidate is flagged in ``failed`` and restarts every step from
    its start state and spectra (``P_t`` goes on), so its values are
    meaningless but finite and the stacked decompositions of the others run
    once (:func:`stacked_eigh` retries a stack with a non-finite member).
    """
    ys = np.asarray(ys, dtype=float)
    if ys.ndim == 1:
        ys = ys[:, None]
    if ys.ndim != 2 or ys.shape[1] != base.p:
        raise DimensionMismatch(f"series has shape {ys.shape}, expected (N, {base.p})")
    w_omega, v_omega = omega_eigh
    lam = _limit_eigs(base.phi, w_omega)
    q = spectral(v_omega, lam) + omegas + np.eye(base.p)  # steady_Q of each
    # a non-PD Omega or a non-finite Q fails its candidate; I stands in for that Q
    bad_q = ~(np.isfinite(q).all(axis=(-2, -1)) & (w_omega[:, 0] > 0.0))
    q = np.where(bad_q[:, None, None], np.eye(base.p), q)
    wq = np.where(bad_q[:, None], 1.0, lam + w_omega + 1.0)  # Q's spectrum over V
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
    phi, phi2 = base.phi, base.phi * base.phi
    vt_omega = v_omega.swapaxes(-1, -2)
    q_inv = spectral(v_omega, 1.0 / wq)
    q_inv_sqrt = spectral(v_omega, 1.0 / np.sqrt(wq))
    size = max(1, _BLOCK // len(deltas))  # steps per block
    # rows of a block's S spectra that whiten e_t into u_t: S_{t-1} or S_t
    whiten = slice(0, -1) if base.standardization_mode == "forecast_cov" else slice(1, None)

    def estimate(s, ws, vs):  # giw_estimator with A = Q^{-1} fixed
        s_sqrt = (vs * np.sqrt(ws)[:, None, :]) @ vs.swapaxes(-1, -2)
        return sym((s_sqrt @ q_inv @ s_sqrt + q_inv_sqrt @ s @ q_inv_sqrt) / denom3)

    initial = (start[0], start[2]) + stacked_eigh(start[2])
    initial += stacked_eigh(estimate(start[2], *initial[2:]))

    def blocks(p_eigs=start[1]):
        m, s, ws, vs, w_star, v_star = initial
        failed = bad_q | ~(positive_spectrum(ws) & positive_spectrum(w_star))
        # S and the spectra of S and S^*: of the step before the block, then of its steps
        history = [(s, ws, vs, w_star, v_star)]
        for lo in range(0, len(ys), size):
            rows = []
            for y in ys[lo:lo + size]:
                f = m if base.forecast_mean_mode == "plain" else phi * m
                e = y - f
                s = s / k3 + e[:, :, None] * e[:, None, :]
                r = phi2 * p_eigs + w_omega  # P_t's eigenvalues: never stop on convergence
                p_eigs = r / (r + 1.0)
                p_mat = (v_omega * p_eigs[:, None, :]) @ vt_omega
                ws, vs = stacked_eigh(s)
                s_star = estimate(s, ws, vs)
                w_star, v_star = stacked_eigh(s_star)
                failed = failed | ~(positive_spectrum(ws) & positive_spectrum(w_star))
                root = np.sqrt(w_star)[:, None, :]
                vt_star = v_star.swapaxes(-1, -2)
                gain = (v_star * root) @ vt_star @ p_mat @ ((v_star / root) @ vt_star)
                m = m + (gain @ e[:, :, None])[:, :, 0]
                if failed.any():
                    m, s, ws, vs, w_star, v_star = (
                        np.where(failed.reshape((-1,) + (1,) * (x.ndim - 1)), x0, x)
                        for x, x0 in zip((m, s, ws, vs, w_star, v_star), initial))
                rows.append((f, e, s_star, failed))
                history.append((s, ws, vs, w_star, v_star))
            f, e, s_star, fails = map(np.array, zip(*rows))
            s_all, ws_all, vs_all, w_all, v_all = map(np.array, zip(*history))
            history = history[-1:]
            w_base, v_base = ws_all[whiten], vs_all[whiten]
            vte = v_base.swapaxes(-1, -2) @ e[..., None]
            u = (v_base @ (vte / np.sqrt(w_base)[..., None]))[..., 0] / root_cov
            terms = (_likelihood.terms_from_spectra(w_all[:-1], v_all[:-1], w_all[1:],
                                                    v_all[1:], e, q_inv, k, deltas)
                     if loglik else None)
            yield _Block(f, e, u, s_star, s_all[:-1], fails, terms, m, p_mat, s, p_eigs)

    return c1, blocks()


def _filter(ys, config: ModelConfig, state: FilterState, compute_loglik: bool
            ) -> tuple[list[StepRecord], FilterState]:
    """Run :func:`_recursion` for one candidate from ``state``, as records.

    Copies each block's slices into arrays allocated once per run, and
    raises at the first failed step. Each record holds views into the run's
    arrays.
    """
    p, t = config.p, state.t
    # steps copied; a LinAlgError is reported at the first step after them
    done = 0
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        try:
            w, v = stacked_eigh(config.omega[None])
            c1, blocks = _recursion(ys, config, np.array([config.delta]), config.omega[None],
                                    (w, v), (state.m[None], _p_eigs(state, v[0])[None],
                                             state.S[None]), compute_loglik)
            n = len(ys)
            f, e, u = np.empty((3, n, p))
            s_star, scale, covariance = (np.empty((n, p, p)) for _ in range(3))
            terms = np.empty((4, n))  # quad, chol_logdet, lt, sigma_logdet
            for block in blocks:
                if block.failed[-1, 0]:
                    i = done + int(np.argmax(block.failed[:, 0]))
                    raise FilterNumericalError(t + i + 1, NotPositiveDefinite(
                        "S_t or S_t^* is not positive definite at machine precision"))
                rows = slice(done, done + len(block.e))
                for out, x in zip((f, e, u, s_star), block):
                    out[rows] = x[:, 0]
                scale[rows] = block.s_prev[:, 0] / config.k
                covariance[rows] = config.forecast_cov_factor * block.s_prev[:, 0]
                if compute_loglik:
                    terms[:, rows] = [g[:, 0] for g in block.terms]
                done = rows.stop
        except np.linalg.LinAlgError as exc:
            raise FilterNumericalError(t + done + 1, exc) from exc
    if n == 0:
        return [], state
    if compute_loglik:
        quad, chol, lt, sig = terms
        logliks = (c1[0] + (quad + chol + lt + sig)).tolist()
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
    return records, FilterState(t + n, *(x[0] for x in block[-4:]))


def filter_step(state: FilterState, y: np.ndarray, config: ModelConfig
                ) -> tuple[FilterState, StepRecord]:
    """Advance the filter by one observation.

    Runs the recursion on ``y`` from ``state`` (:func:`_p_eigs` reads its ``P``);
    a numerical failure raises :class:`FilterNumericalError` with the step index.
    """
    y = np.asarray(y, dtype=float)
    if y.shape != (config.p,):
        raise DimensionMismatch(f"observation has shape {y.shape}, expected ({config.p},)")
    records, new_state = _filter(y[None], config, state, True)
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
    return _filter(ys, config, filter_init(config), compute_loglik)
