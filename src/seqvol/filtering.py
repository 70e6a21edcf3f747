"""Sequential volatility filter: one-step forecasting and closed-form updates.

The filter carries the sufficient statistics ``(m_t, P_t, S_t)`` through
time. One step consists of a multivariate-t one-step forecast, a rank-one
update of the scale matrix ``S_t``, the deterministic Riccati-type recursion
for ``P_t``, and a symmetric point estimate ``S_t^*`` of the posterior
volatility matrix used both as output and to form the adaptive gain.

The gain's ``P_t = V diag(lambda_t) V'`` never reads the data: ``P_0 = p0 I``
commutes with ``Omega = V diag(w) V'``, and ``lambda <- r / (r + 1)``, ``r =
phi^2 lambda + w``. So each block of steps maps its eigenvalues before its
step loop and builds its ``P_t`` with one stacked product; once they repeat
those of two steps before (a fixed point, or two adjacent doubles, within a
few hundred steps on the search's grids), each step takes one of the last two
``P_t`` by parity, and nothing is computed. The forecast precision ``Q`` is
frozen at the limit ``P + Omega + I = V diag(lam(w) + w + 1) V'``,
``lam(w)`` the map's limit (:func:`_limit_eigs`). ``S_t^*`` is the paper's estimator
:func:`seqvol.gwishart.giw_estimate` with ``A = Q^{-1}``.

:class:`_Setup` holds what depends only on ``B`` candidate ``(delta, Omega)``
settings (each :class:`ModelConfig` caches its own); :func:`_recursion`, the
only code that runs a filter step, runs them in lockstep along a leading axis
and yields blocks of consecutive steps with time as the leading axis: 256
steps at ``B = 1``, at least 8 for any stack. Only the part of a step that
depends on the step before runs in the step loop; each block stacks only the
fields its caller names, evaluating the standardized errors or the likelihood
terms (:func:`seqvol.likelihood.terms_from_spectra`) over its steps if named.
Failure is flagged per block too, from the spectra the block keeps, and a
failed candidate restarts from its start state at the block's end.
:func:`seqvol.search.evaluate_candidates` adds up each block's terms or
squared errors; :func:`filter_run` (``B = 1``) and :func:`filter_step` (one
observation) copy the blocks into one record array per run (:func:`_filter`),
which every consumer reads by column.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Iterator, NamedTuple

import numpy as np

from . import likelihood as _likelihood
from .errors import (
    DimensionMismatch,
    DomainError,
    FilterNumericalError,
    NotPositiveDefinite,
)
from .gwishart import giw_denominator, giw_estimate
from .linalg import check_spd, positive_spectrum, spd_eigh, spectral, stacked_eigh, sym
from .linalg import sym_sqrt_pair  # noqa: F401  (bench/tracer.py patches this name)

FORECAST_MEAN_MODES = ("plain", "phi_scaled")
STANDARDIZATION_MODES = ("forecast_cov", "posterior_st")

# candidate-steps per block of a stacked run: spreads the per-call cost of the
# block's kernels over many steps, and bounds the memory of the block's arrays
_BLOCK = 256
_MIN_STEPS = 8  # fewest steps per block: a big stack's blocks still spread their cost
# what the step loop keeps of each step of a block, in order
_STEP = ("s", "ws", "vs", "w_star", "v_star", "f", "e", "s_star")
# a run array this big or bigger gets its own mapping (glibc's default mmap
# threshold, before its dynamic rise moves such blocks into the heap)
_MAP_BYTES = 128 * 1024


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
        m0 = np.zeros(p) if self.m0 is None else np.array(self.m0, dtype=float)
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
        for name, x in (("omega", omega), ("m0", m0), ("s0", s0)):
            x.flags.writeable = False  # so the cached setup cannot go stale
            object.__setattr__(self, name, x)
        object.__setattr__(self, "p", p)

    @cached_property
    def _solo_setup(self) -> _Setup:
        """This config's one-candidate :class:`_Setup`, built on first use."""
        return _Setup(self, np.array([self.delta]), self.omega[None])

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
    """Sufficient statistics after step ``t``, with ``P_t = V diag(p_eigs) V'``."""

    t: int
    m: np.ndarray
    S: np.ndarray
    p_eigs: np.ndarray
    basis: np.ndarray  # V: the config's own read-only Omega eigenvectors, which a step checks

    @property
    def P(self) -> np.ndarray:
        return (self.basis * self.p_eigs) @ self.basis.T


def _limit_eigs(phi: float, w: np.ndarray) -> np.ndarray:
    """``P_lim``'s eigenvalues ``lam(w)`` over Omega's eigenvalues ``w``, or a stack of them."""
    phi2 = phi * phi
    shift = w + 1.0 - phi2
    return (w / (1.0 + w) if phi2 == 0.0
            else (np.sqrt(shift * shift + 4.0 * phi2 * w) - shift) / (2.0 * phi2))


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
    return config._solo_setup.q[0].copy()


def filter_init(config: ModelConfig) -> FilterState:
    """Initial state ``(t=0, m0, p0 I, S0)``."""
    return FilterState(t=0, m=config.m0.copy(), S=config.s0.copy(),
                       p_eigs=np.full(config.p, config.p0), basis=config._solo_setup.v[0])


class _Setup:
    """What ``B`` candidates ``(deltas[b], omegas[b])`` need that no observation changes."""

    @np.errstate(invalid="ignore", divide="ignore", over="ignore")
    def __init__(self, base: ModelConfig, deltas: np.ndarray, omegas: np.ndarray):
        self.base, self.deltas = base, deltas
        self.w, self.v = w, v = stacked_eigh(omegas)  # v is P_t's basis
        v.flags.writeable = False
        lam = _limit_eigs(base.phi, w)
        # Q = P_lim + Omega + I stays the matrix sum: the likelihood constant's bits need it
        self.q = spectral(v, lam) + omegas + np.eye(base.p)
        # a non-PD Omega or a non-finite Q fails its candidate; I stands in for that Q
        self.bad_q = ~(np.isfinite(self.q).all(axis=(-2, -1)) & (w[:, 0] > 0.0))
        wq = np.where(self.bad_q[:, None], 1.0, lam + w + 1.0)  # Q's spectrum over V
        self.q_inv = spectral(v, 1.0 / wq)
        self.q_inv_sqrt = spectral(v, 1.0 / np.sqrt(wq))
        # each distinct discount factor's scalars, gathered per candidate
        distinct, index = np.unique(deltas, return_inverse=True)
        configs = [replace(base, delta=float(d)) for d in distinct]
        self.k = np.array([c.k for c in configs])[index]
        self.denominator = giw_denominator(  # of S_t^*
            np.array([c.posterior_dof for c in configs])[index, None, None], base.p)
        self.root_cov = np.sqrt([c.forecast_cov_factor for c in configs])[index, None]
        q = np.where(self.bad_q[:, None, None], np.eye(base.p), self.q)
        self.c1 = np.empty(len(deltas))
        for i, config in enumerate(configs):
            self.c1[index == i] = _likelihood.loglik_constant(config, q[index == i], 1)


class _Block(NamedTuple):
    """``T`` steps of ``B`` stacked candidates, time first; unread fields are ``None``."""

    f: np.ndarray  # forecast mean, (T, B, p)
    e: np.ndarray  # forecast error, (T, B, p)
    u: np.ndarray  # standardized forecast error, (T, B, p)
    s_star: np.ndarray  # point estimate S_t^*, (T, B, p, p)
    s_prev: np.ndarray  # S_{t-1}, which scales the forecast, (T, B, p, p)
    # (T, B): an S_t or S_t^* spectrum, at this step or before, was not
    # positive definite at machine level
    failed: np.ndarray
    # (quad, chol_logdet, lt, sigma_logdet), each (T, B)
    terms: tuple[np.ndarray, ...] | None
    m: np.ndarray  # with S and p_eigs: FilterState after the last step, stacked
    S: np.ndarray
    p_eigs: np.ndarray


def _recursion(ys, setup: _Setup, start: FilterState, reads: set[str]) -> Iterator[_Block]:
    """The filter recursion for the ``B`` candidates of ``setup``, in lockstep.

    Every candidate starts from ``start``, its ``p_eigs`` read in the
    candidate's basis ``setup.v[b]`` (``P_0 = p0 I`` is the same in every
    basis). Checks the series (a non-finite observation raises
    :class:`DomainError` naming its step) and returns an iterator of blocks
    (:class:`_Block`) of ``max(_MIN_STEPS, _BLOCK // B)`` steps each. The
    step loop runs only what the next step needs: ``S_t``, ``S_t^*`` and
    their spectra, the gain and ``m_t``. ``P_t`` is built per block, before
    its steps, and reused by parity once periodic (see the module docstring).
    Each block stacks ``failed``, the end state and the fields ``reads``
    names (of ``f``, ``e``, ``u``, ``s_star``, ``s_prev`` and ``terms``;
    ``e`` also for ``u`` or ``terms``) over all its steps, evaluating ``u_t``
    and the terms (:func:`seqvol.likelihood.terms_from_spectra`) only if
    named; the other fields are ``None``.

    A candidate's values depend neither on the rest of its stack nor on the
    block size, bit for bit. Callers silence floating-point warnings. Each
    block flags its failed candidates in ``failed`` from the spectra it
    keeps, and at its end restarts them from their start state and spectra
    (``P_t`` goes on). So a failed candidate's values are meaningless, and
    NaN, which slows the stacked decompositions, at most until then.
    """
    base = setup.base
    ys = np.asarray(ys, dtype=float)
    if ys.ndim == 1:
        ys = ys[:, None]
    if ys.ndim != 2 or ys.shape[1] != base.p:
        raise DimensionMismatch(f"series has shape {ys.shape}, expected (N, {base.p})")
    if not np.isfinite(ys).all():
        i = int(np.argmin(np.isfinite(ys).all(axis=1)))
        raise DomainError(f"t={start.t + i + 1}: observation {ys[i].tolist()} is not finite")
    k3 = setup.k[:, None, None]
    phi, phi2 = base.phi, base.phi * base.phi
    vt_omega = setup.v.swapaxes(-1, -2)
    size = max(_MIN_STEPS, _BLOCK // len(setup.deltas))  # steps per block
    # rows of steps whose S spectrum whitens e_t into u_t: S_{t-1} or S_t
    whiten = slice(0, -1) if base.standardization_mode == "forecast_cov" else slice(1, None)

    def estimate(s, ws, vs):  # giw_estimator with A = Q^{-1}
        s_sqrt = (vs * np.sqrt(ws)[:, None, :]) @ vs.swapaxes(-1, -2)
        return giw_estimate(setup.q_inv, setup.q_inv_sqrt, s, s_sqrt, setup.denominator)

    m0, s0, p_eigs0 = (np.broadcast_to(x, (len(setup.deltas),) + x.shape)
                       for x in (start.m, start.S, start.p_eigs))
    initial = (m0, s0) + stacked_eigh(s0)
    initial += stacked_eigh(estimate(s0, *initial[2:]))

    def p_matrices(eigs):  # P_t = V diag(lambda_t) V' of a (T, B, p) stack of eigenvalues
        return (setup.v * np.array(eigs)[:, :, None, :]) @ vt_omega

    def blocks():
        def gather(name, rows=slice(1, None)):  # a column of the block's steps, stacked
            return np.array(columns[name][rows])

        m, s, ws, vs, w_star, v_star = initial
        failed = setup.bad_q | ~(positive_spectrum(ws) & positive_spectrum(w_star))
        # the step before the block, then its steps, as _STEP columns
        steps = [(s, ws, vs, w_star, v_star, None, None, None)]
        # P_t's eigenvalues at the last steps mapped, t counted from the run's
        # start. The map is deterministic: once the stack's bits equal those
        # of two steps before (bits, so a NaN member compares equal), P_t
        # repeats with period 1 or 2, and cycle holds (eigenvalues, P_t) at
        # even and at odd t
        lams, cycle = [p_eigs0], None
        for lo in range(0, len(ys), size):
            block = ys[lo:lo + size]
            p_mats = ()
            if cycle is None:
                lams = lams[-2:]
                known = len(lams)
                for t in range(lo + 1, lo + len(block) + 1):
                    r = phi2 * lams[-1] + setup.w
                    lams.append(r / (r + 1.0))
                    if len(lams) > 2 and lams[-1].tobytes() == lams[-3].tobytes():
                        pair = list(zip(lams[-2:], p_matrices(lams[-2:])))
                        cycle = pair if t % 2 else pair[::-1]
                        break
                p_mats = p_matrices(lams[known:])
            if len(p_mats) < len(block):  # the cycle gives the rest of the block
                p_mats = [*p_mats, *(cycle[t % 2][1]
                                     for t in range(lo + len(p_mats) + 1, lo + len(block) + 1))]
            for y, p_mat in zip(block, p_mats):
                f = m if base.forecast_mean_mode == "plain" else phi * m
                e = y - f
                s = s / k3 + e[:, :, None] * e[:, None, :]
                ws, vs = stacked_eigh(s)
                s_star = estimate(s, ws, vs)
                w_star, v_star = stacked_eigh(s_star)
                root = np.sqrt(w_star)[:, None, :]
                vt_star = v_star.swapaxes(-1, -2)
                gain = (v_star * root) @ vt_star @ p_mat @ ((v_star / root) @ vt_star)
                m = m + (gain @ e[:, :, None])[:, :, 0]
                steps.append((s, ws, vs, w_star, v_star, f, e, s_star))
            p_eigs = lams[-1] if cycle is None else cycle[(lo + len(block)) % 2][0]
            columns = dict(zip(_STEP, zip(*steps)))
            w_stars = gather("w_star", slice(None))
            # a candidate stays failed from its first spectrum that is not positive definite
            flags = failed | np.logical_or.accumulate(
                ~(positive_spectrum(gather("ws")) & positive_spectrum(w_stars[1:])), axis=0)
            failed = flags[-1]
            if failed.any():  # rare: restart the failed candidates
                m, s, ws, vs, w_star, v_star = (
                    np.where(failed.reshape((-1,) + (1,) * (x.ndim - 1)), x0, x)
                    for x, x0 in zip((m, s, ws, vs, w_star, v_star), initial))
            steps = [(s, ws, vs, w_star, v_star, None, None, None)]
            e = gather("e") if reads & {"e", "u", "terms"} else None  # u and terms read e
            u = terms = None
            if "u" in reads:
                w_base, v_base = gather("ws", whiten), gather("vs", whiten)
                vte = v_base.swapaxes(-1, -2) @ e[..., None]
                u = (v_base @ (vte / np.sqrt(w_base)[..., None]))[..., 0] / setup.root_cov
            if "terms" in reads:
                terms = _likelihood.terms_from_spectra(
                    e, w_stars, gather("v_star", slice(None)), setup.q_inv, setup.k, setup.deltas)
            yield _Block(gather("f") if "f" in reads else None, e, u,
                         gather("s_star") if "s_star" in reads else None,
                         gather("s", slice(0, -1)) if "s_prev" in reads else None,
                         flags, terms, m, s, p_eigs)
            del columns  # frees the block's steps before the next block's

    return blocks()


def _filter(ys, config: ModelConfig, state: FilterState, compute_loglik: bool
            ) -> tuple[np.recarray, FilterState]:
    """Run :func:`_recursion` for one candidate from ``state``, as a run array.

    The run is one ``np.recarray`` with a row per step and the fields ``t``;
    the forecast mean ``f``, the forecast error ``e`` and the standardized
    error ``u``; the forecast scale ``scale = S_{t-1} / k`` (the forecast is
    Student-t on ``config.forecast_dof`` degrees of freedom, its covariance
    ``config.forecast_cov_factor * S_{t-1}``); the estimate ``s_star``; the
    term groups ``terms = (quad, chol_logdet, lt, sigma_logdet)``; and the
    step's log-likelihood contribution ``loglik_t``. Each field is filled
    from each block's slice. Without ``compute_loglik`` ``terms`` and
    ``loglik_t`` are NaN. A step whose ``L_t`` has no positive eigenvalue
    has ``lt = loglik_t = -inf``. Raises at the first failed step.
    """
    p, t, setup = config.p, state.t, config._solo_setup
    if np.shape(state.basis) != (p, p):
        raise DimensionMismatch(f"state basis has shape {np.shape(state.basis)}, not {(p, p)}")
    if not np.array_equal(state.basis, setup.v[0]):
        raise DomainError("state P is not held in this config's Omega eigenbasis")
    n, vec, mat = len(ys), (float, (p,)), (float, (p, p))
    dtype = np.dtype([("t", np.int64), ("f", *vec), ("scale", *mat), ("e", *vec),
                      ("u", *vec), ("s_star", *mat), ("terms", float, (4,)),
                      ("loglik_t", float)])
    # A long run is mapped on its own and unmapped when dropped. From the heap,
    # where glibc puts it once a bigger block has been freed, a process that
    # filters again and again leaves a run-sized hole that a small block
    # allocated above it can pin, and its resident size jumps by a run.
    nbytes = n * dtype.itemsize
    run = np.recarray(n, dtype, buf=mmap.mmap(-1, nbytes) if nbytes >= _MAP_BYTES else None)
    run.t = np.arange(t + 1, t + n + 1)
    run.terms = run.loglik_t = np.nan
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        blocks = _recursion(ys, setup, state, {"f", "e", "u", "s_star", "s_prev"}
                            | ({"terms"} if compute_loglik else set()))
        done = 0  # steps copied
        for block in blocks:
            if block.failed[-1, 0]:
                i = done + int(np.argmax(block.failed[:, 0]))
                raise FilterNumericalError(t + i + 1, NotPositiveDefinite(
                    "S_t or S_t^* is not positive definite at machine precision"))
            rows = run[done:done + len(block.e)]
            rows.f, rows.e, rows.u, rows.s_star = (x[:, 0] for x in block[:4])
            rows.scale = block.s_prev[:, 0] / config.k
            if compute_loglik:
                rows.terms = np.stack(block.terms, axis=-1)[:, 0]
            done += len(rows)
    if n == 0:
        return run, state
    if compute_loglik:
        # a zero-error step puts the plug-in path on the boundary of the
        # transition's support (L_t = 0): the state update is still defined,
        # so the step contributes lt = -inf
        quad, chol, lt, sig = run.terms.T
        run.loglik_t = setup.c1[0] + (quad + chol + lt + sig)
    return run, FilterState(t + n, *(x[0] for x in block[-3:]), setup.v[0])


def filter_step(state: FilterState, y: np.ndarray, config: ModelConfig
                ) -> tuple[FilterState, np.record]:
    """Advance the filter by one observation; returns the new state and the step's row.

    Runs the recursion on ``y`` from ``state`` with the config's cached setup;
    the row has the fields of :func:`filter_run`'s run. A numerical failure
    raises :class:`FilterNumericalError` with the step index.
    """
    y = np.asarray(y, dtype=float)
    if y.shape != (config.p,):
        raise DimensionMismatch(f"observation has shape {y.shape}, expected ({config.p},)")
    run, new_state = _filter(y[None], config, state, True)
    return new_state, run[0]


def filter_run(ys, config: ModelConfig, *, compute_loglik: bool = True
               ) -> tuple[np.recarray, FilterState]:
    """Filter a whole series; the first numerical failure aborts with its index.

    Returns the run, a record array with one row per step (fields in
    :func:`_filter`), and the final state. Each field is a column
    (``run.s_star`` stacks the estimates) and each row a record
    (``run[i].loglik_t``). With ``compute_loglik`` each row carries its
    additive log-likelihood contribution and term groups, which
    :func:`seqvol.likelihood.loglik_from_records` sums; without, both are
    NaN. A step whose ``L_t`` has no positive eigenvalue contributes
    ``-inf`` and does not stop the run.
    """
    return _filter(ys, config, filter_init(config), compute_loglik)
