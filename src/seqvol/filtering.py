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
depends on the step before runs in the step loop; each block stacks its steps
as columns, and evaluates the standardized errors or the likelihood terms
(:func:`seqvol.likelihood.terms_from_spectra`) over them if its caller names
them. Failure is flagged per block too, from the spectra the block keeps, and
a failed candidate restarts from its start state at the block's end.
:func:`seqvol.search.evaluate_candidates` adds up each block's terms or
squared errors; :func:`filter_run` (``B = 1``) and :func:`filter_step` (one
observation) copy the blocks into one record array per run (:func:`_filter`),
which every consumer reads by column.

At ``p = 2`` the step loop runs :func:`_step2`, the whole step in closed
form on the lower triangles of its 2 x 2 matrices, over Python floats for
one candidate and over ``(B,)`` arrays for a stack (``linalg``'s two
evaluators, with the same bits); at ``p >= 3`` it runs the matrix step. A
kernel gives only its step and its row layout (the steps' rows as the seven
``_ROW2`` columns, end values as a row); the block body on those columns
(flags, restarts, ``f``, ``e``, ``u``, terms, end state) is written once.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass, field, replace
from functools import cached_property, partial
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
from .linalg import (_ARRAY_OPS, _FLOAT_OPS, _eigh2, check_spd, positive_spectrum, spd_eigh,
                     spectral, stacked_eigh, sym)
from .linalg import sym_sqrt_pair  # noqa: F401  (bench/tracer.py patches this name)

FORECAST_MEAN_MODES = ("plain", "phi_scaled")
STANDARDIZATION_MODES = ("forecast_cov", "posterior_st")

# candidate-steps per block of a stacked run: spreads the per-call cost of the
# block's kernels over many steps, and bounds the memory of the block's arrays
_BLOCK = 256
_MIN_STEPS = 8  # fewest steps per block: a big stack's blocks still spread their cost
# what the step loop keeps of each step of a block, in order (a block's columns), and
# where each field lies in a flat row of the closed-form p = 2 step, and its shape
_ROW2 = {"m": (0, 2, (2,)), "s": (2, 6, (2, 2)), "ws": (6, 8, (2,)), "vs": (8, 12, (2, 2)),
         "s_star": (12, 16, (2, 2)), "w_star": (16, 18, (2,)), "v_star": (18, 22, (2, 2))}
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
    """What ``B`` candidates ``(deltas[b], omegas[b])`` need that no observation changes.

    Of ``base`` it keeps ``phi``, ``p`` and the modes, not ``base``: a config
    caches its setup, and that cycle would live until the cyclic collector ran.
    """

    @np.errstate(invalid="ignore", divide="ignore", over="ignore")
    def __init__(self, base: ModelConfig, deltas: np.ndarray, omegas: np.ndarray):
        self.deltas, self.phi, self.p = deltas, base.phi, base.p
        self.forecast_mean_mode = base.forecast_mean_mode
        self.standardization_mode = base.standardization_mode
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
        if base.p == 2:  # the closed-form step's k, Q^-1, Q^-1/2 and den, lower triangles
            lower = [x[:, (0, 1, 1), (0, 0, 1)].T for x in (self.q_inv, self.q_inv_sqrt)]
            self.const2 = np.vstack([self.k, *lower, self.denominator[:, 0, 0]])


class _Block(NamedTuple):
    """``T`` steps of ``B`` stacked candidates, time first.

    ``u`` and ``terms`` are ``None`` unless read; the other fields always hold.
    """

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


def _congruence(xa, xb, xc, ya, yb, yc):  # the lower triangle of X Y X, X and Y symmetric
    pa, pb = xa * ya + xb * yb, xa * yb + xb * yc
    pc, pd = xb * ya + xc * yb, xb * yb + xc * yc
    return pa * xa + pb * xb, pc * xa + pd * xb, pc * xb + pd * xc


def _estimate2(a, b, c, const, ops):
    """``S = [[a, b], [b, c]]``'s spectrum, ``S^*`` and its spectrum, as a row's flat tail.

    ``S^* = (S^1/2 Q^-1 S^1/2 + Q^-1/2 S Q^-1/2) / den``, the estimate of
    :func:`seqvol.gwishart.giw_estimate`, with ``const = (k, Q^-1's lower
    triangle, Q^-1/2's, den)`` (``_Setup.const2``). The ``_ROW2`` fields
    ``ws`` to ``v_star``.
    """
    _, qa, qb, qc, ra, rb, rc, den = const
    w0, w1, v, u = _eigh2(a, b, c, ops, False)
    r0, r1 = ops.sqrt(w0), ops.sqrt(w1)  # S^1/2 = V diag(r) V', V = [[v, u], [-u, v]]
    ha, hb, hc = r0 * v * v + r1 * u * u, (r1 - r0) * u * v, r0 * u * u + r1 * v * v
    xa, xb, xc = _congruence(ha, hb, hc, qa, qb, qc)
    ya, yb, yc = _congruence(ra, rb, rc, a, b, c)
    sa, sb, sc = (xa + ya) / den, (xb + yb) / den, (xc + yc) / den
    x0, x1, xv, xu = _eigh2(sa, sb, sc, ops, False)
    return w0, w1, v, u, -u, v, sa, sb, sb, sc, x0, x1, xv, xu, -xu, xv


def _step2(row, y, p_mat, const, fscale, ops):
    """The filter step at ``p = 2`` in closed form: the next ``_ROW2`` row, flat.

    Forecast error, ``S_t = S_{t-1}/k + e e'`` and :func:`_estimate2` on lower
    triangles, then ``m_t = m_{t-1} + S^*^1/2 P_t S^*^-1/2 e_t`` as products
    of ``V^*``, ``diag(w^*)^{+-1/2}`` and ``P_t`` with vectors. ``ops`` is
    ``_eigh2``'s: one formula over Python floats (one candidate) or over
    ``(B,)`` arrays (a stack), with the same bits.
    """
    m0, m1, a, _, b, c = row[:6]
    (y0, y1), (pa, _, pb, pc), k = y, p_mat, const[0]
    e0, e1 = y0 - fscale * m0, y1 - fscale * m1
    a, b, c = a / k + e0 * e0, b / k + e1 * e0, c / k + e1 * e1
    est = _estimate2(a, b, c, const, ops)
    x0, x1, xv, xu = est[10:14]  # S_t^*'s spectrum and V^* = [[xv, xu], [-xu, xv]]
    r0, r1 = ops.sqrt(x0), ops.sqrt(x1)
    z0, z1 = ops.div(xv * e0 - xu * e1, r0), ops.div(xu * e0 + xv * e1, r1)
    g0, g1 = xv * z0 + xu * z1, xv * z1 - xu * z0
    g0, g1 = pa * g0 + pb * g1, pb * g0 + pc * g1
    z0, z1 = r0 * (xv * g0 - xu * g1), r1 * (xu * g0 + xv * g1)
    return (m0 + (xv * z0 + xu * z1), m1 + (xv * z1 - xu * z0), a, b, b, c, *est)


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
    Each kernel (:func:`_step2` at ``p = 2``, the matrix step at ``p >= 3``)
    gives its start row and step, ``inputs`` (how ``y_t`` and ``P_t`` enter),
    ``columns_of`` (a block's rows as the seven ``_ROW2`` columns, C-order
    ``(T + 1, B, ...)``) and ``row_of`` (end values as a row). Each block
    stacks ``f``, ``e``, ``s_star``, ``s_prev``, ``failed`` and the end state;
    of ``u_t`` and the terms (:func:`seqvol.likelihood.terms_from_spectra`),
    the two that cost work, only those ``reads`` names, the other ``None``.

    A candidate's values depend neither on the rest of its stack nor on the
    block size, bit for bit. Callers silence floating-point warnings. Each
    block flags its failed candidates in ``failed`` from the spectra it
    keeps, and at its end restarts them from their start state and spectra
    (``P_t`` goes on). So a failed candidate's values are meaningless, and
    NaN, which slows the stacked decompositions, at most until then.
    """
    ys = np.asarray(ys, dtype=float)
    if ys.ndim == 1:
        ys = ys[:, None]
    if ys.ndim != 2 or ys.shape[1] != setup.p:
        raise DimensionMismatch(f"series has shape {ys.shape}, expected (N, {setup.p})")
    if not np.isfinite(ys).all():
        i = int(np.argmin(np.isfinite(ys).all(axis=1)))
        raise DomainError(f"t={start.t + i + 1}: observation {ys[i].tolist()} is not finite")
    nb, phi, phi2 = len(setup.deltas), setup.phi, setup.phi * setup.phi
    fscale = 1.0 if setup.forecast_mean_mode == "plain" else phi  # f_t = fscale m_{t-1}
    vt_omega = setup.v.swapaxes(-1, -2)
    size = max(_MIN_STEPS, _BLOCK // nb)  # steps per block
    # rows of steps whose S spectrum whitens e_t into u_t: S_{t-1} or S_t
    whiten = slice(0, -1) if setup.standardization_mode == "forecast_cov" else slice(1, None)
    m0, s0, p_eigs0 = (np.broadcast_to(x, (nb,) + x.shape)
                       for x in (start.m, start.S, start.p_eigs))

    if setup.p == 2:  # the closed form, over floats for one candidate, else over (B,) rows
        ops, split = ((_FLOAT_OPS, lambda x: x[..., 0].tolist()) if nb == 1
                      else (_ARRAY_OPS, list))
        const = split(setup.const2)
        ma, mb, a, _, b, c = split(np.hstack([m0, s0.reshape(nb, 4)]).T)
        initial = (ma, mb, a, b, b, c, *_estimate2(a, b, c, const, ops))
        step = partial(_step2, const=const, fscale=fscale, ops=ops)

        def inputs(block, p_mats):
            return zip(block.tolist(), split(np.reshape(p_mats, (-1, nb, 4)).transpose(0, 2, 1)))

        def columns_of(rows):  # the _ROW2 fields, C order: the products' bits depend on layout
            x = np.array(rows).reshape(len(rows), -1, nb)
            rows.clear()  # frees the flat rows before the fields' copies
            return [np.ascontiguousarray(x[:, i:j].transpose(0, 2, 1)).reshape(
                x.shape[:1] + (nb,) + shape) for i, j, shape in _ROW2.values()]

        def row_of(values):  # the (B, ...) values of the _ROW2 fields, as one flat row
            return split(np.vstack([x.reshape(nb, -1).T for x in values]))
    else:
        k3 = setup.k[:, None, None]

        def estimate(s, ws, vs):  # giw_estimator with A = Q^{-1}
            s_sqrt = (vs * np.sqrt(ws)[:, None, :]) @ vs.swapaxes(-1, -2)
            return giw_estimate(setup.q_inv, setup.q_inv_sqrt, s, s_sqrt, setup.denominator)

        ws0, vs0 = stacked_eigh(s0)
        s_star0 = estimate(s0, ws0, vs0)
        initial = (m0, s0, ws0, vs0, s_star0, *stacked_eigh(s_star0))
        inputs, row_of = zip, tuple

        def step(row, y, p_mat):
            m, s = row[:2]
            e = y - fscale * m
            s = s / k3 + e[:, :, None] * e[:, None, :]
            ws, vs = stacked_eigh(s)
            s_star = estimate(s, ws, vs)
            w_star, v_star = stacked_eigh(s_star)
            root = np.sqrt(w_star)[:, None, :]
            vt_star = v_star.swapaxes(-1, -2)
            gain = (v_star * root) @ vt_star @ p_mat @ ((v_star / root) @ vt_star)
            return m + (gain @ e[:, :, None])[:, :, 0], s, ws, vs, s_star, w_star, v_star

        def columns_of(rows):  # each field's values, stacked, then the rows freed
            columns = [np.array(x) for x in zip(*rows)]
            rows.clear()
            return columns

    def p_matrices(eigs):  # P_t = V diag(lambda_t) V' of a (T, B, p) stack of eigenvalues
        return (setup.v * np.array(eigs)[:, :, None, :]) @ vt_omega

    def blocks():
        row, failed = initial, setup.bad_q  # the step before the block; failed candidates
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
            rows = [row]
            for y, p_in in inputs(block, p_mats):
                row = step(row, y, p_in)
                rows.append(row)
            p_eigs = lams[-1] if cycle is None else cycle[(lo + len(block)) % 2][0]
            m, s, ws, vs, s_star, w_star, v_star = columns = columns_of(rows)
            # a candidate stays failed from its first spectrum that is not positive
            # definite. Row 0 is the start state's or a step already checked
            flags = failed | np.logical_or.accumulate(
                ~(positive_spectrum(ws) & positive_spectrum(w_star)), axis=0)[1:]
            failed = flags[-1]
            end = [x[-1].copy() for x in columns]  # copies, which do not keep the block
            if failed.any():  # rare: restart the failed candidates from the start row
                end = [np.where(failed.reshape((-1,) + (1,) * (x.ndim - 1)), x0[0], x)
                       for x, x0 in zip(end, columns_of([initial]))]
            row = row_of(end)
            f = fscale * m[:-1]
            e, u, terms = block[:, None, :] - f, None, None
            if "u" in reads:
                vte = vs[whiten].swapaxes(-1, -2) @ e[..., None]
                u = (vs[whiten] @ (vte / np.sqrt(ws[whiten])[..., None]))[..., 0] / setup.root_cov
            if "terms" in reads:
                terms = _likelihood.terms_from_spectra(
                    e, w_star, v_star, setup.q_inv, setup.k, setup.deltas)
            yield _Block(f, e, u, s_star[1:], s[:-1], flags, terms, *end[:2], p_eigs)
            del m, s, ws, vs, s_star, w_star, v_star, columns, end  # frees the block's steps

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
    for name, shape in (("basis", (p, p)), ("m", (p,)), ("S", (p, p)), ("p_eigs", (p,))):
        if (got := np.shape(getattr(state, name))) != shape:
            raise DimensionMismatch(f"state {name} has shape {got}, not {shape}")
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
        blocks = _recursion(ys, setup, state, {"u", "terms"} if compute_loglik else {"u"})
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
