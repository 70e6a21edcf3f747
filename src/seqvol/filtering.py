"""Sequential volatility filter: one-step forecasting and closed-form updates.

The filter carries the sufficient statistics ``(m_t, P_t, S_t)`` through
time. One step consists of a multivariate-t one-step forecast, a rank-one
update of the scale matrix ``S_t``, the deterministic Riccati-type recursion
for ``P_t``, and a symmetric point estimate ``S_t^*`` of the posterior
volatility matrix used both as output and to form the adaptive gain.

The gain's ``P_t = V diag(lambda_t) V'`` never reads the data: ``P_0 = p0 I``
commutes with ``Omega = V diag(w) V'``, and ``lambda <- r / (r + 1)``, ``r =
phi^2 lambda + w``. So one generator per run maps the eigenvalues until they
repeat those of two steps before (a fixed point, or two adjacent doubles,
within a few hundred steps on the search's grids), and then cycles the last
two pairs of eigenvalues and ``P_t``, built once; a block that starts before
then builds all of its ``P_t`` with one stacked product. The forecast
precision ``Q`` is frozen at the limit ``P + Omega + I = V diag(lam(w) + w +
1) V'``, ``lam(w)`` the map's limit (:func:`_limit_eigs`). ``S_t^*`` is the
paper's estimator :func:`seqvol.gwishart.giw_estimate` with ``A = Q^{-1}``.

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
form on the lower triangles of its 2 x 2 matrices with no spectrum (square
roots ``(S + d I) / tau``, :func:`_root2`), over Python floats for one
candidate and over ``(B,)`` arrays for a stack (``linalg``'s two
evaluators, with the same bits). A block's edges convert nothing per step:
one candidate's rows become one ``np.fromiter`` array, each ``P_t`` takes
the step's form when built, and ``S``'s and ``S^*``'s spectra come from one
stacked call. At ``p >= 3`` it runs the matrix step. A kernel gives only
its step and its row layout (a block's rows as seven columns, end values as
a row); the block body on those columns (flags, restarts, ``f``, ``e``,
``u``, terms, end state) is written once. At ``p = 2`` the block's terms
run in closed form too (:func:`seqvol.likelihood.terms_from_spectra`, which
reads the block's ``S_t^*`` spectra, ``e`` and ``Q^{-1}``'s lower
triangle), with no 2 x 2 matrix product. For :func:`_filter`, which raises
at the first failed block, a block checks ``m`` every ``_CHECK`` steps and
ends at the first check that finds it non-finite, so a failed run raises
within a few steps of its failure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property, partial
from itertools import chain, cycle, islice
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
from .linalg import (_ARRAY_OPS, _FLOAT_OPS, check_spd, positive_spectrum, spd_eigh, spectral,
                     stacked_eigh, sym)
from .linalg import sym_sqrt_pair  # noqa: F401  (bench/tracer.py patches this name)

FORECAST_MEAN_MODES = ("plain", "phi_scaled")
STANDARDIZATION_MODES = ("forecast_cov", "posterior_st")

# candidate-steps per block of a stacked run: spreads the per-call cost of the
# block's kernels over many steps, and bounds the memory of the block's arrays
_BLOCK = 256
_MIN_STEPS = 8  # fewest steps per block: a big stack's blocks still spread their cost
# steps between checks of m in a run that stops at its first failure: a failed step
# makes m non-finite, and the block ends at the check, not a block's worth of NaN later
_CHECK = 16


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
        discount_k(self.delta, p)  # checks delta
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


def _root2(a, b, c, ops):
    """``S = [[a, b], [b, c]]``'s square root in closed form, on ``S / t``, ``t = tr S``.

    ``S^1/2 = (S + d I) / tau``, ``d = sqrt(det S)`` and ``tau^2 = tr S + 2 d``
    (Levinger 1980; Higham, *Functions of Matrices*, 2008, ch. 6), on entries
    divided by ``t`` so that ``det`` neither overflows nor underflows: ``t``,
    ``M = S / t + d' I``'s lower triangle and ``d' = d / t``, so ``S^1/2 =
    sqrt(t) M / sqrt(tr M)`` and ``det M = d' tr M``.
    """
    t = a + c
    a, b, c = ops.div(a, t), ops.div(b, t), ops.div(c, t)
    d = ops.sqrt(a * c - b * b)
    return t, a + d, b, c + d, d


def _estimate2(a, b, c, const, ops):
    """``S^*`` of ``S = [[a, b], [b, c]]``, its lower triangle.

    ``S^* = (S^1/2 Q^-1 S^1/2 + Q^-1/2 S Q^-1/2) / den``, the estimate of
    :func:`seqvol.gwishart.giw_estimate`, with ``const = (k, Q^-1's lower
    triangle, Q^-1/2's, den)`` (``_Setup.const2``) and ``S^1/2 Q^-1 S^1/2 = t
    M Q^-1 M / tr M`` (:func:`_root2`).
    """
    _, qa, qb, qc, ra, rb, rc, den = const
    t, ma, mb, mc, _ = _root2(a, b, c, ops)
    xa, xb, xc = _congruence(ma, mb, mc, qa, qb, qc)
    ya, yb, yc = _congruence(ra, rb, rc, a, b, c)
    f = ops.div(t, ma + mc)
    return (f * xa + ya) / den, (f * xb + yb) / den, (f * xc + yc) / den


def _step2(const, fscale, ops, row, y, p_mat):
    """The filter step at ``p = 2`` in closed form: the next row, ``(m, S, S^*)`` flat.

    Forecast error, ``S_t = S_{t-1}/k + e e'`` and :func:`_estimate2` on lower
    triangles, then ``m_t = m_{t-1} + S^*^1/2 P_t S^*^-1/2 e_t``, whose gain
    is ``M P_t adj(M) / det M`` with ``M`` of :func:`_root2` on ``S_t^*``:
    no spectrum. ``ops`` holds ``sqrt`` and ``div``: one formula over Python
    floats (one candidate) or over ``(B,)`` arrays (a stack), with the same bits.
    """
    m0, m1, a, _, b, c = row[:6]
    (y0, y1), (pa, _, pb, pc), k = y, p_mat, const[0]
    e0, e1 = y0 - fscale * m0, y1 - fscale * m1
    a, b, c = a / k + e0 * e0, b / k + e1 * e0, c / k + e1 * e1
    sa, sb, sc = _estimate2(a, b, c, const, ops)
    _, ma, mb, mc, d = _root2(sa, sb, sc, ops)
    det = d * (ma + mc)
    z0, z1 = ops.div(mc * e0 - mb * e1, det), ops.div(ma * e1 - mb * e0, det)
    g0, g1 = pa * z0 + pb * z1, pb * z0 + pc * z1
    return m0 + (ma * g0 + mb * g1), m1 + (mb * g0 + mc * g1), a, b, b, c, sa, sb, sb, sc


def _recursion(ys, setup: _Setup, start: FilterState, reads: set[str], *,
               stop_at_failure: bool = False) -> Iterator[_Block]:
    """The filter recursion for the ``B`` candidates of ``setup``, in lockstep.

    Every candidate starts from ``start``, its ``p_eigs`` read in the
    candidate's basis ``setup.v[b]`` (``P_0 = p0 I`` is the same in every
    basis). Checks the series (a non-finite observation raises
    :class:`DomainError` naming its step) and returns an iterator of blocks
    (:class:`_Block`) of ``max(_MIN_STEPS, _BLOCK // B)`` steps each. A
    caller that stops at the first failed block (``stop_at_failure``, as
    :func:`_filter`) gets a block that ends at the first of every ``_CHECK``
    steps whose ``m`` is not finite, not a block's worth of NaN steps later;
    were it not to stop, the next block would start after it. The
    step loop runs only what the next step needs: ``S_t``, ``S_t^*``, the
    gain and ``m_t``, and at ``p >= 3`` the spectra that the matrix step
    roots. ``P_t`` comes from one generator per run: built per block until
    periodic, then cached (see the module docstring), each put in the step's
    form once (``p_form``). Each kernel (:func:`_step2` at ``p = 2``, the
    matrix step at ``p >= 3``) gives its start row, step and ``p_form``,
    ``inputs`` (how ``y_t`` and ``P_t`` enter), ``finite`` (the ``_CHECK``
    test of a row's ``m``), ``columns_of`` (a block's rows as seven C-order
    ``(T + 1, B, ...)`` columns: ``m``, ``S`` and its spectrum ``(w, V)``,
    ``S^*`` and its) and ``row_of`` (end values as a row). Each block
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
    chunk = _CHECK if stop_at_failure else size  # steps between checks of m
    # rows of steps whose S spectrum whitens e_t into u_t: S_{t-1} or S_t
    whiten = slice(0, -1) if setup.standardization_mode == "forecast_cov" else slice(1, None)
    m0, s0, p_eigs0 = (np.broadcast_to(x, (nb,) + x.shape)
                       for x in (start.m, start.S, start.p_eigs))

    if setup.p == 2:  # the closed form, over floats for one candidate, else over (B,) rows
        ops, split = ((_FLOAT_OPS, lambda x: x[..., 0].tolist()) if nb == 1
                      else (_ARRAY_OPS, list))
        const = split(setup.const2)
        ma, mb, a, _, b, c = split(np.hstack([m0, s0.reshape(nb, 4)]).T)
        sa, sb, sc = _estimate2(a, b, c, const, ops)
        initial = (ma, mb, a, b, b, c, sa, sb, sb, sc)
        step = partial(_step2, const, fscale, ops)
        finite = ((lambda row: math.isfinite(row[0]) and math.isfinite(row[1])) if nb == 1
                  else lambda row: np.isfinite(row[:2]).all())  # is a row's m finite

        def p_form(p_mats):  # each step's P_t as the step reads it: its four entries
            return split(np.reshape(p_mats, (-1, nb, 4)).transpose(0, 2, 1))

        def inputs(block, p_ins):
            return zip(block.tolist(), p_ins)

        def columns_of(rows):  # the seven columns, C order (for the products' bits)
            x = (np.fromiter(chain.from_iterable(rows), float) if nb == 1
                 else np.array(rows)).reshape(len(rows), 10, nb)
            rows.clear()  # frees the flat rows before the fields' copies
            m = x[:, :2].transpose(0, 2, 1).copy()
            pair = x[:, 2:].reshape(-1, 2, 2, 2, nb).transpose(1, 0, 4, 2, 3).copy()  # S, S^*
            w, v = stacked_eigh(pair)  # both spectra in one call
            return [m, pair[0], w[0], v[0], pair[1], w[1], v[1]]

        def row_of(values):  # m, S and S^* of the seven (B, ...) end values, as one flat row
            return split(np.vstack([values[i].reshape(nb, -1).T for i in (0, 1, 4)]))
    else:
        k3 = setup.k[:, None, None]

        def estimate(s, ws, vs):  # giw_estimator with A = Q^{-1}
            s_sqrt = (vs * np.sqrt(ws)[:, None, :]) @ vs.swapaxes(-1, -2)
            return giw_estimate(setup.q_inv, setup.q_inv_sqrt, s, s_sqrt, setup.denominator)

        ws0, vs0 = stacked_eigh(s0)
        s_star0 = estimate(s0, ws0, vs0)
        initial = (m0, s0, ws0, vs0, s_star0, *stacked_eigh(s_star0))
        inputs, row_of, p_form = zip, tuple, np.asarray

        def finite(row):
            return np.isfinite(row[0]).all()

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

    def p_path():  # (P_t's eigenvalues, P_t or None until periodic) at t = 1, 2, ... of the run
        # The map is deterministic: once the stack's bits equal those of two
        # steps before (bits, so a NaN member compares equal), P_t repeats with
        # period 1 or 2, and the last two pairs cycle, their P_t built once
        lams = [p_eigs0]
        while True:
            r = phi2 * lams[-1] + setup.w
            lams = [*lams[-2:], r / (r + 1.0)]
            if len(lams) == 3 and lams[2].tobytes() == lams[0].tobytes():
                yield from cycle(list(zip(lams[:0:-1], p_form(p_matrices(lams[:0:-1])))))
            yield lams[-1], None

    def blocks():
        # the step before the block, the failed candidates, the run's P_t, and
        # the start row's columns, taken at the first restart
        row, failed, path, lo, restart = initial, setup.bad_q, p_path(), 0, None
        while lo < len(ys):
            block = ys[lo:lo + size]
            items = list(islice(path, len(block)))  # (eigenvalues, P_t or None) per step
            p_ins = [p for _, p in items]
            if p_ins[0] is None:  # not yet periodic: the block's P_t in one stacked product
                p_ins = p_form(p_matrices([lam for lam, _ in items]))
            rows, steps = [row], inputs(block, p_ins)
            for _ in range(0, len(block), chunk):
                for y, p_in in islice(steps, chunk):
                    row = step(row, y, p_in)
                    rows.append(row)
                if stop_at_failure and not finite(row):
                    break
            if len(rows) <= len(block):  # ended early: the rest of it starts the next block
                path = chain(items[len(rows) - 1:], path)
                block, items = block[:len(rows) - 1], items[:len(rows) - 1]
            lo += len(block)
            m, s, ws, vs, s_star, w_star, v_star = columns = columns_of(rows)
            # a candidate stays failed from its first spectrum that is not positive
            # definite. Row 0 is the start state's or a step already checked
            flags = failed | np.logical_or.accumulate(
                ~(positive_spectrum(ws) & positive_spectrum(w_star)), axis=0)[1:]
            failed = flags[-1]
            end = [x[-1] for x in columns]
            if failed.any():  # rare: restart the failed candidates from the start row
                restart = restart or columns_of([initial])
                end = [np.where(failed.reshape((-1,) + (1,) * (x.ndim - 1)), x0[0], x)
                       for x, x0 in zip(end, restart)]
                row = row_of(end)  # else the last step's row starts the next block
            end = [x.copy() for x in end[:2]]  # m and S: copies, which do not keep the block
            f = fscale * m[:-1]
            e, u, terms = block[:, None, :] - f, None, None
            if "u" in reads:
                vte = vs[whiten].swapaxes(-1, -2) @ e[..., None]
                u = (vs[whiten] @ (vte / np.sqrt(ws[whiten])[..., None]))[..., 0] / setup.root_cov
            if "terms" in reads:
                terms = _likelihood.terms_from_spectra(
                    e, w_star, v_star, setup.q_inv, setup.k, setup.deltas)
            yield _Block(f, e, u, s_star[1:], s[:-1], flags, terms, *end, items[-1][0])
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
    has ``lt = loglik_t = -inf``. Raises at the first failed step. Checks
    ``state`` first: a negative ``t``, a non-finite ``m`` or ``p_eigs``, or a
    ``p_eigs`` not positive is a :class:`DomainError` naming the field, and a
    non-finite ``S`` fails the next step.
    """
    p, t, setup = config.p, state.t, config._solo_setup
    for name, shape in (("basis", (p, p)), ("m", (p,)), ("S", (p, p)), ("p_eigs", (p,))):
        if (got := np.shape(getattr(state, name))) != shape:
            raise DimensionMismatch(f"state {name} has shape {got}, not {shape}")
    if t < 0:
        raise DomainError(f"state t={t} is negative")
    for name in ("m", "p_eigs"):
        if not np.isfinite(getattr(state, name)).all():
            raise DomainError(f"state {name} is not finite")
    if not (state.p_eigs > 0.0).all():
        raise DomainError("state p_eigs is not positive")
    if not np.isfinite(state.S).all():  # fails its next step, as a zero or indefinite S does
        raise FilterNumericalError(t + 1, DomainError("state S is not finite"))
    if not np.array_equal(state.basis, setup.v[0]):
        raise DomainError("state P is not held in this config's Omega eigenbasis")
    n, vec, mat = len(ys), (float, (p,)), (float, (p, p))
    dtype = np.dtype([("t", np.int64), ("f", *vec), ("scale", *mat), ("e", *vec),
                      ("u", *vec), ("s_star", *mat), ("terms", float, (4,)),
                      ("loglik_t", float)])
    run = np.recarray(n, dtype)
    # fields are written through a plain view: np.recarray's attribute access and
    # slicing cost several microseconds a call, a share of an on-line step
    fields = run.view(np.ndarray)
    fields["t"] = np.arange(t + 1, t + n + 1)
    fields["terms"] = fields["loglik_t"] = np.nan
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        blocks = _recursion(ys, setup, state, {"u", "terms"} if compute_loglik else {"u"},
                            stop_at_failure=True)
        done = 0  # steps copied
        for block in blocks:
            if block.failed[-1, 0]:
                i = done + int(np.argmax(block.failed[:, 0]))
                raise FilterNumericalError(t + i + 1, NotPositiveDefinite(
                    "S_t or S_t^* is not positive definite at machine precision"))
            rows = fields[done:done + len(block.e)]
            for name, x in zip(("f", "e", "u", "s_star"), block):
                rows[name] = x[:, 0]
            rows["scale"] = block.s_prev[:, 0] / config.k
            if compute_loglik:
                rows["terms"] = np.stack(block.terms, axis=-1)[:, 0]
            done += len(rows)
    if n == 0:
        return run, state
    if compute_loglik:
        # a zero-error step puts the plug-in path on the boundary of the
        # transition's support (L_t = 0): the state update is still defined,
        # so the step contributes lt = -inf
        quad, chol, lt, sig = fields["terms"].T
        fields["loglik_t"] = setup.c1[0] + (quad + chol + lt + sig)
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
