"""Matrix-variate distribution family used by the volatility filter.

Implements the doubly-parameterized inverted-Wishart family ``GIW_p(n, A, S)``
(defined through ``Y = X^{1/2} A^{-1} X^{1/2} ~ IW_p(n, S)``), the
distribution ``GW`` of its inverse, the multivariate singular beta
distribution together with its rank-one congruence transform, and the exact
samplers needed to exercise them.

All density evaluations are carried out in log space with Cholesky or
spectral log-determinants, so dimensions up to ~50 and degrees of freedom in
the thousands stay well inside double range.

No general-purpose sampler for the full two-matrix family is provided: exact
samplers exist only in the reductions (``A = I`` or ``p = 1``) and through
the beta convolution, and tests use those routes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, DomainError, NotPositiveDefinite, RankMismatch
from .linalg import (
    check_spd,
    check_symmetric,
    chol_lower,
    log_multigamma,
    log_multigamma_ratio,
    positive_eigenvalues,
    rank_cut,
    spd_inverse,
    spd_logdet,
    sym,
    sym_sqrt,
)

# Rank decisions on sampled matrices accumulate round-off; use a looser
# tolerance than the core linear-algebra one.
RANK_REL_TOL = 1e-8

LOG2 = math.log(2.0)
LOGPI = math.log(math.pi)


@dataclass(frozen=True)
class GIWParams:
    """Parameters ``(n, A, S)`` of the generalized inverted family.

    ``n`` must exceed ``2p`` for the density to be well defined; ``A`` and
    ``S`` are SPD matrices of equal dimension.
    """

    n: float
    A: np.ndarray
    S: np.ndarray

    def __post_init__(self):
        a = check_spd(self.A, name="A")
        s = check_spd(self.S, name="S")
        if a.shape != s.shape:
            raise DimensionMismatch(f"A is {a.shape} but S is {s.shape}")
        if self.n <= 2 * a.shape[0]:
            raise DomainError(f"degrees of freedom n={self.n} must exceed 2p={2 * a.shape[0]}")
        object.__setattr__(self, "A", a)
        object.__setattr__(self, "S", s)

    @property
    def p(self) -> int:
        return self.A.shape[0]


@dataclass(frozen=True)
class GWParams:
    """Parameters ``(nu, Ainv, Sinv)`` of the inverse family.

    ``Y = X^{-1}`` for ``X ~ GIW_p(n, A, S)`` has ``nu = n - p - 1`` and
    carries the inverted parameter matrices. ``nu`` must exceed ``p - 1``.
    """

    nu: float
    Ainv: np.ndarray
    Sinv: np.ndarray

    def __post_init__(self):
        a = check_spd(self.Ainv, name="Ainv")
        s = check_spd(self.Sinv, name="Sinv")
        if a.shape != s.shape:
            raise DimensionMismatch(f"Ainv is {a.shape} but Sinv is {s.shape}")
        if self.nu <= a.shape[0] - 1:
            raise DomainError(f"degrees of freedom nu={self.nu} must exceed p-1={a.shape[0] - 1}")
        object.__setattr__(self, "Ainv", a)
        object.__setattr__(self, "Sinv", s)

    @property
    def p(self) -> int:
        return self.Ainv.shape[0]


@dataclass(frozen=True)
class SingularBetaParams:
    """Parameters of the multivariate beta ``B_p(m/2, n/2)``.

    With integer ``n < p`` the distribution is singular: ``I - B`` has rank
    ``n`` almost surely. ``m`` may be any real above ``p - 1``.
    """

    m: float
    n_int: int
    p: int

    def __post_init__(self):
        if self.p < 1:
            raise DomainError(f"dimension must be positive, got {self.p}")
        if self.n_int < 1:
            raise DomainError(f"n_int must be a positive integer, got {self.n_int}")
        if self.m <= self.p - 1:
            raise DomainError(f"m={self.m} must exceed p-1={self.p - 1}")


def _giw_log_const(n: float, p: int, logdet_a: float, logdet_s: float) -> float:
    h = 0.5 * (n - p - 1)
    return h * (logdet_a + logdet_s) - p * h * LOG2 - log_multigamma(p, h)


def giw_logpdf(params: GIWParams, x: np.ndarray) -> float:
    """Log density of ``GIW_p(n, A, S)`` at an SPD matrix ``x``."""
    p = params.p
    x = np.asarray(x, dtype=float)
    if x.shape != (p, p):
        raise DimensionMismatch(f"x has shape {x.shape}, expected {(p, p)}")
    w, v = np.linalg.eigh(check_symmetric(x, name="x"))
    if w[0] <= 0.0:
        raise NotPositiveDefinite("x must be positive definite")
    logdet_x = float(np.sum(np.log(w)))
    x_inv_sqrt = (v / np.sqrt(w)) @ v.T
    inner = x_inv_sqrt @ params.S @ x_inv_sqrt
    trace_term = float(np.sum(params.A * inner))
    const = _giw_log_const(params.n, p, spd_logdet(params.A), spd_logdet(params.S))
    return const - 0.5 * params.n * logdet_x - 0.5 * trace_term


def gw_logpdf(params: GWParams, y: np.ndarray) -> float:
    """Log density of the inverse-family variate ``Y = X^{-1}``.

    ``X = Y^{-1} ~ GIW_p(nu + p + 1, Ainv^{-1}, Sinv^{-1})``, and the
    inversion ``Y -> Y^{-1}`` has Jacobian ``|Y|^{-(p+1)}``. Reduces to the
    Wishart ``W_p(nu, Sinv)`` log density when ``Ainv = I``.
    """
    p = params.p
    y = np.asarray(y, dtype=float)
    if y.shape != (p, p):
        raise DimensionMismatch(f"y has shape {y.shape}, expected {(p, p)}")
    y = check_symmetric(y, name="y")
    inverted = GIWParams(params.nu + p + 1, spd_inverse(params.Ainv),
                         spd_inverse(params.Sinv))
    return giw_logpdf(inverted, spd_inverse(y)) - (p + 1) * spd_logdet(y)


def giw_mean_quadforms(params: GIWParams) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form expectations of the two standardizing quadratic forms.

    Returns ``(E[X^{1/2} S^{-1} X^{1/2}], E[X^{-1/2} S X^{-1/2}])``, i.e.
    ``A / (n - 2p - 2)`` and ``(n - p - 1) A^{-1}``. The first moment needs
    ``n > 2p + 2``, which is enforced for the pair.
    """
    p = params.p
    if params.n <= 2 * p + 2:
        raise DomainError(f"first moment requires n > 2p+2, got n={params.n}, p={p}")
    first = params.A / (params.n - 2 * p - 2)
    second = (params.n - p - 1) * spd_inverse(params.A)
    return first, second


def giw_logdet_moment(params: GIWParams, ell: float) -> float:
    """Moment ``E |X|^ell`` for ``0 < ell < (n - 2p)/2``."""
    p = params.p
    if not 0.0 < ell < 0.5 * (params.n - 2 * p):
        raise DomainError(
            f"ell={ell} outside (0, (n-2p)/2) = (0, {0.5 * (params.n - 2 * p)})"
        )
    log_m = (-p * ell * LOG2
             + log_multigamma(p, 0.5 * (params.n - 2 * ell - p - 1))
             - log_multigamma(p, 0.5 * (params.n - p - 1))
             + ell * (spd_logdet(params.A) + spd_logdet(params.S)))
    return math.exp(log_m)


def giw_estimator(a: np.ndarray, s: np.ndarray, n: float) -> np.ndarray:
    """Symmetric point estimator for the two-matrix family.

    ``(S^{1/2} A S^{1/2} + A^{1/2} S A^{1/2}) / (2n - 4p - 4)``: invariant
    under swapping ``A`` and ``S``, equal to ``AS/(n-4)`` for scalars, and
    reducing to the plain inverted-Wishart mean when either argument is the
    identity.
    """
    a = check_spd(a, name="a")
    s = check_spd(s, name="s")
    if a.shape != s.shape:
        raise DimensionMismatch(f"a is {a.shape} but s is {s.shape}")
    p = a.shape[0]
    if n <= 2 * p + 2:
        raise DomainError(f"estimator requires n > 2p+2, got n={n}, p={p}")
    return giw_estimate(a, sym_sqrt(a), s, sym_sqrt(s), giw_denominator(n, p))


def giw_denominator(n, p: int):
    """:func:`giw_estimator`'s denominator ``2n - 4p - 4``, for one ``n`` or an array."""
    return 2.0 * n - 4.0 * p - 4.0


def giw_estimate(a, a_sqrt, s, s_sqrt, denominator):
    """:func:`giw_estimator` from given (possibly stacked) square roots and
    :func:`giw_denominator`, unchecked."""
    return sym((s_sqrt @ a @ s_sqrt + a_sqrt @ s @ a_sqrt) / denominator)


def _singular_beta_log_const(params: SingularBetaParams) -> float:
    m, n, p = params.m, params.n_int, params.p
    return (0.5 * (n * n - p * n) * LOGPI
            + log_multigamma(p, 0.5 * (m + n))
            - log_multigamma(n, 0.5 * n)
            - log_multigamma(p, 0.5 * m))


def singular_beta_logpdf(params: SingularBetaParams, b: np.ndarray) -> float:
    """Log density of ``B_p(m/2, n/2)`` at a symmetric matrix ``b``.

    ``b`` must have spectrum inside ``[0, 1]`` with ``rank(I - b) == n_int``
    (checked by eigenvalue count at relative tolerance 1e-8). The density
    uses the diagonal of positive eigenvalues of ``I - b``.
    """
    p = params.p
    b = check_symmetric(np.asarray(b, dtype=float), name="b")
    if b.shape != (p, p):
        raise DimensionMismatch(f"b has shape {b.shape}, expected {(p, p)}")
    eigs_b = np.linalg.eigvalsh(b)
    if eigs_b[0] <= 0.0:
        raise DomainError("b must be positive definite on its support")
    if eigs_b[-1] > 1.0 + RANK_REL_TOL:
        raise DomainError(f"spectrum of b exceeds 1 ({eigs_b[-1]:.6g})")
    k = positive_eigenvalues(np.eye(p) - b, RANK_REL_TOL)
    if len(k) != params.n_int:
        raise RankMismatch(
            f"rank(I - b) = {len(k)} but n_int = {params.n_int}"
        )
    logdet_b = float(np.sum(np.log(eigs_b)))
    return (_singular_beta_log_const(params)
            + 0.5 * (params.n_int - p - 1) * float(np.sum(np.log(k)))
            + 0.5 * (params.m - p - 1) * logdet_b)


def transformed_beta_logpdf(params: SingularBetaParams, a_t: np.ndarray,
                            x: np.ndarray) -> float:
    """Log density of ``X = A B^{-1} A'`` for the rank-one beta ``B``.

    Only the ``n_int = 1`` case is supported: that is the case the
    volatility evolution uses, and the one whose support manifold admits an
    unambiguous change of variables. Writing ``lam`` for the single positive
    eigenvalue of ``I - A' X^{-1} A`` and ``u`` for its unit eigenvector,

    ``log p(X) = log Gamma_p((m+1)/2) - log Gamma_p(m/2) - (p/2) log pi
    - (p/2) log lam + ((m+p+1)/2) log(1-lam) - log|det A| - p log ||A u||``,

    which for ``p = 1`` is exactly the scalar change of variables of
    ``Beta(m/2, 1/2)`` under ``x = a^2 / b``.
    """
    if params.n_int != 1:
        raise DomainError(
            "transformed density implemented for the rank-one case (n_int=1) only"
        )
    p = params.p
    a_t = np.asarray(a_t, dtype=float)
    if a_t.shape != (p, p):
        raise DimensionMismatch(f"a_t has shape {a_t.shape}, expected {(p, p)}")
    sign, log_abs_det_a = np.linalg.slogdet(a_t)
    if sign == 0:
        raise DomainError("a_t must be nonsingular")
    x = check_spd(x, name="x")
    if x.shape != (p, p):
        raise DimensionMismatch(f"x has shape {x.shape}, expected {(p, p)}")

    eigvals, eigvecs = np.linalg.eigh(sym(np.eye(p) - a_t.T @ spd_inverse(x) @ a_t))
    n_pos = int(np.sum(rank_cut(eigvals, RANK_REL_TOL)))
    if n_pos == 0:
        raise DomainError("no positive eigenvalue: x outside the support")
    if n_pos != 1:
        raise RankMismatch(
            f"I - A'X^{{-1}}A has {n_pos} positive eigenvalues; "
            "x is off the rank-one support manifold"
        )
    lam = float(eigvals[-1])
    if lam >= 1.0:
        raise DomainError(f"positive eigenvalue {lam:.6g} >= 1: x outside the support")
    u = eigvecs[:, -1]
    au_norm = float(np.linalg.norm(a_t @ u))
    m = params.m
    return (log_multigamma_ratio(p, 0.5 * m)
            - 0.5 * p * LOGPI
            - 0.5 * p * math.log(lam)
            + 0.5 * (m + p + 1) * math.log1p(-lam)
            - log_abs_det_a - p * math.log(au_norm))


def sample_wishart(rng: np.random.Generator, df: float, p: int,
                   size: int | None = None) -> np.ndarray:
    """Draw from ``W_p(df, I)`` by the Bartlett construction.

    Real-valued ``df > p - 1`` is allowed: the diagonal uses chi-square
    variates with fractional degrees of freedom. With ``size`` a stack of
    draws of shape ``(size, p, p)`` is returned.
    """
    if p < 1:
        raise DomainError(f"dimension must be positive, got {p}")
    if df <= p - 1:
        raise DomainError(f"df={df} must exceed p-1={p - 1}")
    n = 1 if size is None else int(size)
    t = np.zeros((n, p, p))
    rows, cols = np.tril_indices(p, k=-1)
    t[:, rows, cols] = rng.standard_normal((n, len(rows)))
    diag = np.arange(p)
    t[:, diag, diag] = np.sqrt(rng.chisquare(df - diag, size=(n, p)))
    w = sym(t @ np.swapaxes(t, -1, -2))
    return w[0] if size is None else w


def sample_singular_beta(rng: np.random.Generator, params: SingularBetaParams,
                         size: int | None = None) -> np.ndarray:
    """Draw from ``B_p(m/2, n/2)`` by the constructive convolution route.

    ``A1 ~ W_p(m, I)``, ``A2`` a sum of ``n_int`` standard-normal outer
    products, ``C = A1 + A2``; the draw is ``U(C)'^{-1} A1 U(C)^{-1}``. The
    result has spectrum in ``(0, 1]`` and ``rank(I - B) = n_int`` almost
    surely. With ``size`` a stack of draws is returned.
    """
    p = params.p
    n = 1 if size is None else int(size)
    a1 = sample_wishart(rng, params.m, p, size=n)
    z = rng.standard_normal((n, p, params.n_int))
    c = a1 + z @ np.swapaxes(z, -1, -2)
    low = chol_lower(c)  # C = L L', so U(C) = L'
    # B = (U')^{-1} A1 U^{-1} = L^{-1} A1 L^{-T}
    half = np.linalg.solve(low, a1)
    b = sym(np.swapaxes(np.linalg.solve(low, np.swapaxes(half, -1, -2)),
                        -1, -2))
    return b[0] if size is None else b


def sample_wishart_scaled(rng: np.random.Generator, df: float,
                          scale: np.ndarray,
                          size: int | None = None) -> np.ndarray:
    """Draw from ``W_p(df, scale)`` as ``L W L'`` with ``scale = L L'``."""
    scale = check_spd(scale, name="scale")
    lower = chol_lower(scale)
    w = sample_wishart(rng, df, scale.shape[0], size=size)
    return sym(lower @ w @ lower.T)
