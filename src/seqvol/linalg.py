"""Deterministic matrix kernels and special functions.

Everything here is a pure function of its arguments. Matrices are plain
``numpy`` arrays; symmetry and positive definiteness are checked where the
contract demands it, using relative tolerances so that round-off on
well-conditioned input never trips an error meant for genuine model
violations.

Conventions fixed across the package:

* "upper Cholesky factor" of ``M`` means the unique upper triangular ``U``
  with positive diagonal such that ``M = U' U``.
* the "symmetric square root" of ``M`` is the unique symmetric positive
  definite ``R`` with ``R R = M``, computed by spectral mapping.
* the filter, the search, the simulator and the likelihood decompose
  through :func:`stacked_eigh`: LAPACK's kernels at ``p >= 3``, called
  without ``np.linalg``'s wrapper, and at ``p = 2`` a closed form
  (:func:`_eigh2`) over numpy arrays, elementwise, one matrix being a 0-d
  stack. A non-finite member gets a NaN spectrum, raising nothing. The
  likelihood's closed-form ``p = 2`` terms call :func:`_eigh2` for
  ``L_t``'s eigenvalues. The filter's closed-form ``p = 2`` step takes no
  spectrum: its 2 x 2 square roots need only ``+ - * /`` and a square
  root, run over two evaluators with the same bits (numpy arrays for a
  stack, Python floats for one candidate), whose square root and division
  give numpy's IEEE results (NaN, a signed inf) where Python's would raise.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np
from numpy.linalg import _umath_linalg  # the LAPACK kernels np.linalg.eigh wraps

from .errors import DimensionMismatch, DomainError, NotPositiveDefinite

# Default relative tolerance for definiteness / rank decisions.
DEFAULT_REL_TOL = 1e-10

# Symmetry is a stricter storage-level requirement than definiteness.
SYMMETRY_REL_TOL = 1e-12

EPS = np.finfo(float).eps


def sym(m: np.ndarray) -> np.ndarray:
    """Symmetric part ``(M + M') / 2`` of a matrix or a stack of matrices."""
    return 0.5 * (m + m.swapaxes(-1, -2))


def check_square(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got shape {m.shape}")
    return m


def check_symmetric(m: np.ndarray, rel_tol: float = SYMMETRY_REL_TOL,
                    name: str = "matrix") -> np.ndarray:
    m = check_square(m, name)
    if not np.isfinite(m).all():
        raise NotPositiveDefinite(f"{name} has non-finite entries")
    scale = max(1.0, float(np.max(np.abs(m))))
    if np.max(np.abs(m - m.T)) > rel_tol * scale:
        raise NotPositiveDefinite(f"{name} is not symmetric within {rel_tol:g}")
    return sym(m)


def check_spd(m: np.ndarray, rel_tol: float = DEFAULT_REL_TOL,
              name: str = "matrix") -> np.ndarray:
    """Validate a symmetric positive definite matrix from untrusted input."""
    if not check_square(m, name).size:
        raise DimensionMismatch(f"{name} is empty")
    m = check_symmetric(m, name=name)
    eigvals = stacked_eigh(m, values_only=True)
    if not np.isfinite(eigvals).all():
        raise NotPositiveDefinite(f"{name} has non-finite entries")
    scale = float(np.max(np.abs(eigvals)))
    if scale == 0.0 or eigvals[0] <= rel_tol * scale:
        raise NotPositiveDefinite(
            f"{name} is not positive definite (min eigenvalue {eigvals[0]:.3e})"
        )
    return m


def positive_spectrum(w: np.ndarray, rel_tol: float | None = None):
    """Whether ascending spectra (last axis) are positive definite.

    The smallest eigenvalue must exceed ``rel_tol < 1`` times the largest (the
    spectral radius, if one is positive). ``rel_tol=None`` means machine level,
    ``p * eps``: only numerically singular, negative or non-finite spectra are
    rejected. Volatility paths are legitimately very ill-conditioned, so a fixed
    relative tolerance here would reject valid states; fixed tolerances are
    for untrusted input (:func:`check_spd`) and rank decisions. Returns a
    bool, or a bool array over the leading axes of a stack.
    """
    if rel_tol is None:
        rel_tol = w.shape[-1] * EPS
    return w[..., 0] > rel_tol * w[..., -1]


def _eigh2(a, b, c, values_only: bool):
    """Ascending spectrum ``(w0, w1)`` of ``[[a, b], [b, c]]``, then ``V``'s ``(v, u)``.

    ``V = [[v, u], [-u, v]]``. Golub & Van Loan 8.5 with LAPACK's ``dlaev2``:
    ``big = mid + sign(mid) r`` (``mid = (a+c)/2``, ``r = hypot(h, b)``, ``h =
    (a-c)/2``) and ``det / big = (a/big) c - (b/big) b``, not the cancelling
    ``mid - sign(mid) r``; ``(h + sign(h) r, b)`` belongs to ``mid + sign(h)
    r``. Elementwise over numpy arrays, so a member's bits do not depend on
    its stack. A non-finite entry gives NaN eigenvalues.
    """
    h, mid = (a - c) / 2, (a + c) / 2
    r = np.hypot(h, b)
    big = mid + np.copysign(r, mid)
    safe = np.where(big == 0, 1.0, big)  # big == 0: a zero (or subnormal) matrix
    small = (a / safe) * c - (b / safe) * b
    w = np.where(big < small, big, small), np.where(big >= small, big, small)
    if values_only:
        return w
    sr = np.copysign(r, h)
    t = h + sr
    up = sr > 0  # (t, b) belongs to the larger eigenvalue
    u, v, n = np.where(up, t, b), np.where(up, b, -t), np.hypot(t, b)
    zero = n == 0  # a multiple of I: V = I
    v, n = np.where(zero, 1.0, v), np.where(zero, 1.0, n)
    return (*w, v / n, u / n)


def _sqrt(x):  # np.sqrt: a negative gives the NaN that the hardware's square root gives
    return math.inf - math.inf if x < 0 else math.sqrt(x)


def _div(x, y):  # np.divide: x / 0 is x times a signed inf, which is IEEE's quotient
    return x / y if y else x * math.copysign(math.inf, y)


# the two evaluators of the filter's p = 2 step
_ARRAY_OPS = SimpleNamespace(sqrt=np.sqrt, div=np.divide)
_FLOAT_OPS = SimpleNamespace(sqrt=_sqrt, div=_div)


def stacked_eigh(m: np.ndarray, values_only: bool = False):
    """``np.linalg.eigh`` (``eigvalsh`` with ``values_only``) of a stack.

    Reads the lower triangle. At ``p = 2`` a closed form (:func:`_eigh2`)
    replaces LAPACK, over numpy arrays (one matrix is a 0-d stack), so a
    member's result never depends on its stack. At ``p >= 3`` it calls
    the LAPACK kernels under ``np.linalg``'s wrapper, with its bits. At
    every ``p`` a member with non-finite entries gets a NaN spectrum, which
    :func:`positive_spectrum` rejects, and the others are decomposed as
    usual. Nothing is raised, and callers silence the floating-point
    warnings that the kernels then give.
    """
    if m.shape[-1] == 2:
        out = _eigh2(m[..., 0, 0], m[..., 1, 0], m[..., 1, 1], values_only)
        w = np.empty(m.shape[:-1])  # filled, not np.stack-ed: a few calls fewer
        w[..., 0], w[..., 1] = out[:2]
        if values_only:
            return w
        v = np.empty(m.shape)
        v[..., 0, 0], v[..., 0, 1], v[..., 1, 0], v[..., 1, 1] = out[2], out[3], -out[3], out[2]
        return w, v
    if values_only:
        return _umath_linalg.eigvalsh_lo(m, signature="d->d")
    return _umath_linalg.eigh_lo(m, signature="d->dd")


def spd_eigh(m: np.ndarray, rel_tol: float | None = None
             ) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition ``(w, V)`` of an SPD matrix, ascending ``w``.

    Raises :class:`NotPositiveDefinite` when any eigenvalue is non-finite or
    falls at or below the positivity threshold (machine level by default).
    """
    m = check_square(m, "spd_eigh input")
    with np.errstate(invalid="ignore", divide="ignore"):  # a non-finite m: NaN w, rejected below
        w, v = stacked_eigh(m)
    if not np.isfinite(w).all():
        raise NotPositiveDefinite("matrix has non-finite entries")
    if w.size == 0 or not positive_spectrum(w, rel_tol):
        raise NotPositiveDefinite(
            f"matrix not positive definite (min eigenvalue {w[0]:.3e})"
        )
    return w, v


def spectral(v: np.ndarray, fw: np.ndarray) -> np.ndarray:
    """Spectral map ``V diag(f(w)) V'`` of a matrix or a stack, given ``f(w)``."""
    return sym((v * fw[..., None, :]) @ v.swapaxes(-1, -2))


def sym_sqrt(m: np.ndarray, rel_tol: float | None = None) -> np.ndarray:
    """Symmetric positive definite square root of an SPD matrix.

    Raises :class:`NotPositiveDefinite` when any eigenvalue falls at or below
    the positivity threshold (machine level by default).
    """
    w, v = spd_eigh(m, rel_tol)
    return spectral(v, np.sqrt(w))


def sym_sqrt_pair(m: np.ndarray, rel_tol: float | None = None
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Return ``(M**0.5, M**-0.5)`` from a single eigendecomposition."""
    w, v = spd_eigh(m, rel_tol)
    sq = np.sqrt(w)
    return spectral(v, sq), sym((v / sq) @ v.T)


def psd_sqrt(m: np.ndarray, rel_tol: float = DEFAULT_REL_TOL) -> np.ndarray:
    """Symmetric square root of a positive *semi*-definite matrix.

    Eigenvalues in ``[-rel_tol * scale, 0]`` are treated as round-off and
    clamped to zero; anything further below raises, since that signals a
    genuine violation rather than noise. The zero matrix maps to itself.
    """
    m = check_square(m, "psd_sqrt input")
    w, v = np.linalg.eigh(m)
    scale = float(np.max(np.abs(w))) if m.size else 0.0
    if w.size and w[0] < -rel_tol * max(1.0, scale):
        raise NotPositiveDefinite(
            f"psd_sqrt input has eigenvalue {w[0]:.3e} below -rel_tol"
        )
    return sym((v * np.sqrt(np.clip(w, 0.0, None))) @ v.T)


def chol_lower(m: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor ``L``, ``M = L L'``, of a matrix or a stack.

    Raises :class:`NotPositiveDefinite` when LAPACK rejects the input.
    """
    try:
        return np.linalg.cholesky(m)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(f"Cholesky factorization failed: {exc}") from exc


def chol_upper(m: np.ndarray) -> np.ndarray:
    """Upper triangular ``U`` with positive diagonal and ``U' U = M``."""
    return chol_lower(check_symmetric(m, name="chol_upper input")).T.copy()


def spd_inverse(m: np.ndarray) -> np.ndarray:
    """Inverse of an SPD matrix via Cholesky; result is symmetrized."""
    inv_lower = np.linalg.inv(chol_lower(check_square(m, "spd_inverse input")))
    return sym(inv_lower.T @ inv_lower)


def spd_logdet(m: np.ndarray) -> float:
    """log det of an SPD matrix via Cholesky."""
    lower = chol_lower(check_square(m, "spd_logdet input"))
    return float(2.0 * np.sum(np.log(np.diag(lower))))


def rank_cut(w: np.ndarray, rel_tol: float) -> np.ndarray:
    """Mask of the eigenvalues ``lam > rel_tol * max(1, max |lam|)``.

    ``w`` holds one ascending spectrum, or a stack of them along the last
    axis (as :func:`positive_spectrum`), so ``max |lam|`` is read from its ends.
    """
    return w > rank_floor(w[..., :1], w[..., -1:], rel_tol)


def rank_floor(lo, hi, rel_tol: float):
    """``rel_tol * max(1, max |lam|)`` of ascending spectra whose ends are ``lo`` and ``hi``.

    :func:`rank_cut` keeps the eigenvalues above it.
    """
    return rel_tol * np.maximum(1.0, np.maximum(-lo, hi))


def positive_eigenvalues(m: np.ndarray, rel_tol: float = DEFAULT_REL_TOL) -> np.ndarray:
    """Eigenvalues of a symmetric matrix kept by :func:`rank_cut`.

    Sorted descending. An empty array is a valid result.
    """
    m = check_symmetric(m, name="positive_eigenvalues input")
    w = np.linalg.eigvalsh(m)
    return np.sort(w[rank_cut(w, rel_tol)])[::-1]


def log_multigamma(p: int, a: float) -> float:
    """log of the multivariate gamma function ``Gamma_p(a)``.

    ``Gamma_p(a) = pi**(p(p-1)/4) * prod_{j=1..p} Gamma(a + (1-j)/2)``,
    defined for ``a > (p-1)/2``: the ``pi`` term and the ``math.lgamma``
    terms, summed with one rounding by ``math.fsum``.
    """
    if p < 1:
        raise DomainError(f"dimension must be a positive integer, got {p}")
    if a <= 0.5 * (p - 1):
        raise DomainError(f"log_multigamma requires a > (p-1)/2, got a={a}, p={p}")
    return math.fsum([0.25 * p * (p - 1) * math.log(math.pi)]
                     + [math.lgamma(a - 0.5 * j) for j in range(p)])


def _log_gamma_half_step(x: float) -> float:
    """``log Gamma(x + 1/2) - log Gamma(x)`` for ``x > 0``.

    ``Gamma(y + 1) = y Gamma(y)`` shifts the argument to ``y >= 20``, where
    the asymptotic series of the ratio (Abramowitz & Stegun 6.1.47) is exact
    to about 2e-15; each unit of shift adds ``-log1p(1 / (2 (x + i)))``.
    """
    shift = max(0, math.ceil(20.0 - x))
    y = x + shift
    series = (0.5 * math.log(y) - 1.0 / (8.0 * y) + 1.0 / (192.0 * y ** 3)
              - 1.0 / (640.0 * y ** 5) + 17.0 / (14336.0 * y ** 7))
    return math.fsum([series] + [-math.log1p(0.5 / (x + i)) for i in range(shift)])


def log_multigamma_ratio(p: int, a: float) -> float:
    """``log Gamma_p(a + 1/2) - log Gamma_p(a)``, without cancellation.

    The two products share all but one factor each, so the ratio telescopes
    to ``Gamma(a + 1/2) / Gamma(x)`` with ``x = a - (p-1)/2``, a gap of
    ``p/2``: the logs of ``x + i`` for even ``p``, and for odd ``p`` the
    logs of ``x + 1/2 + i`` plus the half step ``Gamma(x + 1/2) / Gamma(x)``.
    Differencing two :func:`log_multigamma` sums instead loses up to 6e-13
    relative where each sum is near 1e3 (``a`` in the hundreds).
    """
    if p < 1:
        raise DomainError(f"dimension must be a positive integer, got {p}")
    x = a - 0.5 * (p - 1)
    if x <= 0.0:
        raise DomainError(f"log_multigamma_ratio requires a > (p-1)/2, got a={a}, p={p}")
    odd = p % 2
    terms = [math.log(x + 0.5 * odd + i) for i in range(p // 2)]
    if odd:
        terms.append(_log_gamma_half_step(x))
    return math.fsum(terms)
