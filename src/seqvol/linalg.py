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
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammaln

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
    return 0.5 * (m + m.T)


def check_spd(m: np.ndarray, rel_tol: float = DEFAULT_REL_TOL,
              name: str = "matrix") -> np.ndarray:
    """Validate a symmetric positive definite matrix from untrusted input."""
    m = check_symmetric(m, name=name)
    eigvals = np.linalg.eigvalsh(m)
    if not np.isfinite(eigvals).all():
        raise NotPositiveDefinite(f"{name} has non-finite entries")
    scale = float(np.max(np.abs(eigvals))) if m.size else 0.0
    if scale == 0.0 or eigvals[0] <= rel_tol * scale:
        raise NotPositiveDefinite(
            f"{name} is not positive definite (min eigenvalue {eigvals[0]:.3e})"
        )
    return m


def positive_spectrum(w: np.ndarray, rel_tol: float | None = None):
    """Whether ascending spectra (last axis) are positive definite.

    The smallest eigenvalue must exceed ``rel_tol`` times the spectral
    radius. ``rel_tol=None`` means machine level, ``p * eps``: only
    numerically singular, negative or non-finite spectra are rejected.
    Volatility paths are legitimately very ill-conditioned, so a fixed
    relative tolerance here would reject valid states; fixed tolerances are
    for untrusted input (:func:`check_spd`) and rank decisions. Returns a
    bool, or a bool array over the leading axes of a stack.
    """
    if rel_tol is None:
        rel_tol = w.shape[-1] * EPS
    return w[..., 0] > rel_tol * np.abs(w).max(axis=-1)


def stacked_eigh(m: np.ndarray, values_only: bool = False):
    """``np.linalg.eigh`` (``eigvalsh`` with ``values_only``) of a stack.

    At ``p >= 3`` LAPACK raises for the whole stack when one member has
    non-finite entries. Such a member gets a NaN spectrum here instead, which
    :func:`positive_spectrum` rejects, and the others are decomposed as
    usual. The common path makes one call and no check.
    """
    decompose = np.linalg.eigvalsh if values_only else np.linalg.eigh
    try:
        return decompose(m)
    except np.linalg.LinAlgError:
        bad = ~np.isfinite(m).all(axis=(-2, -1))
        out = decompose(np.where(bad[..., None, None], np.eye(m.shape[-1]), m))
        (out if values_only else out[0])[bad] = np.nan
        return out


def spd_eigh(m: np.ndarray, rel_tol: float | None = None
             ) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition ``(w, V)`` of an SPD matrix, ascending ``w``.

    Raises :class:`NotPositiveDefinite` when any eigenvalue is non-finite or
    falls at or below the positivity threshold (machine level by default).
    """
    m = check_square(m, "spd_eigh input")
    w, v = np.linalg.eigh(m)
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
    r = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.T
    return 0.5 * (r + r.T)


def chol_upper(m: np.ndarray) -> np.ndarray:
    """Upper triangular ``U`` with positive diagonal and ``U' U = M``."""
    m = check_symmetric(m, name="chol_upper input")
    try:
        lower = np.linalg.cholesky(m)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(f"Cholesky factorization failed: {exc}") from exc
    return lower.T.copy()


def spd_inverse(m: np.ndarray) -> np.ndarray:
    """Inverse of an SPD matrix via Cholesky; result is symmetrized."""
    m = check_square(m, "spd_inverse input")
    try:
        lower = np.linalg.cholesky(m)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(f"matrix not positive definite: {exc}") from exc
    inv_lower = np.linalg.inv(lower)
    inv = inv_lower.T @ inv_lower
    return 0.5 * (inv + inv.T)


def spd_logdet(m: np.ndarray) -> float:
    """log det of an SPD matrix via Cholesky."""
    m = check_square(m, "spd_logdet input")
    try:
        lower = np.linalg.cholesky(m)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(f"matrix not positive definite: {exc}") from exc
    return float(2.0 * np.sum(np.log(np.diag(lower))))


def rank_cut(w: np.ndarray, rel_tol: float) -> np.ndarray:
    """Mask of the eigenvalues ``lam > rel_tol * max(1, max |lam|)``.

    ``w`` holds one spectrum, or a stack of them along the last axis.
    """
    return w > rel_tol * np.maximum(1.0, np.abs(w).max(axis=-1, initial=0.0))[..., None]


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
    defined for ``a > (p-1)/2``.
    """
    if p < 1:
        raise DomainError(f"dimension must be a positive integer, got {p}")
    if a <= 0.5 * (p - 1):
        raise DomainError(f"log_multigamma requires a > (p-1)/2, got a={a}, p={p}")
    j = np.arange(1, p + 1)
    return float(0.25 * p * (p - 1) * math.log(math.pi)
                 + np.sum(gammaln(a + 0.5 * (1 - j))))
