import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import settings

import seqvol.linalg

# every run draws the same examples, and no property fails on a timing deadline
settings.register_profile("seqvol", derandomize=True, deadline=None)
settings.load_profile("seqvol")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_spd(rng, p, eig_low=0.1, eig_high=3.0):
    """SPD matrix with eigenvalues in a controlled band."""
    q, _ = np.linalg.qr(rng.standard_normal((p, p)))
    eigs = rng.uniform(eig_low, eig_high, size=p)
    m = (q * eigs) @ q.T
    return 0.5 * (m + m.T)


def p_recursion_step(p_mat, phi, omega):
    """One step of the matrix recursion ``P <- R (R + I)^{-1}``, ``R = phi^2 P + omega``."""
    r = phi * phi * p_mat + omega
    out = np.linalg.solve(r + np.eye(len(omega)), r)
    return 0.5 * (out + out.T)


def iterate_P_to_convergence(phi, omega, p0, max_iter=200_000, tol=1e-13):
    """Iterate the ``P_t`` recursion from ``p0 I`` until it stabilizes.

    The independent route to the limit of ``P_t``: no spectral shortcut,
    just the matrix recursion run to a fixed point.
    """
    current = p0 * np.eye(len(omega))
    for _ in range(max_iter):
        nxt = p_recursion_step(current, phi, omega)
        if np.max(np.abs(nxt - current)) < tol:
            return nxt
        current = nxt
    raise AssertionError(f"P recursion did not converge within {max_iter} iterations")


def count_decompositions(monkeypatch, omega=None):
    """Count eigendecompositions where they happen: the LAPACK kernels that
    ``stacked_eigh`` calls directly, ``np.linalg.eigh``/``eigvalsh``, and the
    closed-form 2 x 2 solver ``_eigh2`` in every ``seqvol`` module that holds
    the name (``stacked_eigh`` and the likelihood's ``p = 2`` terms): ``"eigh2"``
    counts its calls and ``"eigh2 matrices"`` the matrices they solve.

    With ``omega``, ``"eigh of omega"`` counts the ``eigh`` calls with
    ``omega`` among the matrices they decompose.
    """
    counts = ({"eigh": 0, "eigvalsh": 0, "eigh2": 0, "eigh2 matrices": 0}
              | ({} if omega is None else {"eigh of omega": 0}))

    def eigh2(a, b, c, values_only, _call=seqvol.linalg._eigh2):
        counts["eigh2"] += 1
        counts["eigh2 matrices"] += np.size(a)
        return _call(a, b, c, values_only)

    for name, module in list(sys.modules.items()):  # each module that holds the name
        if name.startswith("seqvol.") and hasattr(module, "_eigh2"):
            monkeypatch.setattr(module, "_eigh2", eigh2)

    def counted(name, call):
        def wrapper(a, *args, **kwargs):
            counts[name] += 1
            if omega is not None and name == "eigh" and np.shape(a)[-2:] == omega.shape:
                members = np.reshape(a, (-1,) + omega.shape)
                counts["eigh of omega"] += any(np.array_equal(x, omega) for x in members)
            return call(a, *args, **kwargs)
        return wrapper

    kernels = seqvol.linalg._umath_linalg
    monkeypatch.setattr(seqvol.linalg, "_umath_linalg", SimpleNamespace(
        eigh_lo=counted("eigh", kernels.eigh_lo),
        eigvalsh_lo=counted("eigvalsh", kernels.eigvalsh_lo)))
    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    return counts
