"""Hyperparameter selection for the volatility filter.

The state innovation scale is restricted to a diagonal matrix and
reparameterized entrywise through ``z = w / (1 + w)``, which maps
``(0, inf)`` onto ``(0, 1)`` and admits a finite grid ``i / 10**q``. The
joint grid is combinatorially infeasible beyond two coordinates, so the
search is cyclic coordinate ascent over the per-coordinate grids, with the
discount factor handled as an independent outer grid.

Each objective value comes from :func:`evaluate_candidates`, which runs the
filter's own stacked recursion (``filtering._recursion``) over a whole
stack of ``(delta, Omega)`` candidates in one pass over the series. It
asks the recursion for the one field its objective reads (the likelihood
terms or the standardized errors), adds it up over the time blocks in time
order, and builds one setup per pass (``filtering._Setup``: each ``Q``
from one decomposition of the ``Omega`` stack). That is the recursion
:func:`seqvol.filtering.filter_run` runs for one candidate, so a
``"loglik"`` value equals :func:`seqvol.likelihood.loglik_at_filter_path`
bit for bit. A numerically failed candidate is masked as ``-inf`` in the
pass.

All discount factors are searched in lockstep. Each (sweep, coordinate)
step makes one batched call for the uncached points on the grid lines of
every discount factor still moving; the start point ``z = 0.5`` lies on
every grid and rides along with the first line. A discount factor leaves
the lockstep after a sweep that moves nothing, or at once when its start
point is not finite. Each one leaves the trace it would leave if searched
alone, and the traces follow the order of ``delta_candidates``.

Ties within a coordinate's grid are broken toward smaller ``z`` (a smaller
innovation scale gives smoother volatility paths); a move is accepted only
when it improves the objective or reaches the same value at a smaller
``z``, so sweeps terminate.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .filtering import ModelConfig, _recursion, _Setup, discount_k, filter_init

logger = logging.getLogger(__name__)

# the finest grid: a line stacks 10**q - 1 candidates per discount factor into
# one pass, 999 at q = 3 (3,996 for the default four), ten times that at q = 4
MAX_Q = 3


@dataclass(frozen=True)
class SearchSpec:
    """Grid resolution, discount candidates and objective of one search."""

    q: int = 2  # at most MAX_Q
    delta_candidates: tuple[float, ...] = (0.70, 0.75, 0.80, 0.85)
    max_sweeps: int = 10
    objective: str = "loglik"  # or "msse_distance"

    def __post_init__(self):
        if self.q < 1:
            raise DomainError(f"grid resolution q={self.q} must be >= 1")
        if self.q > MAX_Q:
            raise DomainError(f"grid resolution q={self.q} must be <= {MAX_Q}")
        if not self.delta_candidates:
            raise DomainError("delta_candidates must be non-empty")
        for d in self.delta_candidates:
            discount_k(d, 1)  # checks d
        for i, d in enumerate(self.delta_candidates):
            if d in self.delta_candidates[:i]:
                raise DomainError(f"delta_candidates repeat delta={d}")
        if self.max_sweeps < 1:
            raise DomainError("max_sweeps must be >= 1")
        if self.objective not in ("loglik", "msse_distance"):
            raise DomainError(f"unknown objective {self.objective!r}")


@dataclass(frozen=True)
class TraceEntry:
    """One objective evaluation, for auditing the search path."""

    delta: float
    z: tuple[float, ...]
    coordinate: int | None
    sweep: int
    objective: float
    accepted: bool


def z_to_omega(z) -> np.ndarray:
    """Diagonal innovation scale from grid coordinates: ``w = z / (1 - z)``."""
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if np.any(z <= 0.0) or np.any(z >= 1.0):
        raise DomainError("z coordinates must lie strictly inside (0, 1)")
    return np.diag(z / (1.0 - z))


def omega_diag_to_z(w) -> np.ndarray:
    """Inverse reparameterization: ``z = w / (1 + w)`` entrywise."""
    w = np.atleast_1d(np.asarray(w, dtype=float))
    if np.any(w <= 0.0):
        raise DomainError("diagonal entries must be positive")
    return w / (1.0 + w)


def evaluate_candidates(ys, base_config: ModelConfig, deltas, omegas: np.ndarray,
                        objective: str = "loglik") -> np.ndarray:
    """Objective values for a stack of ``(delta, Omega)`` candidates.

    ``omegas`` has shape ``(B, p, p)``; ``deltas`` is one discount factor
    shared by every candidate or a ``(B,)`` array of them. The remaining
    settings come from ``base_config``. Returns a ``(B,)`` array; candidates
    that fail numerically get ``-inf``. The ``"loglik"`` value sums the
    term groups in the order :func:`loglik_from_records` does, so it equals
    :func:`loglik_at_filter_path` exactly.
    """
    omegas = np.asarray(omegas, dtype=float)
    nb, p = omegas.shape[0], base_config.p
    deltas = np.broadcast_to(np.asarray(deltas, dtype=float), (nb,))
    want_loglik = objective == "loglik"
    # sums of the term groups (quad, chol_logdet, lt, sigma_logdet), or of u^2
    sums = np.zeros((4, nb)) if want_loglik else np.zeros((nb, p))
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        setup = _Setup(base_config, deltas, omegas)
        n_obs, failed = 0, setup.bad_q  # an empty series runs no block
        blocks = _recursion(ys, setup, filter_init(base_config),
                            {"terms"} if want_loglik else {"u"})
        for block in blocks:
            n_obs, failed = n_obs + len(block.failed), block.failed[-1]
            if want_loglik:
                for acc, term in zip(sums, block.terms):
                    for row in term:  # in time order, as loglik_from_records sums
                        acc += row
            else:
                for row in block.u ** 2:
                    sums += row
            del block  # frees the block's columns before the next block's
        if want_loglik:
            out = n_obs * setup.c1 + sums[0] + sums[1] + sums[2] + sums[3]
        else:
            out = -np.linalg.norm(sums / n_obs - 1.0, axis=-1)
    out[failed | ~np.isfinite(out)] = -np.inf
    return out


def check_search_length(n_obs: int, p: int) -> None:
    """Raise :class:`DomainError` unless a search has at least ``10 p`` observations."""
    if n_obs < 10 * p:
        raise DomainError(f"need at least 10*p = {10 * p} observations, got {n_obs}")


def coordinate_search(ys, base_config: ModelConfig, spec: SearchSpec, *,
                      jobs: int = 1
                      ) -> tuple[np.ndarray, float, list[TraceEntry]]:
    """Coordinate-ascent grid search over ``(z, delta)``.

    Returns ``(best z vector, best delta, evaluation trace)``. Requires at
    least ``10 p`` observations to avoid degenerate fits. Candidates that
    fail numerically are skipped; a discount factor whose start point fails
    is dropped, and the search aborts only when every discount factor is.
    ``jobs`` has no effect: every pass is one stacked evaluation in this
    thread.
    """
    ys = np.asarray(ys, dtype=float)
    p = base_config.p
    check_search_length(ys.shape[0], p)
    grid = np.arange(1, 10 ** spec.q) / 10.0 ** spec.q
    deltas = spec.delta_candidates
    cache: dict[tuple, float] = {}  # (delta, z) -> objective
    zs = [np.full(p, 0.5) for _ in deltas]
    current = [-np.inf] * len(deltas)
    traces: list[list[TraceEntry]] = [[] for _ in deltas]
    active = list(range(len(deltas)))  # indices of the discount factors still moving

    for sweep in range(1, spec.max_sweeps + 1):
        changed = set()
        for coord in range(p):
            lines = {}
            for i in active:
                rows = np.repeat(zs[i][None, :], grid.size, axis=0)
                rows[:, coord] = grid
                lines[i] = [(deltas[i], tuple(row)) for row in rows]
            starts = ([(deltas[i], tuple(zs[i])) for i in active]
                      if sweep == 1 and coord == 0 else [])
            keys = starts + [key for i in active for key in lines[i]]
            missing = [key for key in dict.fromkeys(keys) if key not in cache]
            if missing:
                values = evaluate_candidates(
                    ys, base_config, [delta for delta, _ in missing],
                    np.array([z_to_omega(z) for _, z in missing]), spec.objective)
                cache.update(zip(missing, map(float, values)))
            if starts:
                for i, key in zip(active, starts):
                    current[i] = cache[key]
                    traces[i].append(TraceEntry(*key, None, 0, current[i], True))
                    if not np.isfinite(current[i]):
                        logger.warning("delta=%g: initial point failed; "
                                       "dropping candidate", deltas[i])
                active = [i for i in active if np.isfinite(current[i])]
            for i in active:
                z = zs[i]
                values = np.array([cache[key] for key in lines[i]])
                best_idx = int(np.argmax(values))  # first max = smallest z
                cand_val = values[best_idx]
                cand_z = grid[best_idx]
                improves = cand_val > current[i] or (cand_val == current[i]
                                                     and cand_z < z[coord])
                for g, (_, zt), val in zip(grid, lines[i], values):
                    traces[i].append(TraceEntry(deltas[i], zt, coord, sweep,
                                                float(val), improves and g == cand_z))
                if improves and np.isfinite(cand_val):
                    z[coord] = cand_z
                    current[i] = float(cand_val)
                    changed.add(i)
        active = [i for i in active if i in changed]
        if not active:
            break

    kept = [i for i in range(len(deltas)) if np.isfinite(current[i])]
    if not kept:
        raise DomainError("every (z, delta) candidate failed numerically")
    # highest objective; a tie goes to the smaller delta, then to the first listed
    best = max(kept, key=lambda i: (current[i], -deltas[i]))
    return zs[best], deltas[best], [entry for trace in traces for entry in trace]
