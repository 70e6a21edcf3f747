"""The three benchmark workloads: input generation, one operation, checks.

Every workload calls into ``seqvol`` through module attributes
(``seqvol.cli.main``, ``seqvol.search.coordinate_search`` and so on), looked
up at call time, so that the traced run sees the same calls.

A workload object owns its inputs. ``op(i)`` runs operation ``i`` and returns
what the checks need; ``record(i, result)`` is called outside the timed
region; ``finish()`` runs the run-level checks and returns, for each
operation, whether it failed. ``reference_repeats`` is how many runs of the
reference kernel in ``run.py`` (about 40 ms each) time the machine's speed
between two operations: about 5% of an operation, since the speed also
varies within one.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np

import seqvol.cli
import seqvol.filtering
import seqvol.likelihood
import seqvol.search
import seqvol.simulate


def write_csv(path: Path, ys: np.ndarray) -> None:
    """Returns CSV in the layout ``seqvol`` ingests: header, 17 digits."""
    lines = [",".join(f"y{j}" for j in range(ys.shape[1]))]
    lines += [",".join(format(float(v), ".17g") for v in row) for row in ys]
    path.write_text("\n".join(lines) + "\n")


class FilterP8:
    """One in-process ``seqvol filter`` run: returns CSV in, three files out.

    The data follow the criterion-10 recipe: ``0.01 x`` Gaussian returns with
    equicorrelation 0.3 at ``p = 8``. The work falls on the 8x8 spectral
    kernels of the filter, on the likelihood and on the CSV writers.
    """

    name = "filter_p8"
    p = 8
    reference_repeats = 4
    outputs = ("volatility.csv", "forecast.csv", "report.json")

    def __init__(self, seed: int, workdir: Path, tiny: bool):
        self.n = 300 if tiny else 4773
        self.prefix_n = 50 if tiny else 200
        rng = np.random.default_rng(seed)
        corr = 0.3 + 0.7 * np.eye(self.p)
        ys = 0.01 * rng.standard_normal((self.n, self.p)) @ np.linalg.cholesky(corr).T
        self.workdir = workdir
        self.config_path = workdir / "config.json"
        self.config_path.write_text(json.dumps(
            {"delta": 0.7, "phi": 1.0, "omega_diag": [1.0] * self.p}))
        self.input_path = workdir / "returns.csv"
        write_csv(self.input_path, ys)
        write_csv(workdir / "prefix.csv", ys[:self.prefix_n])
        self.out = workdir / "out"
        self.digests: list[str | None] = []
        self.exit_codes: list[int] = []

    @staticmethod
    def _cli_filter(config_path: Path, input_path: Path, out: Path) -> int:
        """Exit code of ``seqvol filter``, run in this process."""
        try:
            seqvol.cli.main(["filter", "--config", str(config_path),
                             "--input", str(input_path), "--out", str(out)],
                            standalone_mode=False)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 1
        return 0

    def warmup(self) -> None:
        self._cli_filter(self.config_path, self.workdir / "prefix.csv",
                         self.workdir / "warmup")

    def op(self, index: int) -> int:
        return self._cli_filter(self.config_path, self.input_path, self.out)

    def steps(self, result) -> int:
        return self.n

    def lookups(self, result) -> int:
        return 0

    def record(self, index: int, result: int) -> None:
        self.exit_codes.append(result)
        digest = None
        if result == 0:
            h = hashlib.sha256()
            for name in self.outputs:
                h.update((self.out / name).read_bytes())
            digest = h.hexdigest()
        self.digests.append(digest)

    def finish(self) -> tuple[list[bool], list[str]]:
        failed = [code != 0 or digest != self.digests[0]
                  for code, digest in zip(self.exit_codes, self.digests)]
        problems = [f"operation {i}: exit code {c} or output bytes differ"
                    for i, (c, f) in enumerate(zip(self.exit_codes, failed)) if f]
        if self.exit_codes[0] != 0:
            return failed, problems
        # The outputs are byte-identical across operations, so checking the
        # last operation's files checks them all.
        table = seqvol.cli.load_prices_csv(self.input_path)
        config = seqvol.cli.load_model_config(json.loads(self.config_path.read_text()))
        records, _ = seqvol.filtering.filter_run(table.values, config)
        content = []
        if not self._volatility_matches(records):
            content.append("volatility.csv does not parse back to s_star bit for bit")
        report = json.loads((self.out / "report.json").read_text())
        total = report["loglik"]["total"]
        per_step = math.fsum(r.loglik_t for r in records)
        if not abs(total - per_step) <= 1e-9 * abs(per_step):
            content.append(f"report.json loglik total {total!r} != per-step sum {per_step!r}")
        if content:
            failed = [True] * len(failed)
        return failed, problems + content

    def _volatility_matches(self, records) -> bool:
        lines = (self.out / "volatility.csv").read_text().splitlines()
        rows = [line.split(",") for line in lines[2:]]
        if len(rows) != len(records):
            return False
        # row-major lower triangle: (0,0), (1,0), (1,1), (2,0), ...
        rows_i, cols_j = np.tril_indices(self.p)
        n_vech = len(rows_i)
        for row, rec in zip(rows, records):
            expected = rec.s_star[rows_i, cols_j]
            got = np.array([float(v) for v in row[1:1 + n_vech]])
            if row[0] != str(rec.t) or not np.array_equal(got, expected):
                return False
        return True

    @classmethod
    def probe(cls, workdir: Path, seed: int) -> None:
        """Warm-up operation of a fresh process, on files the run prepared."""
        cls._cli_filter(workdir / "config.json", workdir / "prefix.csv",
                        workdir / "probe")


class SearchP2:
    """One ``coordinate_search`` over ``(z, delta)`` at ``p = 2``.

    The series has a random-walk log-volatility and correlation 0.5. One
    sweep per discount factor fixes the work per operation: the number of
    sweeps to convergence depends on the data, and a later sweep evaluates
    new candidates only when the other coordinate moved, so with the default
    the work per operation varies about twofold from seed to seed. Nearly
    all the time falls in the batched evaluator.
    """

    name = "search_p2"
    p = 2
    reference_repeats = 6
    q = 2  # grid resolution: z in steps of 10**-q

    def __init__(self, seed: int, workdir: Path, tiny: bool):
        self.n = 200 if tiny else 1500
        self.prefix_n = 40 if tiny else 100
        rng = np.random.default_rng(seed)
        log_vol = np.cumsum(0.05 * rng.standard_normal(self.n))
        log_vol -= log_vol.mean()
        corr = np.array([[1.0, 0.5], [0.5, 1.0]])
        self.ys = (np.exp(log_vol)[:, None] * rng.standard_normal((self.n, self.p))
                   @ np.linalg.cholesky(corr).T)
        np.save(workdir / "prefix.npy", self.ys[:self.prefix_n])
        self.results: list = []

    @classmethod
    def base_config(cls):
        """Settings the search does not vary; delta and omega are replaced."""
        return seqvol.filtering.ModelConfig(delta=0.90, phi=1.0, omega=np.eye(cls.p))

    @classmethod
    def _search(cls, ys):
        spec = seqvol.search.SearchSpec(q=cls.q, delta_candidates=(0.90, 0.95),
                                        max_sweeps=1, objective="loglik")
        return seqvol.search.coordinate_search(ys, cls.base_config(), spec, jobs=1)

    def warmup(self) -> None:
        self._search(self.ys[:self.prefix_n])

    def op(self, index: int):
        return self._search(self.ys)

    def steps(self, result) -> int:
        # The search caches by (delta, z): each distinct key is one filter
        # pass over the series.
        _, _, trace = result
        return self.n * len({(e.delta, e.z) for e in trace})

    def lookups(self, result) -> int:
        # every cache lookup of the search leaves one trace entry
        return len(result[2])

    def record(self, index: int, result) -> None:
        self.results.append(result)

    def finish(self) -> tuple[list[bool], list[str]]:
        z0, delta0, trace = self.results[0]
        failed = [not (np.array_equal(z, z0) and d == delta0)
                  for z, d, _ in self.results]
        problems = [f"operation {i}: (z, delta) differs from operation 0"
                    for i, f in enumerate(failed) if f]
        # The result is the same on every operation, so checking the first
        # operation's trace checks them all.
        content = []
        best = max(e.objective for e in trace if e.accepted and e.delta == delta0)
        config = replace(self.base_config(), delta=delta0,
                         omega=seqvol.search.z_to_omega(z0))
        recomputed = seqvol.likelihood.loglik_at_filter_path(self.ys, config).total
        if not abs(recomputed - best) <= 1e-8 * abs(recomputed):
            content.append(f"objective at the optimum {best!r} != recomputed {recomputed!r}")
        for e in trace:
            diff = np.abs(np.asarray(e.z) - z0)
            neighbour = (e.delta == delta0 and np.count_nonzero(diff > 1e-12) == 1
                         and abs(diff.max() - 10.0 ** -self.q) < 1e-9)
            if neighbour and e.objective > best:
                content.append(f"grid neighbour z={e.z} beats the optimum")
                break
        if content:
            failed = [True] * len(failed)
        return failed, problems + content

    @classmethod
    def probe(cls, workdir: Path, seed: int) -> None:
        """Warm-up operation of a fresh process, on files the run prepared."""
        cls._search(np.load(workdir / "prefix.npy"))


WARMUP_INDEX = 2**31  # replication index reserved for warm-up runs
PREFIX_STEPS = 100


class MonteCarloP2:
    """One replication of criterion 7's attainable-regime protocol.

    Simulate ``N = 2000`` steps at ``delta = 0.99``, ``p = 2`` with the
    well-specified prior, filter without the likelihood, and compute the
    forecast metrics. Most of the time is in the simulator and its
    singular-beta sampler; the filter runs at ``p = 2``, where the cost per
    Python call dominates.
    """

    name = "montecarlo_p2"
    p = 2
    reference_repeats = 1
    z_true = (0.30, 0.60)

    def __init__(self, seed: int, workdir: Path, tiny: bool):
        self.seed = seed
        self.n = 1000 if tiny else 2000
        self.msse: list[np.ndarray] = []

    @classmethod
    def _replicate(cls, seed: int, index: int, n_steps: int):
        z = np.array(cls.z_true)
        omega = np.diag(z / (1.0 - z))
        base = seqvol.filtering.ModelConfig(delta=0.99, phi=1.0, omega=omega)
        s0 = seqvol.filtering.steady_Q(base) / base.forecast_cov_factor
        config = seqvol.filtering.ModelConfig(delta=0.99, phi=1.0, omega=omega, s0=s0)
        rng = np.random.default_rng([seed, index])
        lim = seqvol.filtering.limit_P(1.0, omega)
        w, v = np.linalg.eigh(lim)
        theta0 = (v * np.sqrt(w)) @ v.T @ rng.standard_normal(cls.p)
        path = seqvol.simulate.simulate_path(rng, config, sigma0=np.eye(cls.p),
                                             theta0=theta0, n_steps=n_steps)
        records, _ = seqvol.filtering.filter_run(path.ys, config, compute_loglik=False)
        return seqvol.likelihood.perf_metrics(records)

    def warmup(self) -> None:
        self._replicate(self.seed, WARMUP_INDEX, PREFIX_STEPS)

    def op(self, index: int):
        return self._replicate(self.seed, index, self.n)

    def steps(self, result) -> int:
        return self.n

    def lookups(self, result) -> int:
        return 0

    def record(self, index: int, result) -> None:
        self.msse.append(result.msse)

    def finish(self) -> tuple[list[bool], list[str]]:
        failed = [not np.all(np.isfinite(m)) for m in self.msse]
        problems = [f"replication {i}: non-finite MSSE" for i, f in enumerate(failed) if f]
        inside = sum(bool(np.all((m > 0.8) & (m < 1.2))) for m in self.msse)
        # criterion 7's bar: at least 18 of every 20 replications
        if 20 * inside < 18 * len(self.msse):
            problems.append(f"only {inside}/{len(self.msse)} replications have "
                            "every MSSE coordinate in (0.8, 1.2)")
            failed = [True] * len(failed)
        return failed, problems

    @classmethod
    def probe(cls, workdir: Path, seed: int) -> None:
        """Warm-up operation of a fresh process."""
        cls._replicate(seed, WARMUP_INDEX, PREFIX_STEPS)


WORKLOADS = {cls.name: cls for cls in (FilterP8, SearchP2, MonteCarloP2)}
