"""Command-line batch pipeline.

Subcommands: ``filter``, ``simulate``, ``loglik``, ``search``, ``metrics``.
Each reads a JSON config (keys: ``delta``, ``phi``, ``omega_diag`` or
``omega_matrix``, ``m0``, ``p0``, ``s0``, ``q``, ``delta_candidates``,
``seed``, ``modes``) and writes machine-readable outputs into ``--out``.

Every command runs a validation phase (config, data, seed, then creating
``--out``) and then its compute phase; :mod:`seqvol.io` writes every output
file. Exit codes: 0 success, 2 validation error (config or data) or an
output that cannot be written, 3 numerical failure (message carries the
failing step index). Wall-clock timing goes to stderr so output files stay
byte-identical across identical runs.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, fields
from pathlib import Path

import click
import numpy as np

from . import __version__
from .errors import DomainError, SeqvolError
from .filtering import ModelConfig, filter_run
from .io import (
    RunManifest,
    load_prices_csv,
    sha256_digest,
    write_forecast_csv,
    write_json,
    write_returns_csv,
    write_search_trace_csv,
    write_sim_truth_csv,
    write_volatility_csv,
)
from .likelihood import loglik_from_records, perf_metrics
from .linalg import check_square
from .search import SearchSpec, coordinate_search
from .simulate import simulate_path

VALIDATION_EXIT = 2
NUMERICAL_EXIT = 3


@contextmanager
def _exit_on_error(code: int):
    """Report a seqvol or LAPACK error as ``error: ...`` and exit with ``code``."""
    try:
        yield
    except (SeqvolError, np.linalg.LinAlgError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(code)


@contextmanager
def _typed_config():
    """Report a config value of the wrong type (``"delta": "abc"``) as a DomainError."""
    try:
        yield
    except (TypeError, ValueError) as exc:
        raise DomainError(f"invalid config value: {exc}") from exc


def _integer(raw: dict, key: str) -> int:  # int() takes True and cuts 2.5
    value = raw[key]
    if isinstance(value, bool) or isinstance(value, float) and not value.is_integer():
        raise DomainError(f"config {key!r} must be an integer, got {value!r}")
    return int(value)


def _seed(raw: dict, seed: int | None, default: int | None = None) -> int | None:
    """The run's seed: ``--seed``, else the config's, else ``default``; an integer >= 0."""
    if seed is None:
        if "seed" not in raw:
            return default
        with _typed_config():
            seed = _integer(raw, "seed")
    if seed < 0:
        raise DomainError(f"seed={seed} must be non-negative")
    return seed


@contextmanager
def _os_errors(action: str):
    """Report an ``OSError`` as a DomainError ``cannot <action>: ...``."""
    try:
        yield
    except OSError as exc:
        raise DomainError(f"cannot {action}: {exc}") from exc


def _make_out(out_dir) -> Path:
    """Create ``--out``, the last step of a validation phase."""
    out = Path(out_dir)
    with _os_errors("create --out directory"):
        out.mkdir(parents=True, exist_ok=True)
    return out


def _as_matrix(value, p: int) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        return float(arr) * np.eye(p)
    if arr.ndim == 1:
        return np.diag(arr)
    return arr


@_typed_config()
def load_model_config(raw: dict) -> ModelConfig:
    """Build a validated :class:`ModelConfig` from a raw config dict."""
    if "delta" not in raw or "phi" not in raw:
        raise DomainError("config must provide 'delta' and 'phi'")
    if "omega_diag" in raw:
        omega = np.diag(np.asarray(raw["omega_diag"], dtype=float))
    elif "omega_matrix" in raw:
        omega = check_square(raw["omega_matrix"], "omega")
    else:
        raise DomainError("config must provide 'omega_diag' or 'omega_matrix'")
    p = omega.shape[0]
    m0 = raw.get("m0")
    if m0 is not None:
        m0 = np.asarray(m0, dtype=float)
        if m0.ndim == 0:
            m0 = np.full(p, float(m0))
    s0 = raw.get("s0")
    if s0 is not None:
        s0 = _as_matrix(s0, p)
    modes = raw.get("modes", {})
    if not isinstance(modes, dict):
        raise DomainError(f"config 'modes' must be an object, got {modes!r}")
    return ModelConfig(
        delta=float(raw["delta"]),
        phi=float(raw["phi"]),
        omega=omega,
        m0=m0,
        p0=float(raw.get("p0", 1000.0)),
        s0=s0,
        forecast_mean_mode=modes.get("forecast_mean", "plain"),
        standardization_mode=modes.get("standardization", "forecast_cov"),
    )


@_typed_config()
def load_search_spec(raw: dict) -> SearchSpec:
    kwargs = {}
    if "q" in raw:
        kwargs["q"] = _integer(raw, "q")
    if "delta_candidates" in raw:
        kwargs["delta_candidates"] = tuple(float(d) for d in raw["delta_candidates"])
    return SearchSpec(**kwargs)


def _read_config(config_path: str) -> dict:
    try:
        return json.loads(Path(config_path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise DomainError(f"cannot read config {config_path}: {exc}") from exc


def _manifest(raw: dict, config: ModelConfig, seed, input_path=None) -> dict:
    """The run manifest: config echo, input digest, seed and version."""
    echo = {
        "delta": config.delta,
        "phi": config.phi,
        "omega": config.omega.tolist(),
        "m0": config.m0.tolist(),
        "p0": config.p0,
        "s0": config.s0.tolist(),
        "modes": {
            "forecast_mean": config.forecast_mean_mode,
            "standardization": config.standardization_mode,
        },
        "q": raw.get("q"),
        "delta_candidates": raw.get("delta_candidates"),
    }
    digest = None if input_path is None else sha256_digest(input_path)
    return asdict(RunManifest(config=echo, input_digest=digest, seed=seed,
                              version=__version__))


def _prepare(config_path, out_dir, seed, input_path, levels, scale, search=False):
    """Validation phase of the data-driven commands; exits 2 on failure.

    Checks the config (and, for ``search``, its search settings) and the
    input, settles the seed and builds the manifest; only then is ``--out``
    created, and a failure to create it exits 2 too. Returns
    ``(out, config, spec, ys, manifest)``, ``spec`` None unless ``search``.
    """
    with _exit_on_error(VALIDATION_EXIT):
        raw = _read_config(config_path)
        config = load_model_config(raw)
        table = load_prices_csv(input_path, levels=levels, scale=scale)
        if table.values.shape[1] != config.p:
            raise DomainError(
                f"input has {table.values.shape[1]} series but omega is {config.p}x{config.p}"
            )
        spec = load_search_spec(raw) if search else None
        manifest = _manifest(raw, config, _seed(raw, seed), input_path)
        out = _make_out(out_dir)
    return out, config, spec, table.values, manifest


def _loglik_dict(breakdown) -> dict:
    # its fields without per_step: asdict would deep-copy every per-step value
    return {f.name: getattr(breakdown, f.name) for f in fields(breakdown)
            if f.name != "per_step"}


common_options = [
    click.option("--config", "config_path", required=True,
                 type=click.Path(exists=False), help="JSON config file."),
    click.option("--out", "out_dir", default=".", type=click.Path(),
                 help="Output directory."),
    click.option("--seed", type=int, default=None,
                 help="Random seed (overrides the config)."),
]

input_options = [
    click.option("--input", "input_path", required=True,
                 type=click.Path(exists=False), help="Input CSV."),
    click.option("--levels/--returns", "levels", default=False,
                 help="Input holds price levels (log-differenced) or returns."),
    click.option("--scale", type=float, default=1.0,
                 help="Multiplier applied to returns after ingestion."),
]


def add_options(options):
    def wrap(func):
        for option in reversed(options):
            func = option(func)
        return func
    return wrap


@click.group()
@click.version_option(version=__version__)
def main():
    """Sequential multivariate volatility estimation pipeline."""


@main.command("filter")
@add_options(common_options)
@add_options(input_options)
def filter_cmd(config_path, out_dir, seed, input_path, levels, scale):
    """Filter a series: volatility path, forecasts, metrics and likelihood."""
    started = time.perf_counter()
    out, config, _, ys, manifest = _prepare(config_path, out_dir, seed, input_path,
                                            levels, scale)
    with _exit_on_error(NUMERICAL_EXIT):
        records, _ = filter_run(ys, config)
        breakdown = loglik_from_records(records, config)
    report = {"perf": asdict(perf_metrics(records)), "loglik": _loglik_dict(breakdown),
              "manifest": manifest}
    with _exit_on_error(VALIDATION_EXIT), _os_errors("write output"):
        write_volatility_csv(out / "volatility.csv", records)
        write_forecast_csv(out / "forecast.csv", records)
        write_json(out / "report.json", report)
    click.echo(f"filter: {len(records)} steps in "
               f"{time.perf_counter() - started:.3f}s", err=True)


@main.command("simulate")
@add_options(common_options)
@click.option("--n-steps", type=int, required=True, help="Number of steps.")
def simulate_cmd(config_path, out_dir, seed, n_steps):
    """Simulate a path from the generative model and write it as CSV."""
    started = time.perf_counter()
    with _exit_on_error(VALIDATION_EXIT):
        raw = _read_config(config_path)
        config = load_model_config(raw)
        if n_steps < 1:
            raise DomainError("--n-steps must be >= 1")
        seed = _seed(raw, seed, default=0)
        manifest = _manifest(raw, config, seed)
        out = _make_out(out_dir)
    with _exit_on_error(NUMERICAL_EXIT):
        path = simulate_path(seed, config, n_steps=n_steps)
    with _exit_on_error(VALIDATION_EXIT), _os_errors("write output"):
        write_returns_csv(out / "returns.csv", path.ys)
        write_sim_truth_csv(out / "sim_truth.csv", path.sigmas, path.thetas)
        write_json(out / "report.json", {"n_steps": n_steps, "manifest": manifest})
    click.echo(f"simulate: {n_steps} steps in "
               f"{time.perf_counter() - started:.3f}s", err=True)


@main.command("loglik")
@add_options(common_options)
@add_options(input_options)
def loglik_cmd(config_path, out_dir, seed, input_path, levels, scale):
    """Evaluate the plug-in log-likelihood of a series."""
    started = time.perf_counter()
    out, config, _, ys, manifest = _prepare(config_path, out_dir, seed, input_path,
                                            levels, scale)
    with _exit_on_error(NUMERICAL_EXIT):
        records, _ = filter_run(ys, config)
        breakdown = loglik_from_records(records, config)
    with _exit_on_error(VALIDATION_EXIT), _os_errors("write output"):
        write_json(out / "report.json", {"loglik": _loglik_dict(breakdown),
                                         "manifest": manifest})
    click.echo(f"loglik: total={breakdown.total:.6f} in "
               f"{time.perf_counter() - started:.3f}s", err=True)


@main.command("search")
@add_options(common_options)
@add_options(input_options)
def search_cmd(config_path, out_dir, seed, input_path, levels, scale):
    """Grid-search the diagonal innovation scale and the discount factor."""
    started = time.perf_counter()
    out, config, spec, ys, manifest = _prepare(config_path, out_dir, seed, input_path,
                                               levels, scale, search=True)
    with _exit_on_error(NUMERICAL_EXIT):
        z, delta, trace = coordinate_search(ys, config, spec)
    best = max(e.objective for e in trace if e.accepted and e.delta == delta)
    with _exit_on_error(VALIDATION_EXIT), _os_errors("write output"):
        write_search_trace_csv(out / "search_trace.csv", trace)
        write_json(out / "report.json", {
            "best_z": z.tolist(),
            "best_omega_diag": (z / (1.0 - z)).tolist(),
            "best_delta": delta,
            "objective": spec.objective,
            "objective_value": best,
            "evaluations": len(trace),
            "manifest": manifest,
        })
    click.echo(f"search: best delta={delta} z={np.round(z, 4).tolist()} in "
               f"{time.perf_counter() - started:.3f}s", err=True)


@main.command("metrics")
@add_options(common_options)
@add_options(input_options)
def metrics_cmd(config_path, out_dir, seed, input_path, levels, scale):
    """Compute the forecast performance measures of a filter run."""
    started = time.perf_counter()
    out, config, _, ys, manifest = _prepare(config_path, out_dir, seed, input_path,
                                            levels, scale)
    with _exit_on_error(NUMERICAL_EXIT):
        records, _ = filter_run(ys, config, compute_loglik=False)
    report = perf_metrics(records)
    with _exit_on_error(VALIDATION_EXIT), _os_errors("write output"):
        write_json(out / "report.json", {"perf": asdict(report), "manifest": manifest})
    click.echo(f"metrics: {report.n_obs} steps in "
               f"{time.perf_counter() - started:.3f}s", err=True)


if __name__ == "__main__":
    main()
