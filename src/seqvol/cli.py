"""Command-line batch pipeline.

Subcommands: ``filter``, ``simulate``, ``loglik``, ``search``, ``metrics``.
Each reads a JSON config (keys: ``delta``, ``phi``, ``omega_diag`` or
``omega_matrix``, ``m0``, ``p0``, ``s0``, ``q``, ``delta_candidates``,
``seed``, ``modes``) and writes machine-readable outputs into ``--out``.

Exit codes: 0 success, 2 validation error (config or data), 3 numerical
failure (message carries the failing step index). Wall-clock timing goes to
stderr so output files stay byte-identical across identical runs.
"""

from __future__ import annotations

import csv
import json
import sys
import time
from pathlib import Path

import click
import numpy as np

from . import __version__
from .errors import DomainError, FilterNumericalError, NotPositiveDefinite, SeqvolError
from .filtering import ModelConfig, filter_run
from .io import (
    RunManifest,
    fmt17,
    load_prices_csv,
    sha256_digest,
    vech_lower,
    write_forecast_csv,
    write_json,
    write_returns_csv,
    write_search_trace_csv,
    write_volatility_csv,
)
from .likelihood import loglik_from_records, perf_metrics
from .search import SearchSpec, coordinate_search
from .simulate import simulate_path

VALIDATION_EXIT = 2
NUMERICAL_EXIT = 3


def _fail(code: int, message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _as_matrix(value, p_hint: int | None, name: str) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        if p_hint is None:
            raise DomainError(f"{name}: scalar given but dimension unknown")
        return float(arr) * np.eye(p_hint)
    if arr.ndim == 1:
        return np.diag(arr)
    return arr


def load_model_config(raw: dict) -> ModelConfig:
    """Build a validated :class:`ModelConfig` from a raw config dict."""
    if "delta" not in raw or "phi" not in raw:
        raise DomainError("config must provide 'delta' and 'phi'")
    if "omega_diag" in raw:
        omega = np.diag(np.asarray(raw["omega_diag"], dtype=float))
    elif "omega_matrix" in raw:
        omega = np.asarray(raw["omega_matrix"], dtype=float)
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
        s0 = _as_matrix(s0, p, "s0")
    modes = raw.get("modes", {})
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


def load_search_spec(raw: dict) -> SearchSpec:
    kwargs = {}
    if "q" in raw:
        kwargs["q"] = int(raw["q"])
    if "delta_candidates" in raw:
        kwargs["delta_candidates"] = tuple(float(d) for d in raw["delta_candidates"])
    return SearchSpec(**kwargs)


def _config_echo(raw: dict, config: ModelConfig) -> dict:
    return {
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


def _read_config(config_path: str) -> dict:
    try:
        return json.loads(Path(config_path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise DomainError(f"cannot read config {config_path}: {exc}") from exc


def _prepare(config_path, input_path, seed, levels, scale):
    """Validation phase shared by the data-driven commands."""
    raw = _read_config(config_path)
    config = load_model_config(raw)
    table = load_prices_csv(input_path, levels=levels, scale=scale)
    if table.values.shape[1] != config.p:
        raise DomainError(
            f"input has {table.values.shape[1]} series but omega is {config.p}x{config.p}"
        )
    if seed is None:
        seed = raw.get("seed")
    manifest = RunManifest(
        config=_config_echo(raw, config),
        input_digest=sha256_digest(input_path),
        seed=seed,
        version=__version__,
    )
    return raw, config, table, manifest


def _perf_dict(report) -> dict:
    return {
        "mse": report.mse.tolist(),
        "msse": report.msse.tolist(),
        "mad": report.mad.tolist(),
        "me": report.me.tolist(),
        "n_obs": report.n_obs,
    }


def _loglik_dict(breakdown) -> dict:
    return {
        "total": breakdown.total,
        "constant_c": breakdown.constant_c,
        "quad_term": breakdown.quad_term,
        "chol_logdet_term": breakdown.chol_logdet_term,
        "lt_term": breakdown.lt_term,
        "sigma_logdet_term": breakdown.sigma_logdet_term,
    }


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


def _filter_input(config_path, out_dir, seed, input_path, levels, scale,
                  compute_loglik=True):
    """Validate, make ``--out`` and filter once; exits 2 or 3 on failure.

    Returns the output directory, the manifest, the records and, with
    ``compute_loglik``, the likelihood breakdown summed from them.
    """
    try:
        _, config, table, manifest = _prepare(config_path, input_path, seed,
                                              levels, scale)
    except SeqvolError as exc:
        _fail(VALIDATION_EXIT, str(exc))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    try:
        records, _ = filter_run(table.values, config, compute_loglik=compute_loglik)
        breakdown = loglik_from_records(records, config) if compute_loglik else None
    except (FilterNumericalError, DomainError, NotPositiveDefinite) as exc:
        _fail(NUMERICAL_EXIT, str(exc))
    return out, manifest, records, breakdown


@main.command("filter")
@add_options(common_options)
@add_options(input_options)
def filter_cmd(config_path, out_dir, seed, input_path, levels, scale):
    """Filter a series: volatility path, forecasts, metrics and likelihood."""
    started = time.perf_counter()
    out, manifest, records, breakdown = _filter_input(
        config_path, out_dir, seed, input_path, levels, scale)
    write_volatility_csv(out / "volatility.csv", records)
    write_forecast_csv(out / "forecast.csv", records)
    write_json(out / "report.json", {
        "perf": _perf_dict(perf_metrics(records)),
        "loglik": _loglik_dict(breakdown),
        "manifest": manifest.to_dict(),
    })
    click.echo(f"filter: {len(records)} steps in "
               f"{time.perf_counter() - started:.3f}s", err=True)


@main.command("simulate")
@add_options(common_options)
@click.option("--n-steps", type=int, required=True, help="Number of steps.")
def simulate_cmd(config_path, out_dir, seed, n_steps):
    """Simulate a path from the generative model and write it as CSV."""
    started = time.perf_counter()
    try:
        raw = _read_config(config_path)
        config = load_model_config(raw)
        if seed is None:
            seed = raw.get("seed", 0)
        if n_steps < 1:
            raise DomainError("--n-steps must be >= 1")
    except SeqvolError as exc:
        _fail(VALIDATION_EXIT, str(exc))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    try:
        path = simulate_path(int(seed), config, n_steps=n_steps)
    except (SeqvolError, np.linalg.LinAlgError) as exc:
        _fail(NUMERICAL_EXIT, str(exc))
    write_returns_csv(out / "returns.csv", path.ys)
    with (out / "sim_truth.csv").open("w", newline="") as handle:
        handle.write("# vech ordering: row-major lower triangle; "
                     "sigma at t=0 is the prior seed matrix\n")
        writer = csv.writer(handle)
        p = config.p
        writer.writerow(["t"]
                        + [f"sigma_{i}_{j}" for i in range(p) for j in range(i + 1)]
                        + [f"theta_{j}" for j in range(p)])
        for t, sigma in enumerate(path.sigmas):
            theta = ([""] * p if t == 0
                     else [fmt17(v) for v in path.thetas[t - 1]])
            writer.writerow([str(t)] + [fmt17(v) for v in vech_lower(sigma)] + theta)
    manifest = RunManifest(config=_config_echo(raw, config), input_digest=None,
                           seed=int(seed), version=__version__)
    write_json(out / "report.json", {"n_steps": n_steps,
                                     "manifest": manifest.to_dict()})
    click.echo(f"simulate: {n_steps} steps in "
               f"{time.perf_counter() - started:.3f}s", err=True)


@main.command("loglik")
@add_options(common_options)
@add_options(input_options)
def loglik_cmd(config_path, out_dir, seed, input_path, levels, scale):
    """Evaluate the plug-in log-likelihood of a series."""
    started = time.perf_counter()
    out, manifest, _, breakdown = _filter_input(
        config_path, out_dir, seed, input_path, levels, scale)
    write_json(out / "report.json", {
        "loglik": _loglik_dict(breakdown),
        "manifest": manifest.to_dict(),
    })
    click.echo(f"loglik: total={breakdown.total:.6f} in "
               f"{time.perf_counter() - started:.3f}s", err=True)


@main.command("search")
@add_options(common_options)
@add_options(input_options)
def search_cmd(config_path, out_dir, seed, input_path, levels, scale):
    """Grid-search the diagonal innovation scale and the discount factor."""
    started = time.perf_counter()
    try:
        raw, config, table, manifest = _prepare(config_path, input_path, seed,
                                                levels, scale)
        spec = load_search_spec(raw)
    except SeqvolError as exc:
        _fail(VALIDATION_EXIT, str(exc))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    try:
        z, delta, trace = coordinate_search(table.values, config, spec)
    except FilterNumericalError as exc:
        _fail(NUMERICAL_EXIT, str(exc))
    except DomainError as exc:
        _fail(NUMERICAL_EXIT, str(exc))
    write_search_trace_csv(out / "search_trace.csv", trace)
    best = max(e.objective for e in trace if e.accepted and e.delta == delta)
    write_json(out / "report.json", {
        "best_z": z.tolist(),
        "best_omega_diag": (z / (1.0 - z)).tolist(),
        "best_delta": delta,
        "objective": spec.objective,
        "objective_value": best,
        "evaluations": len(trace),
        "manifest": manifest.to_dict(),
    })
    click.echo(f"search: best delta={delta} z={np.round(z, 4).tolist()} in "
               f"{time.perf_counter() - started:.3f}s", err=True)


@main.command("metrics")
@add_options(common_options)
@add_options(input_options)
def metrics_cmd(config_path, out_dir, seed, input_path, levels, scale):
    """Compute the forecast performance measures of a filter run."""
    started = time.perf_counter()
    out, manifest, records, _ = _filter_input(
        config_path, out_dir, seed, input_path, levels, scale, compute_loglik=False)
    report = perf_metrics(records)
    write_json(out / "report.json", {
        "perf": _perf_dict(report),
        "manifest": manifest.to_dict(),
    })
    click.echo(f"metrics: {report.n_obs} steps in "
               f"{time.perf_counter() - started:.3f}s", err=True)


if __name__ == "__main__":
    main()
