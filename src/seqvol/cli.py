"""Command-line batch pipeline.

Subcommands: ``filter``, ``simulate``, ``loglik``, ``search``, ``metrics``.
Each reads a JSON config (keys: ``delta``, ``phi``, exactly one of
``omega_diag`` and ``omega_matrix``, ``m0``, ``p0``, ``s0``, ``q``,
``delta_candidates``, ``seed``, ``modes``; :data:`CONFIG_KEYS`, where any
other key is an error) and writes machine-readable outputs into ``--out``.

Every command runs a validation phase (config, data, seed, then creating
``--out``) and then its compute phase; :mod:`seqvol.io` writes every output
file. ``filter``, ``loglik`` and ``metrics`` share one body
(:func:`_filter_command`): a filter run, then the report the command asks
for. Exit codes: 0 success, 2 validation error (config or data) or an
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
from .search import SearchSpec, check_search_length, coordinate_search
from .simulate import simulate_path

VALIDATION_EXIT = 2
NUMERICAL_EXIT = 3

# every config key, with the keys of the one object-valued key; a key not
# here, a misspelling say, would otherwise leave its default silently in force
CONFIG_KEYS = dict.fromkeys(("delta", "phi", "omega_diag", "omega_matrix", "m0", "p0", "s0",
                             "q", "delta_candidates", "seed"), ())
CONFIG_KEYS["modes"] = ("forecast_mean", "standardization")


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


def _known_keys(raw: dict, known, prefix: str = "") -> None:
    unknown = [key for key in raw if key not in known]
    if unknown:
        raise DomainError(f"unknown config key '{prefix}{unknown[0]}'")


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
    if not isinstance(raw, dict):
        raise DomainError(f"config must be a JSON object, got {raw!r}")
    _known_keys(raw, CONFIG_KEYS)
    if "delta" not in raw or "phi" not in raw:
        raise DomainError("config must provide 'delta' and 'phi'")
    if ("omega_diag" in raw) == ("omega_matrix" in raw):
        raise DomainError("config must provide exactly one of 'omega_diag' and 'omega_matrix'")
    if "omega_diag" in raw:
        diag = np.asarray(raw["omega_diag"], dtype=float)
        if diag.ndim != 1 or not diag.size:
            raise DomainError(f"'omega_diag' must be a non-empty vector, got {diag.tolist()}")
        omega = np.diag(diag)
    else:
        omega = check_square(raw["omega_matrix"], "omega")
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
    _known_keys(modes, CONFIG_KEYS["modes"], "modes.")
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
        return json.loads(Path(config_path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
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

    Checks the config and the input (for ``search``, its search settings and
    the series' length too), settles the seed and builds the manifest; only
    then is ``--out`` created, and a failure to create it exits 2 too. Returns
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
        if search:  # before --out exists, so that a short series leaves nothing behind
            check_search_length(len(table.values), config.p)
        manifest = _manifest(raw, config, _seed(raw, seed), input_path)
        out = _make_out(out_dir)
    return out, config, spec, table.values, manifest


def _filter_command(command, config_path, out_dir, seed, input_path, levels, scale):
    """The body of ``filter``, ``loglik`` and ``metrics``: one filter run, and its report.

    ``report.json`` has ``perf`` (not for ``loglik``), ``loglik`` (not for
    ``metrics``) and ``manifest``; ``filter`` also writes the two CSV files.
    """
    started = time.perf_counter()
    out, config, _, ys, manifest = _prepare(config_path, out_dir, seed, input_path,
                                            levels, scale)
    with _exit_on_error(NUMERICAL_EXIT):
        run, _ = filter_run(ys, config, compute_loglik=command != "metrics")
        breakdown = None if command == "metrics" else loglik_from_records(run, config)
    report = {} if command == "loglik" else {"perf": asdict(perf_metrics(run))}
    if breakdown is not None:
        # its fields without per_step: asdict would deep-copy every per-step value
        report["loglik"] = {f.name: getattr(breakdown, f.name) for f in fields(breakdown)
                            if f.name != "per_step"}
    report["manifest"] = manifest
    with _exit_on_error(VALIDATION_EXIT), _os_errors("write output"):
        if command == "filter":
            write_volatility_csv(out / "volatility.csv", run)
            write_forecast_csv(out / "forecast.csv", run)
        write_json(out / "report.json", report)
    done = f"total={breakdown.total:.6f}" if command == "loglik" else f"{len(run)} steps"
    click.echo(f"{command}: {done} in {time.perf_counter() - started:.3f}s", err=True)


common_options = [
    click.option("--config", "config_path", required=True,
                 type=click.Path(exists=False), help="JSON config file."),
    click.option("--out", "out_dir", default=".", type=click.Path(),
                 help="Output directory."),
    click.option("--seed", type=int, default=None,
                 help="Random seed (overrides the config)."),
]

input_options = common_options + [  # the options of the commands that read a series
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
@add_options(input_options)
def filter_cmd(**options):
    """Filter a series: volatility path, forecasts, metrics and likelihood."""
    _filter_command("filter", **options)


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
@add_options(input_options)
def loglik_cmd(**options):
    """Evaluate the plug-in log-likelihood of a series."""
    _filter_command("loglik", **options)


@main.command("search")
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
@add_options(input_options)
def metrics_cmd(**options):
    """Compute the forecast performance measures of a filter run."""
    _filter_command("metrics", **options)


if __name__ == "__main__":
    main()
