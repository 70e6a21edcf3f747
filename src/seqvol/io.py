"""Data ingestion and machine-readable outputs for the batch pipeline.

CSV inputs carry a header row and an optional leading date column
(auto-detected by a non-numeric first field). Price levels are turned into
log-returns; rows with gaps are rejected with their 1-based line number.

All floats are serialized with 17 significant digits, so identical runs
produce byte-identical files and every double round-trips exactly; every CSV
table is written by one block writer, one ``%`` format per line. The
lower-triangle vech ordering of matrix columns (:func:`vech_lower`) is
row-major and documented in the file's leading comment line.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from .errors import DimensionMismatch, DomainError, NonPositivePrice, ParseError


@dataclass(frozen=True)
class ReturnsTable:
    """Ingested log-return series with column labels and optional dates."""

    columns: list[str]
    times: list[str] | None
    values: np.ndarray


@dataclass(frozen=True)
class RunManifest:
    """Everything needed to reproduce a run byte-for-byte."""

    config: dict
    input_digest: str | None
    seed: int | None
    version: str


def sha256_digest(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _parse_float(field: str, line: int, column: str) -> float:
    text = field.strip()
    if not text:
        raise ParseError(f"missing value in column {column!r}", line)
    try:
        value = float(text)
    except ValueError as exc:
        raise ParseError(f"cannot parse {field!r} in column {column!r}", line) from exc
    if math.isnan(value) or math.isinf(value):
        raise ParseError(f"missing value in column {column!r}", line)
    return value


def load_prices_csv(path: str | Path, *, levels: bool = False,
                    scale: float = 1.0) -> ReturnsTable:
    """Load a CSV of price levels or returns into a :class:`ReturnsTable`.

    With ``levels`` the series is transformed to log-returns
    ``ln x_t - ln x_{t-1}`` (non-positive prices are rejected); otherwise
    values pass through. ``scale`` multiplies the returns (default 1, i.e.
    natural-log differences without percent scaling) and must be finite.
    """
    if not math.isfinite(scale):
        raise DomainError(f"scale={scale} must be finite")
    path = Path(path)
    try:
        with path.open(newline="") as handle:
            rows = list(csv.reader(handle))
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    rows = [(i + 1, r) for i, r in enumerate(rows) if r and any(f.strip() for f in r)]
    if not rows:
        raise ParseError("empty file", 1)
    header_line, header = rows[0]
    data_rows = rows[1:]
    if not data_rows:
        raise ParseError("no data rows after header", header_line)

    header = [h.strip() for h in header]
    first_field = data_rows[0][1][0].strip()
    try:
        float(first_field or "0")  # an empty field is a missing value, not a date
        has_dates = False
    except ValueError:
        has_dates = True
    columns = header[1:] if has_dates else header
    if not columns:
        raise ParseError("no numeric columns found", header_line)

    times: list[str] | None = [] if has_dates else None
    raw = np.empty((len(data_rows), len(columns)))
    for out_idx, (line, row) in enumerate(data_rows):
        if len(row) != len(header):
            raise ParseError(
                f"expected {len(header)} fields, got {len(row)}", line
            )
        if has_dates:
            times.append(row[0].strip())
            fields = row[1:]
        else:
            fields = row
        for j, field in enumerate(fields):
            raw[out_idx, j] = _parse_float(field, line, columns[j])

    if levels:
        if np.any(raw <= 0.0):
            bad = int(np.argwhere(raw <= 0.0)[0][0])
            raise NonPositivePrice(
                f"price level <= 0 in data row {bad + 1}", data_rows[bad][0]
            )
        values = np.diff(np.log(raw), axis=0)
        if times is not None:
            times = times[1:]
    else:
        values = raw
    values = values * scale
    if values.shape[0] < 2:
        raise ParseError("need at least 2 return observations", data_rows[-1][0])
    return ReturnsTable(columns=columns, times=times, values=values)


def fmt17(x: float) -> str:
    """Render a float with 17 significant digits (exact double round-trip)."""
    return format(float(x), ".17g")


def render_json(obj: Any, indent: int = 0) -> str:
    """Deterministic JSON with 17-significant-digit floats.

    Keys keep insertion order; the standard library encoder does not expose
    float formatting, hence the hand-rolled renderer.
    """
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if math.isnan(x) or math.isinf(x):
            return json.dumps(str(x))
        return fmt17(x)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f"{inner}{json.dumps(str(k))}: {render_json(v, indent + 1)}"
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{inner}{render_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def write_json(path: str | Path, obj: Any) -> None:
    Path(path).write_text(render_json(obj) + "\n")


def vech_lower(mats: np.ndarray) -> np.ndarray:
    """Row-major lower-triangle half-vectorization of a matrix or a stack ``(..., p, p)``."""
    rows, cols = np.tril_indices(mats.shape[-1])
    return mats[..., rows, cols]


def _vech_labels(prefix: str, p: int) -> list[str]:
    return [f"{prefix}_{i}_{j}" for i, j in zip(*vech_lower(np.indices((p, p))).tolist())]


def correlation_from_cov(cov: np.ndarray) -> np.ndarray:
    """Correlation matrix, or stack ``(..., p, p)`` of them, with unit diagonal."""
    d = np.sqrt(np.diagonal(cov, axis1=-2, axis2=-1))
    corr = cov / (d[..., :, None] * d[..., None, :])
    corr = np.clip(corr, -1.0, 1.0)
    diag = np.arange(corr.shape[-1])
    corr[..., diag, diag] = 1.0
    return corr


_BLOCK = 256  # rows per block: bounds the writers' numpy temporaries


def _header(labels: Sequence[str]) -> str:
    return ",".join(labels) + "\r\n"


def _write_csv(path: str | Path, head: str, line: str, n_rows: int, rows) -> None:
    """Write ``head``, then ``n_rows`` data lines in blocks of ``_BLOCK`` rows.

    ``rows(start, start + _BLOCK)`` yields the argument tuples of a block's
    lines, and each line is one ``line % args`` whose float fields are
    ``%.17g``: one call per line, not one per field. Lines end in ``\\r\\n``,
    as ``csv.writer``'s do.
    """
    line += "\r\n"
    with Path(path).open("w", newline="") as handle:
        handle.write(head)
        for start in range(0, n_rows, _BLOCK):
            handle.writelines(line % args for args in rows(start, start + _BLOCK))


def write_volatility_csv(path: str | Path, run: np.recarray) -> None:
    """Per-step posterior volatility of a filter run: vech of ``s_star`` plus correlations."""
    if len(run) == 0:
        raise DimensionMismatch("no records to write")
    p = run.s_star.shape[-1]

    def rows(start, stop):
        block = run[start:stop]
        table = np.hstack([vech_lower(block.s_star),
                           vech_lower(correlation_from_cov(block.s_star))])
        return ((t, *row) for t, row in zip(block.t.tolist(), table.tolist()))

    head = ("# vech ordering: row-major lower triangle (i=0..p-1, j=0..i); "
            "corr diagonal is exactly 1\n"
            + _header(["t"] + _vech_labels("cov", p) + _vech_labels("corr", p)))
    _write_csv(path, head, "%d" + ",%.17g" * (p * (p + 1)), len(run), rows)


def write_forecast_csv(path: str | Path, run: np.recarray) -> None:
    """Per-step forecast mean ``f``, forecast error ``e`` and standardized error ``u``."""
    if len(run) == 0:
        raise DimensionMismatch("no records to write")
    p = run.e.shape[-1]

    def rows(start, stop):
        block = run[start:stop]
        table = np.hstack([block.f, block.e, block.u])
        return ((t, *row) for t, row in zip(block.t.tolist(), table.tolist()))

    head = _header(["t"] + [f"{name}_{j}" for name in ("forecast", "e", "u")
                            for j in range(p)])
    _write_csv(path, head, "%d" + ",%.17g" * (3 * p), len(run), rows)


def write_returns_csv(path: str | Path, values: np.ndarray) -> None:
    """Write a returns matrix in the same layout the loader ingests."""
    values = np.asarray(values, dtype=float)
    p = values.shape[1]
    _write_csv(path, _header([f"y{j}" for j in range(p)]), ",".join(["%.17g"] * p),
               len(values), lambda start, stop: map(tuple, values[start:stop].tolist()))


def write_sim_truth_csv(path: str | Path, sigmas: Sequence[np.ndarray],
                        thetas: np.ndarray) -> None:
    """Simulated truth: vech of each ``Sigma_t`` plus the signal ``theta_t``.

    Row ``t = 0`` holds the prior seed matrix and an empty signal.
    """
    p = thetas.shape[1]
    line = "%d" + ",%.17g" * (p * (p + 1) // 2)

    def rows(start, stop):
        table = np.hstack([vech_lower(np.array(sigmas[start + 1:stop + 1])),
                           thetas[start:stop]])
        return ((t, *row.tolist()) for t, row in enumerate(table, start + 1))

    head = ("# vech ordering: row-major lower triangle; "
            "sigma at t=0 is the prior seed matrix\n"
            + _header(["t"] + _vech_labels("sigma", p) + [f"theta_{j}" for j in range(p)])
            + line % (0, *vech_lower(sigmas[0]).tolist()) + "," * p + "\r\n")
    _write_csv(path, head, line + ",%.17g" * p, len(thetas), rows)


def write_search_trace_csv(path: str | Path, trace: Sequence) -> None:
    """One line per objective evaluation; a start point has no ``coordinate``."""
    def rows(start, stop):
        return ((e.delta, e.sweep, "" if e.coordinate is None else e.coordinate,
                 e.objective, int(e.accepted), *e.z) for e in trace[start:stop])

    z = ";".join(["%.17g"] * (len(trace[0].z) if trace else 0))
    _write_csv(path, _header(["delta", "sweep", "coordinate", "objective", "accepted", "z"]),
               "%.17g,%d,%s,%.17g,%d," + z, len(trace), rows)
