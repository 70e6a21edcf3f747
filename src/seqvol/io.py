"""Data ingestion and machine-readable outputs for the batch pipeline.

CSV inputs are UTF-8, with a header row and an optional leading date column
(auto-detected by a non-numeric first field). Each field goes through one
``float()``; only a table that fails is walked line by line, so that the
error names its first bad line (1-based). Price levels become log-returns.

All floats are serialized with 17 significant digits, so identical runs
produce byte-identical files and every double round-trips exactly. A block
of up to ``_BLOCK`` CSV rows is one ``%`` of the line template repeated
once per row, over the block's fields as one flat list, and the correlation
diagonal is a literal ``1`` in its template: a writer costs about its
``%.17g`` conversions. The lower-triangle vech ordering of matrix columns
(:func:`vech_lower`) is row-major and documented in the file's leading
comment line.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from itertools import chain
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


def _raise_first_bad_line(data_rows, columns: list[str], has_dates: bool) -> None:
    """Raise the error of the first data line with a wrong field count or a bad value."""
    for line, row in data_rows:
        if len(row) != has_dates + len(columns):
            raise ParseError(f"expected {has_dates + len(columns)} fields, got {len(row)}",
                             line)
        for field, column in zip(row[has_dates:], columns):
            _parse_float(field, line, column)


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
        with path.open(newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    rows = [(i + 1, r) for i, r in enumerate(rows) if "".join(r).strip()]  # not blank
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

    fields = chain.from_iterable(row[has_dates:] for _, row in data_rows)
    try:  # one float() per field, into the array: no list of float objects
        raw = np.fromiter(map(float, fields), float, len(data_rows) * len(columns))
    except ValueError:  # a field float() rejects, or too few fields
        raw = None
    if (raw is None or any(len(row) != len(header) for _, row in data_rows)
            or not np.isfinite(raw).all()):
        _raise_first_bad_line(data_rows, columns, has_dates)
    raw = raw.reshape(len(data_rows), len(columns))
    times = [row[0].strip() for _, row in data_rows] if has_dates else None

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

    ``rows(start, stop)`` returns the fields of lines ``start`` to ``stop`` as
    one flat list, and a block is one ``%`` of ``line`` repeated once per
    row: float fields are ``%.17g``, and ``%d`` prints an integral float as
    an integer. Lines end in ``\\r\\n``, as ``csv.writer``'s do.
    """
    line += "\r\n"
    with Path(path).open("w", newline="") as handle:
        handle.write(head)
        for start in range(0, n_rows, _BLOCK):
            stop = min(start + _BLOCK, n_rows)
            handle.write(line * (stop - start) % tuple(rows(start, stop)))


def write_volatility_csv(path: str | Path, run: np.recarray) -> None:
    """Per-step posterior volatility of a filter run: vech of ``s_star`` plus correlations."""
    if len(run) == 0:
        raise DimensionMismatch("no records to write")
    p = run.s_star.shape[-1]
    i, j = np.tril_indices(p, -1)  # the correlations off the diagonal, in vech order

    def rows(start, stop):
        block = run[start:stop]
        return np.hstack([block.t[:, None], vech_lower(block.s_star),
                          correlation_from_cov(block.s_star)[:, i, j]]).ravel().tolist()

    # the diagonal is the literal 1: what %.17g prints for correlation_from_cov's 1.0
    corr = "".join(",1" if c == r else ",%.17g" for r in range(p) for c in range(r + 1))
    head = ("# vech ordering: row-major lower triangle (i=0..p-1, j=0..i); "
            "corr diagonal is exactly 1\n"
            + _header(["t"] + _vech_labels("cov", p) + _vech_labels("corr", p)))
    _write_csv(path, head, "%d" + ",%.17g" * (p * (p + 1) // 2) + corr, len(run), rows)


def write_forecast_csv(path: str | Path, run: np.recarray) -> None:
    """Per-step forecast mean ``f``, forecast error ``e`` and standardized error ``u``."""
    if len(run) == 0:
        raise DimensionMismatch("no records to write")
    p = run.e.shape[-1]

    def rows(start, stop):
        block = run[start:stop]
        return np.hstack([block.t[:, None], block.f, block.e, block.u]).ravel().tolist()

    head = _header(["t"] + [f"{name}_{j}" for name in ("forecast", "e", "u")
                            for j in range(p)])
    _write_csv(path, head, "%d" + ",%.17g" * (3 * p), len(run), rows)


def write_returns_csv(path: str | Path, values: np.ndarray) -> None:
    """Write a returns matrix in the same layout the loader ingests."""
    values = np.asarray(values, dtype=float)
    p = values.shape[1]
    _write_csv(path, _header([f"y{j}" for j in range(p)]), ",".join(["%.17g"] * p),
               len(values), lambda start, stop: values[start:stop].ravel().tolist())


def write_sim_truth_csv(path: str | Path, sigmas: np.ndarray, thetas: np.ndarray) -> None:
    """Simulated truth: vech of each ``Sigma_t`` plus the signal ``theta_t``.

    ``sigmas`` is the ``(N + 1, p, p)`` stack of ``Sigma_0 .. Sigma_N``
    (:attr:`seqvol.simulate.SimPath.sigmas`), each block of lines a slice of
    it. Row ``t = 0`` holds the prior seed matrix and an empty signal.
    """
    sigmas = np.asarray(sigmas, dtype=float)
    p = thetas.shape[1]
    line = "%d" + ",%.17g" * (p * (p + 1) // 2)

    def rows(start, stop):
        return np.hstack([np.arange(start + 1.0, stop + 1.0)[:, None],
                          vech_lower(sigmas[start + 1:stop + 1]),
                          thetas[start:stop]]).ravel().tolist()

    head = ("# vech ordering: row-major lower triangle; "
            "sigma at t=0 is the prior seed matrix\n"
            + _header(["t"] + _vech_labels("sigma", p) + [f"theta_{j}" for j in range(p)])
            + line % (0, *vech_lower(sigmas[0]).tolist()) + "," * p + "\r\n")
    _write_csv(path, head, line + ",%.17g" * p, len(thetas), rows)


def write_search_trace_csv(path: str | Path, trace: Sequence) -> None:
    """One line per objective evaluation; a start point has no ``coordinate``."""
    def rows(start, stop):
        return [field for e in trace[start:stop]
                for field in (e.delta, e.sweep, "" if e.coordinate is None else e.coordinate,
                              e.objective, int(e.accepted), *e.z)]

    z = ";".join(["%.17g"] * (len(trace[0].z) if trace else 0))
    _write_csv(path, _header(["delta", "sweep", "coordinate", "objective", "accepted", "z"]),
               "%.17g,%d,%s,%.17g,%d," + z, len(trace), rows)
