import csv
import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from seqvol.cli import load_model_config, load_search_spec, main
from seqvol.errors import DomainError, NonPositivePrice, ParseError
from seqvol.filtering import ModelConfig, discount_k, filter_run
from seqvol.io import (
    correlation_from_cov,
    fmt17,
    load_prices_csv,
    render_json,
    vech_lower,
    write_forecast_csv,
    write_returns_csv,
    write_search_trace_csv,
    write_sim_truth_csv,
    write_volatility_csv,
)
from seqvol.likelihood import loglik_at_filter_path
from seqvol.search import SearchSpec, TraceEntry
from seqvol.simulate import simulate_path


class TestLoadPricesCsv:
    def test_log_returns_from_levels(self, tmp_path):
        f = tmp_path / "prices.csv"
        e = math.e
        f.write_text(f"a,b\n{e},{e}\n{e**2},{e**2}\n{e**3},{e**3}\n")
        table = load_prices_csv(f, levels=True)
        np.testing.assert_allclose(table.values, np.ones((2, 2)), rtol=1e-12)
        assert table.columns == ["a", "b"]

    def test_constant_prices_zero_returns(self, tmp_path):
        f = tmp_path / "prices.csv"
        f.write_text("x\n5.0\n5.0\n5.0\n")
        table = load_prices_csv(f, levels=True)
        np.testing.assert_array_equal(table.values, np.zeros((2, 1)))

    def test_gap_row_names_line(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("a,b\n1.0,2.0\n1.1,\n1.2,2.2\n")
        with pytest.raises(ParseError, match="line 3"):
            load_prices_csv(f)

    def test_wrong_field_count_names_line(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("a,b\n1.0,2.0\n1.1\n")
        with pytest.raises(ParseError, match="line 3"):
            load_prices_csv(f)

    def test_nan_counts_as_missing(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("a\n1.0\nnan\n2.0\n")
        with pytest.raises(ParseError, match="line 3"):
            load_prices_csv(f)

    def test_empty_first_field_is_missing_not_a_date(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("a,b\n,0.02\n0.01,0.03\n0.02,0.04\n")
        with pytest.raises(ParseError, match="line 2: missing value in column 'a'"):
            load_prices_csv(f)

    def test_date_column_detected(self, tmp_path):
        f = tmp_path / "dated.csv"
        f.write_text("date,a\n2020-01-01,0.01\n2020-01-02,-0.02\n")
        table = load_prices_csv(f)
        assert table.times == ["2020-01-01", "2020-01-02"]
        assert table.columns == ["a"]
        np.testing.assert_allclose(table.values[:, 0], [0.01, -0.02])

    def test_non_positive_price(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("a\n1.0\n-2.0\n3.0\n")
        with pytest.raises(NonPositivePrice):
            load_prices_csv(f, levels=True)

    def test_scale_factor(self, tmp_path):
        f = tmp_path / "r.csv"
        f.write_text("a\n0.01\n-0.02\n")
        table = load_prices_csv(f, scale=100.0)
        np.testing.assert_allclose(table.values[:, 0], [1.0, -2.0])

    @pytest.mark.parametrize("scale", [math.nan, math.inf, -math.inf])
    def test_non_finite_scale_rejected(self, tmp_path, scale):
        f = tmp_path / "r.csv"
        f.write_text("a\n0.01\n-0.02\n")
        with pytest.raises(DomainError, match=f"scale={scale} must be finite"):
            load_prices_csv(f, scale=scale)

    def test_requires_two_observations(self, tmp_path):
        f = tmp_path / "short.csv"
        f.write_text("a\n1.0\n")
        with pytest.raises(ParseError):
            load_prices_csv(f)

    @pytest.mark.parametrize("lines, message", [
        # the earliest bad line wins, whatever its kind
        (["0.1,nan", "0.2,0.3", "0.3,x"], "line 3: missing value in column 'b'"),
        (["0.1,x", "0.2,0.3", "0.3,nan"], "line 3: cannot parse 'x' in column 'b'"),
        (["0.1", "0.2,0.3", "nan,x"], "line 3: expected 2 fields, got 1"),
        (["nan,0.1", "0.2,0.3", "0.3"], "line 3: missing value in column 'a'"),
        (["x,0.1", "0.2,0.3", "0.3,0.4,0.5"], "line 3: cannot parse 'x' in column 'a'"),
        # on one line, the first bad field wins
        (["inf,x", "0.2,0.3"], "line 3: missing value in column 'a'"),
        (["x,nan", "0.2,0.3"], "line 3: cannot parse 'x' in column 'a'"),
        # a whitespace-only field and a non-finite one are both missing values
        (["0.1,  ", "0.2,0.3"], "line 3: missing value in column 'b'"),
        (["0.1,\t", "0.2,0.3"], "line 3: missing value in column 'b'"),
        (["0.1,inf", "0.2,0.3"], "line 3: missing value in column 'b'"),
        (["0.1, -Infinity ", "0.2,0.3"], "line 3: missing value in column 'b'"),
        (["0.1,0.2", "0.2,0.3", "0.3, NaN"], "line 5: missing value in column 'b'"),
    ])
    def test_first_bad_line_wins(self, tmp_path, lines, message):
        f = tmp_path / "bad.csv"
        f.write_text("a,b\n0.0,0.0\n" + "\n".join(lines) + "\n0.4,0.5\n")
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            load_prices_csv(f)

    def test_first_bad_line_wins_with_dates(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("date,a\nd1,0.1\nd2,nan\nd3,x\nd4\n")
        with pytest.raises(ParseError, match=r"^line 3: missing value in column 'a'$"):
            load_prices_csv(f)
        f.write_text("date,a\nd1,0.1\nd2\nd3,nan\n")
        with pytest.raises(ParseError, match=r"^line 3: expected 2 fields, got 1$"):
            load_prices_csv(f)

    def test_blank_rows_are_skipped_and_counted(self, tmp_path):
        f = tmp_path / "r.csv"
        f.write_text("\na,b\n\n0.1,0.2\n , \t\n,\n0.3,0.4\n")
        np.testing.assert_array_equal(load_prices_csv(f).values, [[0.1, 0.2], [0.3, 0.4]])
        f.write_text("\na,b\n\n0.1,0.2\n , \t\n,\n0.3,x\n")
        with pytest.raises(ParseError, match=r"^line 7: cannot parse 'x' in column 'b'$"):
            load_prices_csv(f)

    def test_values_are_float_of_the_field(self, tmp_path):
        fields = [" 0.1", "0.1 ", "\t-2.5e-3\t", "+1.5", " +7", "1e-300", "-4.9E-324",
                  "+1.7976931348623157e+308", "3.14159265358979323846", "1_000.5",
                  "0.30000000000000004", "-0", "+0.0", "12345678901234567890"]
        f = tmp_path / "r.csv"
        f.write_text("a,b\n" + "".join(f"{x},{y}\n" for x, y in zip(fields, fields[1:])))
        values = load_prices_csv(f).values
        expected = np.array([[float(x), float(y)] for x, y in zip(fields, fields[1:])])
        assert values.dtype == np.float64
        assert values.tobytes() == expected.tobytes()


class TestSerialization:
    def test_fmt17_roundtrips_doubles(self, rng):
        for x in rng.standard_normal(200) * 10.0 ** rng.integers(-12, 12, 200):
            assert float(fmt17(x)) == x

    def test_render_json_deterministic_and_parseable(self):
        obj = {"b": 1.5, "a": [1, 2.25, None, True], "c": {"x": "s"},
               "arr": np.array([0.1, 0.2])}
        s1, s2 = render_json(obj), render_json(obj)
        assert s1 == s2
        parsed = json.loads(s1)
        assert parsed["b"] == 1.5
        assert parsed["arr"] == [0.1, 0.2]

    def test_vech_row_major_lower(self):
        m = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 5.0], [3.0, 5.0, 6.0]])
        np.testing.assert_array_equal(vech_lower(m), [1.0, 2.0, 4.0, 3.0, 5.0, 6.0])
        np.testing.assert_array_equal(vech_lower(np.stack([m, -m])),
                                      [[1.0, 2.0, 4.0, 3.0, 5.0, 6.0],
                                       [-1.0, -2.0, -4.0, -3.0, -5.0, -6.0]])

    def test_correlations(self, rng):
        from conftest import random_spd
        cov = random_spd(rng, 4)
        corr = correlation_from_cov(cov)
        assert np.all(np.abs(corr) <= 1.0)
        assert np.all(np.diag(corr) == 1.0)


def _reference_csv(path, header, rows, comment=""):
    """The writers' format, one fmt17 field at a time through csv.writer."""
    with path.open("w", newline="") as handle:
        handle.write(comment)
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)


class TestWriters:
    @pytest.fixture
    def records(self):
        config = ModelConfig(delta=0.8, phi=1.0, omega=np.diag([0.5, 1.0, 1.5]))
        ys = 0.3 * np.random.default_rng(7).standard_normal((25, 3))
        records, _ = filter_run(ys, config, compute_loglik=False)
        # a perfectly correlated pair whose raw ratio rounds above 1, and a
        # negative zero in the covariance and in the forecast error
        cov = np.array([[3.0, 3.0, -0.0], [3.0, 3.0, 0.0], [-0.0, 0.0, 1.0]])
        assert cov[1, 0] / (math.sqrt(3.0) * math.sqrt(3.0)) > 1.0
        records.s_star[4] = cov
        records.e[4] = [-0.0, 0.25, 1e-300]
        return records

    def test_volatility_csv_bytes(self, records, tmp_path):
        rows = []
        for rec in records:
            s = rec.s_star
            d = np.sqrt(np.diag(s))
            cov = [fmt17(s[i, j]) for i in range(3) for j in range(i + 1)]
            corr = [fmt17(1.0 if i == j else min(1.0, max(-1.0, s[i, j] / (d[i] * d[j]))))
                    for i in range(3) for j in range(i + 1)]
            rows.append([str(rec.t)] + cov + corr)
        labels = [f"{i}_{j}" for i in range(3) for j in range(i + 1)]
        _reference_csv(tmp_path / "ref.csv",
                       ["t"] + [f"cov_{x}" for x in labels] + [f"corr_{x}" for x in labels],
                       rows,
                       comment="# vech ordering: row-major lower triangle "
                               "(i=0..p-1, j=0..i); corr diagonal is exactly 1\n")
        write_volatility_csv(tmp_path / "got.csv", records)
        got = (tmp_path / "got.csv").read_bytes()
        assert got == (tmp_path / "ref.csv").read_bytes()
        assert b",1,1,1,-0,0,1\r\n" in got  # the clipped pair and the -0

    def test_forecast_csv_bytes(self, records, tmp_path):
        rows = [[str(rec.t)] + [fmt17(v) for v in rec.f]
                + [fmt17(v) for v in rec.e] + [fmt17(v) for v in rec.u]
                for rec in records]
        _reference_csv(tmp_path / "ref.csv",
                       ["t"] + [f"{name}_{j}" for name in ("forecast", "e", "u")
                                for j in range(3)],
                       rows)
        write_forecast_csv(tmp_path / "got.csv", records)
        got = (tmp_path / "got.csv").read_bytes()
        assert got == (tmp_path / "ref.csv").read_bytes()
        assert b",-0,0.25,1e-300," in got

    @pytest.mark.parametrize("p", [1, 3])
    def test_returns_csv_bytes(self, p, tmp_path):
        # more rows than one block of the writer
        values = 0.3 * np.random.default_rng(p).standard_normal((300, p))
        values[5, 0] = -0.0
        values[270, -1] = 1e-300
        _reference_csv(tmp_path / "ref.csv", [f"y{j}" for j in range(p)],
                       [[fmt17(v) for v in row] for row in values])
        write_returns_csv(tmp_path / "got.csv", values)
        got = (tmp_path / "got.csv").read_bytes()
        assert got == (tmp_path / "ref.csv").read_bytes()
        assert b"\r\n-0" in got and b"1e-300\r\n" in got

    @pytest.mark.parametrize("p", [1, 3])
    def test_sim_truth_csv_bytes(self, p, tmp_path):
        config = ModelConfig(delta=0.95, phi=1.0, omega=np.diag(np.linspace(0.5, 1.5, p)))
        path = simulate_path(11, config, n_steps=300)
        sigmas = [s.copy() for s in path.sigmas]
        if p > 1:
            sigmas[0][-1, 0] = sigmas[0][0, -1] = -0.0
        thetas = path.thetas.copy()
        thetas[3, 0] = -0.0
        rows = []
        for t, s in enumerate(sigmas):
            theta = [""] * p if t == 0 else [fmt17(v) for v in thetas[t - 1]]
            rows.append([str(t)] + [fmt17(s[i, j]) for i in range(p) for j in range(i + 1)]
                        + theta)
        _reference_csv(tmp_path / "ref.csv",
                       ["t"] + [f"sigma_{i}_{j}" for i in range(p) for j in range(i + 1)]
                       + [f"theta_{j}" for j in range(p)],
                       rows,
                       comment="# vech ordering: row-major lower triangle; "
                               "sigma at t=0 is the prior seed matrix\n")
        write_sim_truth_csv(tmp_path / "got.csv", sigmas, thetas)
        got = (tmp_path / "got.csv").read_bytes()
        assert got == (tmp_path / "ref.csv").read_bytes()
        # the t = 0 row: the prior seed matrix and an empty signal
        assert b"\r\n0,1" + b",0,1,-0,0,1" * (p > 1) + b"," * p + b"\r\n1," in got

    def test_search_trace_csv_bytes(self, tmp_path):
        trace = [
            TraceEntry(0.8, (0.25, 0.5), None, 0, -math.inf, True),  # a start point
            TraceEntry(0.8, (0.125, 0.5), 0, 1, np.float64(-0.0), np.False_),
            TraceEntry(np.float64(0.95), (np.float64(0.1), 1 / 3), 1, 2,
                       np.float64(-1234.5678901234567), np.True_),
        ]
        trace += [TraceEntry(0.9, (k / 300, 0.5), 0, 3, 1e-300 * k, k == 7)
                  for k in range(1, 300)]
        rows = [[fmt17(e.delta), str(e.sweep), "" if e.coordinate is None else str(e.coordinate),
                 fmt17(e.objective), str(int(e.accepted)), ";".join(fmt17(v) for v in e.z)]
                for e in trace]
        _reference_csv(tmp_path / "ref.csv",
                       ["delta", "sweep", "coordinate", "objective", "accepted", "z"], rows)
        write_search_trace_csv(tmp_path / "got.csv", trace)
        got = (tmp_path / "got.csv").read_bytes()
        assert got == (tmp_path / "ref.csv").read_bytes()
        assert b"\r\n0.80000000000000004,0,,-inf,1,0.25;0.5\r\n" in got
        assert b",-0,0," in got


# Row counts around the writers' block size, and the dimensions of the
# paper's cases; every field of the reference is one format(x, ".17g").
BLOCK_ROWS = (1, 255, 256, 257, 600)
BLOCK_DIMS = (1, 2, 3, 8)


def _g(x) -> str:
    return format(x, ".17g")


def _expected(head: str, rows) -> bytes:
    return (head + "".join(",".join(row) + "\r\n" for row in rows)).encode()


def _pairs(p: int):
    return [(i, j) for i in range(p) for j in range(i + 1)]


def _specials(n: int) -> list[int]:
    """Rows on either side of each block boundary, and the last row."""
    return sorted({k for k in (0, 254, 255, 256, 511, 512, n - 1) if k < n})


class TestWriterBlocks:
    @pytest.fixture(scope="class")
    def runs(self):
        runs = {}
        for p in BLOCK_DIMS:
            config = ModelConfig(delta=0.9, phi=1.0, omega=np.diag(np.linspace(0.5, 1.5, p)))
            ys = 0.3 * np.random.default_rng(p).standard_normal((max(BLOCK_ROWS), p))
            runs[p], _ = filter_run(ys, config, compute_loglik=False)
        return runs

    def _run(self, runs, p, n):
        run = runs[p][:n].copy()
        for k in _specials(n):
            run.e[k, 0] = -0.0
            run.f[k, -1] = 1e-300
            run.u[k, 0] = -1.5e300
            if p > 1:  # a perfectly correlated pair, and a negative-zero covariance
                run.s_star[k, 1, 1] = run.s_star[k, 0, 0] = 3.0
                run.s_star[k, 1, 0] = run.s_star[k, 0, 1] = 3.0
            if p > 2:
                run.s_star[k, -1, 0] = run.s_star[k, 0, -1] = -0.0
        return run

    @pytest.mark.parametrize("n", BLOCK_ROWS)
    @pytest.mark.parametrize("p", BLOCK_DIMS)
    def test_volatility(self, runs, p, n, tmp_path):
        run = self._run(runs, p, n)
        rows = []
        for t, s in zip(run.t, run.s_star):
            d = np.sqrt(np.diag(s))
            rows.append([str(t)] + [_g(s[i, j]) for i, j in _pairs(p)]
                        + ["1" if i == j else _g(min(1.0, max(-1.0, s[i, j] / (d[i] * d[j]))))
                           for i, j in _pairs(p)])
        labels = [f"{i}_{j}" for i, j in _pairs(p)]
        head = ("# vech ordering: row-major lower triangle (i=0..p-1, j=0..i); "
                "corr diagonal is exactly 1\n"
                + ",".join(["t"] + [f"cov_{x}" for x in labels]
                           + [f"corr_{x}" for x in labels]) + "\r\n")
        write_volatility_csv(tmp_path / "v.csv", run)
        got = (tmp_path / "v.csv").read_bytes()
        assert got == _expected(head, rows)
        assert b",1,1,1" in got if p > 1 else b",1\r\n" in got
        assert b",-0," in got or p < 3

    @pytest.mark.parametrize("n", BLOCK_ROWS)
    @pytest.mark.parametrize("p", BLOCK_DIMS)
    def test_forecast(self, runs, p, n, tmp_path):
        run = self._run(runs, p, n)
        rows = [[str(t)] + [_g(x) for x in (*f, *e, *u)]
                for t, f, e, u in zip(run.t, run.f, run.e, run.u)]
        head = ",".join(["t"] + [f"{name}_{j}" for name in ("forecast", "e", "u")
                                 for j in range(p)]) + "\r\n"
        write_forecast_csv(tmp_path / "f.csv", run)
        got = (tmp_path / "f.csv").read_bytes()
        assert got == _expected(head, rows)
        assert b",-0," in got and b"1e-300," in got and b",-1.5000000000000001e+300" in got

    @pytest.mark.parametrize("n", BLOCK_ROWS)
    @pytest.mark.parametrize("p", BLOCK_DIMS)
    def test_returns(self, p, n, tmp_path):
        values = 0.3 * np.random.default_rng(n + p).standard_normal((n, p))
        values[_specials(n), 0] = -0.0
        values[_specials(n), -1] = 1e-300
        head = ",".join(f"y{j}" for j in range(p)) + "\r\n"
        write_returns_csv(tmp_path / "r.csv", values)
        got = (tmp_path / "r.csv").read_bytes()
        assert got == _expected(head, [[_g(x) for x in row] for row in values])

    @pytest.mark.parametrize("n", BLOCK_ROWS)
    @pytest.mark.parametrize("p", BLOCK_DIMS)
    def test_sim_truth(self, p, n, tmp_path):
        rng = np.random.default_rng(10 * n + p)
        sigmas = rng.standard_normal((n + 1, p, p)) * 10.0 ** rng.integers(-5, 5, (n + 1, p, p))
        thetas = rng.standard_normal((n, p))
        for k in _specials(n):
            sigmas[k + 1, -1, 0] = -0.0
            thetas[k, 0] = -0.0
            thetas[k, -1] = -1.5e300
        rows = [[str(t)] + [_g(sigmas[t, i, j]) for i, j in _pairs(p)]
                + ([""] * p if t == 0 else [_g(x) for x in thetas[t - 1]])
                for t in range(n + 1)]
        head = ("# vech ordering: row-major lower triangle; "
                "sigma at t=0 is the prior seed matrix\n"
                + ",".join(["t"] + [f"sigma_{i}_{j}" for i, j in _pairs(p)]
                           + [f"theta_{j}" for j in range(p)]) + "\r\n")
        write_sim_truth_csv(tmp_path / "s.csv", sigmas, thetas)
        got = (tmp_path / "s.csv").read_bytes()
        assert got == _expected(head, rows)

    @pytest.mark.parametrize("n", BLOCK_ROWS)
    @pytest.mark.parametrize("p", BLOCK_DIMS)
    def test_search_trace(self, p, n, tmp_path):
        rng = np.random.default_rng(100 * n + p)
        trace = []
        for k in range(n):
            start = k % 7 == 0 or k in _specials(n)  # a start point has no coordinate
            z = tuple(rng.uniform(0.0, 1.0, p).tolist())
            objective = [-math.inf, -0.0, 1e-300][k % 3] if k % 5 == 0 else -1e3 * rng.random()
            trace.append(TraceEntry(0.8 + 0.05 * (k % 4), z, None if start else k % p,
                                    k // 9, objective, k % 2 == 0))
        rows = [[_g(e.delta), str(e.sweep), "" if e.coordinate is None else str(e.coordinate),
                 _g(e.objective), str(int(e.accepted)), ";".join(_g(x) for x in e.z)]
                for e in trace]
        head = "delta,sweep,coordinate,objective,accepted,z\r\n"
        write_search_trace_csv(tmp_path / "t.csv", trace)
        got = (tmp_path / "t.csv").read_bytes()
        assert got == _expected(head, rows)
        assert b",,-inf,1," in got


@pytest.fixture
def workdir(tmp_path):
    config = {
        "delta": 0.8,
        "phi": 1.0,
        "omega_diag": [0.5, 1.5],
        "p0": 1000.0,
        "seed": 31,
        "q": 1,
        "delta_candidates": [0.8],
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    return tmp_path, cfg


def _run(args):
    runner = CliRunner()
    return runner.invoke(main, args, catch_exceptions=False)


class TestCli:
    def test_simulate_filter_loglik_roundtrip(self, workdir):
        tmp, cfg = workdir
        out_sim = tmp / "sim"
        res = _run(["simulate", "--config", str(cfg), "--out", str(out_sim),
                    "--n-steps", "120", "--seed", "31"])
        assert res.exit_code == 0
        assert (out_sim / "returns.csv").exists()
        assert (out_sim / "sim_truth.csv").exists()

        out_f = tmp / "filt"
        res = _run(["filter", "--config", str(cfg), "--input",
                    str(out_sim / "returns.csv"), "--out", str(out_f)])
        assert res.exit_code == 0
        report = json.loads((out_f / "report.json").read_text())
        assert set(report) == {"perf", "loglik", "manifest"}
        assert report["manifest"]["seed"] == 31
        assert len(report["perf"]["msse"]) == 2

        out_l = tmp / "ll"
        res = _run(["loglik", "--config", str(cfg), "--input",
                    str(out_sim / "returns.csv"), "--out", str(out_l)])
        assert res.exit_code == 0
        ll_report = json.loads((out_l / "report.json").read_text())
        # same code path: totals agree bit for bit
        assert ll_report["loglik"]["total"] == report["loglik"]["total"]

    def test_csv_roundtrip_matches_in_memory(self, workdir):
        tmp, cfg = workdir
        config = ModelConfig(delta=0.8, phi=1.0, omega=np.diag([0.5, 1.5]))
        path = simulate_path(31, config, n_steps=120)
        csv_path = tmp / "mem.csv"
        write_returns_csv(csv_path, path.ys)
        loaded = load_prices_csv(csv_path)
        # 17 significant digits reproduce every double exactly
        np.testing.assert_array_equal(loaded.values, path.ys)
        direct = loglik_at_filter_path(path.ys, config).total
        via_csv = loglik_at_filter_path(loaded.values, config).total
        assert direct == via_csv

    def test_byte_identical_reruns(self, workdir):
        tmp, cfg = workdir
        out_sim = tmp / "sim"
        _run(["simulate", "--config", str(cfg), "--out", str(out_sim),
              "--n-steps", "80"])
        outs = []
        for name in ("a", "b"):
            out = tmp / name
            res = _run(["filter", "--config", str(cfg), "--input",
                        str(out_sim / "returns.csv"), "--out", str(out)])
            assert res.exit_code == 0
            outs.append({f.name: f.read_bytes() for f in out.iterdir()})
        assert outs[0] == outs[1]

    def test_validation_exit_code_for_bad_delta(self, workdir, tmp_path):
        tmp, _ = workdir
        bad = tmp_path / "bad_config.json"
        bad.write_text(json.dumps({"delta": 0.5, "phi": 1.0,
                                   "omega_diag": [1.0]}))
        data = tmp_path / "d.csv"
        data.write_text("a\n0.01\n-0.01\n0.02\n")
        runner = CliRunner()
        res = runner.invoke(main, ["filter", "--config", str(bad),
                                   "--input", str(data), "--out", str(tmp_path)])
        assert res.exit_code == 2
        assert "2/3" in res.output

    def test_validation_exit_code_for_missing_input(self, workdir, tmp_path):
        tmp, cfg = workdir
        runner = CliRunner()
        res = runner.invoke(main, ["filter", "--config", str(cfg),
                                   "--input", str(tmp_path / "nope.csv"),
                                   "--out", str(tmp_path)])
        assert res.exit_code == 2
        assert "cannot read" in res.output

    def test_validation_exit_code_for_bad_csv(self, workdir, tmp_path):
        tmp, cfg = workdir
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n0.01,\n0.02,0.01\n")
        runner = CliRunner()
        res = runner.invoke(main, ["filter", "--config", str(cfg),
                                   "--input", str(bad), "--out", str(tmp_path)])
        assert res.exit_code == 2

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_numerical_exit_code_with_step_index(self, workdir, tmp_path):
        tmp, cfg = workdir
        bad = tmp_path / "overflow.csv"
        rows = ["a,b"] + ["0.01,0.01"] * 5 + ["1e200,1e200"] + ["0.01,0.01"] * 3
        bad.write_text("\n".join(rows) + "\n")
        runner = CliRunner()
        res = runner.invoke(main, ["filter", "--config", str(cfg),
                                   "--input", str(bad), "--out", str(tmp_path)])
        assert res.exit_code == 3
        assert "t=6" in res.output

    def test_zero_error_step(self, workdir, tmp_path):
        # y_21 equal to its forecast mean m_20 puts the plug-in path on the
        # boundary of the transition's support: L_t has no positive eigenvalue
        tmp, cfg = workdir
        config = ModelConfig(delta=0.8, phi=1.0, omega=np.diag([0.5, 1.5]))
        ys = np.random.default_rng(21).standard_normal((30, 2))
        _, state = filter_run(ys[:20], config)
        ys[20] = state.m
        records, _ = filter_run(ys, config)
        assert len(records) == 30
        assert [r.t for r in records if r.loglik_t == -math.inf] == [21]

        data = tmp_path / "zero_error.csv"
        write_returns_csv(data, ys)
        message = "t=21: transition matrix L_t has no positive eigenvalues"
        for command in ("filter", "loglik"):
            res = CliRunner().invoke(main, [command, "--config", str(cfg), "--input",
                                            str(data), "--out", str(tmp_path / command)])
            assert res.exit_code == 3
            assert message in res.output

    def test_metrics_command(self, workdir):
        tmp, cfg = workdir
        out_sim = tmp / "sim"
        _run(["simulate", "--config", str(cfg), "--out", str(out_sim),
              "--n-steps", "60"])
        out_m = tmp / "metrics"
        res = _run(["metrics", "--config", str(cfg), "--input",
                    str(out_sim / "returns.csv"), "--out", str(out_m)])
        assert res.exit_code == 0
        report = json.loads((out_m / "report.json").read_text())
        assert set(report) == {"perf", "manifest"}

    def test_search_command(self, workdir):
        tmp, cfg = workdir
        out_sim = tmp / "sim"
        _run(["simulate", "--config", str(cfg), "--out", str(out_sim),
              "--n-steps", "150"])
        out_s = tmp / "search"
        res = _run(["search", "--config", str(cfg), "--input",
                    str(out_sim / "returns.csv"), "--out", str(out_s)])
        assert res.exit_code == 0
        report = json.loads((out_s / "report.json").read_text())
        assert len(report["best_z"]) == 2
        assert report["best_delta"] == 0.8
        trace = (out_s / "search_trace.csv").read_text().splitlines()
        assert trace[0].startswith("delta,")
        assert len(trace) > 10

    def test_volatility_csv_contents(self, workdir):
        tmp, cfg = workdir
        out_sim = tmp / "sim"
        _run(["simulate", "--config", str(cfg), "--out", str(out_sim),
              "--n-steps", "50"])
        out_f = tmp / "filt"
        _run(["filter", "--config", str(cfg), "--input",
              str(out_sim / "returns.csv"), "--out", str(out_f)])
        lines = (out_f / "volatility.csv").read_text().splitlines()
        assert lines[0].startswith("#")  # vech ordering documented
        header = lines[1].split(",")
        assert header == ["t", "cov_0_0", "cov_1_0", "cov_1_1",
                          "corr_0_0", "corr_1_0", "corr_1_1"]
        first = lines[2].split(",")
        assert first[0] == "1"
        assert float(first[4]) == 1.0  # corr diagonal exactly one
        assert abs(float(first[5])) <= 1.0

    def test_simulate_then_filter_is_calibrated(self, tmp_path):
        # end-to-end calibration through the CLI in a numerically tame
        # regime, with the prior scale matched to the generative start
        from seqvol.filtering import steady_Q
        base = ModelConfig(delta=0.99, phi=1.0, omega=np.diag([0.4, 1.0]))
        s0 = steady_Q(base) / base.forecast_cov_factor
        config = {
            "delta": 0.99, "phi": 1.0, "omega_diag": [0.4, 1.0],
            "s0": s0.tolist(), "seed": 5,
        }
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config))
        out_sim = tmp_path / "sim"
        res = _run(["simulate", "--config", str(cfg), "--out", str(out_sim),
                    "--n-steps", "500"])
        assert res.exit_code == 0
        out_f = tmp_path / "filt"
        res = _run(["filter", "--config", str(cfg), "--input",
                    str(out_sim / "returns.csv"), "--out", str(out_f)])
        assert res.exit_code == 0
        report = json.loads((out_f / "report.json").read_text())
        assert all(0.8 < v < 1.2 for v in report["perf"]["msse"])

    def test_levels_flag(self, workdir, tmp_path):
        tmp, cfg1 = workdir
        cfg = tmp_path / "cfg1.json"
        cfg.write_text(json.dumps({"delta": 0.8, "phi": 1.0,
                                   "omega_diag": [1.0]}))
        prices = tmp_path / "prices.csv"
        rows = ["p"] + [fmt17(100.0 * math.exp(0.001 * i + 0.01 * math.sin(i)))
                        for i in range(80)]
        prices.write_text("\n".join(rows) + "\n")
        out = tmp_path / "out"
        res = _run(["filter", "--config", str(cfg), "--input", str(prices),
                    "--levels", "--out", str(out)])
        assert res.exit_code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["perf"]["n_obs"] == 79


COMMANDS = ("filter", "simulate", "loglik", "search", "metrics")


def _invoke(command, cfg, data, out):
    args = ["--n-steps", "10"] if command == "simulate" else ["--input", str(data)]
    return CliRunner().invoke(main, [command, "--config", str(cfg), "--out", str(out)]
                              + args)


@pytest.mark.parametrize("command", COMMANDS)
def test_invalid_config_exits_2_before_out_dir(command, tmp_path):
    cfg = tmp_path / "bad_config.json"
    cfg.write_text(json.dumps({"delta": 0.5, "phi": 1.0, "omega_diag": [1.0, 1.0]}))
    data = tmp_path / "d.csv"
    data.write_text("a,b\n0.01,0.02\n-0.01,0.01\n0.02,0.0\n")
    res = _invoke(command, cfg, data, tmp_path / "out")
    assert res.exit_code == 2
    assert "error: delta=0.5 violates the 2/3 < delta < 1 requirement" in res.output
    assert not (tmp_path / "out").exists()
    # a config value of the wrong type is a validation error too, not a traceback
    wrong_types = [
        ({"delta": "abc"}, "invalid config value: could not convert string to float: 'abc'"),
        ({"modes": "x"}, "config 'modes' must be an object, got 'x'"),
    ]
    if command == "search":
        wrong_types.append(({"q": "x"},
                            "invalid config value: invalid literal for int() with base 10: 'x'"))
        wrong_types.append(({"q": 2.5}, "config 'q' must be an integer, got 2.5"))
        wrong_types.append(({"q": True}, "config 'q' must be an integer, got True"))
    if command == "simulate":
        wrong_types.append(({"seed": "x"},
                            "invalid config value: invalid literal for int() with base 10: 'x'"))
        wrong_types.append(({"seed": 1.5}, "config 'seed' must be an integer, got 1.5"))
        wrong_types.append(({"seed": False}, "config 'seed' must be an integer, got False"))
        wrong_types.append(({"seed": -3}, "seed=-3 must be non-negative"))
    # a non-finite value fails the config, not the run at step 1
    wrong_types += [
        ({"phi": "nan"}, "phi=nan must be finite"),
        ({"p0": "inf"}, "p0=inf must be positive and finite"),
        ({"m0": [0, "nan"]}, "m0=[0.0, nan] must be finite"),
    ]
    for change, message in wrong_types:
        cfg.write_text(json.dumps({"delta": 0.8, "phi": 1.0, "omega_diag": [1.0, 1.0],
                                   **change}))
        res = _invoke(command, cfg, data, tmp_path / "out")
        assert res.exit_code == 2, (change, res.output)
        assert f"error: {message}" in res.output
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["filter", "simulate", "search"])
@pytest.mark.parametrize("change, key", [
    ({"po": 5}, "po"),
    ({"modes": {"standardisation": "posterior_st"}}, "modes.standardisation"),
])
def test_unknown_config_key_exits_2(command, change, key, tmp_path):
    # a misspelled key would leave the default it meant to replace in force
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"delta": 0.8, "phi": 1.0, "omega_diag": [1.0], **change}))
    data = tmp_path / "d.csv"
    data.write_text("a\n" + "0.01\n-0.01\n0.02\n" * 4)  # search needs 10 rows
    res = _invoke(command, cfg, data, tmp_path / "out")
    assert res.exit_code == 2, res.output
    assert f"error: unknown config key '{key}'" in res.output
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("raw", [5, [1], "abc", None])
def test_config_not_an_object_exits_2(raw, tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(raw))
    res = _invoke("simulate", cfg, None, tmp_path / "out")
    assert res.exit_code == 2, res.output
    assert f"error: config must be a JSON object, got {raw!r}" in res.output
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("scale", ["nan", "inf"])
def test_non_finite_scale_exits_2_before_out_dir(scale, tmp_path):
    # every command with --input reads it through the same validation phase
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"delta": 0.8, "phi": 1.0, "omega_diag": [1.0]}))
    data = tmp_path / "d.csv"
    data.write_text("a\n0.01\n-0.01\n0.02\n")
    res = CliRunner().invoke(main, ["filter", "--config", str(cfg), "--input", str(data),
                                    "--scale", scale, "--out", str(tmp_path / "out")])
    assert res.exit_code == 2, res.output
    assert f"error: scale={scale} must be finite" in res.output
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["filter", "search"])
@pytest.mark.parametrize("bad", ["input", "config"])
def test_non_utf8_file_exits_2_before_out_dir(command, bad, tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"delta": 0.8, "phi": 1.0, "omega_diag": [1.0]}))
    data = tmp_path / "d.csv"
    data.write_text("a\n" + "0.01\n-0.01\n0.02\n" * 4)  # search needs 10 rows
    target = cfg if bad == "config" else data
    text = target.read_bytes()
    target.write_bytes(text.replace(b"1", b"\xff", 1))  # in a value: 1.0 or 0.01
    assert b"\xff" in target.read_bytes()
    res = _invoke(command, cfg, data, tmp_path / "out")
    assert res.exit_code == 2, res.output
    assert res.exception is None or isinstance(res.exception, SystemExit)
    assert re.search(rf"^error: cannot read (config )?{re.escape(str(target))}: "
                     r"'utf-8' codec can't decode byte 0xff", res.output, re.M)
    assert not (tmp_path / "out").exists()


def test_integral_q_and_seed_accepted(tmp_path):
    assert load_search_spec({"q": 3.0}).q == 3
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"delta": 0.8, "phi": 1.0, "omega_diag": [1.0], "seed": 4.0}))
    res = _invoke("simulate", cfg, None, tmp_path / "out")
    assert res.exit_code == 0, res.output
    assert json.loads((tmp_path / "out" / "report.json").read_text())["manifest"]["seed"] == 4


@pytest.mark.parametrize("command", [c for c in COMMANDS if c != "simulate"])
def test_config_seed_checked_as_simulate_checks_it(command, tmp_path):
    data = tmp_path / "d.csv"
    data.write_text("a\n" + "0.01\n-0.01\n0.02\n" * 4)  # search needs 10 rows
    cfg = tmp_path / "config.json"
    for seed, message in [(2.5, "config 'seed' must be an integer, got 2.5"),
                          ("x", "invalid config value: invalid literal for int() "
                                "with base 10: 'x'"),
                          (True, "config 'seed' must be an integer, got True"),
                          (-1, "seed=-1 must be non-negative")]:
        cfg.write_text(json.dumps({"delta": 0.8, "phi": 1.0, "omega_diag": [1.0],
                                   "seed": seed}))
        res = _invoke(command, cfg, data, tmp_path / "out")
        assert res.exit_code == 2, (seed, res.output)
        assert f"error: {message}" in res.output
        assert not (tmp_path / "out").exists()
    # a valid seed, or none, is echoed into the manifest as it is
    for config, echoed in [({"seed": 7}, 7), ({"seed": 4.0}, 4), ({}, None)]:
        cfg.write_text(json.dumps({"delta": 0.8, "phi": 1.0, "omega_diag": [1.0], **config}))
        out = tmp_path / f"out_{echoed}"
        res = _invoke(command, cfg, data, out)
        assert res.exit_code == 0, res.output
        assert json.loads((out / "report.json").read_text())["manifest"]["seed"] == echoed


@pytest.mark.parametrize("omega", [2.0, [1.0, 2.0], [[[1.0]]]])
def test_omega_matrix_not_a_matrix_exits_2(omega, tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"delta": 0.8, "phi": 1.0, "omega_matrix": omega}))
    data = tmp_path / "d.csv"
    data.write_text("a\n0.01\n-0.01\n0.02\n")
    res = _invoke("filter", cfg, data, tmp_path / "out")
    assert res.exit_code == 2, res.output
    shape = np.shape(omega)
    assert f"error: omega must be square, got shape {shape}" in res.output
    assert "Traceback" not in res.output
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["filter", "simulate"])
@pytest.mark.parametrize("diag", [[], [[1.0, 0.0], [0.0, 1.0]], 2.0])
def test_omega_diag_not_a_vector_exits_2(command, diag, tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"delta": 0.8, "phi": 1.0, "omega_diag": diag}))
    data = tmp_path / "d.csv"
    data.write_text("a\n0.01\n-0.01\n0.02\n")
    res = _invoke(command, cfg, data, tmp_path / "out")
    assert res.exit_code == 2, res.output
    assert f"error: 'omega_diag' must be a non-empty vector, got {diag!r}" in res.output
    assert "Traceback" not in res.output
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", COMMANDS)
def test_both_omega_keys_exit_2_before_out_dir(command, tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"delta": 0.8, "phi": 1.0, "omega_diag": [1.0, 2.0],
                               "omega_matrix": [[1.0, 0.5], [0.5, 1.0]]}))
    data = tmp_path / "d.csv"
    data.write_text("a,b\n" + "0.01,0.02\n-0.01,0.01\n" * 10)
    res = _invoke(command, cfg, data, tmp_path / "out")
    assert res.exit_code == 2, res.output
    assert ("error: config must provide exactly one of 'omega_diag' and 'omega_matrix'"
            in res.output)
    assert "Traceback" not in res.output
    assert not (tmp_path / "out").exists()


def test_invalid_search_settings_exit_2_before_out_dir(tmp_path):
    data = tmp_path / "d.csv"
    data.write_text("a\n0.01\n-0.01\n0.02\n")
    # q above the bound would stack millions of candidates (q = 6) or more, and
    # a repeated delta would run its search twice
    for change, message in [({"q": 0}, "grid resolution q=0 must be >= 1"),
                            ({"q": 6}, "grid resolution q=6 must be <= 3"),
                            ({"q": 10 ** 30}, f"grid resolution q={10 ** 30} must be <= 3"),
                            ({"delta_candidates": [0.9, 0.9]},
                             "delta_candidates repeat delta=0.9")]:
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"delta": 0.8, "phi": 1.0, "omega_diag": [1.0], **change}))
        res = _invoke("search", cfg, data, tmp_path / "out")
        assert res.exit_code == 2, (change, res.output)
        assert f"error: {message}" in res.output
        assert "Traceback" not in res.output
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("delta", [2 / 3, 1.0, math.nan, 0.5],
                         ids=["two-thirds", "one", "nan", "half"])
@pytest.mark.parametrize("entry", ["discount_k", "ModelConfig", "SearchSpec",
                                   "cli-delta", "cli-delta_candidates"])
def test_one_admissible_delta_rule(entry, delta, tmp_path):
    # discount_k holds the rule 2/3 < delta < 1: every entry point raises its message
    message = f"delta={delta} violates the 2/3 < delta < 1 requirement"
    if entry.startswith("cli-"):
        raw = {"delta": 0.8, "phi": 1.0, "omega_diag": [1.0]}
        if entry == "cli-delta":
            raw["delta"] = delta
        else:
            raw["delta_candidates"] = [0.8, delta]
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(raw))
        data = tmp_path / "d.csv"
        data.write_text("a\n" + "0.01\n-0.01\n" * 10)
        res = _invoke("search", cfg, data, tmp_path / "out")
        assert res.exit_code == 2, res.output
        assert f"error: {message}" in res.output
        assert not (tmp_path / "out").exists()
        return
    with pytest.raises(DomainError, match=re.escape(message)):
        if entry == "discount_k":
            discount_k(delta, 2)
        elif entry == "ModelConfig":
            ModelConfig(delta=delta, phi=1.0, omega=np.eye(2))
        else:
            SearchSpec(delta_candidates=(0.8, delta))


def test_search_on_a_short_series_exits_2_before_out_dir(tmp_path):
    # a search needs 10 p observations: an input error, found before --out is made
    data = tmp_path / "d.csv"
    data.write_text("a,b\n0.01,0.02\n-0.01,0.01\n0.02,0.0\n0.01,-0.01\n")
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"delta": 0.8, "phi": 1.0, "omega_diag": [1.0, 1.0]}))
    res = _invoke("search", cfg, data, tmp_path / "out")
    assert res.exit_code == 2, res.output
    assert "error: need at least 10*p = 20 observations, got 4" in res.output
    assert "Traceback" not in res.output
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["filter", "simulate"])
def test_out_naming_a_file_exits_2(command, tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"delta": 0.8, "phi": 1.0, "omega_diag": [1.0]}))
    data = tmp_path / "d.csv"
    data.write_text("a\n0.01\n-0.01\n0.02\n")
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    res = _invoke(command, cfg, data, taken)
    assert res.exit_code == 2
    assert res.output.startswith("error: cannot create --out directory: ")
    assert len(res.output.splitlines()) == 1
    assert taken.read_text() == "not a directory\n"


@pytest.mark.parametrize("command, output", [("filter", "volatility.csv"),
                                             ("simulate", "returns.csv")])
def test_unwritable_output_file_exits_2(command, output, tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"delta": 0.8, "phi": 1.0, "omega_diag": [1.0]}))
    data = tmp_path / "d.csv"
    data.write_text("a\n0.01\n-0.01\n0.02\n")
    out = tmp_path / "out"
    (out / output).mkdir(parents=True)  # the output file's path is taken by a directory
    res = _invoke(command, cfg, data, out)
    assert res.exit_code == 2
    assert res.output.startswith("error: cannot write output: ")
    assert output in res.output
    assert len(res.output.splitlines()) == 1
    assert "Traceback" not in res.output


def test_zero_error_step_at_a_block_start(tmp_path):
    # the filter evaluates the likelihood terms in blocks of _BLOCK steps; a
    # zero-error step on the first step of the second block is reported as such
    from seqvol.filtering import _BLOCK
    config = ModelConfig(delta=0.8, phi=1.0, omega=np.diag([0.5, 1.5]))
    ys = np.random.default_rng(21).standard_normal((_BLOCK + 10, 2))
    _, state = filter_run(ys[:_BLOCK], config)
    ys[_BLOCK] = state.m
    data = tmp_path / "zero_error.csv"
    write_returns_csv(data, ys)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"delta": 0.8, "phi": 1.0, "omega_diag": [0.5, 1.5]}))
    for command in ("filter", "loglik"):
        res = _invoke(command, cfg, data, tmp_path / command)
        assert res.exit_code == 3
        assert (f"error: t={_BLOCK + 1}: transition matrix L_t has no positive "
                "eigenvalues") in res.output


@pytest.mark.filterwarnings("ignore:overflow")
@pytest.mark.parametrize("command", [c for c in COMMANDS if c != "simulate"])
def test_numerical_exit_code_at_p3(command, tmp_path):
    # at p >= 3 LAPACK raises on a non-finite matrix; every command must still
    # report the cause and exit 3, without a traceback
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"delta": 0.8, "phi": 1.0, "omega_diag": [0.5, 1.0, 1.5],
                               "q": 1, "delta_candidates": [0.8]}))
    ys = 0.3 * np.random.default_rng(3).standard_normal((40, 3))
    ys[5] = 1e200
    data = tmp_path / "overflow.csv"
    write_returns_csv(data, ys)
    res = _invoke(command, cfg, data, tmp_path / "out")
    assert res.exit_code == 3
    message = ("error: every (z, delta) candidate failed numerically" if command == "search"
               else "error: numerical failure at step t=6: S_t or S_t^* is not positive "
                    "definite at machine precision")
    assert message in res.output


def test_simulate_failure_names_its_step(tmp_path):
    # at delta = 0.9, p = 8 the simulated volatility leaves double precision
    # within 1500 steps; the error names the step, without a traceback
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"delta": 0.9, "phi": 1.0,
                               "omega_diag": [0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]}))
    res = CliRunner().invoke(main, ["simulate", "--config", str(cfg), "--out",
                                    str(tmp_path / "out"), "--seed", "19",
                                    "--n-steps", "1500"])
    assert res.exit_code == 3
    assert res.output.startswith("error: numerical failure at step t=")
    t = int(res.output.split("step t=")[1].split(":")[0])
    assert 1 <= t <= 1500
    assert "Traceback" not in res.output and "Warning" not in res.output


# any JSON value: numbers, bools, null, strings, nested lists and objects
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-10**6, 10**6)
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=6),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=3)),
    max_leaves=6)


# under each config key, a value that can run
_RUNNABLE = {
    "delta": st.sampled_from([0.8, 0.95]),
    "phi": st.floats(-1.0, 1.0),
    "omega_diag": st.lists(st.floats(0.1, 2.0), min_size=2, max_size=2),
    "omega_matrix": st.just([[1.0, 0.2], [0.2, 1.0]]),
    "m0": st.sampled_from([0.0, [0.1, -0.1]]),
    "p0": st.floats(1.0, 1e4),
    "s0": st.sampled_from([1.0, [1.0, 2.0], [[1.0, 0.1], [0.1, 1.0]]]),
    "q": st.integers(1, 2),  # inside MAX_Q, so that no example builds a big grid
    "delta_candidates": st.lists(st.sampled_from([0.8, 0.9]), min_size=1, max_size=2),
    "seed": st.integers(0, 2**32),
    "modes": st.fixed_dictionaries({}, optional={
        "forecast_mean": st.sampled_from(["plain", "phi_scaled"]),
        "standardization": st.sampled_from(["forecast_cov", "posterior_st"])}),
}


@st.composite
def _configs(draw):
    """A config dict: each key absent or any JSON value (1 in 10 each), else runnable."""
    raw = {}
    for key, runnable in _RUNNABLE.items():
        kind = draw(st.integers(0, 9))
        if kind:
            raw[key] = draw(_JSON if kind == 1 else runnable)
    return raw


@pytest.fixture(scope="module")
def returns_p2(tmp_path_factory):
    data = tmp_path_factory.mktemp("fuzz") / "returns.csv"
    write_returns_csv(data, 0.3 * np.random.default_rng(12).standard_normal((30, 2)))
    return data


@settings(max_examples=100)
@given(raw=_configs())
def test_any_config_dict_exits_0_2_or_3(raw, returns_p2):
    # every command, on any JSON value under every key: a run or a seqvol
    # error, never a traceback; a run echoes in its manifest what it ran
    with tempfile.TemporaryDirectory(dir=returns_p2.parent) as tmp:
        cfg = Path(tmp) / "config.json"
        cfg.write_text(json.dumps(raw))
        for command in COMMANDS:
            out = Path(tmp) / command
            args = ["--n-steps", "5"] if command == "simulate" else ["--input", str(returns_p2)]
            res = CliRunner().invoke(main, [command, "--config", str(cfg), "--out", str(out)]
                                     + args)
            assert res.exit_code in (0, 2, 3), (command, raw, res.output)
            assert res.exception is None or isinstance(res.exception, SystemExit), res.output
            if res.exit_code:
                continue
            config = load_model_config(raw)
            report = json.loads((out / "report.json").read_text())
            echo = report["manifest"]["config"]
            assert (echo["delta"], echo["phi"], echo["p0"]) == (
                float(raw["delta"]), float(raw["phi"]), config.p0)
            for name in ("omega", "m0", "s0"):
                np.testing.assert_array_equal(echo[name], getattr(config, name))
            assert echo["modes"] == {"forecast_mean": config.forecast_mean_mode,
                                     "standardization": config.standardization_mode}
            assert (echo["q"], echo["delta_candidates"]) == (
                raw.get("q"), raw.get("delta_candidates"))
            if command == "search":  # it searched the echoed grid and discount factors
                spec = SearchSpec()
                q = spec.q if echo["q"] is None else echo["q"]
                assert not isinstance(q, bool) and q == int(q), q
                grid = np.multiply(report["best_z"], 10 ** int(q))
                np.testing.assert_allclose(grid, np.round(grid), rtol=1e-12)
                assert report["best_delta"] in (echo["delta_candidates"]
                                                or spec.delta_candidates)
