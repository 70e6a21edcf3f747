"""The CLI's output files, pinned bit for bit by their sha256 digests.

Each case runs one ``seqvol`` command on inputs made here from fixed seeds
and compares the digest of each output file with the one below. A change
that should move no output bit keeps every digest; one that moves a bit on
purpose regenerates them, and says why. The one way to regenerate them is
to run this file as a script, ``python tests/test_pinned_outputs.py``,
which prints the current digests in the form of ``PINNED``.

The digests hold for one floating-point environment: a different numpy or
BLAS may round differently, so a failure names both.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

if __name__ == "__main__":  # as a script: import the package from this checkout
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from seqvol.cli import main  # noqa: E402

FILTER_OUTPUTS = ("volatility.csv", "forecast.csv", "report.json")

PINNED = {
    'filter_p8': {
        'volatility.csv':
            '26d69d33f9b9830dab5659b1daf28cf39143e2d161a75732c587a9c12fcccd30',
        'forecast.csv':
            'cbd7c380f1c15d55de1f0d271097531136caaa5292997d7974a38fbe62af74d1',
        'report.json':
            '1990dddbb342a135898b8f4c01de84c8bc037df98647ec778bbce75d07c57674',
    },
    'filter_p3_dense': {
        'volatility.csv':
            '4a5f2065dccab973be0430e7b3882c089762b189b881cb42888aa08778000c53',
        'forecast.csv':
            'bbdfec5b2498865721f83e7597b0e886b1ec503e250f15b4dee3aaf20177a2b3',
        'report.json':
            '28d5a5d2dc2707b226009da4dd4c0bc9dd9a46441c613813f5c67596adf2866e',
    },
    'loglik_p8': {
        'report.json':
            'c2dad23086067d31c289540ae408d146fcd9887874802b2b7b7f4bc5171119fb',
    },
    'metrics_p8': {
        'report.json':
            'c5869fafbdb0225f099b37f5d71bd5859731dfde502e4508588f7390d404ae8a',
    },
    'simulate_p3': {
        'returns.csv':
            'afdb083e3f66435c582a796a63cc6f7933b3c082018ef3191cc9c7469501c1f5',
        'sim_truth.csv':
            'bd2e87abe3fbf4e363b9031122cba5f8292a4f34b20efeffa578613b1ce996c9',
    },
    'search_p2': {
        'search_trace.csv':
            '6f5813763cc4c8f236162f38b5e4c0cb4fc432caf656d06e646773729f452f53',
    },
}


def _write_returns(path, ys):
    """A returns CSV with 17-digit fields, written without seqvol's writers."""
    lines = [",".join(f"y{j}" for j in range(ys.shape[1]))]
    lines += [",".join(format(float(v), ".17g") for v in row) for row in ys]
    path.write_text("\n".join(lines) + "\n")


def _p8_returns(path):
    # the benchmark's filter_p8 data at its small size (seed 1, N = 300)
    rng = np.random.default_rng(1)
    corr = 0.3 + 0.7 * np.eye(8)
    _write_returns(path, 0.01 * rng.standard_normal((300, 8)) @ np.linalg.cholesky(corr).T)


def _p8_config():
    return {"delta": 0.7, "phi": 1.0, "omega_diag": [1.0] * 8}


def _p3_returns(path):
    _write_returns(path, 0.3 * np.random.default_rng(3).standard_normal((200, 3)))


def _p3_dense_config():
    return {"delta": 0.9, "phi": 0.95,
            "omega_matrix": [[1.0, 0.3, -0.2], [0.3, 0.8, 0.1], [-0.2, 0.1, 0.5]],
            "modes": {"forecast_mean": "phi_scaled", "standardization": "posterior_st"}}


def _p2_returns(path):
    rng = np.random.default_rng(2)
    log_vol = np.cumsum(0.05 * rng.standard_normal(150))
    _write_returns(path, np.exp(log_vol)[:, None] * rng.standard_normal((150, 2)))


# case: (command, config, input writer or None, extra arguments, output files)
CASES = {
    "filter_p8": ("filter", _p8_config(), _p8_returns, [], FILTER_OUTPUTS),
    "filter_p3_dense": ("filter", _p3_dense_config(), _p3_returns, [], FILTER_OUTPUTS),
    "loglik_p8": ("loglik", _p8_config(), _p8_returns, [], ("report.json",)),
    "metrics_p8": ("metrics", _p8_config(), _p8_returns, [], ("report.json",)),
    "simulate_p3": ("simulate", {"delta": 0.95, "phi": 1.0, "omega_diag": [0.5, 1.0, 1.5]},
                    None, ["--n-steps", "700", "--seed", "7"],
                    ("returns.csv", "sim_truth.csv")),
    "search_p2": ("search", {"delta": 0.9, "phi": 1.0, "omega_diag": [1.0, 1.0], "q": 1,
                             "delta_candidates": [0.85, 0.95]},
                  _p2_returns, [], ("search_trace.csv",)),
}


def output_digests(case, workdir):
    """Run ``case`` in ``workdir``; the sha256 digest of each of its output files."""
    command, config, write_input, extra, outputs = CASES[case]
    workdir = Path(workdir)
    cfg = workdir / "config.json"
    cfg.write_text(json.dumps(config))
    args = [command, "--config", str(cfg), "--out", str(workdir / "out"), *extra]
    if write_input is not None:
        write_input(workdir / "returns.csv")
        args += ["--input", str(workdir / "returns.csv")]
    res = CliRunner().invoke(main, args, catch_exceptions=False)
    assert res.exit_code == 0, res.output
    return {name: hashlib.sha256((workdir / "out" / name).read_bytes()).hexdigest()
            for name in outputs}


def _environment():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = blas.get("openblas configuration") or f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy before 1.25 only prints its config
        blas = "unknown"
    return f"numpy {np.__version__}, BLAS {blas}"


@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_match_pinned_digests(case, tmp_path):
    assert output_digests(case, tmp_path) == PINNED[case], (
        f"{case}: output bytes moved under {_environment()}; if the move is intended, "
        "regenerate with python tests/test_pinned_outputs.py")


if __name__ == "__main__":
    print("PINNED = {")
    for case in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            print(f"    {case!r}: {{")
            for name, digest in output_digests(case, tmp).items():
                print(f"        {name!r}:\n            {digest!r},")
            print("    },")
    print("}")
