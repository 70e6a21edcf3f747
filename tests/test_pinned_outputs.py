"""The CLI's output files and the library's array outputs, pinned bit for bit.

Each case of ``CASES`` runs one ``seqvol`` command on inputs made here from
fixed seeds and compares the sha256 digest of each output file with the one
in ``PINNED``; each case of ``ARRAY_CASES`` hashes the bytes of arrays a
library call returns (the search's stacked evaluator and an on-line
``filter_step`` chain, each at ``p = 3`` and at ``p = 2``, where the step runs
in closed form; :func:`~seqvol.likelihood.loglik_path` on a simulated truth)
and compares with ``PINNED_ARRAYS``. A change that should
move no output bit keeps every digest; one that moves a bit on purpose
regenerates them, and says why. The one way to regenerate them is to run
this file as a script, ``python tests/test_pinned_outputs.py``, which prints
the current digests in the form of ``PINNED`` and ``PINNED_ARRAYS``.

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

from seqvol.cli import load_model_config, main  # noqa: E402
from seqvol.filtering import filter_init, filter_step, steady_Q  # noqa: E402
from seqvol.likelihood import loglik_path  # noqa: E402
from seqvol.search import evaluate_candidates  # noqa: E402
from seqvol.simulate import simulate_path  # noqa: E402

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
    'filter_p2_dense': {
        'volatility.csv':
            'dad2e5ade170ce2f54cba78b03976113051e072cbfe30aaa137c2cb1db9a9827',
        'forecast.csv':
            '60e44efc858905a5dbb79e2939bff9f8c500c4fb21e0b7b481a4828119b54921',
        'report.json':
            'da69e76b4922f91ff6975553ac4c0de23c5def5889057a351e9a7fc4d4190185',
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
            '087b4eb5bee6bfe3536173c4936d0bce98ead34623c65c932ce1ace25acb1c5e',
    },
}

PINNED_ARRAYS = {
    'evaluate_loglik_p3':
        'b950d90496cd04eff79c8ad651bfdd90601a743ae4da8361e74db96b45eabfbc',
    'evaluate_msse_p3':
        '21be2b52000235e2a404bf6fb63b68aaf607d76e5895de5c827353b8a907e505',
    'filter_step_chain_p3':
        'fbba306d87b93fa694350d5eaeb1a13d1681f3e50e44ab8f73f4780c12887e49',
    'evaluate_loglik_p2':
        'd08e29ad5fb968d07d0fc9a616573c29af230ad0d1420970056285f67ce6b1a8',
    'filter_step_chain_p2':
        '3196acdfcc7a2cc8e022cc2c911c59a3c83119bbc563f20d8a987468c14b83ff',
    'loglik_path_truth_p3':
        'a4b6d6a12e42dadd0504e7ae6890664484f86481a5b51d96ab82e0b486abe641',
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


def _p3_series():
    return 0.3 * np.random.default_rng(3).standard_normal((200, 3))


def _p3_returns(path):
    _write_returns(path, _p3_series())


def _p3_dense_config():
    return {"delta": 0.9, "phi": 0.95,
            "omega_matrix": [[1.0, 0.3, -0.2], [0.3, 0.8, 0.1], [-0.2, 0.1, 0.5]],
            "modes": {"forecast_mean": "phi_scaled", "standardization": "posterior_st"}}


def _p2_series():
    rng = np.random.default_rng(2)
    log_vol = np.cumsum(0.05 * rng.standard_normal(150))
    return np.exp(log_vol)[:, None] * rng.standard_normal((150, 2))


def _p2_returns(path):
    _write_returns(path, _p2_series())


def _p2_dense_config():
    return {"delta": 0.9, "phi": 0.95, "omega_matrix": [[0.5, 0.1], [0.1, 1.2]],
            "modes": {"forecast_mean": "phi_scaled", "standardization": "posterior_st"}}


def _simulate_p3_config():
    return {"delta": 0.95, "phi": 1.0, "omega_diag": [0.5, 1.0, 1.5]}


# case: (command, config, input writer or None, extra arguments, output files)
CASES = {
    "filter_p8": ("filter", _p8_config(), _p8_returns, [], FILTER_OUTPUTS),
    "filter_p3_dense": ("filter", _p3_dense_config(), _p3_returns, [], FILTER_OUTPUTS),
    "filter_p2_dense": ("filter", _p2_dense_config(), _p2_returns, [], FILTER_OUTPUTS),
    "loglik_p8": ("loglik", _p8_config(), _p8_returns, [], ("report.json",)),
    "metrics_p8": ("metrics", _p8_config(), _p8_returns, [], ("report.json",)),
    "simulate_p3": ("simulate", _simulate_p3_config(), None, ["--n-steps", "700", "--seed", "7"],
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


def _evaluate_stack(objective, p=3):
    """``evaluate_candidates`` on 40 dense candidates over four discount factors.

    At ``p = 3`` on the dense ``p = 3`` case; at ``p = 2`` on the dense ``p = 2``
    case, the closed-form step over a stack.
    """
    rng = np.random.default_rng(40)
    a = rng.standard_normal((40, p, p))
    omegas = a @ a.swapaxes(-1, -2) / p + 0.1 * np.eye(p)
    deltas = np.resize([0.75, 0.8, 0.9, 0.95], 40)
    series, config = (_p3_series(), _p3_dense_config()) if p == 3 else (_p2_series(),
                                                                        _p2_dense_config())
    return [evaluate_candidates(series, load_model_config(config), deltas, omegas, objective)]


def _step_chain(p=3):
    """The rows of 30 ``filter_step`` calls on a dense case, and the end state.

    At ``p = 2`` the closed-form step over Python floats.
    """
    series, config = (_p3_series(), _p3_dense_config()) if p == 3 else (_p2_series(),
                                                                        _p2_dense_config())
    config = load_model_config(config)
    state, rows = filter_init(config), []
    for y in series[:30]:
        state, row = filter_step(state, y, config)
        rows.append(row)
    return [np.array(rows), state.m, state.S, state.p_eigs]


def _truth_loglik():
    """``loglik_path`` on the ``simulate_p3`` case's simulated truth.

    Its errors are ``y_t - phi theta_{t-1}``, the observation less the true
    signal's one-step forecast.
    """
    config = load_model_config(_simulate_p3_config())
    path = simulate_path(7, config, n_steps=700)
    es = path.ys - config.phi * np.vstack([np.zeros(config.p), path.thetas[:-1]])
    bd = loglik_path(path.sigmas, es, config, steady_Q(config))
    return [np.array([bd.total, bd.constant_c, bd.quad_term, bd.chol_logdet_term,
                      bd.lt_term, bd.sigma_logdet_term]), np.asarray(bd.per_step)]


# case: the arrays it returns, hashed in order
ARRAY_CASES = {
    "evaluate_loglik_p3": lambda: _evaluate_stack("loglik"),
    "evaluate_msse_p3": lambda: _evaluate_stack("msse_distance"),
    "filter_step_chain_p3": _step_chain,
    "evaluate_loglik_p2": lambda: _evaluate_stack("loglik", p=2),
    "filter_step_chain_p2": lambda: _step_chain(p=2),
    "loglik_path_truth_p3": _truth_loglik,
}


def array_digest(case):
    """The sha256 digest of the bytes of every array ``case`` returns, in order."""
    digest = hashlib.sha256()
    for array in ARRAY_CASES[case]():
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


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


@pytest.mark.parametrize("case", sorted(ARRAY_CASES))
def test_arrays_match_pinned_digests(case):
    assert array_digest(case) == PINNED_ARRAYS[case], (
        f"{case}: array bytes moved under {_environment()}; if the move is intended, "
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
    print("PINNED_ARRAYS = {")
    for case in ARRAY_CASES:
        print(f"    {case!r}:\n        {array_digest(case)!r},")
    print("}")
