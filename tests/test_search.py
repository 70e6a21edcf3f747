import dataclasses
import itertools
import logging
import math
import re
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import seqvol.filtering
import seqvol.likelihood
import seqvol.search
from seqvol.search import evaluate_candidates
from seqvol.errors import DimensionMismatch, DomainError, SeqvolError
from seqvol.filtering import (_BLOCK, _MIN_STEPS, FilterState, ModelConfig, _recursion,
                              _Setup, filter_init, filter_run, filter_step)
from seqvol.likelihood import loglik_at_filter_path, perf_metrics
from seqvol.simulate import simulate_path
from seqvol.search import (
    SearchSpec,
    TraceEntry,
    coordinate_search,
    omega_diag_to_z,
    z_to_omega,
)

from conftest import count_decompositions, random_spd


@pytest.fixture
def stationary_ys():
    rng = np.random.default_rng(42)
    return 0.01 * rng.standard_normal((150, 1))


@pytest.fixture
def drifting_ys2():
    # random-walk log-volatility: delta=0.8 stops after 2 sweeps, 0.9 after 3
    rng = np.random.default_rng(2)
    log_vol = np.cumsum(0.1 * rng.standard_normal(200))
    chol = np.linalg.cholesky(np.array([[1.0, 0.5], [0.5, 1.0]]))
    return 0.01 * np.exp(log_vol)[:, None] * rng.standard_normal((200, 2)) @ chol.T


@pytest.fixture
def stationary_ys2():
    rng = np.random.default_rng(43)
    chol = np.linalg.cholesky(np.array([[1.0, 0.4], [0.4, 2.0]]))
    return 0.01 * rng.standard_normal((200, 2)) @ chol.T


class TestZMapping:
    def test_midpoint(self):
        assert z_to_omega([0.5])[0, 0] == pytest.approx(1.0, rel=1e-15)

    def test_reported_pairings(self):
        assert round(z_to_omega([0.99])[0, 0], 3) == 99.000
        assert round(z_to_omega([0.44])[0, 0], 3) == 0.786
        assert round(z_to_omega([0.92])[0, 0], 3) == 11.500

    def test_domain(self):
        with pytest.raises(DomainError):
            z_to_omega([0.0, 0.5])
        with pytest.raises(DomainError):
            z_to_omega([1.0])

    @settings(max_examples=80, deadline=None)
    @given(z=st.floats(1e-6, 1 - 1e-6))
    def test_roundtrip(self, z):
        w = z_to_omega([z])[0, 0]
        back = omega_diag_to_z([w])[0]
        assert back == pytest.approx(z, abs=1e-14)

    def test_diagonal_structure(self):
        omega = z_to_omega([0.2, 0.8])
        assert omega.shape == (2, 2)
        assert omega[0, 1] == 0.0
        np.testing.assert_allclose(np.diag(omega), [0.25, 4.0])


class TestSearchSpec:
    def test_validation(self):
        with pytest.raises(DomainError):
            SearchSpec(q=0)
        with pytest.raises(DomainError, match="q=4 must be <= 3"):
            SearchSpec(q=4)
        with pytest.raises(DomainError):
            SearchSpec(delta_candidates=(0.5,))
        with pytest.raises(DomainError):
            SearchSpec(objective="nonsense")
        with pytest.raises(DomainError):
            SearchSpec(delta_candidates=())
        spec = SearchSpec(q=np.int64(2), max_sweeps=np.int32(3))
        assert (spec.q, spec.max_sweeps) == (2, 3)

    @pytest.mark.parametrize("name", ["q", "max_sweeps"])
    @pytest.mark.parametrize("value", [1.5, 2.0, True, "2"])
    def test_non_integer_is_rejected(self, name, value):
        # q = 1.5 ran an off-grid search, q = True ran as q = 1 and max_sweeps
        # = 2.5 raised a bare TypeError once the search had started
        with pytest.raises(DomainError, match=re.escape(f"{name}={value!r} must be an integer")):
            SearchSpec(**{name: value})

    def test_repeated_delta_is_rejected(self):
        # a repeated candidate would run its search twice and trace it twice
        with pytest.raises(DomainError, match=r"delta_candidates repeat delta=0\.8$"):
            SearchSpec(delta_candidates=(0.8, 0.9, 0.8))
        # an inadmissible value is named first, wherever the repeat is
        with pytest.raises(DomainError, match="delta=0.5 violates"):
            SearchSpec(delta_candidates=(0.9, 0.9, 0.5))


class TestFastpathEquivalence:
    @pytest.mark.parametrize("objective", ["loglik", "msse_distance"])
    def test_matches_reference_pipeline(self, stationary_ys2, objective):
        base = ModelConfig(delta=0.8, phi=1.0, omega=np.eye(2))
        zs = [np.array([0.3, 0.6]), np.array([0.5, 0.5]), np.array([0.85, 0.15])]
        omegas = np.array([np.diag(z / (1 - z)) for z in zs])
        fast = evaluate_candidates(stationary_ys2, base, 0.8, omegas, objective)
        from dataclasses import replace
        for idx, z in enumerate(zs):
            config = replace(base, omega=np.diag(z / (1 - z)))
            if objective == "loglik":
                ref = loglik_at_filter_path(stationary_ys2, config).total
            else:
                records, _ = filter_run(stationary_ys2, config, compute_loglik=False)
                ref = -float(np.linalg.norm(perf_metrics(records).msse - 1.0))
            assert fast[idx] == pytest.approx(ref, rel=1e-9, abs=1e-9)

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_failed_candidate_is_minus_inf(self, stationary_ys2):
        # a wildly non-PD "omega" cannot occur via z, but a candidate that
        # degenerates numerically must come back as -inf, not raise
        base = ModelConfig(delta=0.8, phi=1.0, omega=np.eye(2))
        omegas = np.array([np.diag([1e308, 1e308]), np.eye(2)])
        out = evaluate_candidates(stationary_ys2, base, 0.8, omegas, "loglik")
        assert out[0] == -np.inf
        assert np.isfinite(out[1])

    def test_failed_setup_is_minus_inf_on_an_empty_series(self):
        # a non-PD or non-finite Omega fails its candidate before the first
        # step, so it scores -inf on a series of no steps too
        base = ModelConfig(delta=0.9, phi=1.0, omega=np.eye(2))
        omegas = np.array([np.eye(2), -np.eye(2), np.diag([1.0, np.nan])])
        for n in (0, 1):
            out = evaluate_candidates(np.full((n, 2), 0.01), base, 0.9, omegas, "loglik")
            assert np.isfinite(out[0]) and (n or out[0] == 0.0)
            assert out[1] == out[2] == -np.inf, (n, out)

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.parametrize("p", [2, 3, 8])
    @pytest.mark.parametrize("objective", ["loglik", "msse_distance"])
    def test_failed_candidate_stays_in_its_candidate(self, p, objective):
        # at p >= 3 LAPACK raises for a whole stack holding one non-finite
        # matrix, and p = 2 runs a closed form; either way the failure must
        # stay with the candidate that caused it
        ys = 0.1 * np.random.default_rng(p).standard_normal((50, p))
        base = ModelConfig(delta=0.8, phi=1.0, omega=np.eye(p))
        omegas = np.array([1e308 * np.eye(p), np.eye(p)])
        out = evaluate_candidates(ys, base, 0.8, omegas, objective)
        assert out[0] == -np.inf
        assert out[1] == evaluate_candidates(ys, base, 0.8, omegas[1:], objective)[0]
        assert np.isfinite(out[1])

    _count_decompositions = staticmethod(count_decompositions)

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.parametrize("objective", ["loglik", "msse_distance"])
    def test_failed_candidate_does_not_repeat_decompositions(self, monkeypatch, objective):
        # a failed candidate is restarted at its block's end, so it costs the
        # pass no extra decomposition
        p = 3
        ys = 0.3 * np.random.default_rng(3).standard_normal((300, p))
        base = ModelConfig(delta=0.8, phi=1.0, omega=np.eye(p))
        omegas = np.array([np.diag(np.linspace(0.2, 2.0, p)) * (1.0 + 0.1 * i)
                           for i in range(20)])
        filter_init(base)  # the search starts from it: builds base's cached setup uncounted
        counts = self._count_decompositions(monkeypatch)
        finite = evaluate_candidates(ys, base, 0.8, omegas, objective)
        finite_counts = dict(counts)
        bad = omegas.copy()
        bad[7] = 1e308 * np.eye(p)
        counts.update(dict.fromkeys(counts, 0))
        out = evaluate_candidates(ys, base, 0.8, bad, objective)
        assert counts == finite_counts
        assert out[7] == -np.inf
        np.testing.assert_array_equal(np.delete(out, 7), np.delete(finite, 7))
        for i in np.flatnonzero(np.arange(20) != 7):
            assert out[i] == evaluate_candidates(ys, base, 0.8, omegas[i:i + 1], objective)[0]

    @pytest.mark.parametrize("objective", ["loglik", "msse_distance"])
    def test_candidate_failing_mid_pass_does_not_repeat_decompositions(self, monkeypatch,
                                                                       objective):
        # a 4e7 shock at t = 151 leaves S_t^* numerically singular for the
        # smaller discount factors only; they cost the pass no extra
        # decomposition, and the others keep their bits
        p = 3
        calm = 0.3 * np.random.default_rng(3).standard_normal((300, p))
        ys = calm.copy()
        ys[150] = 4e7 * np.array([0.6, 0.8, 0.0])
        base = ModelConfig(delta=0.8, phi=1.0, omega=np.eye(p))
        deltas = np.array([0.7, 0.8, 0.9, 0.95, 0.99])
        omegas = np.broadcast_to(np.eye(p), (5, p, p))
        filter_init(base)  # the search starts from it: builds base's cached setup uncounted
        counts = self._count_decompositions(monkeypatch)
        assert np.all(np.isfinite(evaluate_candidates(calm, base, deltas, omegas, objective)))
        finite_counts = dict(counts)
        counts.update(dict.fromkeys(counts, 0))
        out = evaluate_candidates(ys, base, deltas, omegas, objective)
        assert counts == finite_counts
        assert np.all(out[:3] == -np.inf)
        for i in (3, 4):
            assert out[i] == evaluate_candidates(ys, base, deltas[i], omegas[i:i + 1],
                                                 objective)[0]
        assert np.all(np.isfinite(out[3:]))

    def test_p2_makes_no_lapack_eigen_call(self, monkeypatch, stationary_ys2):
        # at p = 2 every eigendecomposition, of a stack or of one matrix, is
        # stacked_eigh's closed form
        base = ModelConfig(delta=0.8, phi=1.0, omega=np.diag([0.5, 1.5]))
        omegas = np.array([np.diag([0.5, 1.5]) * (1.0 + 0.1 * i) for i in range(5)])
        counts = self._count_decompositions(monkeypatch)
        filter_run(stationary_ys2, base)
        evaluate_candidates(stationary_ys2, base, 0.8, omegas, "loglik")
        assert counts["eigh"] == counts["eigvalsh"] == 0


class TestSingleKernel:
    @pytest.mark.parametrize("modes", [("plain", "forecast_cov"),
                                       ("phi_scaled", "posterior_st")])
    @pytest.mark.parametrize("p, n_steps, dense", [(p, 120, False) for p in (1, 2, 3)]
                             + [(p, 2 * _BLOCK + 3, False) for p in (1, 2, 3)]
                             + [(3, 120, True)],
                             ids=["1", "2", "3", "1-blocks", "2-blocks", "3-blocks", "3-dense"])
    def test_one_candidate_equals_filter_path_exactly(self, p, n_steps, dense, modes):
        # the search and the filter run the same recursion and sum the same
        # terms in the same order, so the values agree bit for bit, also
        # across the recursion's time blocks and for an Omega whose
        # eigenvectors (which also give Q) are not the axes
        omega = (random_spd(np.random.default_rng(12), p) if dense
                 else np.diag(np.linspace(0.5, 1.5, p)))
        config = ModelConfig(delta=0.85, phi=0.9, omega=omega,
                             forecast_mean_mode=modes[0], standardization_mode=modes[1])
        # simulated at delta = 0.95: a 515-step path at 0.85 leaves the
        # numerically tame range of the generative model
        ys = simulate_path(np.random.default_rng(p), replace(config, delta=0.95),
                           n_steps=n_steps).ys
        out = evaluate_candidates(ys, config, config.delta, config.omega[None], "loglik")
        assert out[0] == loglik_at_filter_path(ys, config).total


class TestNonFiniteObservations:
    """A NaN or infinite observation is an input error naming its step at every
    entry point; finite shocks stay numerical failures (see the 1e200, 4e7 and
    1e40 shock tests)."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("p", [1, 2, 3, 8])
    def test_rejected_with_its_step(self, p, bad):
        config = ModelConfig(delta=0.9, phi=1.0, omega=np.eye(p))
        ys = 0.1 * np.random.default_rng(p).standard_normal((10 * p, p))
        ys[6, p - 1] = bad
        match = r"t=7: observation \[.*\] is not finite"
        with pytest.raises(DomainError, match=match):
            filter_run(ys, config)
        _, state = filter_run(ys[:6], config)
        with pytest.raises(DomainError, match=match):
            filter_step(state, ys[6], config)
        with pytest.raises(DomainError, match=match):
            evaluate_candidates(ys, config, 0.9, np.eye(p)[None])
        with pytest.raises(DomainError, match=match):
            coordinate_search(ys, config, SearchSpec(q=1, delta_candidates=(0.9,)))


def _record_bits(run, state):
    """Every value ``filter_run`` returns, as comparable bits."""
    arrays = [getattr(state, f.name) for f in dataclasses.fields(FilterState)] + [state.P]
    return run.tobytes(), [(np.shape(a), np.asarray(a).tobytes()) for a in arrays]


def _shocked_stack(p=3, n=300, size=5):
    """A calm series, the same with a 4e7 shock at t = 151, and ``size``
    candidates cycling through five discount factors: the shock fails the
    smaller ones mid-pass (see the repeated-decompositions test above)."""
    calm = 0.3 * np.random.default_rng(3).standard_normal((n, p))
    ys = calm.copy()
    ys[150] = 4e7 * np.array([0.6, 0.8, 0.0])[:p]
    deltas = np.resize([0.7, 0.8, 0.9, 0.95, 0.99], size)
    omegas = np.array([np.diag(np.linspace(0.2, 2.0, p)) * (1.0 + 0.05 * i)
                       for i in range(size)])
    return calm, ys, ModelConfig(delta=0.8, phi=1.0, omega=np.eye(p)), deltas, omegas


class TestBlockLayout:
    # (_BLOCK, _MIN_STEPS): 1-step blocks everywhere; blocks that split the
    # series unevenly; one block for the whole series
    LAYOUTS = [(1, 1), (37, 5), (10, 7), (100, 13), (10_000, 1)]

    @pytest.mark.parametrize("modes", [("plain", "forecast_cov"),
                                       ("phi_scaled", "posterior_st")])
    def test_outputs_do_not_depend_on_block_layout(self, monkeypatch, modes):
        config = ModelConfig(delta=0.85, phi=0.9, omega=random_spd(np.random.default_rng(5), 3),
                             forecast_mean_mode=modes[0], standardization_mode=modes[1])
        ys = 0.3 * np.random.default_rng(6).standard_normal((301, 3))
        _, shocked, _, deltas, omegas = _shocked_stack(size=6)
        base = replace(config, omega=np.eye(3))

        def outputs():
            return (_record_bits(*filter_run(ys, config)),
                    _record_bits(*filter_run(ys, config, compute_loglik=False)),
                    [evaluate_candidates(shocked, base, deltas, omegas, objective).tobytes()
                     for objective in ("loglik", "msse_distance")])

        expected = outputs()
        for block, min_steps in self.LAYOUTS:
            monkeypatch.setattr(seqvol.filtering, "_BLOCK", block)
            monkeypatch.setattr(seqvol.filtering, "_MIN_STEPS", min_steps)
            assert outputs() == expected, (block, min_steps)


class TestBigStack:
    @pytest.mark.parametrize("objective", ["loglik", "msse_distance"])
    def test_member_equals_itself_alone(self, objective):
        # 40 candidates get _MIN_STEPS-step blocks, not _BLOCK // 40 steps,
        # over a series of many such blocks; a member alone runs _BLOCK-step
        # blocks. Some candidates fail at the shock, and only there
        size, n = 40, 300
        assert _BLOCK // size < _MIN_STEPS and n >= 3 * _MIN_STEPS
        calm, ys, base, deltas, omegas = _shocked_stack(n=n, size=size)
        assert np.all(np.isfinite(evaluate_candidates(calm, base, deltas, omegas, objective)))
        out = evaluate_candidates(ys, base, deltas, omegas, objective)
        for i in range(size):
            alone = evaluate_candidates(ys, base, deltas[i], omegas[i:i + 1], objective)
            assert out[i].tobytes() == alone.tobytes(), i
        assert np.isinf(out).any() and np.isfinite(out).any()


class TestFailureAtBlockEdges:
    # 32 candidates run 8-step blocks; the first shock fails some candidates at
    # t = 81, the first step of a block, the second fails others at t = 160,
    # the last step of a block. Each block flags them from its spectra, and
    # restarts them from the start state at its end
    @staticmethod
    def _failed(ys, base, deltas, omegas):
        """The ``failed`` flags, time first, and the end state's ``m`` and ``S``."""
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            blocks = list(_recursion(ys, _Setup(base, deltas, omegas), filter_init(base),
                                     set()))
        return np.concatenate([block.failed for block in blocks]), blocks[-1].m, blocks[-1].S

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.parametrize("p, shocks", [(2, (3e7, 1e8)), (3, (2e7, 4e7))])
    @pytest.mark.parametrize("objective", ["loglik", "msse_distance"])
    def test_members_fail_alone_and_stay_failed(self, monkeypatch, p, shocks, objective):
        size, n = 32, 200
        assert max(_MIN_STEPS, _BLOCK // size) == 8
        calm, _, base, deltas, omegas = _shocked_stack(p=p, n=n, size=size)
        ys = calm.copy()
        for t, shock in zip((81, 160), shocks):
            ys[t - 1] = shock * np.array([0.6, 0.8, 0.0])[:p]
        failed, m, s = self._failed(ys, base, deltas, omegas)
        first = np.where(failed.any(axis=0), np.argmax(failed, axis=0) + 1, 0)
        assert {81, 160} <= set(first.tolist()) and 0 in first
        for i in range(size):
            assert (failed[:, i] == (np.arange(1, n + 1) >= (first[i] or n + 1))).all(), i
            alone, m_alone, s_alone = self._failed(ys, base, deltas[i:i + 1], omegas[i:i + 1])
            np.testing.assert_array_equal(failed[:, i], alone[:, 0])
            np.testing.assert_array_equal(m[i], m_alone[0])
            np.testing.assert_array_equal(s[i], s_alone[0])
        assert (m[first > 0] == base.m0).all() and (s[first > 0] == base.s0).all()
        counts = TestFastpathEquivalence._count_decompositions(monkeypatch)
        assert np.all(np.isfinite(evaluate_candidates(calm, base, deltas, omegas, objective)))
        calm_counts = dict(counts)
        counts.update(dict.fromkeys(counts, 0))
        out = evaluate_candidates(ys, base, deltas, omegas, objective)
        # at p = 2 the restarts take the start row's S and S^* spectra, once a pass
        extra = {"eigh2": 1, "eigh2 matrices": 2 * size} if p == 2 else {}
        assert counts == {name: n + extra.get(name, 0) for name, n in calm_counts.items()}
        assert np.all(out[first > 0] == -np.inf)
        for i in np.flatnonzero(first == 0):
            alone = evaluate_candidates(ys, base, deltas[i], omegas[i:i + 1], objective)
            assert out[i].tobytes() == alone.tobytes(), i


class TestBlockReads:
    @pytest.fixture
    def terms_calls(self, monkeypatch):
        calls = []
        real = seqvol.likelihood.terms_from_spectra

        def counting(*args):
            calls.append(args[0].shape[0])  # the block's steps
            return real(*args)

        monkeypatch.setattr(seqvol.likelihood, "terms_from_spectra", counting)
        return calls

    def test_terms_evaluated_only_when_read(self, terms_calls, stationary_ys2):
        n = len(stationary_ys2)
        base = ModelConfig(delta=0.8, phi=1.0, omega=np.eye(2))
        filter_run(stationary_ys2, base, compute_loglik=False)
        omegas = np.array([np.diag([0.5, 1.5]) * (1.0 + 0.01 * i) for i in range(198)])
        evaluate_candidates(stationary_ys2, base, 0.8, omegas, "msse_distance")
        assert terms_calls == []
        evaluate_candidates(stationary_ys2, base, 0.8, omegas, "loglik")
        size = max(_MIN_STEPS, _BLOCK // 198)
        assert terms_calls == [min(size, n - lo) for lo in range(0, n, size)]
        terms_calls.clear()
        filter_run(stationary_ys2, base)
        assert terms_calls == [n]


class TestSearchMemory:
    def test_peak_allocation_of_one_pass(self):
        # one search_p2-sized pass: 198 candidates (two grid lines of 99), p = 2,
        # 1500 steps. The bound, 2 MiB, was fixed before the first run
        rng = np.random.default_rng(9)
        log_vol = np.cumsum(0.05 * rng.standard_normal(1500))
        ys = (np.exp(log_vol - log_vol.mean())[:, None] * rng.standard_normal((1500, 2))
              @ np.linalg.cholesky(np.array([[1.0, 0.5], [0.5, 1.0]])).T)
        grid = np.arange(1, 100) / 100.0
        zs = np.array([[g, 0.5] for g in grid] + [[0.5, g] for g in grid])
        omegas = np.array([z_to_omega(z) for z in zs])
        deltas = np.repeat([0.9, 0.95], 99)
        base = ModelConfig(delta=0.9, phi=1.0, omega=np.eye(2))
        evaluate_candidates(ys[:50], base, deltas, omegas, "loglik")  # lazy set-up
        tracemalloc.start()
        try:
            out = evaluate_candidates(ys, base, deltas, omegas, "loglik")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.all(np.isfinite(out))
        assert peak < 2 * 2**20, peak


class TestFastpathMasking:
    def test_extreme_shock_fails_every_candidate_quietly(self, caplog):
        # one 1e40 shock leaves S_t numerically singular for every candidate:
        # the filter refuses each one, so the stacked pass must mask them all
        # rather than let one non-PD matrix abort the stacked Cholesky
        ys = 0.01 * np.random.default_rng(0).standard_normal((120, 2))
        ys[60] = 1e40 * np.array([math.cos(0.3), math.sin(0.3)])
        base = ModelConfig(delta=0.8, phi=1.0, omega=np.eye(2))
        omegas = np.array([np.diag([0.3, 1.0]), np.eye(2), np.diag([50.0, 0.01])])
        for omega in omegas:
            with pytest.raises(SeqvolError):
                loglik_at_filter_path(ys, replace(base, omega=omega))
        with caplog.at_level(logging.DEBUG), warnings.catch_warnings():
            warnings.simplefilter("error")
            for objective in ("loglik", "msse_distance"):
                out = evaluate_candidates(ys, base, 0.8, omegas, objective)
                assert np.all(out == -np.inf), (objective, out)
        assert caplog.records == []


class TestPerCandidateDelta:
    @pytest.mark.parametrize("objective", ["loglik", "msse_distance"])
    def test_mixed_deltas_equal_single_delta_calls(self, stationary_ys2, objective):
        base = ModelConfig(delta=0.8, phi=1.0, omega=np.eye(2))
        zs = np.array([[0.3, 0.6], [0.5, 0.5], [0.85, 0.15], [0.1, 0.9]])
        omegas = np.array([np.diag(z / (1 - z)) for z in zs])
        deltas = np.array([0.75, 0.9, 0.75, 0.95])
        mixed = evaluate_candidates(stationary_ys2, base, deltas, omegas, objective)
        for d in np.unique(deltas):
            sel = deltas == d
            alone = evaluate_candidates(stationary_ys2, base, d, omegas[sel], objective)
            np.testing.assert_array_equal(mixed[sel], alone)
        assert np.all(np.isfinite(mixed))


def _trace_bits(trace):
    return [(e.delta, e.z, e.coordinate, e.sweep, e.objective.hex(), e.accepted)
            for e in trace]


class TestLockstep:
    def test_equals_each_delta_searched_alone(self, drifting_ys2):
        base = ModelConfig(delta=0.8, phi=1.0, omega=np.eye(2))
        spec = SearchSpec(q=1, delta_candidates=(0.8, 0.9), max_sweeps=10)
        z, delta, trace = coordinate_search(drifting_ys2, base, spec)
        alone = [coordinate_search(drifting_ys2, base,
                                   replace(spec, delta_candidates=(d,)))
                 for d in spec.delta_candidates]
        # the two discount factors stop at different sweeps, so the first
        # leaves the lockstep while the second still moves
        assert [max(e.sweep for e in t) for _, _, t in alone] == [2, 3]
        assert _trace_bits(trace) == _trace_bits(alone[0][2] + alone[1][2])
        z_best, d_best, _ = max(alone, key=lambda r: max(e.objective for e in r[2]
                                                         if e.accepted))
        np.testing.assert_array_equal(z, z_best)
        assert delta == d_best
        z2, d2, t2 = coordinate_search(drifting_ys2, base, spec, jobs=2)
        np.testing.assert_array_equal(z, z2)
        assert (delta, _trace_bits(trace)) == (d2, _trace_bits(t2))

    def test_failed_start_keeps_only_initial_entry(self, drifting_ys2, monkeypatch):
        real = seqvol.search.evaluate_candidates

        def start_fails_at_08(ys, base_config, deltas, omegas, objective):
            out = real(ys, base_config, deltas, omegas, objective)
            out[np.asarray(deltas) == 0.8] = -np.inf
            return out

        base = ModelConfig(delta=0.8, phi=1.0, omega=np.eye(2))
        spec = SearchSpec(q=1, delta_candidates=(0.8, 0.9), max_sweeps=10)
        _, _, alone = coordinate_search(drifting_ys2, base,
                                        replace(spec, delta_candidates=(0.9,)))
        monkeypatch.setattr(seqvol.search, "evaluate_candidates", start_fails_at_08)
        _, delta, trace = coordinate_search(drifting_ys2, base, spec)
        assert trace[0] == TraceEntry(0.8, (0.5, 0.5), None, 0, -np.inf, True)
        assert _trace_bits(trace[1:]) == _trace_bits(alone)
        assert delta == 0.9

    def test_one_evaluator_call_per_coordinate(self, drifting_ys2, monkeypatch):
        calls = []
        real = seqvol.search.evaluate_candidates

        def counting(*args, **kwargs):
            calls.append(len(args[3]))
            return real(*args, **kwargs)

        monkeypatch.setattr(seqvol.search, "evaluate_candidates", counting)
        base = ModelConfig(delta=0.8, phi=1.0, omega=np.eye(2))
        spec = SearchSpec(q=1, delta_candidates=(0.8, 0.9), max_sweeps=1)
        coordinate_search(drifting_ys2, base, spec, jobs=1)
        # start points and both lines of coordinate 0, then both lines of
        # coordinate 1 less the points already evaluated
        assert len(calls) == 2
        assert calls == [18, 16]


class TestCoordinateSearch:
    def test_p1_equals_brute_force(self, stationary_ys):
        base = ModelConfig(delta=0.75, phi=1.0, omega=np.eye(1))
        spec = SearchSpec(q=1, delta_candidates=(0.75,), max_sweeps=5)
        z, delta, trace = coordinate_search(stationary_ys, base, spec)
        grid = np.arange(1, 10) / 10.0
        omegas = np.array([[[g / (1 - g)]] for g in grid])
        vals = evaluate_candidates(stationary_ys, base, 0.75, omegas, "loglik")
        assert z[0] == pytest.approx(grid[np.argmax(vals)])
        assert delta == 0.75

    def test_p2_is_coordinatewise_maximal(self, stationary_ys2):
        # coordinate ascent guarantees a coordinatewise maximum of the grid
        # (the global 2-D argmax is not promised); verify that property and
        # that the search value never exceeds the exhaustive maximum
        base = ModelConfig(delta=0.8, phi=1.0, omega=np.eye(2))
        spec = SearchSpec(q=1, delta_candidates=(0.8,), max_sweeps=8)
        z, _, trace = coordinate_search(stationary_ys2, base, spec)
        searched = max(e.objective for e in trace if e.accepted)
        grid = np.arange(1, 10) / 10.0
        for coord in range(2):
            rows = []
            for g in grid:
                cand = z.copy()
                cand[coord] = g
                rows.append(np.diag(cand / (1 - cand)))
            vals = evaluate_candidates(stationary_ys2, base, 0.8,
                                       np.array(rows), "loglik")
            assert searched >= np.max(vals) - 1e-9
        combos = list(itertools.product(grid, grid))
        omegas = np.array([np.diag([a / (1 - a), b / (1 - b)]) for a, b in combos])
        all_vals = evaluate_candidates(stationary_ys2, base, 0.8, omegas, "loglik")
        assert searched <= float(np.max(all_vals)) + 1e-9

    def test_trace_monotone_on_accepted_moves(self, stationary_ys):
        base = ModelConfig(delta=0.75, phi=1.0, omega=np.eye(1))
        spec = SearchSpec(q=2, delta_candidates=(0.75,), max_sweeps=5)
        _, _, trace = coordinate_search(stationary_ys, base, spec)
        accepted = [e.objective for e in trace if e.accepted]
        assert all(b >= a - 1e-12 for a, b in zip(accepted, accepted[1:]))

    def test_delta_order_invariance(self, stationary_ys):
        base = ModelConfig(delta=0.75, phi=1.0, omega=np.eye(1))
        spec_a = SearchSpec(q=1, delta_candidates=(0.7, 0.8), max_sweeps=4)
        spec_b = SearchSpec(q=1, delta_candidates=(0.8, 0.7), max_sweeps=4)
        za, da, _ = coordinate_search(stationary_ys, base, spec_a)
        zb, db, _ = coordinate_search(stationary_ys, base, spec_b)
        assert da == db
        np.testing.assert_array_equal(za, zb)

    def test_needs_enough_observations(self, rng):
        base = ModelConfig(delta=0.75, phi=1.0, omega=np.eye(2))
        with pytest.raises(DomainError):
            coordinate_search(0.01 * rng.standard_normal((15, 2)), base,
                              SearchSpec(q=1, delta_candidates=(0.75,)))

    @pytest.mark.parametrize("columns", [1, 3])
    def test_series_of_wrong_width(self, columns):
        base = ModelConfig(delta=0.8, phi=1.0, omega=np.eye(2))
        ys = 0.01 * np.random.default_rng(4).standard_normal((40, columns))
        with pytest.raises(DimensionMismatch):
            coordinate_search(ys, base, SearchSpec(q=1, delta_candidates=(0.8,)))
        with pytest.raises(DimensionMismatch):
            filter_run(ys, base)

    def test_msse_objective_runs(self, stationary_ys):
        base = ModelConfig(delta=0.75, phi=1.0, omega=np.eye(1))
        spec = SearchSpec(q=1, delta_candidates=(0.75,), max_sweeps=3,
                          objective="msse_distance")
        z, delta, trace = coordinate_search(stationary_ys, base, spec)
        assert 0.0 < z[0] < 1.0
        assert len(trace) >= 9
