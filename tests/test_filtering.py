import dataclasses
import gc
import math
import time
import tracemalloc
import weakref

import numpy as np
import pytest

from seqvol.errors import (
    DimensionMismatch,
    DomainError,
    FilterNumericalError,
    NotPositiveDefinite,
)
import seqvol.filtering
from seqvol.filtering import (
    _BLOCK,
    _CHECK,
    FilterState,
    ModelConfig,
    _recursion,
    _Setup,
    _step2,
    beta_dof_m,
    discount_k,
    filter_init,
    filter_run,
    filter_step,
    limit_P,
    steady_Q,
)
from seqvol.gwishart import giw_estimate, giw_estimator
from seqvol.likelihood import loglik_constant, loglik_from_records, perf_metrics
from seqvol.linalg import _ARRAY_OPS, _FLOAT_OPS, spd_inverse, sym
from seqvol.simulate import simulate_path

from conftest import (count_decompositions, iterate_P_to_convergence, p_recursion_step,
                      random_spd)
from scalar_oracle import run_scalar_pipeline


class TestDiscountConstants:
    def test_scalar_case(self):
        assert discount_k(0.7, 1) == pytest.approx(1.0 / 0.7, rel=1e-12)

    def test_p8_case(self):
        assert discount_k(0.7, 8) == pytest.approx(3.1 / 2.8, rel=1e-12)

    def test_limit_toward_one(self):
        for p in (1, 3, 8):
            assert discount_k(1 - 1e-9, p) == pytest.approx(1.0, abs=1e-6)
            assert discount_k(1 - 1e-9, p) > 1.0

    def test_always_above_one(self):
        for delta in (0.67, 0.7, 0.85, 0.99):
            if delta <= 2 / 3:
                continue
            for p in (1, 2, 5, 20):
                assert discount_k(delta, p) > 1.0

    def test_domain(self):
        with pytest.raises(DomainError):
            discount_k(0.5, 2)
        with pytest.raises(DomainError):
            discount_k(1.0, 2)

    def test_beta_dof(self):
        assert beta_dof_m(0.7, 1) == pytest.approx(7.0 / 3.0, rel=1e-12)
        for p in (1, 3, 7):
            assert beta_dof_m(0.5, p) == pytest.approx(float(p), rel=1e-12)
            assert beta_dof_m(0.9, p) > p - 1


class TestModelConfig:
    def test_delta_bound_message(self, rng):
        with pytest.raises(DomainError, match="2/3"):
            ModelConfig(delta=0.5, phi=1.0, omega=np.eye(2))

    def test_validation(self, rng):
        with pytest.raises(DomainError):
            ModelConfig(delta=0.7, phi=1.0, omega=np.eye(2), p0=0.0)
        with pytest.raises(NotPositiveDefinite):
            ModelConfig(delta=0.7, phi=1.0, omega=np.diag([1.0, 0.0]))
        with pytest.raises(DomainError):
            ModelConfig(delta=0.7, phi=1.0, omega=np.eye(2),
                        forecast_mean_mode="bogus")
        with pytest.raises(DimensionMismatch):
            ModelConfig(delta=0.7, phi=1.0, omega=np.eye(2), m0=np.zeros(3))
        with pytest.raises(DimensionMismatch, match="omega is empty"):
            ModelConfig(delta=0.7, phi=1.0, omega=np.zeros((0, 0)))

    @pytest.mark.parametrize("change, message", [
        ({"phi": math.nan}, "phi=nan must be finite"),
        ({"phi": math.inf}, "phi=inf must be finite"),
        ({"p0": math.nan}, "p0=nan must be positive and finite"),
        ({"p0": math.inf}, "p0=inf must be positive and finite"),
        ({"m0": np.array([0.0, math.nan])}, r"m0=\[0.0, nan\] must be finite"),
        ({"m0": np.array([-math.inf, 0.0])}, r"m0=\[-inf, 0.0\] must be finite"),
    ], ids=["phi-nan", "phi-inf", "p0-nan", "p0-inf", "m0-nan", "m0-inf"])
    def test_non_finite_values_rejected(self, change, message):
        kwargs = {"delta": 0.7, "phi": 1.0, "omega": np.eye(2), **change}
        with pytest.raises(DomainError, match=message):
            ModelConfig(**kwargs)

    def test_defaults(self):
        config = ModelConfig(delta=0.7, phi=1.0, omega=np.eye(2))
        np.testing.assert_array_equal(config.m0, np.zeros(2))
        np.testing.assert_array_equal(config.s0, np.eye(2))
        assert config.p0 == 1000.0
        assert config.posterior_dof == pytest.approx(1 / 0.3 + 4)

    def test_frozen_arrays(self):
        # the config caches its setup, so its arrays are its own and read-only
        m0, omega, s0 = np.array([1.0, -2.0]), np.diag([0.5, 1.5]), np.diag([2.0, 4.0])
        config = ModelConfig(delta=0.8, phi=1.0, omega=omega, m0=m0, s0=s0)
        q = steady_Q(config)
        m0[0], omega[0, 0], s0[0, 0] = 9.0, 9.0, 9.0
        np.testing.assert_array_equal(config.m0, [1.0, -2.0])
        np.testing.assert_array_equal(config.omega, np.diag([0.5, 1.5]))
        np.testing.assert_array_equal(config.s0, np.diag([2.0, 4.0]))
        for name in ("omega", "m0", "s0"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(config, name)[0] = 0.0
        q[0, 0] = 9.0  # steady_Q hands out a copy, not the cached Q
        assert steady_Q(config)[0, 0] != 9.0


class TestLimitP:
    def test_phi_zero(self, rng):
        omega = random_spd(rng, 3)
        expected = omega @ np.linalg.inv(omega + np.eye(3))
        np.testing.assert_allclose(limit_P(0.0, omega), expected, atol=1e-12)

    def test_golden_ratio(self):
        expected = (math.sqrt(5.0) - 1.0) / 2.0
        np.testing.assert_allclose(limit_P(1.0, np.eye(3)),
                                   expected * np.eye(3), atol=1e-12)

    def test_vanishing_omega(self):
        out = limit_P(1.0, 1e-12 * np.eye(2))
        assert np.max(np.abs(out)) < 1e-5

    def test_commutes_with_omega(self, rng):
        omega = random_spd(rng, 4)
        p_lim = limit_P(0.8, omega)
        assert np.max(np.abs(p_lim @ omega - omega @ p_lim)) < 1e-10

    def test_spectrum_in_unit_interval(self, rng):
        for phi in (0.0, 0.5, 1.0, 1.5):
            eigs = np.linalg.eigvalsh(limit_P(phi, random_spd(rng, 3)))
            assert np.all(eigs > 0) and np.all(eigs < 1)

    def test_rejects_singular_omega(self):
        with pytest.raises(NotPositiveDefinite):
            limit_P(1.0, np.diag([1.0, 0.0]))


class TestSteadyQ:
    def test_phi_zero_identity_omega(self):
        config = ModelConfig(delta=0.7, phi=0.0, omega=np.eye(2))
        np.testing.assert_allclose(steady_Q(config), 2.5 * np.eye(2), atol=1e-12)

    def test_vanishing_omega_limit(self):
        config = ModelConfig(delta=0.7, phi=1.0, omega=1e-10 * np.eye(2))
        np.testing.assert_allclose(steady_Q(config), np.eye(2), atol=1e-4)

    def test_q_minus_omega_minus_identity_in_unit_interval(self, rng):
        omega = random_spd(rng, 3)
        config = ModelConfig(delta=0.75, phi=1.0, omega=omega)
        p_part = steady_Q(config) - omega - np.eye(3)
        eigs = np.linalg.eigvalsh(p_part)
        assert np.all(eigs > 0) and np.all(eigs < 1)

    @pytest.mark.parametrize("phi", [0.0, 0.9, 1.0])
    @pytest.mark.parametrize("p", [2, 3, 8])
    def test_spectral_form_equals_matrix_sum(self, p, phi):
        # a Q rebuilt from its spectrum, V diag(lam(w) + w + 1) V', misses this
        # bound at p = 8 (7.1 eps of max|Q| here); the matrix sum is closer to Q
        omega = random_spd(np.random.default_rng(p), p)
        q = steady_Q(ModelConfig(delta=0.8, phi=phi, omega=omega))
        direct = limit_P(phi, omega) + omega + np.eye(p)
        assert np.abs(q - direct).max() <= 4 * np.finfo(float).eps * np.abs(q).max()


class TestIterateP:
    def test_agrees_with_closed_form(self, rng):
        for phi in (0.0, 0.5, 1.0, 1.5):
            omega = random_spd(rng, 3, eig_low=0.05, eig_high=3.0)
            direct = limit_P(phi, omega)
            iterated = iterate_P_to_convergence(phi, omega, p0=1000.0, tol=1e-14)
            assert np.max(np.abs(direct - iterated)) < 1e-10

    def test_phi_zero_one_step(self, rng):
        omega = random_spd(rng, 2)
        out = iterate_P_to_convergence(0.0, omega, p0=5.0, max_iter=3)
        np.testing.assert_allclose(out, limit_P(0.0, omega), atol=1e-12)

    def test_monotone_in_inverse_ordering(self, rng):
        # successive P_t^{-1} differences keep a constant sign (here P0 large
        # so P_t decreases, P_t^{-1} increases)
        omega = random_spd(rng, 2)
        phi2 = 1.0
        current = 1000.0 * np.eye(2)
        prev_inv = np.linalg.inv(current)
        for _ in range(30):
            r = phi2 * current + omega
            current = np.linalg.solve(r + np.eye(2), r)
            cur_inv = np.linalg.inv(current)
            assert np.all(np.linalg.eigvalsh(cur_inv - prev_inv) > -1e-9)
            prev_inv = cur_inv


@pytest.fixture
def config2():
    return ModelConfig(delta=0.8, phi=1.0, omega=np.diag([0.5, 1.5]))


class TestFilterInit:
    def test_defaults_and_roundtrip(self, config2):
        state = filter_init(config2)
        assert state.t == 0
        np.testing.assert_array_equal(state.m, np.zeros(2))
        np.testing.assert_array_equal(state.P, 1000.0 * np.eye(2))
        np.testing.assert_array_equal(state.S, np.eye(2))
        custom = ModelConfig(delta=0.8, phi=1.0, omega=np.diag([0.5, 1.5]),
                             m0=np.array([1.0, -2.0]), p0=3.0,
                             s0=np.diag([2.0, 4.0]))
        state = filter_init(custom)
        np.testing.assert_array_equal(state.m, [1.0, -2.0])
        np.testing.assert_array_equal(state.S, np.diag([2.0, 4.0]))


class TestFilterStep:
    def test_zero_error_step(self, config2):
        state = filter_init(config2)
        new_state, record = filter_step(state, state.m.copy(), config2)
        np.testing.assert_array_equal(record.e, np.zeros(2))
        np.testing.assert_allclose(new_state.m, state.m, atol=1e-14)
        np.testing.assert_allclose(new_state.S, state.S / config2.k, rtol=1e-14)

    def test_scalar_recursion_matches_oracle(self):
        config = ModelConfig(delta=0.75, phi=1.0, omega=np.array([[0.8]]))
        rng = np.random.default_rng(5)
        ys = rng.standard_normal(60).cumsum() * 0.1
        records, state = filter_run(ys[:, None], config)
        oracle, _ = run_scalar_pipeline(ys, delta=0.75, phi=1.0, omega=0.8)
        for rec, ref in zip(records, oracle):
            assert rec.e[0] == pytest.approx(ref["e"], rel=1e-12, abs=1e-12)
            assert rec.u[0] == pytest.approx(ref["u"], rel=1e-12, abs=1e-12)
            assert rec.s_star[0, 0] == pytest.approx(ref["sigma"], rel=1e-12)
        assert state.m[0] == pytest.approx(oracle[-1]["m"], rel=1e-10, abs=1e-12)

    def test_fixed_point_P_invariance(self):
        lam = (math.sqrt(5.0) - 1.0) / 2.0
        config = ModelConfig(delta=0.8, phi=1.0, omega=np.eye(2), p0=lam)
        rng = np.random.default_rng(0)
        records, state = filter_run(rng.standard_normal((20, 2)), config,
                                    compute_loglik=False)
        np.testing.assert_allclose(state.P, lam * np.eye(2), atol=1e-12)

    def test_phi_scaled_mode(self):
        config = ModelConfig(delta=0.8, phi=0.5, omega=np.eye(1),
                             forecast_mean_mode="phi_scaled", m0=np.array([2.0]))
        state = filter_init(config)
        _, record = filter_step(state, np.array([3.0]), config)
        assert record.e[0] == pytest.approx(3.0 - 0.5 * 2.0)

    def test_posterior_st_mode(self):
        config = ModelConfig(delta=0.8, phi=1.0, omega=np.eye(1),
                             standardization_mode="posterior_st")
        state = filter_init(config)
        y = np.array([1.3])
        new_state, record = filter_step(state, y, config)
        expected = 1.3 / math.sqrt(config.forecast_cov_factor * new_state.S[0, 0])
        assert record.u[0] == pytest.approx(expected, rel=1e-12)

    def test_forecast_distribution_fields(self, config2):
        state = filter_init(config2)
        run, _ = filter_run(np.array([[0.4, -0.2]]), config2)
        np.testing.assert_array_equal(run.scale[0], state.S / config2.k)
        # covariance = scale/(dof-2): the t convention without 1/dof in the
        # kernel, which is what makes the standardized errors unit-variance;
        # the factor that whitens u_t in forecast_cov mode agrees with it
        covariance = config2.forecast_cov_factor * state.S
        np.testing.assert_allclose(covariance, run.scale[0] / (config2.forecast_dof - 2.0),
                                   rtol=1e-12)
        assert np.all(np.linalg.eigvalsh(run.scale[0]) > 0)
        assert np.all(np.linalg.eigvalsh(covariance) > 0)

    def test_dimension_mismatch(self, config2):
        state = filter_init(config2)
        with pytest.raises(DimensionMismatch):
            filter_step(state, np.zeros(3), config2)


class TestStateP:
    """A state holds ``P`` as eigenvalues in its config's Omega eigenbasis;
    a state in any other basis is rejected."""

    @pytest.fixture
    def config(self):
        return ModelConfig(delta=0.8, phi=0.9, omega=np.diag([0.5, 1.5]))

    def test_basis_is_the_configs_read_only_array(self, config):
        _, state = filter_run(0.3 * np.random.default_rng(4).standard_normal((5, 2)), config)
        np.testing.assert_array_equal(state.basis, filter_init(config).basis)
        with pytest.raises(ValueError, match="read-only"):
            state.basis[0, 0] = 0.0  # it is the config's cached setup
        with pytest.raises(AttributeError):
            state.P = np.eye(2)

    def test_state_from_a_reordered_omega_is_rejected(self, config):
        # omega's eigenbasis lists the axes the other way round, so the
        # carried eigenvalues belong to another basis
        y = np.array([0.2, -0.1])
        _, state = filter_run(np.tile(y, (3, 1)), config)
        filter_step(state, y, dataclasses.replace(config, delta=0.9))  # the same basis
        swapped = dataclasses.replace(config, omega=np.diag([1.5, 0.5]))
        with pytest.raises(DomainError, match="not held in this config's Omega eigenbasis"):
            filter_step(state, y, swapped)

    def test_non_commuting_P_rejected(self, config):
        c = math.sqrt(0.5)
        state = dataclasses.replace(filter_init(config), basis=np.array([[c, -c], [c, c]]))
        with pytest.raises(DomainError, match="not held in this config's Omega eigenbasis"):
            filter_step(state, np.zeros(2), config)

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("name", ["m", "S", "p_eigs"])
    def test_misshapen_field_rejected(self, p, name):
        # a field one entry too big is a seqvol error naming it, not numpy's
        config = ModelConfig(delta=0.8, phi=0.9, omega=np.eye(p))
        value = np.eye(p + 1) if name == "S" else np.ones(p + 1)
        state = dataclasses.replace(filter_init(config), **{name: value})
        with pytest.raises(DimensionMismatch, match=f"state {name} has shape"):
            filter_step(state, np.zeros(p), config)

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("name, value, message", [
        ("m", np.nan, "state m is not finite"),
        ("S", np.inf, "state S is not finite"),
        ("p_eigs", np.nan, "state p_eigs is not finite"),
        ("p_eigs", np.inf, "state p_eigs is not finite"),
        ("p_eigs", 0.0, "state p_eigs is not positive"),
        ("p_eigs", -1.0, "state p_eigs is not positive"),
        ("t", -5, "state t=-5 is negative"),
    ], ids=["m-nan", "S-inf", "p_eigs-nan", "p_eigs-inf", "p_eigs-zero", "p_eigs-negative",
            "t-negative"])
    def test_bad_field_value_rejected(self, p, name, value, message):
        # checked before the step, naming the field: a NaN m or p_eigs gave m = NaN
        # with no error, and t = -5 a row with t = -4. An infinite S fails its next
        # step, as any degenerate S does (TestClosedFormStep)
        config = ModelConfig(delta=0.9, phi=1.0, omega=np.eye(p))
        state = filter_init(config)
        if name != "t":  # the field's first entry
            value, bad = getattr(state, name).copy(), value
            value.flat[0] = bad
        state = dataclasses.replace(state, **{name: value})
        error = FilterNumericalError if name == "S" else DomainError
        with pytest.raises(error, match=message) as err:
            filter_step(state, np.full(p, 0.1), config)
        if name == "S":
            assert err.value.t == 1 and isinstance(err.value.cause, DomainError)

    def test_P_of_wrong_shape_rejected(self, config):
        state = filter_init(ModelConfig(delta=0.8, phi=0.9, omega=np.eye(3)))
        with pytest.raises(DimensionMismatch, match="state basis has shape"):
            filter_step(state, np.zeros(2), config)


class TestSetupOnce:
    """A config builds its setup once: an on-line step decomposes only ``S``
    and ``S^*``, before and after its observation (and at ``p = 2`` ``L_t``),
    and a run with its likelihood decomposes Omega once."""

    @staticmethod
    def _count(monkeypatch, omega):
        counts = count_decompositions(monkeypatch, omega)
        counts["slogdet"] = 0

        def slogdet(*args, _call=np.linalg.slogdet, **kwargs):
            counts["slogdet"] += 1
            return _call(*args, **kwargs)
        monkeypatch.setattr(np.linalg, "slogdet", slogdet)
        return counts

    @pytest.mark.parametrize("p", [2, 3, 8])
    def test_online_step(self, monkeypatch, p):
        config = ModelConfig(delta=0.9, phi=1.0, omega=np.diag(np.linspace(0.5, 1.5, p)))
        ys = 0.3 * np.random.default_rng(p).standard_normal((11, p))
        state, _ = filter_step(filter_init(config), ys[0], config)  # warm-up
        counts = self._count(monkeypatch, config.omega)
        for y in ys[1:]:
            counts.update({name: 0 for name in counts})
            state, _ = filter_step(state, y, config)
            assert counts["eigh"] <= 4 and counts["eigvalsh"] <= 1 and counts["slogdet"] == 0
            if p == 2:  # S and S^* before and after y, in one call, then L_t
                assert counts["eigh2"] == 2 and counts["eigh2 matrices"] == 2 * 2 + 1

    @pytest.mark.parametrize("compute_loglik", [True, False], ids=["loglik", "no-loglik"])
    def test_p2_step_loop_takes_no_spectrum(self, monkeypatch, compute_loglik):
        # each block solves the S and S^* of its rows (its start and its steps)
        # once, in one call, and with the likelihood its steps' L_t in another
        config = ModelConfig(delta=0.9, phi=1.0, omega=random_spd(np.random.default_rng(2), 2))
        ys = 0.3 * np.random.default_rng(2).standard_normal((2 * _BLOCK + 10, 2))
        filter_init(config)  # builds the config's setup
        counts = count_decompositions(monkeypatch)
        filter_run(ys, config, compute_loglik=compute_loglik)
        steps = [_BLOCK, _BLOCK, 10]
        assert counts["eigh2"] == (2 if compute_loglik else 1) * len(steps)
        assert counts["eigh2 matrices"] == sum(2 * (n + 1) + compute_loglik * n for n in steps)
        assert counts["eigh"] == counts["eigvalsh"] == 0

    @pytest.mark.parametrize("p", [3, 8])
    def test_run_and_likelihood_decompose_omega_once(self, monkeypatch, p):
        config = ModelConfig(delta=0.9, phi=1.0, omega=random_spd(np.random.default_rng(p), p))
        ys = 0.3 * np.random.default_rng(p).standard_normal((50, p))
        counts = self._count(monkeypatch, config.omega)
        loglik_from_records(filter_run(ys, config)[0], config)
        assert counts["eigh of omega"] == 1 and counts["slogdet"] == 1


class TestPEigenvaluePath:
    """``P_t`` comes from ``omega``'s spectrum: the eigenvalues follow the
    scalar map, which need not reach a fixed point in float64."""

    @pytest.mark.parametrize("n", [1, 10, 2000])
    @pytest.mark.parametrize("phi, omega", [
        (0.9, 0.01 * np.eye(2)),  # the scalar map alternates in the last bit
        (1.0, 1e-4 * np.eye(2)),
        (0.9, random_spd(np.random.default_rng(31), 3)),
    ], ids=["two-cycle", "slow", "dense"])
    def test_run_P_matches_matrix_recursion(self, phi, omega, n):
        config = ModelConfig(delta=0.95, phi=phi, omega=omega)
        ys = 0.3 * np.random.default_rng(n).standard_normal((n, config.p))
        _, state = filter_run(ys, config, compute_loglik=False)
        expected = config.p0 * np.eye(config.p)
        for _ in range(n):
            expected = p_recursion_step(expected, phi, omega)
        assert np.max(np.abs(state.P - expected)) <= 1e-14

    def test_two_cycle_carried_exactly(self):
        # at phi = 0.9, w = 0.01 the eigenvalue map alternates in the last bit
        # for ever, so the filter takes the pair by parity once it repeats;
        # float arithmetic gives the same correctly rounded steps
        config = ModelConfig(delta=0.95, phi=0.9, omega=np.array([[0.01]]))
        ys = 0.3 * np.random.default_rng(6).standard_normal((2002, 1))
        states = [filter_run(ys[:n], config, compute_loglik=False)[1]
                  for n in (2000, 2001, 2002)]
        lam, scalar = 1000.0, []
        for _ in range(2002):
            r = 0.9 * 0.9 * lam + 0.01
            lam = r / (r + 1.0)
            scalar.append(lam)
        assert [float(state.p_eigs[0]) for state in states] == scalar[-3:]
        assert scalar[-1] == scalar[-3] != scalar[-2]


def _stacked_run(ys, base, omegas, deltas=None):
    """Every field of a ``_recursion`` run, time first, its end state and its block sizes.

    The candidates are ``omegas`` with ``deltas``, by default ``base.delta``.
    """
    deltas = np.full(len(omegas), base.delta) if deltas is None else np.asarray(deltas)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        blocks = list(_recursion(ys, _Setup(base, deltas, omegas), filter_init(base),
                                 {"u", "terms"}))
    fields = {name: np.concatenate([getattr(b, name) for b in blocks])
              for name in ("f", "e", "u", "s_star", "s_prev", "failed")}
    fields["terms"] = np.stack([np.concatenate([b.terms[i] for b in blocks])
                                for i in range(4)], axis=-1)
    return fields, [blocks[-1].m, blocks[-1].S, blocks[-1].p_eigs], [len(b.e) for b in blocks]


class TestPCycle:
    """``P_t``'s eigenvalues are mapped per block until the stack's bits repeat
    those of two steps before; from then on each step takes one of the last
    two ``P_t`` by parity. At ``phi = 1``, ``Omega = I`` reaches its fixed
    point after 20 steps and ``w = z / (1 - z)`` at ``z = 0.14`` alternates
    between two doubles; ``phi = 0`` is fixed after one step."""

    W_CYCLE = 0.14 / 0.86
    CONFIGS = [(1.0, np.eye(2)), (1.0, np.diag([W_CYCLE, 1.0])),
               (0.0, np.diag([0.5, 1.0, 2.0]))]
    IDS = ["identity", "two-cycle", "phi-zero"]

    @pytest.mark.parametrize("n", [1, 19, 20, 21, 255, 256, 257, 600])
    @pytest.mark.parametrize("phi, omega", CONFIGS, ids=IDS)
    def test_end_state_equals_scalar_loop(self, phi, omega, n):
        config = ModelConfig(delta=0.95, phi=phi, omega=omega)
        ys = 0.3 * np.random.default_rng(n).standard_normal((n, config.p))
        _, state = filter_run(ys, config, compute_loglik=False)
        expected = []
        for w in config._solo_setup.w[0].tolist():
            lam = config.p0
            for _ in range(n):
                r = phi * phi * lam + w
                lam = r / (r + 1.0)
            expected.append(lam)
        assert state.p_eigs.tolist() == expected

    @pytest.mark.parametrize("phi, bad", [(1.0, np.full((2, 2), np.nan)), (0.0, -np.eye(2))],
                             ids=["nan-omega", "negative-omega"])
    def test_stack_with_failed_member_equals_solo_runs(self, phi, bad):
        # the failed member's P_t eigenvalues are NaN or -inf; the stack still
        # reaches its periodic point, and each healthy member its own values
        base = ModelConfig(delta=0.9, phi=phi, omega=np.eye(2))
        omegas = np.array([np.eye(2), np.diag([self.W_CYCLE, 1.0]), bad, np.diag([0.5, 2.0])])
        ys = 0.3 * np.random.default_rng(4).standard_normal((600, 2))
        fields, end, _ = _stacked_run(ys, base, omegas)
        assert fields["failed"][:, 2].all() and not fields["failed"][:, [0, 1, 3]].any()
        for b in (0, 1, 3):
            solo, solo_end, _ = _stacked_run(ys, base, omegas[b:b + 1])
            for name, x in fields.items():
                np.testing.assert_array_equal(x[:, b], solo[name][:, 0], err_msg=name)
            for x, ref in zip(end, solo_end):
                np.testing.assert_array_equal(x[b], ref[0])

    @pytest.mark.parametrize("start", [30, 31])
    def test_chain_across_periodic_point_equals_run(self, start):
        # the run repeats P_t from step 49 on and crosses a block boundary; the
        # chain maps the eigenvalues one step per call
        config = ModelConfig(delta=0.9, phi=1.0, omega=np.diag([self.W_CYCLE, 1.0]))
        ys = 0.3 * np.random.default_rng(5).standard_normal((_BLOCK + 40, 2))
        records, state = filter_run(ys, config)
        _, chained_state = filter_run(ys[:start], config)
        for y, rec in zip(ys[start:], records[start:]):
            chained_state, ref = filter_step(chained_state, y, config)
            assert (rec.t, rec.loglik_t) == (ref.t, ref.loglik_t)
            for name in ("e", "u", "s_star", "scale", "terms"):
                np.testing.assert_array_equal(getattr(rec, name), getattr(ref, name))
        for name in [f.name for f in dataclasses.fields(FilterState)] + ["P"]:
            np.testing.assert_array_equal(getattr(state, name), getattr(chained_state, name))


MODES = [(mean, std) for mean in ("plain", "phi_scaled")
         for std in ("forecast_cov", "posterior_st")]


class TestClosedFormStep:
    """At ``p = 2`` the step runs in closed form, over Python floats for one
    candidate and over ``(B,)`` arrays for a stack: the same formula, so the
    same bits, and IEEE semantics where a step fails."""

    # (delta, omega): healthy members, one whose S_t turns singular in its
    # third block (delta = 0.7 decays S's second direction fastest while the
    # series has none), and one whose Omega fails it from the start
    MEMBERS = [(0.9, np.diag([0.4, 1.5])), (0.95, np.array([[0.5, 0.1], [0.1, 1.2]])),
               (0.7, np.diag([1e-3, 2.0])), (0.85, np.diag([1e-6, 1e-6])),
               (0.75, np.full((2, 2), np.nan)), (0.99, np.eye(2))]
    FAILING, BAD_OMEGA = 2, 4

    @pytest.mark.parametrize("modes", MODES, ids="-".join)
    def test_float_and_array_evaluators_give_the_same_bytes(self, monkeypatch, modes):
        base = ModelConfig(delta=0.9, phi=0.95, omega=np.eye(2), forecast_mean_mode=modes[0],
                           standardization_mode=modes[1])
        deltas, omegas = map(np.array, zip(*self.MEMBERS))
        ys = 0.3 * np.random.default_rng(9).standard_normal((300, 2))
        ys[0] = 0.0  # m_0 = 0: a zero-error first step for every member
        ys[:170, 1] = 0.0
        stack, end, sizes = _stacked_run(ys, base, omegas, deltas)
        failed = stack["failed"]
        assert not failed[:, [0, 1, 3, 5]].any() and failed[:, self.BAD_OMEGA].all()
        first = int(np.argmax(failed[:, self.FAILING]))
        ends = np.cumsum(sizes)
        assert 0 < first and not np.isin([first, first + 1], np.r_[0, ends]).any()  # mid-block
        assert (stack["terms"][0, [0, 1, 3, 5], 2] == -np.inf).all()  # lt
        # solo runs take the stack's blocks, so a failed member restarts when it does
        monkeypatch.setattr(seqvol.filtering, "_BLOCK", sizes[0])
        for b in range(len(deltas)):
            solo, solo_end, solo_sizes = _stacked_run(ys, base, omegas[b:b + 1],
                                                      deltas[b:b + 1])
            assert solo_sizes == sizes
            pairs = [(x[:, b], solo[name][:, 0], name) for name, x in stack.items()]
            pairs += [(x[b], ref[0], "end state") for x, ref in zip(end, solo_end)]
            for x, ref, name in pairs:
                x, ref = np.ascontiguousarray(x), np.ascontiguousarray(ref)
                if b in (self.FAILING, self.BAD_OMEGA):
                    # a two-NaN operation may return either NaN, as numpy's loop
                    # and the process's history have it: NaN where the solo run
                    # has NaN, and the other entries' bytes
                    nan = np.isnan(ref)
                    assert np.array_equal(np.isnan(x), nan), (b, name)
                    x, ref = x[~nan], ref[~nan]
                assert x.tobytes() == ref.tobytes(), (b, name)

    @pytest.mark.parametrize("modes", MODES, ids="-".join)
    def test_closed_form_matches_the_matrix_step(self, modes):
        config = ModelConfig(delta=0.95, phi=0.9, omega=np.array([[0.5, 0.1], [0.1, 1.2]]),
                             forecast_mean_mode=modes[0], standardization_mode=modes[1])
        ys = 0.3 * np.random.default_rng(12).standard_normal((500, 2))
        run, state = filter_run(ys, config)
        # the matrix step, with LAPACK's eigh and matrix products
        setup = config._solo_setup
        w, v = np.linalg.eigh(config.omega)
        m, s, lam = config.m0, config.s0, np.full(2, config.p0)
        fscale = config.phi if modes[0] == "phi_scaled" else 1.0
        f_ref, s_star_ref = [], []
        for y in ys:
            r = config.phi ** 2 * lam + w
            lam = r / (r + 1.0)
            e = y - fscale * m
            s = s / config.k + np.outer(e, e)
            ws, vs = np.linalg.eigh(s)
            s_star = giw_estimate(setup.q_inv[0], setup.q_inv_sqrt[0], s,
                                  (vs * np.sqrt(ws)) @ vs.T, setup.denominator[0])
            ww, vv = np.linalg.eigh(s_star)
            gain = (vv * np.sqrt(ww)) @ vv.T @ ((v * lam) @ v.T) @ (vv / np.sqrt(ww)) @ vv.T
            f_ref.append(fscale * m)
            s_star_ref.append(s_star)
            m = m + gain @ e
        for got, ref in [(run.f, f_ref), (run.s_star, s_star_ref), (state.m, m), (state.S, s)]:
            ref = np.asarray(ref)
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.parametrize("modes", MODES[::3], ids="-".join)
    @pytest.mark.parametrize("t, y", [
        (1, [1e9, 3e9]),  # S_1 singular at machine level, finite
        (40, [1e9, 0.0]),
        (6, [1e200, 0.0]),  # overflows one entry of S_t
        (257, [1e160, -1e160]),  # the first step of the second block
    ])
    def test_planted_failure_reports_its_step(self, modes, t, y):
        config = ModelConfig(delta=0.9, phi=0.95, omega=np.diag([0.4, 1.5]),
                             forecast_mean_mode=modes[0], standardization_mode=modes[1])
        ys = 0.3 * np.random.default_rng(3).standard_normal((600, 2))
        ys[t - 1] = y
        with pytest.raises(FilterNumericalError, match=f"t={t}: S_t or S_t") as err:
            filter_run(ys, config)
        assert err.value.t == t

    @pytest.mark.parametrize("S", [np.zeros((2, 2)), np.diag([1.0, -1.0]), np.diag([1.0, 0.0]),
                                   np.ones((2, 2)), np.full((2, 2), np.inf)],
                             ids=["zero", "indefinite", "singular", "rank-one", "inf"])
    def test_degenerate_state_fails_its_next_step(self, S):
        # a zero S_t^* spectrum divides by zero, a negative one takes a negative root
        config = ModelConfig(delta=0.9, phi=1.0, omega=np.eye(2))
        state = dataclasses.replace(filter_init(config), S=S, t=10)
        with pytest.raises(FilterNumericalError) as err:
            filter_step(state, np.zeros(2), config)
        assert err.value.t == 11

    @staticmethod
    def one_step_states(n, seed=5):
        """``n`` random ``p = 2`` step inputs ``(m, S_{t-1}, y, P_t)``, for a diagonal ``Q``.

        ``S_{t-1}`` has a random scale and condition number from 1 to
        ``10^12.5``, and ``e_t`` is drawn from ``N(0, S_{t-1} / 10)``.
        ``S_t^*`` sums two congruences of ``S_t`` whose large directions differ
        unless ``S_t``'s are ``Q``'s, so ``S_{t-1}``'s eigenvectors are the
        axes turned by an angle from ``1e-9`` to 1: ``cond(S_t^*)`` then spans
        1 to about ``1e12``.
        """
        rng = np.random.default_rng(seed)
        for _ in range(n):
            angle = rng.choice([-1.0, 1.0]) * 10.0 ** -rng.uniform(0, 9)
            rot = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
            p_rot = np.linalg.qr(rng.standard_normal((2, 2)))[0]
            w = 10.0 ** rng.uniform(-2.0, 2.0) * np.array([10.0 ** -rng.uniform(0, 12.5), 1.0])
            s_prev = sym((rot * w) @ rot.T)
            m = rng.standard_normal(2)
            y = m + (rot * np.sqrt(w / 10.0)) @ rng.standard_normal(2)
            yield m, s_prev, y, sym((p_rot * rng.uniform(0.05, 0.95, 2)) @ p_rot.T)

    @staticmethod
    def extended_step(m, s_prev, y, p_mat, setup):
        """``(S_t^*, m_t, cond(S_t), cond(S_t^*), ||P_t|| ||e_t||)`` of one step in 50 digits.

        The matrix step (``phi_scaled`` off), its square roots from ``mpmath``'s
        symmetric eigensolver.
        """
        import mpmath

        def root(x, power):
            w, v = mpmath.eigsy(x)
            return v * mpmath.diag([wi ** power for wi in w]) * v.T, float(max(w) / min(w))

        with mpmath.workdps(50):
            mat = lambda x: mpmath.matrix(np.asarray(x).tolist())  # noqa: E731
            e = mat(y) - mat(m)
            s = mat(s_prev) / mpmath.mpf(setup.k[0]) + e * e.T
            s_half, cond_s = root(s, 0.5)
            q_inv, q_inv_half = mat(setup.q_inv[0]), mat(setup.q_inv_sqrt[0])
            s_star = (s_half * q_inv * s_half + q_inv_half * s * q_inv_half) / mpmath.mpf(
                setup.denominator[0, 0, 0])
            r, cond = root(s_star, 0.5)
            m_t = mat(m) + r * mat(p_mat) * root(s_star, -0.5)[0] * e
            size = np.linalg.norm(p_mat, 2) * float(mpmath.norm(e))
            return (np.array(s_star.tolist(), dtype=float),
                    np.array(m_t.tolist(), dtype=float)[:, 0], cond_s, cond, size)

    def test_one_step_against_extended_precision(self):
        # The closed-form step's S_t^* and m_t, against the step in 50 digits on
        # the same float inputs, are within C eps kappa of their scale: S_t^*'s
        # largest entry, and |m_{t-1}| + sqrt(cond(S_t^*)) ||P_t|| ||e_t|| for
        # m_t (the gain S^*^1/2 P_t S^*^-1/2 has norm up to that root times
        # ||P_t||). kappa = max(cond(S_t^*), sqrt(cond(S_t))): a 2 x 2 root's
        # small eigenvalue carries about eps cond of relative error, whichever
        # way it is computed, LAPACK's included, so S_t^1/2 errs by about eps
        # sqrt(cond(S_t)) of its norm, and S_t^*, which S_t^1/2 forms, with it;
        # S_t^*^-1/2 errs by about eps cond(S_t^*). cond(S_t^*) alone does not
        # bound S_t^*'s error where S_t is the worse conditioned.
        c_bound = 64.0  # fixed before the first run
        config = ModelConfig(delta=0.95, phi=0.9, omega=np.diag([0.4, 1.5]))
        setup = config._solo_setup
        const = setup.const2[:, 0].tolist()
        conds = []
        for m, s_prev, y, p_mat in self.one_step_states(150):
            row = [*m, s_prev[0, 0], s_prev[1, 0], s_prev[1, 0], s_prev[1, 1]] + [0.0] * 4
            out = _step2(const, 1.0, _FLOAT_OPS, row, y.tolist(), p_mat.ravel().tolist())
            s_star_ref, m_ref, cond_s, cond, size = self.extended_step(m, s_prev, y, p_mat,
                                                                       setup)
            bound = c_bound * np.finfo(float).eps * max(cond, np.sqrt(cond_s))
            s_star = np.reshape(out[6:], (2, 2))
            assert np.abs(s_star - s_star_ref).max() <= bound * np.abs(s_star_ref).max(), cond
            m_scale = np.abs(m).max() + np.sqrt(cond) * size
            assert np.abs(np.array(out[:2]) - m_ref).max() <= bound * m_scale, cond
            conds.append(cond)
        assert min(conds) < 10 and max(conds) > 1e11  # the range the bound is claimed on

    def test_kernel_is_ieee_over_floats(self):
        # the float evaluator raises nothing, and gives the array evaluator's
        # bytes, but for the sign of a NaN: an operation on two NaNs returns
        # either, as numpy's loop has it and, over Python floats, as CPython's
        # interpreter has specialized the bytecode so far in the process
        special = [0.0, -0.0, 1.0, -1.0, 0.3, 5e-324, 1e-300, 1e300, np.inf, -np.inf, np.nan]
        grid = np.random.default_rng(1).choice(special, size=(10 + 2 + 4, 2000))
        const = np.abs(np.random.default_rng(2).standard_normal((8, 2000))) + 0.5
        grid[:6, :11] = 0.0  # a zero state and a zero error: 0 / 0 in the gain
        grid[10:12, :11] = 0.0
        rows, y, p_mat = grid[:10], grid[10:12], grid[12:]
        with np.errstate(all="ignore"):
            stacked = _step2(tuple(const), 0.95, _ARRAY_OPS, tuple(rows), tuple(y), tuple(p_mat))
        stacked = np.array(stacked)
        for i in range(grid.shape[1]):
            one = np.array(_step2(const[:, i].tolist(), 0.95, _FLOAT_OPS, rows[:, i].tolist(),
                                  y[:, i].tolist(), p_mat[:, i].tolist()))
            nan = np.isnan(stacked[:, i])
            assert np.array_equal(np.isnan(one), nan), i
            assert one[~nan].tobytes() == stacked[~nan, i].tobytes(), i


class TestDynamicRange:
    """The filter is scale-equivariant in float64: data times ``c`` with ``s0``
    times ``c^2`` gives ``S_t^*`` times ``c^2`` and the same ``u``, up to
    round-off, as far out as ``c = 1e+-150``, where ``c^4`` leaves double
    precision (so a 2 x 2 ``det`` must not be formed on unscaled entries)."""

    @pytest.mark.parametrize("c", [1e-150, 1e-100, 1e100, 1e150])
    @pytest.mark.parametrize("p", [2, 3])
    def test_scaled_data_give_the_scaled_run(self, p, c):
        rng = np.random.default_rng(31 + p)
        s0 = random_spd(rng, p)
        config = ModelConfig(delta=0.9, phi=0.95, omega=random_spd(rng, p), s0=s0)
        ys = 0.3 * rng.standard_normal((400, p))
        run, _ = filter_run(ys, config, compute_loglik=False)
        scaled, _ = filter_run(c * ys, dataclasses.replace(config, s0=c * c * s0),
                               compute_loglik=False)
        ref = run.s_star
        assert np.abs(scaled.s_star / (c * c) - ref).max() <= 1e-14 * np.abs(ref).max()
        assert np.abs(scaled.u - run.u).max() <= 1e-13


class TestFilterRun:
    def test_empty_series(self, config2):
        records, state = filter_run(np.empty((0, 2)), config2)
        assert len(records) == 0
        assert state.t == 0

    def test_run_is_what_bench_reads(self, config2):
        # bench/workloads.py cannot change with the library: it takes a run's
        # len, slices and iterates it, reads a row's t, s_star and loglik_t,
        # writes str(t) as the CSV's step column, and passes runs to perf_metrics
        ys = 0.3 * np.random.default_rng(4).standard_normal((12, 2))
        run, _ = filter_run(ys, config2)
        assert len(run) == 12 and len(run[3:7]) == 4
        assert [str(row.t) for row in run] == [str(t) for t in range(1, 13)]
        row = run[5]
        np.testing.assert_array_equal(row.s_star[np.tril_indices(2)],
                                      run.s_star[5][np.tril_indices(2)])
        assert row.loglik_t == run.loglik_t[5] and math.isfinite(row.loglik_t)
        total = loglik_from_records(run, config2).total
        assert math.fsum(row.loglik_t for row in run) == pytest.approx(total, rel=1e-12)
        assert perf_metrics(run).n_obs == 12
        no_loglik, _ = filter_run(ys, config2, compute_loglik=False)
        np.testing.assert_array_equal(perf_metrics(no_loglik).msse, perf_metrics(run).msse)
        empty, state = filter_run(np.empty((0, 2)), config2)
        assert len(empty) == 0 and list(empty) == []
        for field in dataclasses.fields(FilterState):
            np.testing.assert_array_equal(getattr(state, field.name),
                                          getattr(filter_init(config2), field.name))

    def test_long_run_keeps_its_values(self, config2):
        # a run of many blocks starts with the bits of a short run, and its
        # rows and columns keep their values after the run goes
        n = 4 * _BLOCK + 1
        ys = 0.3 * np.random.default_rng(6).standard_normal((n, 2))
        run, _ = filter_run(ys, config2)
        short, _ = filter_run(ys[:10], config2)
        assert run[:10].tobytes() == short.tobytes()
        row, s_star, expected = run[-1], run.s_star, run.s_star.copy()
        del run
        np.testing.assert_array_equal(s_star, expected)
        np.testing.assert_array_equal(row.s_star, expected[-1])

    def test_composition_equals_manual_steps(self, config2):
        rng = np.random.default_rng(3)
        ys = 0.3 * rng.standard_normal((15, 2))
        records, state = filter_run(ys, config2, compute_loglik=False)
        manual = filter_init(config2)
        for t, y in enumerate(ys):
            manual, rec = filter_step(manual, y, config2)
            np.testing.assert_allclose(rec.e, records[t].e, rtol=1e-13, atol=1e-15)
            np.testing.assert_allclose(rec.s_star, records[t].s_star, rtol=1e-13)
        np.testing.assert_allclose(manual.S, state.S, rtol=1e-13)
        np.testing.assert_allclose(manual.m, state.m, rtol=1e-12, atol=1e-14)

    def test_scale_expansion_of_s(self, config2):
        rng = np.random.default_rng(9)
        n_steps = 80
        ys = 0.5 * rng.standard_normal((n_steps, 2))
        records, state = filter_run(ys, config2, compute_loglik=False)
        k = config2.k
        acc = np.zeros((2, 2))
        for t, rec in enumerate(records, start=1):
            acc += k ** (t - n_steps) * np.outer(rec.e, rec.e)
        full = acc + k ** (-n_steps) * config2.s0
        np.testing.assert_allclose(state.S, full, rtol=1e-10)
        assert (k ** (-n_steps) * np.linalg.norm(config2.s0)
                / np.linalg.norm(state.S)) < 1e-6

    def test_states_stay_valid(self, config2):
        rng = np.random.default_rng(11)
        ys = 0.2 * rng.standard_normal((200, 2))
        state = filter_init(config2)
        for t, y in enumerate(ys, 1):
            state, _ = filter_step(state, y, config2)
            s_eigs = np.linalg.eigvalsh(state.S)
            p_eigs = np.linalg.eigvalsh(state.P)
            assert np.all(s_eigs > 0)
            assert np.all(p_eigs > 0) and np.all(p_eigs < 1)

    def test_random_walk_mean_identity(self):
        # with Omega = I the one-step and filtered precisions share their
        # mean: m*k equals 1/(1-delta) + p - 1 exactly, so the two
        # closed-form Wishart means built from (Q, S_{t-1}) coincide
        delta = 0.8
        config = ModelConfig(delta=delta, phi=1.0, omega=np.eye(1))
        rng = np.random.default_rng(2)
        records, state = filter_run(rng.standard_normal((30, 1)), config,
                                    compute_loglik=False)
        q = steady_Q(config)[0, 0]
        s_prev = records[-2].s_star[0, 0]  # any positive scale works
        m = config.beta_m
        k = config.k
        lhs = m * k * q / s_prev
        rhs = (1.0 / (1.0 - delta) + config.p - 1) * q / s_prev
        assert lhs == pytest.approx(rhs, rel=1e-14)

    def test_scale_equivariance(self, config2):
        rng = np.random.default_rng(21)
        ys = 0.2 * rng.standard_normal((40, 2))
        c = 5.0
        base_records, base_state = filter_run(ys, config2, compute_loglik=False)
        scaled_config = ModelConfig(delta=0.8, phi=1.0, omega=np.diag([0.5, 1.5]),
                                    m0=c * config2.m0, s0=c * c * config2.s0)
        scaled_records, scaled_state = filter_run(c * ys, scaled_config,
                                                  compute_loglik=False)
        np.testing.assert_allclose(scaled_state.S, c * c * base_state.S, rtol=1e-11)
        for b, s in zip(base_records, scaled_records):
            np.testing.assert_allclose(s.e, c * b.e, rtol=1e-11, atol=1e-13)
            np.testing.assert_allclose(s.u, b.u, rtol=1e-9, atol=1e-11)
            np.testing.assert_allclose(s.s_star, c * c * b.s_star, rtol=1e-11)

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_numerical_failure_reports_index(self, config2):
        ys = 0.1 * np.ones((10, 2))
        ys[5] = 1e200  # overflows the rank-one update
        with pytest.raises(FilterNumericalError) as err:
            filter_run(ys, config2)
        assert err.value.t == 6

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.parametrize("p", [2, 3, 8])
    def test_numerical_failure_cause_at_any_p(self, p):
        ys = 0.1 * np.ones((10, p))
        ys[5] = 1e200
        config = ModelConfig(delta=0.8, phi=1.0, omega=np.eye(p))
        with pytest.raises(FilterNumericalError,
                           match="t=6: S_t or S_t\\^\\* is not positive definite") as err:
            filter_run(ys, config)
        assert err.value.t == 6

    def test_loglik_sum_matches_breakdown(self, config2):
        from seqvol.likelihood import loglik_at_filter_path
        rng = np.random.default_rng(17)
        ys = 0.3 * rng.standard_normal((50, 2))
        records, _ = filter_run(ys, config2)
        total = sum(r.loglik_t for r in records)
        breakdown = loglik_at_filter_path(ys, config2)
        assert total == pytest.approx(breakdown.total, abs=1e-9)


class TestTimeBlocks:
    """``filter_run`` evaluates the likelihood terms in blocks of ``_BLOCK``
    steps; ``filter_step`` evaluates one step at a time."""

    @pytest.fixture
    def config3(self):
        return ModelConfig(delta=0.85, phi=0.9, omega=np.diag([0.3, 0.6, 1.2]))

    @pytest.fixture
    def ys3(self):
        return 0.3 * np.random.default_rng(8).standard_normal((2 * _BLOCK + 3, 3))

    @staticmethod
    def _chain(ys, config):
        state, records = filter_init(config), []
        for y in ys:
            state, record = filter_step(state, y, config)
            records.append(record)
        return records, state

    def test_run_equals_chain_of_steps_exactly(self, ys3, config3):
        records, state = filter_run(ys3, config3)
        chained, chained_state = self._chain(ys3, config3)
        assert len(records) == len(chained) == 2 * _BLOCK + 3
        c1 = loglik_constant(config3, steady_Q(config3), 1)
        for rec, ref in zip(records, chained):
            assert rec.t == ref.t
            assert rec.loglik_t == ref.loglik_t == c1 + sum(rec.terms)
            for name in ("f", "e", "u", "s_star", "scale", "terms"):
                np.testing.assert_array_equal(getattr(rec, name), getattr(ref, name))
        for name in [f.name for f in dataclasses.fields(FilterState)] + ["P"]:
            np.testing.assert_array_equal(getattr(state, name), getattr(chained_state, name))

    @pytest.mark.parametrize("modes", [("plain", "forecast_cov"),
                                       ("phi_scaled", "posterior_st")])
    def test_run_equals_chain_for_dense_omega(self, ys3, modes):
        # P's eigenvalues are carried from step to step; rebuilding them from
        # P would move a dense omega's run by a few ulps
        config = ModelConfig(delta=0.85, phi=0.9,
                             omega=random_spd(np.random.default_rng(12), 3),
                             forecast_mean_mode=modes[0], standardization_mode=modes[1])
        records, state = filter_run(ys3, config)
        chained, chained_state = self._chain(ys3, config)
        assert len(records) == len(chained) == 2 * _BLOCK + 3
        for rec, ref in zip(records, chained):
            assert (rec.t, rec.loglik_t) == (ref.t, ref.loglik_t)
            for name in ("f", "e", "u", "s_star", "scale", "terms"):
                np.testing.assert_array_equal(getattr(rec, name), getattr(ref, name))
        for field in dataclasses.fields(state):
            np.testing.assert_array_equal(getattr(state, field.name),
                                          getattr(chained_state, field.name))

    def test_no_likelihood_path_is_the_same_filter(self, ys3, config3):
        with_ll, _ = filter_run(ys3, config3)
        without, _ = filter_run(ys3, config3, compute_loglik=False)
        for rec, ref in zip(without, with_ll):
            for name in ("f", "e", "u", "s_star", "scale"):
                np.testing.assert_array_equal(getattr(rec, name), getattr(ref, name))
            assert math.isnan(rec.loglik_t) and np.isnan(rec.terms).all()

    def test_zero_error_step_first_in_second_block(self, ys3, config3):
        t_zero = _BLOCK + 1
        _, state = filter_run(ys3[:t_zero - 1], config3)
        ys = ys3.copy()
        ys[t_zero - 1] = state.m  # plain mode: the forecast mean is m_{t-1}
        records, _ = filter_run(ys, config3)
        assert [r.t for r in records if r.loglik_t == -math.inf] == [t_zero]
        assert records[t_zero - 1].terms[2] == -math.inf
        chained, _ = self._chain(ys, config3)
        assert [r.loglik_t for r in records] == [r.loglik_t for r in chained]
        with pytest.raises(DomainError, match=f"t={t_zero}: transition matrix L_t"):
            loglik_from_records(records, config3)


class TestFailingBlockEndsEarly:
    """Every block, solo or stacked, checks ``m`` every ``_CHECK`` steps and ends
    at the first check that finds a candidate's ``m`` non-finite, so a run
    raises soon after it fails and a failed member of a stack restarts as soon."""

    # three members of TestClosedFormStep's stack, healthy here, and delta =
    # 0.999, which forgets S_t slowest: on a series of scale 8e152 its S_t
    # overflows mid-block, m turning NaN at the same step, while the others'
    # S_t stay below a third of float64's range
    DELTAS = [0.9, 0.95, 0.7, 0.999]
    OMEGAS = {2: [np.diag([0.4, 1.5]), np.array([[0.5, 0.1], [0.1, 1.2]]),
                  np.diag([1e-3, 2.0]), np.eye(2)],
              3: [np.diag([0.4, 1.5, 0.7]),
                  np.array([[0.5, 0.1, 0.0], [0.1, 1.2, 0.2], [0.0, 0.2, 0.9]]),
                  np.diag([1e-3, 2.0, 1.0]), np.eye(3)]}

    @staticmethod
    def _series(p):
        ys = 0.01 * np.random.default_rng(8).standard_normal((1000, p))
        shocked = ys.copy()
        shocked[150] = 1e160  # e e' overflows at t = 151
        return ys, shocked

    @pytest.mark.parametrize("p", [2, 3, 8])
    def test_planted_failure_raises_its_step(self, p):
        _, ys = self._series(p)
        with pytest.raises(FilterNumericalError) as info:
            filter_run(ys, ModelConfig(delta=0.95, phi=1.0, omega=np.eye(p)))
        assert info.value.t == 151
        assert str(info.value) == ("numerical failure at step t=151: S_t or S_t^* is not "
                                   "positive definite at machine precision")

    @pytest.mark.parametrize("p", [3, 8])
    def test_time_to_raise_is_near_the_clean_prefix(self, p):
        # without the check the run went on for the rest of its 256-step
        # block, on NaN: 4x the clean prefix's time at p = 8
        config = ModelConfig(delta=0.95, phi=1.0, omega=np.eye(p))
        clean, shocked = self._series(p)

        def seconds(ys):
            start = time.process_time()
            try:
                filter_run(ys, config)
            except FilterNumericalError:
                pass
            return time.process_time() - start

        times = [(seconds(shocked), seconds(clean[:151])) for _ in range(7)]
        to_raise, prefix = map(min, zip(*times))
        assert to_raise < 2 * prefix

    @pytest.mark.parametrize("p", [2, 3])
    def test_stack_ends_its_block_at_the_check_after_a_failure(self, p):
        scale = 8e152
        ys = scale * np.random.default_rng(9).standard_normal((300, p))
        base = ModelConfig(delta=0.9, phi=0.95, omega=np.eye(p), s0=scale ** 2 * np.eye(p))
        deltas, omegas = np.array(self.DELTAS), np.array(self.OMEGAS[p])
        stack, end, sizes = _stacked_run(ys, base, omegas, deltas)
        failed = stack["failed"]
        assert not failed[:, :3].any() and failed[:, 3].any()
        # four members: blocks of 64 steps, each checked after 16, 32 and 48
        size, first = _BLOCK // 4, int(np.argmax(failed[:, 3]))
        lo = first - first % size
        hi = lo + (first - lo) // _CHECK * _CHECK + _CHECK  # the first check after it
        assert hi < lo + size  # mid-block: the block ends before its 64 steps
        assert sizes[:lo // size + 1] == [size] * (lo // size) + [hi - lo]
        # the rest of the series runs on in full blocks, the failed member restarted
        assert set(sizes[lo // size + 1:-1]) == {size}
        for b in range(3):
            solo, solo_end, _ = _stacked_run(ys, base, omegas[b:b + 1], deltas[b:b + 1])
            pairs = [(x[:, b], solo[name][:, 0], name) for name, x in stack.items()]
            pairs += [(x[b], ref[0], "end state") for x, ref in zip(end, solo_end)]
            for x, ref, name in pairs:
                x, ref = np.ascontiguousarray(x), np.ascontiguousarray(ref)
                assert x.tobytes() == ref.tobytes(), (b, name)


class TestPointEstimate:
    @pytest.mark.parametrize("p, omega_kind, modes", [
        (2, "dense", ("plain", "forecast_cov")),
        (2, "dense", ("phi_scaled", "posterior_st")),
        (3, "dense", ("plain", "forecast_cov")),
        (3, "dense", ("phi_scaled", "posterior_st")),
        (8, "diagonal", ("plain", "forecast_cov")),
    ], ids=["2-dense-plain", "2-dense-phi_scaled", "3-dense-plain", "3-dense-phi_scaled",
            "8-diagonal-plain"])
    def test_each_step_is_giw_estimator(self, p, omega_kind, modes):
        # the filter's S_t^* is the paper's estimator with A = Q^{-1} and the
        # posterior dof; it roots S_t from its spectrum at p >= 3 and in closed
        # form at p = 2, not with sym_sqrt
        omega = (random_spd(np.random.default_rng(12), p) if omega_kind == "dense"
                 else np.diag(np.linspace(0.2, 3.0, p)))
        config = ModelConfig(delta=0.7 if p == 8 else 0.85, phi=0.9, omega=omega,
                             forecast_mean_mode=modes[0], standardization_mode=modes[1])
        ys = 0.3 * np.random.default_rng(p).standard_normal((_BLOCK + 44, p))
        records, state = filter_run(ys, config)
        a = spd_inverse(steady_Q(config))
        # S_t is k times the next step's forecast scale S_t / k; S_N is the end state's
        s_ts = [config.k * r.scale for r in records[1:]] + [state.S]
        for rec, s_t in zip(records, s_ts):
            ref = giw_estimator(a, s_t, config.posterior_dof)
            assert np.abs(rec.s_star - ref).max() <= 1e-12 * np.abs(ref).max(), rec.t


class TestRunMemory:
    def test_peak_allocation_of_one_run(self):
        # the CLI filter's size (p = 8, N = 4773, with the likelihood): the run
        # allocates one (N, p, p) array per stored matrix field, and no more
        p = 8
        corr = 0.3 + 0.7 * np.eye(p)
        ys = (0.01 * np.random.default_rng(9).standard_normal((4773, p))
              @ np.linalg.cholesky(corr).T)
        config = ModelConfig(delta=0.7, phi=1.0, omega=np.eye(p))
        filter_run(ys[:50], config)  # lazy set-up
        tracemalloc.start()
        try:
            filter_run(ys, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2**20, peak

    def test_config_freed_without_the_cyclic_collector(self):
        # the config caches its setup; a setup that held the config back
        # would make a cycle, freed only when the collector runs
        config = ModelConfig(delta=0.8, phi=1.0, omega=np.diag([0.5, 1.5]))
        filter_run(np.ones((5, 2)), config)
        ref = weakref.ref(config)
        gc.disable()
        try:
            del config
            assert ref() is None
        finally:
            gc.enable()


class TestSimulatedPathFilter:
    def test_filter_tracks_simulated_volatility(self):
        # smoke-level statistical check in a numerically tame regime
        config = ModelConfig(delta=0.95, phi=1.0, omega=np.diag([0.4, 1.0]))
        path = simulate_path(8, config, n_steps=400)
        records, _ = filter_run(path.ys, config, compute_loglik=False)
        assert len(records) == 400
        assert all(np.all(np.linalg.eigvalsh(r.s_star) > 0) for r in records)
