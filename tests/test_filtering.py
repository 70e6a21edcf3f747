import dataclasses
import math

import numpy as np
import pytest

from seqvol.errors import (
    DimensionMismatch,
    DomainError,
    FilterNumericalError,
    NotPositiveDefinite,
)
from seqvol.filtering import (
    _BLOCK,
    FilterState,
    ModelConfig,
    beta_dof_m,
    discount_k,
    filter_init,
    filter_run,
    filter_step,
    limit_P,
    steady_Q,
)
from seqvol.likelihood import loglik_constant, loglik_from_records
from seqvol.simulate import simulate_path

from conftest import iterate_P_to_convergence, p_recursion_step, random_spd
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
        _, record = filter_step(state, np.array([0.4, -0.2]), config2)
        fc = record.forecast
        assert fc.dof == pytest.approx(config2.forecast_dof)
        np.testing.assert_allclose(fc.scale, state.S / config2.k, rtol=1e-14)
        # covariance = scale/(dof-2): the t convention without 1/dof in the
        # kernel, which is what makes the standardized errors unit-variance
        np.testing.assert_allclose(fc.covariance,
                                   fc.scale / (fc.dof - 2.0), rtol=1e-12)
        assert np.all(np.linalg.eigvalsh(fc.covariance) > 0)

    def test_dimension_mismatch(self, config2):
        state = filter_init(config2)
        with pytest.raises(DimensionMismatch):
            filter_step(state, np.zeros(3), config2)


class TestStateP:
    """A state's ``P`` in the eigenbasis of ``omega``: carried eigenvalues,
    a projected hand-built ``P``, or a rejected one."""

    @pytest.fixture
    def config(self):
        return ModelConfig(delta=0.8, phi=0.9, omega=np.diag([0.5, 1.5]))

    def test_hand_built_commuting_P_is_projected(self, config):
        ys = 0.3 * np.random.default_rng(4).standard_normal((5, 2))
        state = filter_init(config)
        bare = FilterState(t=0, m=state.m, P=state.P, S=state.S)
        for y in ys:
            state, _ = filter_step(state, y, config)
            bare, _ = filter_step(bare, y, config)
        np.testing.assert_allclose(bare.P, state.P, rtol=1e-14)
        np.testing.assert_allclose(bare.S, state.S, rtol=1e-12)

    def test_state_from_a_reordered_omega_is_projected(self, config):
        # omega's eigenbasis lists the axes the other way round, so the
        # carried eigenvalues do not rebuild P; projecting P does
        y = np.array([0.2, -0.1])
        _, state = filter_run(np.tile(y, (3, 1)), config)
        swapped = dataclasses.replace(config, omega=np.diag([1.5, 0.5]))
        new_state, _ = filter_step(state, y, swapped)
        expected = p_recursion_step(state.P, swapped.phi, swapped.omega)
        np.testing.assert_allclose(new_state.P, expected, atol=1e-15)

    def test_non_commuting_P_rejected(self, config):
        state = dataclasses.replace(filter_init(config), P=np.array([[1.0, 0.5], [0.5, 1.0]]),
                                    p_eigs=None)
        with pytest.raises(DomainError, match="state P does not commute with omega"):
            filter_step(state, np.zeros(2), config)

    def test_P_of_wrong_shape_rejected(self, config):
        state = dataclasses.replace(filter_init(config), P=np.eye(3), p_eigs=None)
        with pytest.raises(DimensionMismatch, match="state P has shape"):
            filter_step(state, np.zeros(2), config)


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
        # for ever, so the filter steps it at every step and never stops on
        # convergence; float arithmetic gives the same correctly rounded steps
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


class TestFilterRun:
    def test_empty_series(self, config2):
        records, state = filter_run(np.empty((0, 2)), config2)
        assert records == []
        assert state.t == 0

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
            assert rec.terms == ref.terms
            for name in ("e", "u", "s_star"):
                np.testing.assert_array_equal(getattr(rec, name), getattr(ref, name))
            for name in ("location", "scale", "covariance"):
                np.testing.assert_array_equal(getattr(rec.forecast, name),
                                              getattr(ref.forecast, name))
        for name in ("t", "m", "P", "S"):
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
            assert (rec.t, rec.loglik_t, rec.terms) == (ref.t, ref.loglik_t, ref.terms)
            for name in ("e", "u", "s_star"):
                np.testing.assert_array_equal(getattr(rec, name), getattr(ref, name))
            for name in ("location", "scale", "covariance"):
                np.testing.assert_array_equal(getattr(rec.forecast, name),
                                              getattr(ref.forecast, name))
        for field in dataclasses.fields(state):
            np.testing.assert_array_equal(getattr(state, field.name),
                                          getattr(chained_state, field.name))

    def test_no_likelihood_path_is_the_same_filter(self, ys3, config3):
        with_ll, _ = filter_run(ys3, config3)
        without, _ = filter_run(ys3, config3, compute_loglik=False)
        for rec, ref in zip(without, with_ll):
            for name in ("e", "u", "s_star"):
                np.testing.assert_array_equal(getattr(rec, name), getattr(ref, name))
            np.testing.assert_array_equal(rec.forecast.location, ref.forecast.location)
            assert math.isnan(rec.loglik_t) and rec.terms is None

    def test_zero_error_step_first_in_second_block(self, ys3, config3):
        t_zero = _BLOCK + 1
        _, state = filter_run(ys3[:t_zero - 1], config3)
        ys = ys3.copy()
        ys[t_zero - 1] = state.m  # plain mode: the forecast mean is m_{t-1}
        records, _ = filter_run(ys, config3)
        assert [r.t for r in records if r.loglik_t == -math.inf] == [t_zero]
        assert records[t_zero - 1].terms is None
        chained, _ = self._chain(ys, config3)
        assert [r.loglik_t for r in records] == [r.loglik_t for r in chained]
        with pytest.raises(DomainError, match=f"t={t_zero}: transition matrix L_t"):
            loglik_from_records(records, config3)


class TestSimulatedPathFilter:
    def test_filter_tracks_simulated_volatility(self):
        # smoke-level statistical check in a numerically tame regime
        config = ModelConfig(delta=0.95, phi=1.0, omega=np.diag([0.4, 1.0]))
        path = simulate_path(8, config, n_steps=400)
        records, _ = filter_run(path.ys, config, compute_loglik=False)
        assert len(records) == 400
        assert all(np.all(np.linalg.eigvalsh(r.s_star) > 0) for r in records)
