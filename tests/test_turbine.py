import math
import re
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from windmpc import (ControlInput, DomainError, PlantState, TurbineParams,
                     aerodynamic_power, aerodynamic_torque, derivatives,
                     equilibrium, generator_power, power_coefficient, step,
                     tip_speed_ratio, unified_matrices)
from windmpc.turbine import power_coefficient_partials

from helpers import derivatives_reference, rk4_step_reference

# frozen by direct scalar evaluation of the Cp closed form (independent script)
CP_AT_7_0 = 0.4512823932402688
CP_AT_PEAK = 0.48001190251033915
# 0.5 * 1.225 * pi * 35^2 * 8^3 * CP_AT_PEAK
POWER_V8_PEAK = 579313.9970585123


class TestPowerCoefficient:
    def test_peak_value_at_optimal_tsr(self):
        assert power_coefficient(8.1, 0.0) == pytest.approx(0.48, rel=5e-3)

    def test_grid_argmax_near_optimal_tsr(self):
        lams = np.arange(2.0, 14.0 + 1e-9, 0.01)
        cps = [power_coefficient(lam, 0.0) for lam in lams.tolist()]
        assert abs(lams[np.argmax(cps)] - 8.1) <= 0.1

    def test_pinned_scalar_value(self):
        assert power_coefficient(7.0, 0.0) == pytest.approx(CP_AT_7_0, rel=1e-12)

    def test_clamped_to_zero_where_raw_negative(self):
        # raw closed form is negative at (2, 45)
        assert power_coefficient(2.0, 45.0) == 0.0
        assert power_coefficient_partials(2.0, 45.0) == (0.0, 0.0, 0.0)

    def test_partials_share_the_surface(self):
        for lam, beta in ((7.0, 0.0), (8.1, 0.0), (5.0, 3.0), (11.0, 8.0)):
            assert (power_coefficient_partials(lam, beta)[0]
                    == pytest.approx(power_coefficient(lam, beta), rel=1e-15))
        with pytest.raises(DomainError):
            power_coefficient_partials(0.0, 0.0)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            power_coefficient(0.0, 0.0)
        with pytest.raises(DomainError):
            power_coefficient(-1.0, 0.0)
        with pytest.raises(DomainError):
            power_coefficient(float("nan"), 0.0)

    def test_bounded_by_half_on_operating_grid(self):
        lams = np.linspace(0.05, 20.0, 400)
        betas = np.linspace(0.0, 45.0, 91)
        cps = [power_coefficient(lam, beta)
               for lam in lams.tolist() for beta in betas.tolist()]
        assert max(cps) <= 0.5
        assert min(cps) >= 0.0


class TestTipSpeedRatio:
    def test_direct_arithmetic(self, params):
        assert tip_speed_ratio(2.0, 10.0, params) == pytest.approx(7.0)

    def test_zero_rotor_speed(self, params):
        assert tip_speed_ratio(0.0, 5.0, params) == 0.0

    def test_optimal_locus(self, params):
        omega_t = params.lambda_opt * 8.0 / params.radius
        assert tip_speed_ratio(omega_t, 8.0, params) == pytest.approx(8.1, abs=1e-3)

    def test_nonpositive_wind_rejected(self, params):
        with pytest.raises(DomainError):
            tip_speed_ratio(1.0, 0.0, params)


class TestAerodynamicPowerAndTorque:
    def test_power_at_peak(self, params):
        assert aerodynamic_power(8.0, 8.1, 0.0, params) == pytest.approx(
            POWER_V8_PEAK, rel=1e-12)

    def test_power_vanishes_with_wind(self, params):
        assert aerodynamic_power(1e-12, 8.1, 0.0, params) == pytest.approx(0.0, abs=1e-20)

    def test_power_zero_when_cp_clamped(self, params):
        assert aerodynamic_power(8.0, 2.0, 45.0, params) == 0.0

    def test_torque_matches_power_over_speed(self, params):
        omega_t = 1.8514
        t_t = aerodynamic_torque(omega_t, 8.0, 0.0, params)
        lam = tip_speed_ratio(omega_t, 8.0, params)
        p_t = aerodynamic_power(8.0, lam, 0.0, params)
        assert t_t == pytest.approx(p_t / omega_t, rel=1e-15)
        assert t_t == pytest.approx(3.13e5, rel=5e-3)

    def test_two_torque_forms_agree(self, params, rng):
        for _ in range(200):
            omega_t = rng.uniform(0.5, 3.0)
            v = rng.uniform(4.0, 11.0)
            beta = rng.uniform(0.0, 45.0)
            lam = tip_speed_ratio(omega_t, v, params)
            direct = aerodynamic_torque(omega_t, v, beta, params)
            via_lambda = (power_coefficient(lam, beta) / lam
                          * 0.5 * params.rho * math.pi * params.radius**3 * v**2)
            assert direct == pytest.approx(via_lambda, rel=1e-12, abs=1e-9)

    def test_torque_rejects_nonpositive_rotor_speed(self, params):
        with pytest.raises(DomainError):
            aerodynamic_torque(0.0, 8.0, 0.0, params)


class TestDerivatives:
    def test_zero_at_equilibrium(self, params):
        op = equilibrium(8.0, params)
        resid = derivatives(op.x_bar, op.u_bar, 8.0, params)
        scale = np.maximum(1.0, np.abs(np.asarray(op.x_bar)))
        assert np.all(np.abs(resid) < 1e-6 * scale)

    def test_actuators_settled_when_references_match(self, params):
        state = PlantState(1.8, 110.0, 4.9e3, 5.1e3, 3.0)
        u = ControlInput(state.t_g, state.beta)
        d = derivatives(state, u, 8.0, params)
        assert d[3] == 0.0
        assert d[4] == 0.0

    def test_matches_unified_matrix_form(self, params, rng):
        a, b, b2 = unified_matrices(params)
        for _ in range(100):
            x = np.array([rng.uniform(0.5, 3.0), rng.uniform(30.0, 180.0),
                          rng.uniform(-2e4, 2e4), rng.uniform(0.0, 9e3),
                          rng.uniform(0.0, 45.0)])
            u = np.array([rng.uniform(0.0, 9e3), rng.uniform(0.0, 45.0)])
            v = rng.uniform(4.0, 11.0)
            t_t = aerodynamic_torque(x[0], v, x[4], params)
            explicit = derivatives(x, u, v, params)
            matrix_form = a @ x + b @ u + b2 * t_t
            scale = np.maximum(np.abs(explicit), np.abs(matrix_form))
            assert np.all(np.abs(explicit - matrix_form)
                          <= 1e-10 * np.maximum(scale, 1.0))


class TestStep:
    def test_returns_plain_floats(self, params):
        op = equilibrium(8.0, params)
        state = step(op.x_bar, ControlInput(4.0e3, 2.0), 8.5, params.t_s, params)
        assert all(type(value) is float for value in state)

    def test_equilibrium_invariance_over_ten_seconds(self, params):
        op = equilibrium(8.0, params)
        state = op.x_bar
        for _ in range(200):
            state = step(state, op.u_bar, 8.0, params.t_s, params)
        drift = np.abs(np.asarray(state) - np.asarray(op.x_bar))
        scale = np.maximum(1.0, np.abs(np.asarray(op.x_bar)))
        assert np.all(drift < 1e-6 * scale)

    def test_pitch_first_order_response(self, params):
        op = equilibrium(8.0, params)
        u = ControlInput(op.u_bar.t_g_ref, 45.0)
        state = op.x_bar
        t = 0.0
        for _ in range(10):  # 5 time constants
            state = step(state, u, 8.0, params.t_s, params)
            t += params.t_s
            expected = 45.0 * (1.0 - math.exp(-t / params.tau))
            assert state.beta == pytest.approx(expected, abs=1e-4)

    def test_fourth_order_convergence(self, params):
        # transient-rich quarter second; substep pair chosen inside the
        # asymptotic regime of the 12.6 Hz torsional mode
        op7 = equilibrium(7.0, params)
        x0 = equilibrium(8.0, params).x_bar

        def integrate(substeps):
            state = x0
            for _ in range(5):
                state = step(state, op7.u_bar, 7.0, params.t_s, params,
                             substeps=substeps)
            return np.asarray(state)

        ref = integrate(320)
        err_h = np.linalg.norm(integrate(20) - ref)
        err_h2 = np.linalg.norm(integrate(40) - ref)
        assert err_h / err_h2 >= 8.0

    def test_actuator_clamping(self, params):
        state = PlantState(1.8, 110.0, 4.9e3, 9.4e3, 44.0)
        u = ControlInput(5e4, 90.0)  # both references beyond their limits
        out = step(state, u, 8.0, params.t_s, params)
        assert out.t_g <= params.t_g_max
        assert out.beta <= params.beta_max

    def test_equals_vector_rk4(self, params, rng):
        # the float route keeps the vector formula's operation order, so the
        # two agree bit for bit
        for _ in range(300):
            v = rng.uniform(5.0, 10.5)
            op = equilibrium(v, params)
            state = np.asarray(op.x_bar) * (1.0 + 0.05 * rng.normal(size=5))
            state[4] = rng.uniform(0.0, 3.0)
            u = ControlInput(op.u_bar.t_g_ref * (1.0 + 0.05 * rng.normal()),
                             rng.uniform(0.0, 3.0))
            gust = v + 0.3 * rng.normal()
            assert step(state, u, gust, params.t_s, params) \
                == rk4_step_reference(state, u, gust, params.t_s, params)

    @settings(max_examples=300, deadline=None)
    @given(omega_t=st.floats(0.005, 3.0), omega_g=st.floats(0.0, 200.0),
           t_tw=st.floats(-2e4, 1e6), t_g=st.floats(0.0, 9.4e3),
           beta=st.floats(0.0, 45.0), t_g_ref=st.floats(-2e3, 1.2e4),
           beta_ref=st.floats(-2.0, 60.0),
           v=st.floats(4.0, 11.0, exclude_max=True))
    # the rotor reverses mid-substep; the Cp clamp (lambda = 26); the
    # upper and the lower actuator clamps
    @example(0.005, 0.3, 1e6, 0.0, 0.0, 0.0, 0.0, 8.0)
    @example(3.0, 190.0, 1e3, 1e3, 0.0, 1e3, 0.0, 4.0)
    @example(1.8, 110.0, 4.9e3, 9.4e3, 44.0, 1.2e4, 60.0, 8.0)
    @example(1.2, 75.0, 2e3, 10.0, 0.2, -2e3, -1.5, 6.0)
    def test_equals_vector_rk4_on_every_branch(self, omega_t, omega_g, t_tw,
                                               t_g, beta, t_g_ref, beta_ref, v):
        # the step and the rates at the drawn state: bit for bit, or the
        # same error from both routes
        params = TurbineParams()
        state = PlantState(omega_t, omega_g, t_tw, t_g, beta)
        u = ControlInput(t_g_ref, beta_ref)
        for route, reference, args in (
                (step, rk4_step_reference, (state, u, v, params.t_s, params)),
                (derivatives, derivatives_reference, (state, u, v, params))):
            try:
                expected = reference(*args)
            except Exception as exc:
                with pytest.raises(type(exc), match=re.escape(str(exc))):
                    route(*args)
            else:
                got = route(*args)
                assert (list(map(float.hex, got))
                        == list(map(float.hex, expected)))

    def test_rotor_speed_driven_nonpositive_raises(self, params):
        # a torsional torque far above the aerodynamic torque reverses the
        # rotor within the first substep; the stage rates must refuse it
        state = PlantState(0.005, 0.3, 1e6, 0.0, 0.0)
        with pytest.raises(DomainError, match="rotor speed"):
            step(state, ControlInput(0.0, 0.0), 8.0, params.t_s, params)

    def test_nonpositive_wind_raises_before_integrating(self, params,
                                                        monkeypatch):
        import windmpc.turbine as turbine
        op = equilibrium(8.0, params)
        calls = []
        monkeypatch.setattr(turbine, "wind_power",
                            lambda *args: calls.append(args))
        for v in (0.0, -3.0):
            with pytest.raises(DomainError):
                step(op.x_bar, op.u_bar, v, params.t_s, params)
        assert calls == []

    def test_rejects_nonpositive_dt(self, params):
        op = equilibrium(8.0, params)
        with pytest.raises(DomainError):
            step(op.x_bar, op.u_bar, 8.0, 0.0, params)


class TestGeneratorPower:
    def test_zero_torque(self, params):
        assert generator_power(0.0, 120.0, params) == 0.0

    def test_direct_product(self):
        p = TurbineParams(eta=1.0)
        assert generator_power(100.0, 10.0, p) == 1000.0

    def test_matches_aerodynamic_power_at_lossless_steady_state(self, params):
        op = equilibrium(8.0, params)
        p_g = generator_power(op.x_bar.t_g, op.x_bar.omega_g, params)
        lam = tip_speed_ratio(op.x_bar.omega_t, 8.0, params)
        p_t = aerodynamic_power(8.0, lam, 0.0, params)
        assert p_g == pytest.approx(p_t, rel=1e-2)
        assert p_g == pytest.approx(5.79e5, rel=5e-3)


class TestTurbineParams:
    def test_derived_bound_defaults(self, params):
        assert params.omega_g_max == pytest.approx(159.3617, abs=1e-3)
        assert params.p_g_max == pytest.approx(1.506e6, rel=1e-3)
        assert params.t_g_max == pytest.approx(9449.9, abs=0.1)

    def test_invariant_validation(self):
        with pytest.raises(ValueError):
            TurbineParams(j_t=-1.0)
        with pytest.raises(ValueError):
            TurbineParams(beta_min=10.0, beta_max=5.0)
        with pytest.raises(ValueError):
            TurbineParams(cp_opt=0.7)
        with pytest.raises(ValueError):
            TurbineParams(eta=0.0)

    @pytest.mark.parametrize("beta_min", [-1.0, -2.0])
    def test_beta_min_at_or_below_cp_pole_rejected(self, beta_min):
        with pytest.raises(ValueError, match="pole"):
            TurbineParams(beta_min=beta_min)

    def test_beta_min_above_cp_pole_accepted(self):
        assert TurbineParams(beta_min=-0.5).beta_min == -0.5

    def test_explicit_bounds_override_derived_defaults(self):
        p = TurbineParams(omega_g_max=150.0, p_g_max=1.4e6, t_g_max=9000.0)
        assert (p.omega_g_max, p.p_g_max, p.t_g_max) == (150.0, 1.4e6, 9000.0)

    def test_empty_bounds_rejected_at_construction(self):
        # a torque, speed or power bound at or below zero leaves no input
        # or output range; it is named before any controller is built
        for name, value in (("t_g_max", -1.0), ("omega_g_max", -5.0),
                            ("p_g_max", 0.0)):
            with pytest.raises(ValueError, match=name):
                TurbineParams(**{name: value})

    @pytest.mark.parametrize("p_g_max", [None, math.inf])
    def test_t_g_max_has_no_default_without_a_speed_bound(self, p_g_max):
        # p_g_max / inf would be 0 (or NaN), a bound the user never set
        with pytest.raises(ValueError, match="t_g_max has no default"):
            TurbineParams(omega_g_max=math.inf, p_g_max=p_g_max)
        assert TurbineParams(omega_g_max=math.inf, p_g_max=p_g_max,
                             t_g_max=9000.0).t_g_max == 9000.0

    def test_t_g_max_default_without_a_power_bound_is_inf(self):
        assert TurbineParams(p_g_max=math.inf).t_g_max == math.inf

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", [f.name for f in fields(TurbineParams)])
    def test_non_finite_value_rejected(self, name, value):
        # NaN is rejected everywhere, +inf only outside the upper bounds
        explicit = dict(omega_g_max=150.0, p_g_max=1.4e6, t_g_max=9000.0)
        if value == math.inf and name in explicit:
            assert getattr(TurbineParams(**{**explicit, name: value}),
                           name) == math.inf
        else:
            with pytest.raises(ValueError, match=name):
                TurbineParams(**{**explicit, name: value})
