import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from windmpc import (ControlInput, DomainError, PlantState, TurbineParams,
                     aerodynamic_power, aerodynamic_torque, derivatives,
                     equilibrium, generator_power, power_coefficient, step,
                     tip_speed_ratio)
from windmpc.turbine import (_etd_coefficients, _etd_rk4, _torque,
                             power_coefficient_partials)

from helpers import derivatives_reference, rk4_step_reference

# the fine RK4 oracle of the plant step, at 2.5e-5 s per substep; its own
# error on one sample is about 1e-12
FINE_SUBSTEPS = 2000
# bounds on one sample's worst relative error against it, per state on the
# scale max(1, |x before|, |x after|), each 10x over the worst measured:
# 2.3e-4 over 1,000 draws of test_near_fine_rk4's states about operating
# points; 9.9e-3 over 8,500 draws of the branch test's ranges, in omega_g
# where a shaft torque of 4e5 N*m swings it by hundreds of rad/s within the
# sample (RK4 at 10 substeps: 6.6e-2)
STEP_REL_TOL = 3e-3
BRANCH_REL_TOL = 0.1

# frozen by direct scalar evaluation of the Cp closed form (independent script)
CP_AT_7_0 = 0.4512823932402688
CP_AT_PEAK = 0.48001190251033915
# 0.5 * 1.225 * pi * 35^2 * 8^3 * CP_AT_PEAK
POWER_V8_PEAK = 579313.9970585123


def assert_rates_match(got, expected):
    got, expected = np.asarray(got), np.asarray(expected)
    scale = np.maximum(np.maximum(np.abs(got), np.abs(expected)), 1.0)
    assert np.all(np.abs(got - expected) <= 1e-10 * scale)


def step_error(got, expected, state):
    """Worst relative error of a plant sample, per state on the scale
    max(1, |x before|, |x after|)."""
    got, expected = np.asarray(got), np.asarray(expected)
    scale = np.maximum(np.maximum(np.abs(np.asarray(state, dtype=float)),
                                  np.abs(expected)), 1.0)
    return float((np.abs(got - expected) / scale).max())


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
        # the A-form against the hand-written ODE: the check that ties the
        # matrices of unified_matrices, and so the linear model, to the physics
        for _ in range(100):
            x = np.array([rng.uniform(0.5, 3.0), rng.uniform(30.0, 180.0),
                          rng.uniform(-2e4, 2e4), rng.uniform(0.0, 9e3),
                          rng.uniform(0.0, 45.0)])
            u = np.array([rng.uniform(0.0, 9e3), rng.uniform(0.0, 45.0)])
            v = rng.uniform(4.0, 11.0)
            assert_rates_match(derivatives(x, u, v, params),
                               derivatives_reference(x, u, v, params))

    @settings(max_examples=300, deadline=None)
    @given(omega_t=st.floats(0.005, 3.0), omega_g=st.floats(0.0, 200.0),
           t_tw=st.floats(-2e4, 1e6), t_g=st.floats(0.0, 9.4e3),
           beta=st.floats(0.0, 45.0), t_g_ref=st.floats(-2e3, 1.2e4),
           beta_ref=st.floats(-2.0, 60.0),
           v=st.floats(4.0, 11.0, exclude_max=True))
    # the Cp clamp (lambda = 26)
    @example(3.0, 190.0, 1e3, 1e3, 0.0, 1e3, 0.0, 4.0)
    def test_matches_reference_on_every_branch(self, omega_t, omega_g, t_tw,
                                               t_g, beta, t_g_ref, beta_ref,
                                               v):
        params = TurbineParams()
        args = (PlantState(omega_t, omega_g, t_tw, t_g, beta),
                ControlInput(t_g_ref, beta_ref), v, params)
        assert_rates_match(derivatives(*args), derivatives_reference(*args))


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
            assert state.beta == pytest.approx(expected, abs=1e-8)

    def test_torque_first_order_response(self, params):
        op = equilibrium(8.0, params)
        t_g0, t_g_ref = op.x_bar.t_g, 8.0e3
        state = op.x_bar
        t = 0.0
        for _ in range(10):  # 25 time constants
            state = step(state, ControlInput(t_g_ref, 0.0), 8.0, params.t_s,
                         params)
            t += params.t_s
            expected = t_g_ref + (t_g0 - t_g_ref) * math.exp(-t / params.tau_g)
            assert state.t_g == pytest.approx(expected, rel=1e-10)

    def test_fourth_order_convergence(self, params):
        # one sample from a transient (omega_g 5% low, torque reference +10%,
        # pitch reference 0.5 deg, a gust to 8.3 m/s) at 1, 2 and 4 steps of
        # the exponential RK4 kernel
        op = equilibrium(8.0, params)
        x0 = op.x_bar._replace(omega_g=0.95 * op.x_bar.omega_g)
        u = ControlInput(1.1 * op.u_bar.t_g_ref, 0.5)
        fine = rk4_step_reference(x0, u, 8.3, params.t_s, params,
                                  substeps=FINE_SUBSTEPS)
        errors = [step_error(_etd_rk4(x0, u, _torque(8.3, params), params,
                                      _etd_coefficients(params, params.t_s / n),
                                      n), fine, x0) for n in (1, 2, 4)]
        assert errors[0] / errors[1] >= 8.0
        assert errors[1] / errors[2] >= 8.0

    def test_actuator_clamping(self, params):
        state = PlantState(1.8, 110.0, 4.9e3, 9.4e3, 44.0)
        u = ControlInput(5e4, 90.0)  # both references beyond their limits
        out = step(state, u, 8.0, params.t_s, params)
        assert out.t_g <= params.t_g_max
        assert out.beta <= params.beta_max

    def test_near_fine_rk4(self, params, rng):
        # states, inputs and gusts about operating points of the envelope
        for _ in range(50):
            v = rng.uniform(5.0, 10.5)
            op = equilibrium(v, params)
            state = np.asarray(op.x_bar) * (1.0 + 0.05 * rng.normal(size=5))
            state[4] = rng.uniform(0.0, 3.0)
            u = ControlInput(op.u_bar.t_g_ref * (1.0 + 0.05 * rng.normal()),
                             rng.uniform(0.0, 3.0))
            gust = v + 0.3 * rng.normal()
            fine = rk4_step_reference(state, u, gust, params.t_s, params,
                                      substeps=FINE_SUBSTEPS)
            assert step_error(step(state, u, gust, params.t_s, params),
                              fine, state) <= STEP_REL_TOL

    @settings(max_examples=200, deadline=None)
    @given(omega_t=st.floats(0.005, 3.0), omega_g=st.floats(0.0, 200.0),
           t_tw=st.floats(-2e4, 1e6), t_g=st.floats(0.0, 9.4e3),
           beta=st.floats(0.0, 45.0), t_g_ref=st.floats(-2e3, 1.2e4),
           beta_ref=st.floats(-2.0, 60.0),
           v=st.floats(4.0, 11.0, exclude_max=True))
    # the rotor reverses mid-sample; the Cp clamp (lambda = 26); the upper
    # and the lower actuator clamps
    @example(0.005, 0.3, 1e6, 0.0, 0.0, 0.0, 0.0, 8.0)
    @example(3.0, 190.0, 1e3, 1e3, 0.0, 1e3, 0.0, 4.0)
    @example(1.8, 110.0, 4.9e3, 9.4e3, 44.0, 1.2e4, 60.0, 8.0)
    @example(1.2, 75.0, 2e3, 10.0, 0.2, -2e3, -1.5, 6.0)
    # near a stop, where step refines: the fine rotor speed dips to 2.5e-4;
    # the rotor reverses; the steep torque of lambda 0.02 (see
    # test_near_stop_sample_is_refined); the Cp pole at lambda = -0.08 beta
    @example(0.005, 0.0, 1e5, 0.0, 40.0, 0.0, 0.0, 4.0)
    @example(0.005, 200.0, 2.8e5, 2e3, 10.0, 6e3, 4.0, 4.0)
    @example(0.005, 0.0, 10.0, 850.0, 45.0, 0.0, 60.0, 9.0)
    @example(0.005, 0.0, 13953.0, 0.0, 0.0, 0.0, -1.0, 4.0)
    def test_near_fine_rk4_on_every_branch(self, omega_t, omega_g, t_tw, t_g,
                                           beta, t_g_ref, beta_ref, v):
        # a sample within the bound of the fine oracle, or the same error
        # from both
        params = TurbineParams()
        state = PlantState(omega_t, omega_g, t_tw, t_g, beta)
        args = (state, ControlInput(t_g_ref, beta_ref), v, params.t_s, params)
        outcomes = []
        for route, kwargs in ((rk4_step_reference, dict(
                substeps=FINE_SUBSTEPS)), (step, {})):
            try:
                outcomes.append(route(*args, **kwargs))
            except Exception as exc:
                outcomes.append((type(exc), str(exc)))
        expected, got = outcomes
        if isinstance(expected, PlantState) and isinstance(got, PlantState):
            assert step_error(got, expected, state) <= BRANCH_REL_TOL
        else:
            assert got == expected

    def test_near_stop_sample_is_refined(self, params):
        # at lambda 0.02 and 45 deg the rotor torque grows as 1/omega_t; two
        # steps per sample gave t_tw -475 here where the reference gives 622
        state = PlantState(0.005, 0.0, 10.0, 850.0, 45.0)
        args = (state, ControlInput(0.0, 60.0), 9.0, params.t_s, params)
        fine = rk4_step_reference(*args, substeps=FINE_SUBSTEPS)
        assert fine.t_tw == pytest.approx(622.0, rel=1e-3)
        assert step_error(step(*args), fine, state) <= 1e-7

    @pytest.mark.xfail(strict=True, raises=DomainError, reason=(
        "a drawn state where only step raises: the rotor slows to about 6e-6 "
        "rad/s, where the 25 us steps of step's refined pass put a stage "
        "point below zero; the reference, RK4 at 20,000 substeps and 4,000 "
        "exponential steps keep it turning"))
    def test_near_stop_knife_edge(self, params):
        args = (PlantState(0.005, 200.0, 529961.5037138545, 7205.459164616214,
                           45.0),
                ControlInput(-1108.4463847902416, 32.12130362683354),
                4.8113005582426, params.t_s, params)
        fine = rk4_step_reference(*args, substeps=FINE_SUBSTEPS)
        assert step_error(step(*args), fine, args[0]) <= BRANCH_REL_TOL

    def test_cp_pole_raises_domain_error(self, params):
        # a pitch reference below zero drives beta under -lambda / 0.08 as
        # the rotor slows, onto the second pole of the Cp surface
        state = PlantState(0.005, 0.0, 13953.0, 0.0, 0.0)
        with pytest.raises(DomainError, match="Cp surface"):
            step(state, ControlInput(0.0, -1.0), 4.0, params.t_s, params)

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
