import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import windmpc.control as control_mod
import windmpc.linearize as linearize_mod
from windmpc import (DomainError, MpcWeights, OfflineMpc, OnlineMpc,
                     PlantState, TurbineParams, aerodynamic_torque,
                     build_model_set, equilibrium,
                     generate_wind, generator_power, reference,
                     run_closed_loop, step)
from windmpc.control import (D_HAT_LIMIT, EXPANSION_REL_TOL, FACTOR_TOL,
                             assemble_model_set, certified_root,
                             expanded_arrays, model_arrays, model_expansion)
from windmpc.qp import cholesky_root, factor_from_root, factorize
from windmpc.verify import compare_logs

from helpers import (DirectOnlineMpc, condense_constraints_reference,
                     condense_cost_reference, shift_constraints)


class TestReference:
    def test_arithmetic_values(self, params):
        assert reference(7.0, params).omega_g_ref == pytest.approx(101.412,
                                                                   abs=1e-9)
        assert reference(8.7, params).omega_g_ref == pytest.approx(126.04,
                                                                   abs=5e-3)

    def test_linearity(self, params):
        assert reference(10.0, params).omega_g_ref == pytest.approx(
            2.0 * reference(5.0, params).omega_g_ref)

    def test_power_reference(self, params):
        ref = reference(8.0, params)
        expected = 0.5 * params.rho * np.pi * params.radius**2 * 8.0**3 \
            * params.cp_opt * params.eta
        assert ref.p_g_ref == pytest.approx(expected)

    def test_rejects_nonpositive_wind(self, params):
        with pytest.raises(DomainError):
            reference(0.0, params)


class TestShiftConstraints:
    def test_zero_pitch_operating_point_keeps_absolute_bounds(self, params):
        cs = shift_constraints(equilibrium(8.0, params), params)
        assert cs.u_min[1] == params.beta_min
        assert cs.u_max[1] == params.beta_max
        assert cs.du_max[1] == pytest.approx(0.5)
        assert cs.du_min[1] == pytest.approx(-0.5)

    def test_round_trip_recovers_absolute_bounds(self, params):
        op = equilibrium(9.3, params)
        cs = shift_constraints(op, params)
        assert cs.u_min[0] + op.u_bar.t_g_ref == pytest.approx(0.0)
        assert cs.u_max[0] + op.u_bar.t_g_ref == pytest.approx(params.t_g_max)

    def test_torque_lower_bound_is_minus_equilibrium_torque(self, params):
        op = equilibrium(10.0, params)
        cs = shift_constraints(op, params)
        t_t = aerodynamic_torque(op.x_bar.omega_t, 10.0, op.x_bar.beta, params)
        assert cs.u_min[0] == pytest.approx(-t_t / params.n_g, rel=1e-12)


class TestDisturbanceEstimator:
    """The controllers' estimate d_hat: each step adds kappa times the
    innovation against the previous step's prediction, projected onto that
    model's b_d, then clamps it to +-D_HAT_LIMIT."""

    @staticmethod
    def step_off_prediction(controller, along_b_d, v=8.0):
        """One step measuring the last prediction moved by along_b_d * b_d."""
        x_pred, ms = controller._prediction
        return controller.step(x_pred + along_b_d * ms.b_d, v)[1]

    def test_zero_innovation_keeps_estimate(self, params, weights):
        for cls in (OfflineMpc, OnlineMpc):
            controller = cls(params, weights)
            controller.step(equilibrium(8.0, params).x_bar, 8.0)
            controller.d_hat = 0.3
            for _ in range(50):
                info = self.step_off_prediction(controller, 0.0)
                assert controller.d_hat == info.d_hat == 0.3

    def test_gain_off_freezes_estimate(self, params, weights):
        controller = OfflineMpc(params, weights, kappa=0.0)
        state = equilibrium(8.0, params).x_bar
        for v in (5.0, 10.5, 7.0):  # large innovations as the wind jumps
            controller.step(state, v)
        assert controller.d_hat == 0.0
        controller.d_hat = 0.3
        assert self.step_off_prediction(controller, 10.0).d_hat == 0.3

    def test_recovers_injected_bias_in_closed_loop(self, params, weights):
        # plant sees v + 0.5 m/s while the controller measures v
        v_measured = 7.5
        bias = 0.5
        controller = OnlineMpc(params, weights)
        state = equilibrium(v_measured + bias, params).x_bar
        t = 0.0
        while t < 10.0:
            u, info = controller.step(state, v_measured)
            state = step(state, u, v_measured + bias, params.t_s, params)
            t += params.t_s
        assert controller.d_hat == pytest.approx(bias, abs=0.1)

    def test_clamped_to_limit(self, params, weights):
        controller = OfflineMpc(params, weights, kappa=1.0)
        controller.step(equilibrium(8.0, params).x_bar, 8.0)
        # a projected innovation of 10 (then -20) moves d_hat past the clamp
        assert self.step_off_prediction(controller, 10.0).d_hat == D_HAT_LIMIT
        assert self.step_off_prediction(controller, -20.0).d_hat == -D_HAT_LIMIT
        assert controller.d_hat == -D_HAT_LIMIT

    @pytest.mark.parametrize("cls", [OfflineMpc, OnlineMpc])
    def test_negative_gain_rejected(self, params, weights, cls):
        for kappa in (-0.1, float("nan")):
            with pytest.raises(ValueError, match="kappa"):
                cls(params, weights, kappa=kappa)


class TestOfflineMpc:
    def test_switch_happens_exactly_once_across_threshold(self, params, weights):
        controller = OfflineMpc(params, weights)
        state = equilibrium(8.69, params).x_bar
        switches = []
        for v in (8.69, 8.71):
            controller.step(state, v)
            switches.append(controller.active_index)
        assert switches == [0, 1]
        assert controller.bank[0].op.v_bar == 6.4
        assert controller.bank[1].op.v_bar == 10.0

    def test_selection_is_pure_function_of_wind(self, params, weights):
        controller = OfflineMpc(params, weights)
        state = equilibrium(8.0, params).x_bar
        pattern = [8.69, 8.71, 8.69, 8.71]
        seen = []
        for v in pattern:
            controller.step(state, v)
            seen.append(controller.active_index)
        assert seen == [0, 1, 0, 1]

    def test_hysteresis_band_suppresses_chcatter(self, params, weights):
        controller = OfflineMpc(params, weights, hysteresis=0.2)
        state = equilibrium(8.0, params).x_bar
        seen = []
        for v in (8.75, 8.95, 8.75, 8.45, 8.95):
            controller.step(state, v)
            seen.append(controller.active_index)
        assert seen == [0, 1, 1, 0, 1]

    def test_negative_hysteresis_rejected(self, params, weights):
        with pytest.raises(ValueError, match="hysteresis"):
            OfflineMpc(params, weights, hysteresis=-0.2)

    @pytest.mark.parametrize("layout", [
        dict(op_low=10.0, op_high=6.4),
        dict(op_low=8.0, op_high=8.0, v_switch=8.0),
        dict(v_switch=50.0),
        dict(v_switch=6.3),
        dict(v_switch=float("nan"))],
        ids=["reversed", "one_point", "switch_above", "switch_below",
             "switch_nan"])
    def test_bank_layout_rejected(self, params, weights, layout):
        # before any model is built
        with pytest.raises(ValueError, match="op_low < op_high and v_switch"):
            OfflineMpc(params, weights, **layout)

    def test_converges_to_zero_pitch_at_own_operating_point(self, params, weights):
        controller = OfflineMpc(params, weights)
        state = equilibrium(6.4, params).x_bar
        u = None
        for _ in range(int(20.0 / params.t_s)):
            u, _ = controller.step(state, 6.4)
            state = step(state, u, 6.4, params.t_s, params)
        assert abs(u.beta_ref) <= 0.1

    @pytest.mark.parametrize("mode,cls", [("offline", OfflineMpc),
                                          ("online", OnlineMpc)],
                             ids=["offline", "online"])
    def test_saturation_contract(self, params, weights, rng, mode, cls):
        controller = cls(params, weights)
        for _ in range(40):
            state = PlantState(rng.uniform(0.8, 2.5), rng.uniform(50.0, 158.0),
                               rng.uniform(-1e4, 1e4), rng.uniform(0.0, 9.4e3),
                               rng.uniform(0.0, 45.0))
            v = rng.uniform(4.0, 10.99)
            u, info = controller.step(state, v)
            assert 0.0 <= u.t_g_ref <= params.t_g_max
            assert params.beta_min <= u.beta_ref <= params.beta_max
            assert info.mode == mode
            assert info.qp_status in {"optimal", "fallback", "hold"}

    def test_holds_previous_input_on_qp_failure(self, params, weights,
                                                monkeypatch):
        controller = OfflineMpc(params, weights)
        state = equilibrium(8.0, params).x_bar
        u_first, info = controller.step(state, 8.0)
        assert info.qp_status == "optimal"

        import windmpc.control as control_mod

        def boom(*args, **kwargs):
            raise np.linalg.LinAlgError("synthetic failure")

        monkeypatch.setattr(control_mod, "mpc_step", boom)
        u_held, info = controller.step(state, 8.0)
        assert info.qp_status == "hold"
        assert info.mode == "offline"
        assert u_held == u_first

    def test_rejects_wind_outside_partial_load(self, params, weights):
        controller = OfflineMpc(params, weights)
        state = equilibrium(8.0, params).x_bar
        for v in (3.5, 11.0, 12.0):
            with pytest.raises(DomainError):
                controller.step(state, v)


class TestRegulationInvariant:
    # criterion 6 covers online@7 and offline@{6.4, 10}; this sweeps the
    # remaining (controller, wind) pairs of the regulation invariant
    @pytest.mark.parametrize("name,v", [
        ("online", 5.0), ("online", 6.4), ("online", 8.7), ("online", 10.0),
        ("offline", 5.0), ("offline", 7.0), ("offline", 8.7)])
    def test_one_percent_within_thirty_seconds(self, params, weights, name, v):
        controller = (OnlineMpc if name == "online" else OfflineMpc)(params,
                                                                     weights)
        x0 = np.asarray(equilibrium(v, params).x_bar, dtype=float)
        x0[1] *= 0.9
        state = PlantState(*x0)
        t = 0.0
        while t < 30.0:
            u, _ = controller.step(state, v)
            state = step(state, u, v, params.t_s, params)
            t += params.t_s
        ref = reference(v, params).omega_g_ref
        assert abs(state.omega_g - ref) / ref < 0.01


class TestOnlineMpc:
    def test_regulation_from_perturbed_start(self, params, weights):
        controller = OnlineMpc(params, weights)
        x0 = np.asarray(equilibrium(7.0, params).x_bar, dtype=float)
        x0[1] *= 0.9
        state = PlantState(*x0)
        ref = reference(7.0, params).omega_g_ref
        t = 0.0
        while t < 30.0:
            u, _ = controller.step(state, 7.0)
            state = step(state, u, 7.0, params.t_s, params)
            t += params.t_s
        assert abs(state.omega_g - ref) / ref < 0.01

    def test_matches_offline_at_shared_linearization_point(self, params, weights):
        x0 = np.asarray(equilibrium(6.4, params).x_bar, dtype=float)
        x0[1] *= 0.95
        state = PlantState(*x0)
        u_on, _ = OnlineMpc(params, weights).step(state, 6.4)
        u_off, _ = OfflineMpc(params, weights).step(state, 6.4)
        assert u_on.t_g_ref == pytest.approx(u_off.t_g_ref, abs=1e-6)
        assert u_on.beta_ref == pytest.approx(u_off.beta_ref, abs=1e-6)

    def test_holds_previous_input_on_pipeline_failure(self, params, weights,
                                                      monkeypatch):
        controller = OnlineMpc(params, weights)
        state = equilibrium(8.0, params).x_bar
        u_first, info = controller.step(state, 8.0)
        assert info.qp_status == "optimal"

        def boom(*args, **kwargs):
            raise DomainError("synthetic failure")

        monkeypatch.setattr(control_mod, "equilibrium", boom)
        u_held, info = controller.step(state, 8.0)
        assert info.qp_status == "hold"
        assert u_held == u_first
        assert info.omega_g_ref == reference(8.0, params).omega_g_ref

    def test_pipeline_failure_before_first_input_propagates(self, params,
                                                           weights,
                                                           monkeypatch):
        controller = OnlineMpc(params, weights)
        state = equilibrium(8.0, params).x_bar

        def boom(*args, **kwargs):
            raise np.linalg.LinAlgError("synthetic failure")

        monkeypatch.setattr(control_mod, "certified_root", boom)
        with pytest.raises(np.linalg.LinAlgError, match="synthetic"):
            controller.step(state, 8.0)
        monkeypatch.undo()
        u_first, _ = controller.step(state, 8.0)
        monkeypatch.setattr(control_mod, "certified_root", boom)
        u_held, info = controller.step(state, 8.0)
        assert info.qp_status == "hold"
        assert u_held == u_first

    def test_model_set_pipeline_shapes(self, params, weights):
        ms = build_model_set(8.0, params, weights)
        assert ms.a_d.shape == (5, 5)
        assert ms.b_du.shape == (5, 2)
        assert ms.qp.factor.h.shape == (2 * weights.n_c, 2 * weights.n_c)
        assert ms.qp.factor.g.shape[1] == 2 * weights.n_c
        # finite bounds only: 2 output caps * n_p + 4 input rows * n_c
        # + 2 pitch move rows * n_c
        assert ms.qp.factor.g.shape[0] == 2 * weights.n_p + 4 * weights.n_c \
            + 2 * weights.n_c

    def test_model_set_caches_the_step_offsets(self, params, weights):
        ms = build_model_set(8.0, params, weights)
        assert ms.x_bar.tolist() == list(ms.op.x_bar)
        assert ms.u_bar.tolist() == list(ms.op.u_bar)
        assert ms.p_g_bar == generator_power(ms.op.x_bar.t_g,
                                             ms.op.x_bar.omega_g, params)
        b_d = model_arrays(ms.op, params, weights)[2].ravel()
        assert ms.b_d.tolist() == b_d.tolist()
        assert ms.b_d_sq == float(b_d @ b_d)


class TestModelExpansion:
    @settings(max_examples=50, deadline=None)
    @given(v=st.floats(4.0, 11.0, exclude_max=True))
    def test_equals_direct_build_within_tolerance(self, params, weights, v):
        direct = model_arrays(equilibrium(v, params), params, weights)
        expanded = expanded_arrays(model_expansion(params, weights), v)
        for want, got in zip(direct, expanded):
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= EXPANSION_REL_TOL * np.abs(
                want).max()

    def test_cached_read_only_and_built_at_construction(self, params, weights):
        model_expansion.cache_clear()
        controller = OnlineMpc(params, weights)
        assert model_expansion.cache_info().currsize == 1
        assert OnlineMpc(params, weights).expansion is controller.expansion
        coef, _ = controller.expansion
        assert coef.shape == (control_mod.EXPANSION_DEGREE + 1, 1440)
        assert not coef.flags.writeable

    @pytest.mark.parametrize("changed", [dict(q2=1.0), dict(n_p=60, n_c=10)],
                             ids=["power_weight", "long_horizon"])
    def test_resolves_other_weights(self, params, changed):
        # a power-error weight resolves only from degree 12, a 60-sample
        # horizon from 10; the default weights from 8
        model_expansion.__wrapped__(params, MpcWeights(**changed))

    def test_unresolved_model_rejected(self, weights, monkeypatch):
        monkeypatch.setattr(control_mod, "EXPANSION_DEGREE", 4)
        with pytest.raises(DomainError, match="not resolved"):
            model_expansion.__wrapped__(TurbineParams(), weights)

    def test_closed_loop_matches_direct_build_every_sample(self, params,
                                                           weights):
        # 60 s of perfbench's online_turbulent wind
        profile = generate_wind("turbulent", 2024, 60.0, params, level=8.7,
                                std=1.0)
        x0 = equilibrium(profile.v[0], params).x_bar
        logs = [run_closed_loop(profile, cls(params, weights), params, x0)
                for cls in (OnlineMpc, DirectOnlineMpc)]
        ok, report = compare_logs(*logs, params)
        assert ok, report


def assert_bitwise(got, want):
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestCertifiedRoot:
    @pytest.fixture
    def factor(self, params, weights):
        return build_model_set(8.3, params, weights).qp.factor

    def test_direct_root_passes_unchanged(self, factor):
        root = cholesky_root(factor.h)
        assert certified_root(factor.h, root) is root

    def test_refines_a_scaled_root_to_a_fresh_factor(self, factor):
        # E = 2e-4 I, then about 3e-8, then rounding: quadratic convergence
        root = certified_root(factor.h, 1.0001 * cholesky_root(factor.h))
        e = root.T @ factor.h @ root - np.eye(len(root))
        assert np.abs(e).max() <= FACTOR_TOL
        got, want = factor_from_root(factor.h, factor.g, root), factor
        for name in ("h_inv", "h_inv_gt", "m"):
            gap = np.abs(getattr(got, name) - getattr(want, name)).max()
            assert gap <= 1e-12 * np.abs(getattr(want, name)).max()

    def test_refines_a_perturbed_root_to_the_tolerance(self, factor, rng):
        # the correction stops once E is within FACTOR_TOL, so the factor
        # on it is as close to the fresh one as that
        exact = cholesky_root(factor.h)
        for _ in range(5):
            noisy = exact * (1.0 + 1e-4 * rng.standard_normal(exact.shape))
            root = certified_root(factor.h, noisy)
            e = root.T @ factor.h @ root - np.eye(len(root))
            assert np.abs(e).max() <= FACTOR_TOL
            got = factor_from_root(factor.h, factor.g, root)
            for name in ("h_inv", "h_inv_gt", "m"):
                want = getattr(factor, name)
                gap = np.abs(getattr(got, name) - want).max()
                assert gap <= 10.0 * FACTOR_TOL * np.abs(want).max()

    def test_unrepairable_root_rejected(self, factor):
        with pytest.raises(np.linalg.LinAlgError, match="corrections"):
            certified_root(factor.h, np.zeros_like(factor.h))


class TestCondenseRoute:
    @settings(max_examples=30, deadline=None)
    @given(v=st.floats(4.0, 11.0, exclude_max=True),
           t_g_max=st.floats(1e3, 3e4), omega_g_max=st.floats(50.0, 400.0),
           p_g_max=st.floats(1e5, 5e6), beta_min=st.floats(-0.9, 5.0),
           beta_span=st.floats(0.5, 90.0),
           rate_min=st.floats(-30.0, -0.01), rate_max=st.floats(0.01, 30.0))
    def test_equals_the_reference_route_bit_for_bit(
            self, weights, v, t_g_max, omega_g_max, p_g_max, beta_min,
            beta_span, rate_min, rate_max):
        # the controllers' route (model_arrays, bounds about the point,
        # condense) against the loop references and a fresh factorize
        params = TurbineParams(
            t_g_max=t_g_max, omega_g_max=omega_g_max, p_g_max=p_g_max,
            beta_min=beta_min, beta_max=beta_min + beta_span,
            beta_rate_min=rate_min, beta_rate_max=rate_max)
        bank = OfflineMpc(params, weights).bank
        op = equilibrium(v, params)
        online = assemble_model_set(op, model_arrays(op, params, weights),
                                    params, weights)
        for ms in (*bank, online):
            gamma, phi = model_arrays(ms.op, params, weights)[5:7]
            bounds = shift_constraints(ms.op, params)
            h, f = condense_cost_reference(phi, gamma, weights)
            g, w, s = condense_constraints_reference(phi, gamma, bounds,
                                                     weights)
            want = factorize(h, g)
            for name in ("h", "g", "h_inv", "h_inv_gt", "m"):
                assert_bitwise(getattr(ms.qp.factor, name),
                               getattr(want, name))
            for got, want in ((ms.qp.f, f), (ms.qp.w, w), (ms.qp.s, s),
                              (ms.qp.du_min, bounds.du_min),
                              (ms.qp.du_max, bounds.du_max)):
                assert_bitwise(got, want)


class TestTracedView:
    """perfbench's traced runs wrap ``control.condense`` by name, so each
    model the controllers build must pass through that global."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        condense = control_mod.condense

        def counting(*args, **kwargs):
            calls.append(args)
            return condense(*args, **kwargs)

        monkeypatch.setattr(control_mod, "condense", counting)
        return calls

    @pytest.mark.parametrize("cls, built, per_step",
                             [(OnlineMpc, 0, 1), (OfflineMpc, 2, 0)],
                             ids=["online", "offline"])
    def test_condense_calls(self, params, weights, calls, cls, built,
                            per_step):
        controller = cls(params, weights)
        assert len(calls) == built
        state = equilibrium(8.0, params).x_bar
        for k in range(20):
            u, info = controller.step(state, 8.0 + 0.05 * k)
            assert info.qp_status == "optimal"
            state = step(state, u, 8.0 + 0.05 * k, params.t_s, params)
        assert len(calls) == built + 20 * per_step


class TestTorqueGradientCalls:
    """Only a model build reads the torque gradients: an online sample
    evaluates its expansion and needs none, the bank needs one per model."""

    def test_online_samples_read_none_and_the_bank_two(self, params, weights,
                                                        monkeypatch):
        online = OnlineMpc(params, weights)  # builds its expansion unpatched
        calls = []
        gradients = linearize_mod.torque_gradients

        def counting(*args):
            calls.append(args)
            return gradients(*args)

        monkeypatch.setattr(linearize_mod, "torque_gradients", counting)
        state = equilibrium(8.0, params).x_bar
        for k in range(50):
            u, info = online.step(state, 8.0 + 0.02 * k)
            assert info.qp_status == "optimal"
            state = step(state, u, 8.0 + 0.02 * k, params.t_s, params)
        assert len(calls) == 0
        OfflineMpc(params, weights)
        assert len(calls) == 2
