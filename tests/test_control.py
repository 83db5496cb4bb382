import numpy as np
import pytest

from windmpc import (DisturbanceEstimator, DomainError, OfflineMpc, OnlineMpc,
                     PlantState, build_model_set, equilibrium,
                     generator_power, reference, shift_constraints, step)


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
        assert cs.u_min[0] == pytest.approx(-op.t_t_bar / params.n_g, rel=1e-12)


class TestDisturbanceEstimator:
    def test_zero_innovation_keeps_estimate(self):
        est = DisturbanceEstimator()
        b_d = np.array([1e-3, 0.2, 300.0, 0.0, 0.0])
        for _ in range(50):
            est.update(np.zeros(5), b_d, b_d @ b_d)
        assert abs(est.d_hat) <= 1e-9

    def test_gain_off_freezes_estimate(self):
        est = DisturbanceEstimator(kappa=0.0)
        est.d_hat = 0.3
        est.update(np.ones(5), np.ones(5), 5.0)
        assert est.d_hat == 0.3

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
        assert controller.estimator.d_hat == pytest.approx(bias, abs=0.1)

    def test_clamped_to_limit(self):
        est = DisturbanceEstimator(kappa=1.0, limit=5.0)
        b_d = np.array([1.0])
        for _ in range(20):
            est.update(np.array([10.0]), b_d, 1.0)
        assert est.d_hat == 5.0


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

        import windmpc.control as control_mod

        def boom(*args, **kwargs):
            raise np.linalg.LinAlgError("synthetic failure")

        monkeypatch.setattr(control_mod, "build_model_set", boom)
        u_held, info = controller.step(state, 8.0)
        assert info.qp_status == "hold"
        assert u_held == u_first

    def test_model_set_pipeline_shapes(self, params, weights):
        ms = build_model_set(8.0, params, weights)
        assert ms.am.a_a.shape == (8, 8)
        assert ms.am.b_a.shape == (8, 2)
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
        assert ms.b_d.tolist() == ms.dm.b_d.ravel().tolist()
        assert ms.b_d_sq == float(ms.dm.b_d.ravel() @ ms.dm.b_d.ravel())
