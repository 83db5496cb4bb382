import math
from dataclasses import replace

import numpy as np
import pytest

from helpers import synthetic_log, ulp_sensitivity
from windmpc import (Metrics, OfflineMpc, OnlineMpc, SimLog, compute_metrics,
                     equilibrium, generate_wind, reference, run_closed_loop,
                     run_experiment)
from windmpc.config import build_config
from windmpc.errors import SimulationError
from windmpc.experiment import count_violations, violation_masks
from windmpc.output import write_csv
from windmpc.verify import LOG_REL_TOL, compare_logs


class TestComputeMetrics:
    def test_perfect_tracking_zero_error(self, params):
        metrics = compute_metrics(synthetic_log(100, params), params)
        assert metrics.rms_power_error == 0.0
        assert metrics.rms_speed_error == 0.0
        assert metrics.constraint_violations == 0

    def test_single_record_error(self, params):
        log = synthetic_log(1, params, power_error=np.array([100.0]))
        assert compute_metrics(log, params).rms_power_error == pytest.approx(100.0)

    def test_sinusoidal_error_rms(self, params):
        n = 1000
        cycles = 5
        amplitude = 321.0
        err = amplitude * np.sin(2.0 * np.pi * cycles * np.arange(n) / n)
        log = synthetic_log(n, params, power_error=err)
        assert compute_metrics(log, params).rms_power_error == pytest.approx(
            amplitude / math.sqrt(2.0), abs=1e-9)

    def test_energy_is_power_sum_times_sampling(self, params):
        log = synthetic_log(200, params)
        assert compute_metrics(log, params).energy == pytest.approx(
            200 * 1e5 * params.t_s)

    def test_violation_counting(self, params):
        log = synthetic_log(10, params)
        log.beta_ref = np.array([0, 0, 0.6, 0.6, 0.6, 0, 0, 0, 0, 0],
                                dtype=float)  # one +0.6 move, one -0.6 move
        metrics = compute_metrics(log, params)
        assert metrics.constraint_violations == 2

    def test_pitch_move_down_checked_against_its_own_limit(self, params):
        # beta_rate_min = -2 deg/s allows -0.1 deg per sample, so the -0.3
        # move breaches it while the +0.3 move stays within beta_rate_max
        slow_down = replace(params, beta_rate_min=-2.0)
        log = synthetic_log(10, slow_down)
        log.beta_ref = np.array([0, 0, 0.3, 0.3, 0.3, 0, 0, 0, 0, 0],
                                dtype=float)
        masks = violation_masks(log, slow_down)
        assert {name: int(np.count_nonzero(mask))
                for name, mask in masks.items() if mask.any()} \
            == {"pitch move down": 1}
        assert count_violations(log, slow_down) == 1

    def test_empty_log_zero_metrics(self, params):
        assert compute_metrics(SimLog(), params) == Metrics()


class TestRunClosedLoop:
    def test_regulation_at_constant_wind(self, params, weights):
        profile = generate_wind("constant", 0, 60.0, params, level=7.0)
        x0 = np.asarray(equilibrium(7.0, params).x_bar, dtype=float)
        x0[1] *= 0.9
        from windmpc import PlantState
        log = run_closed_loop(profile, OnlineMpc(params, weights), params,
                              PlantState(*x0))
        ref = reference(7.0, params).omega_g_ref
        assert abs(log.omega_g[-1] - ref) / ref < 0.01
        assert len(log) == 1200

    def test_logs_the_controllers_reference_hold_samples_included(
            self, params, weights, monkeypatch):
        import windmpc.control as control_mod

        solve = control_mod.mpc_step
        calls = []

        def every_third_fails(*args):
            calls.append(None)
            if len(calls) % 3 == 0:
                raise np.linalg.LinAlgError("synthetic failure")
            return solve(*args)

        monkeypatch.setattr(control_mod, "mpc_step", every_third_fails)
        profile = generate_wind("turbulent", 3, 3.0, params, level=8.7, std=1.0)
        log = run_closed_loop(profile, OfflineMpc(params, weights), params)
        assert log.qp_status.count("hold") == 20
        assert log.omega_g_ref.tolist() == [
            reference(v, params).omega_g_ref for v in log.v.tolist()]

    def test_zero_length_profile(self, params, weights):
        profile = generate_wind("constant", 0, 0.0, params)
        log = run_closed_loop(profile, OnlineMpc(params, weights), params)
        assert len(log) == 0

    def test_controller_failure_carries_step_index(self, params, weights):
        profile = generate_wind("constant", 0, 1.0, params, level=7.0)

        class Broken:
            def __init__(self):
                self.calls = 0

            def step(self, state, v):
                if self.calls >= 3:
                    raise RuntimeError("synthetic")
                self.calls += 1
                from windmpc import ControlInput
                return ControlInput(3e3, 0.0), type("I", (), {
                    "mode": "online", "qp_status": "optimal",
                    "qp_iterations": 1, "n_active": 0, "cost": 0.0,
                    "solve_time": 0.0, "d_hat": 0.0,
                    "omega_g_ref": 101.412})()

        with pytest.raises(SimulationError) as err:
            run_closed_loop(profile, Broken(), params)
        assert err.value.step == 3


class TestOfflineDeterminism:
    # each OfflineMpc learns its own QP law tables as it runs, so a run must
    # still be a pure function of its profile and initial state
    def _csv_rows(self, params, weights, duration, path):
        profile = generate_wind("turbulent", 2024, duration, params, level=8.7,
                                std=1.0)
        log = run_closed_loop(profile, OfflineMpc(params, weights), params)
        return write_csv(log, path).read_text().splitlines()

    @staticmethod
    def _first_difference(rows, other):
        # an index, so that a failure reports one row, not a 1,200-row diff
        return next((i for i, (a, b) in enumerate(zip(rows, other)) if a != b),
                    None)

    def test_fresh_runs_repeat_byte_for_byte(self, params, weights, tmp_path):
        first = self._csv_rows(params, weights, 60.0, tmp_path / "a.csv")
        again = self._csv_rows(params, weights, 60.0, tmp_path / "b.csv")
        prefix = self._csv_rows(params, weights, 10.0, tmp_path / "c.csv")
        assert (len(first), len(again), len(prefix)) == (1201, 1201, 201)
        assert self._first_difference(first, again) is None
        assert self._first_difference(first, prefix) is None


class TestCompareLogs:
    def test_identical_logs_agree(self, params):
        ok, report = compare_logs(synthetic_log(5, params),
                                  synthetic_log(5, params), params)
        assert ok
        assert "first differing row None" in report

    def test_reports_status_and_gap_and_first_row(self, params):
        a, b = synthetic_log(6, params), synthetic_log(6, params)
        b.qp_status[4] = "hold"
        b.qp_iters[5] = 7
        b.omega_g[2] *= 1.0 + 2.0 * LOG_REL_TOL
        ok, report = compare_logs(a, b, params)
        assert not ok
        assert "differ on 2, first differing row 2" in report
        assert "omega_g 2.0e-06 (row 2)" in report
        assert "0/0 against 1/0" in report

    def test_gap_within_tolerance_agrees(self, params):
        a, b = synthetic_log(3, params), synthetic_log(3, params)
        b.p_t = b.p_t * (1.0 + 0.5 * LOG_REL_TOL)
        assert compare_logs(a, b, params)[0]

    def test_row_count_mismatch(self, params):
        ok, report = compare_logs(synthetic_log(3, params),
                                  synthetic_log(4, params), params)
        assert not ok and "3 against 4" in report


class TestSensitivityProbe:
    @pytest.mark.parametrize("level, std", [(8.7, 1.0), (10.3, 1.5)])
    def test_one_ulp_of_rotor_speed_stays_rounding_noise(self, params,
                                                         weights, level, std):
        # the 60 s offline loop of the benchmark's wind and of gusts near
        # rated, from omega_t(0) and from the next double up: the ulp must
        # reach the log and stay three orders below LOG_REL_TOL, so that a
        # drift near the tolerance reads as a change in the answers
        profile = generate_wind("turbulent", 2024, 60.0, params, level=level,
                                std=std)
        ok, worst, report = ulp_sensitivity(
            profile, lambda: OfflineMpc(params, weights), params)
        assert ok, report
        assert 0.0 < worst <= 1e-3 * LOG_REL_TOL, report


class TestRunExperiment:
    def test_comparison_shares_profile_and_start(self, params):
        config = build_config(overrides={
            "controller": "both", "wind_kind": "constant", "wind_level": 7.0,
            "duration": 2.0, "seed": 1})
        results = run_experiment(config)
        assert set(results) == {"offline", "online"}
        off_log, on_log = results["offline"][0], results["online"][0]
        assert np.array_equal(off_log.v, on_log.v)
        assert off_log.omega_g[0] == on_log.omega_g[0]

    def test_single_controller_run(self, params):
        config = build_config(overrides={
            "controller": "online", "wind_kind": "constant",
            "wind_level": 7.0, "duration": 1.0})
        results = run_experiment(config)
        assert list(results) == ["online"]
        log, metrics = results["online"]
        assert len(log) == 20
        assert metrics.step_time_mean > 0.0


class TestTorqueTotalVariation:
    def test_constant_torque_zero(self, params):
        log = synthetic_log(50, params)
        assert compute_metrics(log, params).torque_total_variation == 0.0

    def test_known_staircase(self, params):
        log = synthetic_log(4, params)
        log.t_g_ref = np.array([0.0, 10.0, 5.0, 25.0])
        tv = compute_metrics(log, params).torque_total_variation
        assert tv == pytest.approx(35.0)
