"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them on
success). The closed-loop scenarios are deliberately shared across
criteria to keep the suite within a couple of minutes.
"""

import time

import numpy as np
import pytest

from windmpc import (MpcWeights, OfflineMpc, OnlineMpc, PlantState,
                     TurbineParams, compute_metrics, equilibrium,
                     generate_wind, reference, run_closed_loop, step,
                     torque_total_variation)
from windmpc.experiment import violation_masks
from windmpc.verify import (CP_SWEEP_BUDGET_S, JACOBIAN_SWEEP_BUDGET_S,
                            QP_BENCH_BUDGET_S, QP_INSTANCES, SAMPLE_BUDGET_S,
                            check_condensation, check_cp_peak,
                            check_linearization, check_model_expansion,
                            check_qp_solver, check_zoh_diagonals)

PARAMS = TurbineParams()
WEIGHTS = MpcWeights()


def _report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def turbulent_comparison():
    """600 s turbulent profile run by both controllers (criteria 7 and 9)."""
    profile = generate_wind("turbulent", 2024, 600.0, PARAMS)
    x0 = equilibrium(profile.v[0], PARAMS).x_bar
    logs = {}
    for name, controller in (("offline", OfflineMpc(PARAMS, WEIGHTS)),
                             ("online", OnlineMpc(PARAMS, WEIGHTS))):
        logs[name] = run_closed_loop(profile, controller, PARAMS, x0)
    return logs


def _timed(check, *args):
    t0 = time.perf_counter()
    ok, detail = check(*args)
    return ok, detail, time.perf_counter() - t0


def test_criterion_1_cp_peak():
    ok, detail, elapsed = _timed(check_cp_peak, PARAMS)
    _report("criterion 1 (Cp peak)", ok and elapsed < CP_SWEEP_BUDGET_S,
            f"{detail}, {elapsed:.2f} s")


def test_criterion_2_linearization_fidelity():
    grid = np.arange(4.0, 11.0 + 1e-9, 0.1)
    ok, detail, elapsed = _timed(check_linearization, PARAMS, grid)
    _report("criterion 2 (linearization fidelity)",
            ok and elapsed < JACOBIAN_SWEEP_BUDGET_S, f"{detail}, {elapsed:.2f} s")


def test_criterion_3_discretization_diagonals():
    ok, detail = check_zoh_diagonals(PARAMS, 8.0)
    _report("criterion 3 (ZOH diagonals)", ok, detail)


def test_criterion_4_condensation_equivalence():
    ok, detail = check_condensation(PARAMS, WEIGHTS)
    _report("criterion 4 (condensed cost/constraint equivalence)", ok, detail)


def test_model_expansion_matches_direct_build():
    grid = np.arange(4.0, 11.0 + 1e-9, 0.1)
    ok, detail = check_model_expansion(PARAMS, WEIGHTS, grid)
    _report("online model expansion vs direct build", ok, detail)


@pytest.mark.xfail(strict=True, reason=(
    "open: at q2 = 1 the expansion's H is off by 2.2e-8 and H^-1 by 1.1e-7 "
    "against 1e-8. The gap is node noise from the Taylor matrix_exponential, "
    "amplified by interpolation: a higher degree does not close it, and with "
    "an accurate exponential at the nodes it reads 1.3e-12"))
def test_model_expansion_matches_direct_build_with_power_weight():
    grid = np.arange(4.0, 11.0 + 1e-9, 0.5)
    ok, detail = check_model_expansion(PARAMS, MpcWeights(q2=1.0), grid)
    _report("online model expansion vs direct build, q2 = 1", ok, detail)


def test_criterion_5_qp_solver_vs_enumeration():
    # every accepted solve is KKT-verified at 1e-8 scaling inside the solver
    ok, detail, elapsed = _timed(check_qp_solver, QP_INSTANCES, 0)
    _report("criterion 5 (QP solver vs enumeration oracle)",
            ok and elapsed < QP_BENCH_BUDGET_S, f"{detail}, {elapsed:.2f} s")


def _regulate(controller_name, v, duration=30.0):
    if controller_name == "online":
        controller = OnlineMpc(PARAMS, WEIGHTS)
    else:
        controller = OfflineMpc(PARAMS, WEIGHTS)
    x0 = np.asarray(equilibrium(v, PARAMS).x_bar, dtype=float)
    x0[1] *= 0.9
    state = PlantState(*x0)
    t = 0.0
    while t < duration:
        u, _ = controller.step(state, v)
        state = step(state, u, v, PARAMS.t_s, PARAMS)
        t += PARAMS.t_s
    ref = reference(v, PARAMS).omega_g_ref
    return abs(state.omega_g - ref) / ref


def test_criterion_6_regulation():
    online_err = _regulate("online", 7.0)
    offline_errs = {v: _regulate("offline", v) for v in (6.4, 10.0)}
    ok = online_err < 0.01 and all(e < 0.01 for e in offline_errs.values())
    _report("criterion 6 (regulation within 1% in 30 s)", ok,
            f"online@7: {online_err:.2e}, offline@6.4: "
            f"{offline_errs[6.4]:.2e}, offline@10: {offline_errs[10.0]:.2e}")


def test_criterion_7_constraint_satisfaction(turbulent_comparison):
    worst_desc = []
    ok = True
    for name, log in turbulent_comparison.items():
        masks = violation_masks(log, PARAMS)
        total = sum(int(np.count_nonzero(mask)) for bound, mask in masks.items()
                    if bound.startswith(("pitch", "torque")))
        ok &= total == 0
        worst_desc.append(f"{name}: {total} violations over {len(log)} steps")
    _report("criterion 7 (input-constraint satisfaction, 600 s turbulent)",
            ok, "; ".join(worst_desc))


def test_criterion_8_online_beats_offline_on_turbulent_seeds():
    # gusts at std 1.0 m/s so the wind explores both linearization regimes;
    # at the generator default (0.5) the two controllers are statistically
    # indistinguishable on power error
    lines = []
    ok = True
    for seed in (0, 1, 2):
        profile = generate_wind("turbulent", seed, 240.0, PARAMS, std=1.0)
        crossings = int(np.count_nonzero(np.diff(profile.v >= 8.7)))
        x0 = equilibrium(profile.v[0], PARAMS).x_bar
        runs = {}
        for name, controller in (("offline", OfflineMpc(PARAMS, WEIGHTS)),
                                 ("online", OnlineMpc(PARAMS, WEIGHTS))):
            log = run_closed_loop(profile, controller, PARAMS, x0)
            runs[name] = (compute_metrics(log, PARAMS).rms_power_error,
                          torque_total_variation(log))
        power_ok = runs["online"][0] <= runs["offline"][0]
        torque_ok = runs["online"][1] <= runs["offline"][1]
        ok &= power_ok and torque_ok and crossings >= 1
        lines.append(
            f"seed {seed}: {crossings} switch crossings, rms power "
            f"on/off {runs['online'][0]:.0f}/{runs['offline'][0]:.0f} W, "
            f"torque TV ratio {runs['online'][1] / runs['offline'][1]:.3f}")
    _report("criterion 8 (online <= offline on every turbulent seed)", ok,
            "; ".join(lines))


def test_criterion_9_realtime_budget(turbulent_comparison):
    times = turbulent_comparison["online"].step_time
    mean_ms = float(np.mean(times)) * 1e3
    p99_ms = float(np.percentile(times, 99)) * 1e3
    max_ms = float(np.max(times)) * 1e3
    budget_ms = SAMPLE_BUDGET_S * 1e3
    ok = mean_ms < budget_ms and p99_ms < budget_ms
    _report(f"criterion 9 (online step inside the {budget_ms:g} ms sampling "
            "budget)", ok,
            f"mean {mean_ms:.2f} ms, p99 {p99_ms:.2f} ms, max {max_ms:.2f} ms "
            f"over {times.size} steps [mean and p99 below {budget_ms:g} ms]")
