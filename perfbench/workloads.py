"""Workload definitions and one closed-loop episode with its output checks.

An episode is what ``windmpc.experiment.run_experiment`` followed by
``windmpc.output.emit`` does for one controller: generate a wind profile,
build the controller and the initial state, run the closed loop, compute
the metrics and write the CSV/SVG/metrics files. Only the public functions
those two call are used here, so set-up and loop time separate without
changes to the package.

This module imports neither numpy nor windmpc at load time, so the set-up
probe can import it before its clock starts.
"""

import hashlib
import json
import math
from contextlib import nullcontext
from dataclasses import dataclass
from time import perf_counter

from stats import count_failed

EPISODE_S = 60.0        # wind seconds per episode: 1,200 samples at 50 ms


@dataclass(frozen=True)
class Workload:
    name: str
    controller: str      # "offline" or "online"
    level: float         # mean wind, m/s
    std: float           # gust standard deviation, m/s


WORKLOADS = {w.name: w for w in (
    Workload("offline_turbulent", "offline", 8.7, 1.0),
    Workload("online_turbulent", "online", 8.7, 1.0),
    Workload("near_rated_gusts", "offline", 10.3, 1.5),
)}


def wind_seed(seed: int, index: int) -> int:
    """Profile seed of a run's episode ``index``: ``seed`` itself first, then
    seeds derived from it."""
    if index == 0:
        return int(seed)
    import numpy as np
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


class CheckError(AssertionError):
    """An emitted output does not match what the closed loop produced."""


@dataclass
class Episode:
    wind_seed: int
    samples: int
    setup_s: float       # profile + controller + x0, in process
    loop_s: float        # run_closed_loop + compute_metrics + emit
    step_time: list      # controller step seconds, one per sample
    failed: int          # fallback or hold samples
    violations: int
    sq_power_error: float  # sum over samples of (p_max - p_t)^2
    qp_iterations: int
    csv_sha256: str


def setup(windmpc, workload: Workload, wind_seed: int, params, weights, span=None,
          duration=EPISODE_S):
    """Wind profile, controller and initial state, as run_experiment builds them."""
    span = span or (lambda _name: nullcontext())
    with span("wind.generate_wind"):
        profile = windmpc.generate_wind("turbulent", wind_seed, duration, params,
                                   level=workload.level, std=workload.std)
    with span("experiment.make_controller"):
        controller = windmpc.experiment.make_controller(workload.controller,
                                                        params, weights)
    with span("linearize.x0"):
        x0 = windmpc.equilibrium(profile.v[0], params).x_bar
    return profile, controller, x0


def run_episode(windmpc, workload: Workload, wind_seed: int, params, weights,
                out_dir, span=None, duration=EPISODE_S) -> Episode:
    """One timed episode; its outputs are checked after the clock stops."""
    span = span or (lambda _name: nullcontext())
    t0 = perf_counter()
    profile, controller, x0 = setup(windmpc, workload, wind_seed, params, weights,
                                    span, duration)
    t1 = perf_counter()
    with span("experiment.run_closed_loop"):
        log = windmpc.run_closed_loop(profile, controller, params, x0)
    with span("experiment.compute_metrics"):
        metrics = windmpc.compute_metrics(log, params)
    with span("output.emit"):
        windmpc.output.emit({workload.controller: (log, metrics)}, out_dir)
    t2 = perf_counter()
    digest = check_episode(windmpc, workload, profile, log, metrics, params, out_dir)
    return Episode(
        wind_seed=wind_seed, samples=len(log), setup_s=t1 - t0, loop_s=t2 - t1,
        step_time=[float(s) for s in log.step_time],
        failed=count_failed(log.qp_status),
        violations=metrics.constraint_violations,
        sq_power_error=float(((log.p_max - log.p_t) ** 2).sum()),
        qp_iterations=int(log.qp_iters.sum()), csv_sha256=digest)


def _require(ok, message):
    if not ok:
        raise CheckError(message)


def check_episode(windmpc, workload, profile, log, metrics, params, out_dir) -> str:
    """Check one episode's log and emitted files; return the CSV's sha256.

    - one sample per wind sample, on the profile's wind, all values finite;
    - every sample carries this controller's mode and a known QP status;
    - commands lie inside the actuator ranges (the controller saturates);
    - the CSV reads back to exactly the logged values;
    - metrics.json holds exactly the computed metrics, and the power error
      agrees with its definition.
    """
    import numpy as np
    n = len(profile)
    _require(len(log) == n, f"log has {len(log)} samples, profile {n}")
    _require(np.array_equal(log.v, profile.v), "log wind differs from profile")
    for name in windmpc.experiment.LOG_FLOAT_FIELDS:
        _require(np.all(np.isfinite(getattr(log, name))), f"non-finite {name}")
    _require(set(log.mode) == {workload.controller},
             f"unexpected modes {sorted(set(log.mode))}")
    _require(set(log.qp_status) <= {"optimal", "fallback", "hold"},
             f"unknown QP status in {sorted(set(log.qp_status))}")
    _require(np.all((log.t_g_ref >= 0.0) & (log.t_g_ref <= params.t_g_max)),
             "torque command outside [0, t_g_max]")
    _require(np.all((log.beta_ref >= params.beta_min)
                    & (log.beta_ref <= params.beta_max)),
             "pitch command outside [beta_min, beta_max]")

    csv_path = out_dir / f"{workload.controller}.csv"
    back = windmpc.output.read_csv(csv_path)
    for name in windmpc.experiment.LOG_FLOAT_FIELDS:
        _require(np.array_equal(getattr(back, name), getattr(log, name)),
                 f"CSV column {name} does not round-trip")
    _require(back.mode == log.mode and back.qp_status == log.qp_status
             and np.array_equal(back.qp_iters, log.qp_iters),
             "CSV mode/qp columns do not round-trip")

    doc = json.loads((out_dir / "metrics.json").read_text())[workload.controller]
    for key, value in vars(metrics).items():
        _require(doc[key] == value, f"metrics.json {key}={doc[key]} != {value}")
    rms = math.sqrt(float(np.mean((log.p_max - log.p_t) ** 2)))
    _require(math.isclose(rms, metrics.rms_power_error, rel_tol=1e-12),
             "rms power error disagrees with its definition")
    return hashlib.sha256(csv_path.read_bytes()).hexdigest()
