"""Closed-loop experiment runner and summary metrics."""

from dataclasses import dataclass, field

import numpy as np

from .control import OfflineMpc, OnlineMpc
from .errors import SimulationError
from .linearize import equilibrium
from .turbine import (PlantState, TurbineParams, aerodynamic_power,
                      generator_power, max_power, step, tip_speed_ratio)
from .wind import WindProfile, generate_wind

LOG_FLOAT_FIELDS = ("t", "v", "omega_t", "omega_g", "t_tw", "t_g", "beta",
                    "t_g_ref", "beta_ref", "p_g", "p_t", "p_max", "omega_g_ref")
# one sample's record, in SimLog's field order; the CSV stores all but the
# last, the wall-clock step time
LOG_FIELDS = LOG_FLOAT_FIELDS + ("mode", "qp_iters", "qp_status", "step_time")


@dataclass
class SimLog:
    """Per-sample closed-loop records, one entry per controller step."""

    t: np.ndarray = field(default_factory=lambda: np.zeros(0))
    v: np.ndarray = field(default_factory=lambda: np.zeros(0))
    omega_t: np.ndarray = field(default_factory=lambda: np.zeros(0))
    omega_g: np.ndarray = field(default_factory=lambda: np.zeros(0))
    t_tw: np.ndarray = field(default_factory=lambda: np.zeros(0))
    t_g: np.ndarray = field(default_factory=lambda: np.zeros(0))
    beta: np.ndarray = field(default_factory=lambda: np.zeros(0))
    t_g_ref: np.ndarray = field(default_factory=lambda: np.zeros(0))
    beta_ref: np.ndarray = field(default_factory=lambda: np.zeros(0))
    p_g: np.ndarray = field(default_factory=lambda: np.zeros(0))
    p_t: np.ndarray = field(default_factory=lambda: np.zeros(0))
    p_max: np.ndarray = field(default_factory=lambda: np.zeros(0))
    omega_g_ref: np.ndarray = field(default_factory=lambda: np.zeros(0))
    mode: list[str] = field(default_factory=list)
    qp_iters: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=int))
    qp_status: list[str] = field(default_factory=list)
    step_time: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __len__(self):
        return self.t.shape[0]

    @classmethod
    def from_columns(cls, columns):
        """The log of its columns in LOG_FIELDS order, as numbers or as their
        strings: the floats and step times become float arrays, ``qp_iters``
        an int array, ``mode`` and ``qp_status`` lists."""
        *floats, mode, qp_iters, qp_status, step_time = columns
        return cls(*(np.array(column, dtype=float) for column in floats),
                   mode=list(mode), qp_iters=np.array(qp_iters, dtype=int),
                   qp_status=list(qp_status),
                   step_time=np.array(step_time, dtype=float))


@dataclass
class Metrics:
    """Run summary; power error is measured against the ideal-capture target."""

    rms_power_error: float = 0.0
    rms_speed_error: float = 0.0
    constraint_violations: int = 0
    step_time_mean: float = 0.0
    step_time_max: float = 0.0
    energy: float = 0.0
    torque_total_variation: float = 0.0  # of the torque command, N*m


def run_closed_loop(profile: WindProfile, controller, params: TurbineParams,
                    x0: PlantState | None = None) -> SimLog:
    """Run one controller against the nonlinear plant over a wind profile.

    The initial state defaults to the equilibrium at the profile's first
    sample so startup transients do not contaminate metrics. Controller or
    plant failures abort with the step index and cause.
    """
    if len(profile) == 0:
        return SimLog()
    state = x0 if x0 is not None else equilibrium(profile.v[0], params).x_bar
    rows = []
    for k, (t_k, v_k) in enumerate(zip(profile.t.tolist(), profile.v.tolist())):
        try:
            u, info = controller.step(state, v_k)
        except Exception as exc:
            raise SimulationError(f"controller failed at step {k}: {exc}",
                                  step=k) from exc
        lam = tip_speed_ratio(state.omega_t, v_k, params)
        rows.append((t_k, v_k, *state, *u,  # in the order of LOG_FIELDS
                     generator_power(state.t_g, state.omega_g, params),
                     aerodynamic_power(v_k, lam, state.beta, params),
                     max_power(v_k, params), info.omega_g_ref, info.mode,
                     info.qp_iterations, info.qp_status, info.solve_time))
        try:
            state = step(state, u, v_k, params.t_s, params)
        except Exception as exc:
            raise SimulationError(f"plant failed at step {k}: {exc}",
                                  step=k) from exc
    return SimLog.from_columns(zip(*rows))


def compute_metrics(log: SimLog, params: TurbineParams) -> Metrics:
    """Summary metrics of one run; empty logs yield all-zero metrics."""
    if len(log) == 0:
        return Metrics()
    rms_power = float(np.sqrt(np.mean((log.p_max - log.p_t) ** 2)))
    rms_speed = float(np.sqrt(np.mean((log.omega_g_ref - log.omega_g) ** 2)))
    violations = count_violations(log, params)
    return Metrics(rms_power_error=rms_power, rms_speed_error=rms_speed,
                   constraint_violations=violations,
                   step_time_mean=float(np.mean(log.step_time)),
                   step_time_max=float(np.max(log.step_time)),
                   energy=float(np.sum(log.p_g) * params.t_s),
                   torque_total_variation=float(
                       np.abs(np.diff(log.t_g_ref)).sum()))


def violation_masks(log: SimLog, params: TurbineParams) -> dict:
    """Per bound, the samples breaching it by more than 1e-6 of its scale:
    the input bounds (pitch and its move, torque reference) first, then the
    output bounds (generator speed and power)."""
    def tol(bound):
        return 1e-6 * max(1.0, abs(bound))

    du_beta_max = params.beta_rate_max * params.t_s
    du_beta_min = params.beta_rate_min * params.t_s
    dbeta_ref = np.diff(log.beta_ref, prepend=log.beta[:1])
    return {
        "pitch lower": log.beta < params.beta_min - tol(params.beta_min),
        "pitch upper": log.beta > params.beta_max + tol(params.beta_max),
        "pitch move up": dbeta_ref > du_beta_max + tol(du_beta_max),
        "pitch move down": dbeta_ref < du_beta_min - tol(du_beta_min),
        "torque lower": log.t_g_ref < -tol(params.t_g_max),
        "torque upper": log.t_g_ref > params.t_g_max + tol(params.t_g_max),
        "speed upper": log.omega_g > params.omega_g_max + tol(params.omega_g_max),
        "power upper": log.p_g > params.p_g_max + tol(params.p_g_max),
    }


def count_violations(log: SimLog, params: TurbineParams) -> int:
    """Samples breaching any operating bound of ``violation_masks``."""
    return int(np.count_nonzero(np.logical_or.reduce(
        list(violation_masks(log, params).values()))))


def make_controller(name: str, params: TurbineParams, weights, cfg=None):
    """Instantiate a controller by name ("online" or "offline")."""
    kwargs = {}
    if cfg is not None:
        kwargs = dict(kappa=cfg.kappa)
        if name == "offline":
            kwargs.update(op_low=cfg.op_low, op_high=cfg.op_high,
                          v_switch=cfg.v_switch, hysteresis=cfg.hysteresis)
    if name == "online":
        return OnlineMpc(params, weights, **kwargs)
    if name == "offline":
        return OfflineMpc(params, weights, **kwargs)
    raise ValueError(f"unknown controller {name!r}")


def run_experiment(config) -> dict[str, tuple[SimLog, Metrics]]:
    """Run the configured profile against one or both controllers.

    When comparing, both controllers consume the identical profile and
    initial state. Returns {controller_name: (log, metrics)}.
    """
    params = config.turbine
    profile = generate_wind(config.wind_kind, config.seed, config.duration,
                            params, level=config.wind_level, std=config.wind_std)
    names = ([config.controller] if config.controller != "both"
             else ["offline", "online"])
    x0 = equilibrium(profile.v[0], params).x_bar if len(profile) else None
    results = {}
    for name in names:
        controller = make_controller(name, params, config.weights, config)
        log = run_closed_loop(profile, controller, params, x0)
        results[name] = (log, compute_metrics(log, params))
    return results
