"""Nonlinear wind turbine model and fixed-step simulator.

Rotor aerodynamics with the standard empirical Cp surface, a two-mass
geared drive train carrying torsional torque, and first-order pitch and
generator-converter actuators. Pitch angles are degrees throughout; shaft
speeds are rad/s.
"""

import math
from dataclasses import dataclass, fields
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import DomainError, IntegrationError

BETZ_LIMIT = 16.0 / 27.0

# Partial-load wind envelope: below V_PARTIAL_MIN the machine is parked,
# above V_RATED power limiting takes over and this controller does not apply.
V_PARTIAL_MIN = 4.0
V_RATED = 11.0


class PlantState(NamedTuple):
    """Turbine state [omega_t, omega_g, t_tw, t_g, beta]."""

    omega_t: float  # rotor speed, rad/s
    omega_g: float  # generator speed, rad/s
    t_tw: float     # drive-train torsional torque, N*m
    t_g: float      # generator torque, N*m
    beta: float     # pitch angle, deg


class ControlInput(NamedTuple):
    """Actuator references [t_g_ref, beta_ref]."""

    t_g_ref: float   # generator torque reference, N*m
    beta_ref: float  # pitch reference, deg


@dataclass(frozen=True)
class TurbineParams:
    """Physical constants of the machine plus the controller sampling time.

    Defaults describe the 1.5 MW-class test turbine used throughout the
    suite. ``omega_g_max``, ``p_g_max`` and ``t_g_max`` default to the
    rated-condition values at the top of the partial-load range (11 m/s)
    and can be overridden individually; +inf drops a bound. The default
    t_g_max is p_g_max / omega_g_max, so omega_g_max = inf needs a t_g_max.
    """

    rho: float = 1.225            # air density, kg/m^3
    radius: float = 35.0          # blade length, m
    j_t: float = 1.86e6           # turbine-side inertia, kg*m^2
    j_g: float = 56.29            # generator-side inertia, kg*m^2
    n_g: float = 62.6             # gear ratio
    k_s: float = 31.8e4           # shaft stiffness, N*m/rad
    b_s: float = 212.2            # shaft damping, N*m/(rad/s)
    tau: float = 0.1              # pitch actuator time constant, s
    tau_g: float = 0.02           # generator time constant, s
    eta: float = 1.0              # generator efficiency, (0, 1]
    lambda_opt: float = 8.1       # optimal tip-speed ratio
    beta_opt: float = 0.0         # optimal pitch, deg
    cp_opt: float = 0.48          # peak power coefficient
    t_s: float = 0.05             # controller sampling time, s
    beta_min: float = 0.0         # deg
    beta_max: float = 45.0        # deg
    beta_rate_min: float = -10.0  # deg/s
    beta_rate_max: float = 10.0   # deg/s
    omega_g_max: float | None = None  # rad/s
    p_g_max: float | None = None      # W
    t_g_max: float | None = None      # N*m

    def __post_init__(self):
        bounds = ("omega_g_max", "p_g_max", "t_g_max")
        for f in fields(self):
            if f.name not in bounds and not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite")
        for name in ("rho", "radius", "j_t", "j_g", "n_g", "k_s", "b_s",
                     "tau", "tau_g", "t_s"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be strictly positive")
        if not 0.0 < self.eta <= 1.0:
            raise ValueError("eta must lie in (0, 1]")
        if not self.beta_min < self.beta_max:
            raise ValueError("beta_min must lie below beta_max")
        if not self.beta_min > -1.0:
            raise ValueError("beta_min must lie above -1 deg, the pole of "
                             "the Cp surface")
        if not self.beta_rate_min < 0.0 < self.beta_rate_max:
            raise ValueError("pitch rate limits must straddle zero")
        if not 0.0 < self.cp_opt < BETZ_LIMIT:
            raise ValueError("cp_opt must lie in (0, 16/27)")
        if self.omega_g_max is None:
            object.__setattr__(
                self, "omega_g_max",
                self.n_g * self.lambda_opt * V_RATED / self.radius)
        if self.p_g_max is None:
            object.__setattr__(self, "p_g_max", max_power(V_RATED, self))
        if self.t_g_max is None:
            if self.omega_g_max == math.inf:
                raise ValueError("t_g_max has no default when omega_g_max is "
                                 "inf and must be given")
            object.__setattr__(self, "t_g_max", self.p_g_max / self.omega_g_max)
        for name in bounds:  # NaN fails too
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be strictly positive (inf for "
                                 "no bound)")


# The standard empirical Cp surface (Heier), beta in degrees:
#   Cp = C1 (C2 / lambda_i - C3 beta - C4) exp(-C5 / lambda_i) + C6 lambda,
#   1 / lambda_i = 1 / (lambda + C7 beta) - C8 / (beta^3 + 1).
CP_C1, CP_C2, CP_C3, CP_C4, CP_C5, CP_C6, CP_C7, CP_C8 = (
    0.5176, 116.0, 0.4, 5.0, 21.0, 0.0068, 0.08, 0.035)


def _cp_surface(lam: float, beta: float):
    """The unclamped surface at one point and the factors its partials reuse.

    Returns (Cp, e, g, d, c) with e = exp(-C5 / lambda_i), g the bracket
    C2 / lambda_i - C3 beta - C4, d = lambda + C7 beta and c = beta^3 + 1.
    Floats only; beta = -1 deg is a pole (c = 0).
    """
    if not (math.isfinite(lam) and lam > 0.0):
        raise DomainError("tip-speed ratio must be finite and positive")
    d = lam + CP_C7 * beta
    c = beta**3 + 1.0
    inv_li = 1.0 / d - CP_C8 / c
    g = CP_C2 * inv_li - CP_C3 * beta - CP_C4
    e = math.exp(-CP_C5 * inv_li)
    return CP_C1 * g * e + CP_C6 * lam, e, g, d, c


def power_coefficient(lam: float, beta: float) -> float:
    """Power coefficient Cp(lambda, beta) at one point, beta in degrees.

    The empirical surface goes negative at extreme arguments; negative
    values are clamped to zero (the rotor never extracts negative power).
    Takes scalars; sweeps loop over points.
    """
    return max(_cp_surface(lam, beta)[0], 0.0)


def power_coefficient_partials(lam: float, beta: float):
    """(Cp, dCp/dlambda, dCp/dbeta) at one point, dCp/dbeta per degree.

    Closed-form partials of the surface of :func:`power_coefficient`;
    where its zero clamp is active all three are zero.
    """
    cp, e, g, d, c = _cp_surface(lam, beta)
    if cp <= 0.0:
        return 0.0, 0.0, 0.0
    d_cp_d_inv_li = CP_C1 * e * (CP_C2 - CP_C5 * g)
    d_inv_li_d_lam = -1.0 / d**2
    d_inv_li_d_beta = CP_C7 * d_inv_li_d_lam + 3.0 * CP_C8 * beta**2 / c**2
    return (cp,
            d_cp_d_inv_li * d_inv_li_d_lam + CP_C6,
            d_cp_d_inv_li * d_inv_li_d_beta - CP_C1 * CP_C3 * e)


def tip_speed_ratio(omega_t, v, params: TurbineParams):
    """Blade-tip speed over wind speed, omega_t * R / v."""
    if v <= 0.0:
        raise DomainError("wind speed must be positive")
    return omega_t * params.radius / v


def wind_power(v, params: TurbineParams):
    """Power 0.5*rho*pi*R^2*v^3 of the wind through the rotor disc."""
    return 0.5 * params.rho * math.pi * params.radius**2 * v**3


def max_power(v, params: TurbineParams):
    """Ideal captured power at wind v, the rotor held at the Cp peak cp_opt."""
    return wind_power(v, params) * params.cp_opt


def aerodynamic_power(v, lam, beta, params: TurbineParams):
    """Captured rotor power, wind power times Cp; nonnegative by the Cp clamp."""
    if v <= 0.0:
        raise DomainError("wind speed must be positive")
    return wind_power(v, params) * power_coefficient(lam, beta)


def aerodynamic_torque(omega_t, v, beta, params: TurbineParams):
    """Rotor torque P_t / omega_t; requires omega_t > 0."""
    if omega_t <= 0.0:
        raise DomainError("rotor speed must be positive to evaluate torque")
    lam = tip_speed_ratio(omega_t, v, params)
    return aerodynamic_power(v, lam, beta, params) / omega_t


def generator_power(t_g, omega_g, params: TurbineParams):
    """Electrical power T_g * omega_g * eta."""
    return t_g * omega_g * params.eta


def derivatives(state, u, v, params: TurbineParams) -> tuple[float, ...]:
    """Time derivatives of the five plant states, as a 5-tuple of floats."""
    if v <= 0.0:
        raise DomainError("wind speed must be positive")
    omega_t, omega_g, t_tw, t_g, beta = map(float, state)
    t_t = aerodynamic_torque(omega_t, v, beta, params)
    d_omega_t = (t_t - params.n_g * t_tw) / params.j_t
    d_omega_g = (t_tw - t_g) / params.j_g
    # the twist rate chains the two accelerations, so it comes after them
    d_t_tw = (params.k_s * (params.n_g * omega_t - omega_g)
              + params.b_s * (params.n_g * d_omega_t - d_omega_g))
    d_t_g = (u[0] - t_g) / params.tau_g
    d_beta = (u[1] - beta) / params.tau
    return d_omega_t, d_omega_g, d_t_tw, d_t_g, d_beta


@lru_cache(maxsize=8)
def unified_matrices(params: TurbineParams):
    """Constant matrices (A, B, B2) of the affine form dx = A x + B u + B2 T_t.

    Equivalent to :func:`derivatives` once the aerodynamic torque is fed
    through the B2 column; the pitch row carries -1/tau (stable first-order
    actuator). The linear model of :mod:`windmpc.linearize` is built on them.
    Built once per parameter set; the cached arrays are read-only.
    """
    p = params
    a = np.array([
        [0.0, 0.0, -p.n_g / p.j_t, 0.0, 0.0],
        [0.0, 0.0, 1.0 / p.j_g, -1.0 / p.j_g, 0.0],
        [p.k_s * p.n_g, -p.k_s, -(p.n_g**2 * p.b_s / p.j_t + p.b_s / p.j_g),
         p.b_s / p.j_g, 0.0],
        [0.0, 0.0, 0.0, -1.0 / p.tau_g, 0.0],
        [0.0, 0.0, 0.0, 0.0, -1.0 / p.tau],
    ])
    b = np.zeros((5, 2))
    b[3, 0] = 1.0 / p.tau_g
    b[4, 1] = 1.0 / p.tau
    b2 = np.array([1.0 / p.j_t, 0.0, p.n_g * p.b_s / p.j_t, 0.0, 0.0])
    a.flags.writeable = b.flags.writeable = b2.flags.writeable = False
    return a, b, b2


def step(state, u, v, dt, params: TurbineParams, substeps: int = 10) -> PlantState:
    """Advance the plant by dt at constant wind speed v with classical RK4 at
    step dt/substeps, then clamp pitch and generator torque to their actuator
    ranges. :func:`derivatives` and the Cp surface are inlined on local floats
    in their operation order, so this is bit for bit the vector RK4."""
    if not (dt > 0.0 and v > 0.0):
        raise DomainError("dt and wind speed must be positive")
    v = float(v)
    p_w = wind_power(v, params)
    u_t, u_b = map(float, u)
    radius, n_g, j_t, j_g, k_s, b_s, tau_g, tau = (
        params.radius, params.n_g, params.j_t, params.j_g, params.k_s,
        params.b_s, params.tau_g, params.tau)
    x1, x2, x3, x4, x5 = y1, y2, y3, y4, y5 = tuple(map(float, state))
    h = dt / substeps
    h6, stage_h = h / 6.0, (0.5 * h, 0.5 * h, h)  # stage j + 1 at x + stage_h[j] k_j
    for i in range(4 * substeps):
        if y1 <= 0.0:
            raise DomainError("rotor speed must be positive to evaluate torque")
        lam = y1 * radius / v
        if not (math.isfinite(lam) and lam > 0.0):
            raise DomainError("tip-speed ratio must be finite and positive")
        inv_li = 1.0 / (lam + CP_C7 * y5) - CP_C8 / (y5**3 + 1.0)
        cp = (CP_C1 * (CP_C2 * inv_li - CP_C3 * y5 - CP_C4)
              * math.exp(-CP_C5 * inv_li) + CP_C6 * lam)
        k1 = (p_w * (0.0 if cp < 0.0 else cp) / y1 - n_g * y3) / j_t
        k2 = (y3 - y4) / j_g
        k3 = k_s * (n_g * y1 - y2) + b_s * (n_g * k1 - k2)
        k4 = (u_t - y4) / tau_g
        k5 = (u_b - y5) / tau
        j = i & 3  # stage j of a substep: k_j, summed as k_0 + 2 k_1 + 2 k_2 + k_3
        if j == 0:
            s1, s2, s3, s4, s5 = k1, k2, k3, k4, k5
        elif j < 3:
            s1, s2, s3, s4, s5 = (s1 + 2.0 * k1, s2 + 2.0 * k2, s3 + 2.0 * k3,
                                  s4 + 2.0 * k4, s5 + 2.0 * k5)
        else:
            x1, x2, x3, x4, x5 = y1, y2, y3, y4, y5 = (
                x1 + h6 * (s1 + k1), x2 + h6 * (s2 + k2), x3 + h6 * (s3 + k3),
                x4 + h6 * (s4 + k4), x5 + h6 * (s5 + k5))
            continue
        c = stage_h[j]
        y1, y2, y3, y4, y5 = (x1 + c * k1, x2 + c * k2, x3 + c * k3,
                              x4 + c * k4, x5 + c * k5)
    if not all(map(math.isfinite, (x1, x2, x3, x4, x5))):
        raise IntegrationError("non-finite state after integration step")
    return PlantState(x1, x2, x3, min(max(x4, 0.0), params.t_g_max),
                      min(max(x5, params.beta_min), params.beta_max))
