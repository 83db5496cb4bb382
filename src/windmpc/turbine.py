"""Nonlinear wind turbine model and fixed-step simulator.

Rotor aerodynamics with the standard empirical Cp surface, a two-mass
geared drive train carrying torsional torque, and first-order pitch and
generator-converter actuators. Pitch angles are degrees throughout; shaft
speeds are rad/s. The plant ODE is written once, as the rate function of
``_rates``: ``derivatives`` evaluates it at one state and ``step``
integrates it.
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


def _cp_surface(lam: float, beta: float, partials: bool = False):
    """Unclamped Cp at one point or, with ``partials``, (Cp, dCp/dlambda,
    dCp/dbeta), all zero where Cp <= 0; ``_rates`` inlines the surface in
    this operation order. Floats only; beta = -1 deg is a pole."""
    if not (math.isfinite(lam) and lam > 0.0):
        raise DomainError("tip-speed ratio must be finite and positive")
    d = lam + CP_C7 * beta
    c = beta**3 + 1.0
    inv_li = 1.0 / d - CP_C8 / c
    g = CP_C2 * inv_li - CP_C3 * beta - CP_C4
    e = math.exp(-CP_C5 * inv_li)
    cp = CP_C1 * g * e + CP_C6 * lam
    if not partials:
        return cp
    if cp <= 0.0:
        return 0.0, 0.0, 0.0
    d_cp_d_inv_li = CP_C1 * e * (CP_C2 - CP_C5 * g)
    d_inv_li_d_lam = -1.0 / d**2
    d_inv_li_d_beta = CP_C7 * d_inv_li_d_lam + 3.0 * CP_C8 * beta**2 / c**2
    return (cp, d_cp_d_inv_li * d_inv_li_d_lam + CP_C6,
            d_cp_d_inv_li * d_inv_li_d_beta - CP_C1 * CP_C3 * e)


def power_coefficient(lam: float, beta: float) -> float:
    """Power coefficient Cp(lambda, beta) at one point, beta in degrees.

    The empirical surface goes negative at extreme arguments; negative
    values are clamped to zero (the rotor never extracts negative power).
    Takes scalars; sweeps loop over points.
    """
    return max(_cp_surface(lam, beta), 0.0)


def power_coefficient_partials(lam: float, beta: float):
    """(Cp, dCp/dlambda, dCp/dbeta) at one point, dCp/dbeta per degree;
    all three are zero where the clamp of :func:`power_coefficient` acts."""
    return _cp_surface(lam, beta, partials=True)


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


def _rates(u, v, params: TurbineParams):
    """The plant ODE at inputs u and wind v: a float function of the five
    states that returns their time derivatives. Its rotor torque inlines
    :func:`aerodynamic_torque` in its operation order, checks included."""
    if v <= 0.0:
        raise DomainError("wind speed must be positive")
    v = float(v)
    p_w = wind_power(v, params)
    u_t, u_b = map(float, u)
    radius, n_g, j_t, j_g, k_s, b_s, tau_g, tau = (
        params.radius, params.n_g, params.j_t, params.j_g, params.k_s,
        params.b_s, params.tau_g, params.tau)

    def rates(omega_t, omega_g, t_tw, t_g, beta):
        if omega_t <= 0.0:
            raise DomainError("rotor speed must be positive to evaluate torque")
        lam = omega_t * radius / v
        if not (math.isfinite(lam) and lam > 0.0):
            raise DomainError("tip-speed ratio must be finite and positive")
        inv_li = 1.0 / (lam + CP_C7 * beta) - CP_C8 / (beta**3 + 1.0)
        cp = (CP_C1 * (CP_C2 * inv_li - CP_C3 * beta - CP_C4)
              * math.exp(-CP_C5 * inv_li) + CP_C6 * lam)
        t_t = p_w * (0.0 if cp < 0.0 else cp) / omega_t
        d_omega_t = (t_t - n_g * t_tw) / j_t
        d_omega_g = (t_tw - t_g) / j_g
        # the twist rate chains the two accelerations, so it comes after them
        d_t_tw = (k_s * (n_g * omega_t - omega_g)
                  + b_s * (n_g * d_omega_t - d_omega_g))
        return (d_omega_t, d_omega_g, d_t_tw, (u_t - t_g) / tau_g,
                (u_b - beta) / tau)

    return rates


def derivatives(state, u, v, params: TurbineParams) -> tuple[float, ...]:
    """Time derivatives of the five plant states: :func:`step`'s rates."""
    return _rates(u, v, params)(*map(float, state))


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
    step h = dt/substeps, then clamp pitch and generator torque to their
    actuator ranges. Each substep evaluates the rates of :func:`derivatives`
    at four stages, a, b, c and d, and adds h/6 (a + 2 b + 2 c + d)."""
    if not (dt > 0.0 and v > 0.0):
        raise DomainError("dt and wind speed must be positive")
    rates = _rates(u, v, params)
    x1, x2, x3, x4, x5 = map(float, state)
    h = dt / substeps
    h2, h6 = 0.5 * h, h / 6.0
    for _ in range(substeps):
        a1, a2, a3, a4, a5 = rates(x1, x2, x3, x4, x5)
        b1, b2, b3, b4, b5 = rates(x1 + h2 * a1, x2 + h2 * a2, x3 + h2 * a3,
                                   x4 + h2 * a4, x5 + h2 * a5)
        c1, c2, c3, c4, c5 = rates(x1 + h2 * b1, x2 + h2 * b2, x3 + h2 * b3,
                                   x4 + h2 * b4, x5 + h2 * b5)
        d1, d2, d3, d4, d5 = rates(x1 + h * c1, x2 + h * c2, x3 + h * c3,
                                   x4 + h * c4, x5 + h * c5)
        x1 += h6 * (a1 + 2.0 * b1 + 2.0 * c1 + d1)
        x2 += h6 * (a2 + 2.0 * b2 + 2.0 * c2 + d2)
        x3 += h6 * (a3 + 2.0 * b3 + 2.0 * c3 + d3)
        x4 += h6 * (a4 + 2.0 * b4 + 2.0 * c4 + d4)
        x5 += h6 * (a5 + 2.0 * b5 + 2.0 * c5 + d5)
    if not all(map(math.isfinite, (x1, x2, x3, x4, x5))):
        raise IntegrationError("non-finite state after integration step")
    return PlantState(x1, x2, x3, min(max(x4, 0.0), params.t_g_max),
                      min(max(x5, params.beta_min), params.beta_max))
