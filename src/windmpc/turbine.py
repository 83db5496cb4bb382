"""Nonlinear wind turbine model and fixed-step simulator.

Rotor aerodynamics with the standard empirical Cp surface, a two-mass
geared drive train carrying torsional torque, and first-order pitch and
generator-converter actuators. Pitch angles are degrees throughout; shaft
speeds are rad/s. The plant ODE dx = A x + B u + b2 T_t on the matrices of
``unified_matrices`` is written once: ``derivatives`` evaluates it and
``step`` integrates it by exponential RK4 in two steps per 50 ms sample, or
in 2,000 within 0.05 rad/s of a rotor stop, where the rotor torque grows as
1/omega_t. Against RK4 at 2,000 substeps a sample errs by 5.6e-6 on a typical
transient, by at most 2.3e-4 of each state's size in 1,000 samples about
operating points and by 9.9e-3 (omega_g, under shaft torques to 100x rated)
over 8,500 samples of the test ranges, near a stop included. Very near a
stop (about 1e-5 rad/s) a sample can raise a rotor-reversal ``DomainError``
where finer integration keeps the rotor turning.
"""

import math
from dataclasses import dataclass, fields
from functools import lru_cache
from operator import mul
from typing import NamedTuple

import numpy as np

from .errors import DomainError, IntegrationError

BETZ_LIMIT = 16.0 / 27.0

# Partial-load wind envelope: below V_PARTIAL_MIN the machine is parked,
# above V_RATED power limiting takes over and this controller does not apply.
V_PARTIAL_MIN = 4.0
V_RATED = 11.0
PLANT_STEPS = 2  # exponential RK4 steps per plant sample of step()
# Within NEAR_STOP rad/s of a rotor stop the torque can grow as 1/omega_t,
# too stiff for PLANT_STEPS: a sample with a stage point there, or with any
# other DomainError, is redone in NEAR_STOP_STEPS, where an error stands.
NEAR_STOP, NEAR_STOP_STEPS = 0.05, 2000


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
    dCp/dbeta), all zero where Cp <= 0. Floats only; beta = -1 deg and
    lambda + 0.08 beta = 0 are poles."""
    if not (math.isfinite(lam) and lam > 0.0):
        raise DomainError("tip-speed ratio must be finite and positive")
    d = lam + CP_C7 * beta
    if d <= 0.0:
        raise DomainError("Cp surface undefined where lambda + 0.08 beta <= 0")
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
    """Rotor torque P_t / omega_t; requires v > 0 and omega_t > 0."""
    return _torque(v, params)(omega_t, beta)


def generator_power(t_g, omega_g, params: TurbineParams):
    """Electrical power T_g * omega_g * eta."""
    return t_g * omega_g * params.eta


def _torque(v, params: TurbineParams, floor: float = 0.0):
    """The rotor torque P_t / omega_t at wind v as a float function of
    (omega_t, beta), for the many evaluations of one plant step; it refuses
    rotor speeds at or below ``floor``."""
    if v <= 0.0:
        raise DomainError("wind speed must be positive")
    v = float(v)
    p_w, radius = wind_power(v, params), params.radius

    def torque(omega_t, beta):
        if omega_t <= floor:
            raise DomainError("rotor speed must be positive to evaluate torque")
        cp = _cp_surface(omega_t * radius / v, beta)
        return p_w * (0.0 if cp < 0.0 else cp) / omega_t

    return torque


def derivatives(state, u, v, params: TurbineParams) -> tuple[float, ...]:
    """The plant ODE's rates A x + B u + b2 T_t (:func:`unified_matrices`),
    each one exactly rounded sum, as its terms cancel at equilibrium."""
    z = [*map(float, state), *map(float, u)]
    z.append(_torque(v, params)(z[0], z[4]))
    return tuple([math.fsum(map(mul, row, z)) for row in _rate_rows(params)])


@lru_cache(maxsize=8)
def unified_matrices(params: TurbineParams):
    """Constant matrices (A, B, B2) of the plant ODE dx = A x + B u + B2 T_t.

    :func:`derivatives` and :func:`step` evaluate and integrate it, and the
    linear model of :mod:`windmpc.linearize` is built on it; the pitch row
    carries -1/tau (stable first-order actuator). Built once per parameter
    set; the cached arrays are read-only.
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


@lru_cache(maxsize=8)
def _rate_rows(params: TurbineParams):
    """The rows of [A B b2] as float tuples, for :func:`derivatives`."""
    return tuple(map(tuple, np.column_stack(unified_matrices(params)).tolist()))


@lru_cache(maxsize=8)
def _etd_coefficients(params: TurbineParams, h: float):
    """Float coefficients of one ETD-RK4 step of length h (Cox & Matthews
    2002) on dx = A x + N, N = B u + b2 T_t: with E = e^(A h), E2 = e^(A h/2)
    and psi = phi_1(A h/2), a = E2 x + h/2 psi N(x), b = E2 x + h/2 psi N(a),
    c = E2 a + h/2 psi (2 N(b) - N(x)) and x' = E x + h (w1 N(x) + w2 (N(a) +
    N(b)) + w3 N(c)), w_i from phi_1..3(A h). Stages need rows 0 and 4 only.
    """
    from .linearize import matrix_exponential  # linearize imports this module
    a, b, b2 = unified_matrices(params)
    # the top block row of exp [[Z, I, 0, 0], [0, 0, I, 0], [0, 0, 0, I], 0]
    # is e^Z, phi_1(Z), phi_2(Z), phi_3(Z); A is singular, so no A^-1 form
    (e, p1, p2, p3), (e2, psi, _, _) = (np.hsplit(matrix_exponential(
        np.eye(20, k=5) + np.pad(z, (0, 15)))[:5], 4) for z in (a * h, a * (h / 2)))
    t = [0, 4]  # the rows of omega_t and beta, the arguments of T_t
    half = 0.5 * h * psi[t]
    c_sum, c_diff = (0.5 * h * (e2 @ psi + s * psi)[t] for s in (1.0, -1.0))
    w = h * np.array([p1 - 3.0 * p2 + 4.0 * p3, 2.0 * p2 - 4.0 * p3,
                      4.0 * p3 - p2]) @ b2
    return (tuple(map(tuple, np.vstack([e, e2[t]]).tolist())),
            tuple(map(tuple, np.vstack([h * p1 @ b, half @ b, c_sum @ b]).tolist())),
            tuple(np.concatenate([half @ b2, c_diff @ b2, 2.0 * half @ b2]).tolist()),
            tuple(map(tuple, w.T.tolist())))


def _etd_rk4(state, u, torque, params: TurbineParams, coefficients, steps):
    """``steps`` ETD-RK4 steps at constant u of the rotor torque function
    ``torque``, which checks every stage point, then the finiteness check and
    the actuator clamps."""
    linear, inputs, (ga0, ga4, gx0, gx4, gb0, gb4), weights = coefficients
    u_t, u_b = map(float, u)
    *s_x, sa0, sa4, sc0, sc4 = [p * u_t + q * u_b for p, q in inputs]
    x = list(map(float, state))
    for _ in range(steps):
        x1, x2, x3, x4, x5 = x
        *e_x, ea0, ea4 = [r1 * x1 + r2 * x2 + r3 * x3 + r4 * x4 + r5 * x5
                          for r1, r2, r3, r4, r5 in linear]
        t_x = torque(x1, x5)
        t_a = torque(ea0 + sa0 + ga0 * t_x, ea4 + sa4 + ga4 * t_x)
        t_b = torque(ea0 + sa0 + ga0 * t_a, ea4 + sa4 + ga4 * t_a)
        t_c = torque(e_x[0] + sc0 + gx0 * t_x + gb0 * t_b,
                     e_x[4] + sc4 + gx4 * t_x + gb4 * t_b)
        x = [e + s + w1 * t_x + w2 * (t_a + t_b) + w3 * t_c
             for e, s, (w1, w2, w3) in zip(e_x, s_x, weights)]
    if not all(map(math.isfinite, x)):
        raise IntegrationError("non-finite state after integration step")
    return PlantState(x[0], x[1], x[2], min(max(x[3], 0.0), params.t_g_max),
                      min(max(x[4], params.beta_min), params.beta_max))


def step(state, u, v, dt, params: TurbineParams) -> PlantState:
    """Advance the plant by dt at constant wind speed v in ``PLANT_STEPS``
    exponential RK4 steps, exact on the linear part and its stiff shaft
    mode, or near a rotor stop in ``NEAR_STOP_STEPS``; then clamp pitch and
    generator torque to their actuator ranges."""
    if not dt > 0.0:  # _torque checks v before anything is computed
        raise DomainError("dt must be positive")
    try:
        return _etd_rk4(state, u, _torque(v, params, NEAR_STOP), params,
                        _etd_coefficients(params, dt / PLANT_STEPS), PLANT_STEPS)
    except DomainError:
        return _etd_rk4(state, u, _torque(v, params), params, _etd_coefficients(
            params, dt / NEAR_STOP_STEPS), NEAR_STOP_STEPS)
