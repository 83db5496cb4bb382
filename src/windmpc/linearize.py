"""Operating points, analytic linearization, and exact ZOH discretization.

The maximum-power locus fixes the equilibrium for a given mean wind speed;
the only nonlinearity is the aerodynamic torque, whose three gradients
(L_omega, L_v, L_beta) close the plant's affine matrix form
(``turbine.unified_matrices``) into the continuous-time linear model. The
gradients are closed-form, chained from the partials of the Cp surface;
finite differences appear only in the oracle that checks the linear model,
``windmpc.verify.fd_jacobian``. The discrete model is the exact
zero-order-hold equivalent obtained from one augmented matrix exponential.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .turbine import (V_PARTIAL_MIN, V_RATED, ControlInput, PlantState,
                      TurbineParams, aerodynamic_torque, derivatives,
                      power_coefficient_partials, tip_speed_ratio,
                      unified_matrices, wind_power)


@dataclass(frozen=True)
class OperatingPoint:
    """Maximum-power equilibrium at mean wind v_bar plus torque gradients."""

    v_bar: float
    x_bar: PlantState
    u_bar: ControlInput
    t_t_bar: float   # aerodynamic torque at the point, N*m
    l_omega: float   # dT_t/d omega_t, N*m/(rad/s)
    l_v: float       # dT_t/dv, N*m/(m/s)
    l_beta: float    # dT_t/d beta, N*m/deg


@dataclass(frozen=True)
class ContinuousLinearModel:
    a_c: np.ndarray   # 5x5
    b_cu: np.ndarray  # 5x2
    b_cv: np.ndarray  # 5x1 wind-disturbance column
    c_c: np.ndarray   # 2x5, outputs [d omega_g, d P_g]


@dataclass(frozen=True)
class DiscreteLinearModel:
    a_d: np.ndarray
    b_du: np.ndarray
    b_d: np.ndarray   # discretized wind-disturbance column
    c_d: np.ndarray
    t_s: float


def torque_gradients(omega_t_bar, v_bar, beta_bar, params: TurbineParams):
    """Aerodynamic-torque partials (L_omega, L_v, L_beta) at an operating point.

    Closed form of T_t = P_w(v) Cp(lambda, beta) / omega_t, with P_w the
    wind power k v^3 and lambda = omega_t R / v:

        L_omega = k v^3 (lambda Cp_lambda - Cp) / omega_t^2
        L_v     = k v^2 (3 Cp - lambda Cp_lambda) / omega_t
        L_beta  = k v^3 Cp_beta / omega_t

    where Cp_lambda and Cp_beta are the Cp surface's partials.
    """
    if not (omega_t_bar > 0.0 and v_bar > 0.0):
        raise DomainError("operating point requires positive rotor and wind speeds")
    lam = tip_speed_ratio(omega_t_bar, v_bar, params)
    cp, cp_lam, cp_beta = power_coefficient_partials(lam, beta_bar)
    p_w = wind_power(v_bar, params)
    return (p_w * (lam * cp_lam - cp) / omega_t_bar**2,
            p_w * (3.0 * cp - lam * cp_lam) / (v_bar * omega_t_bar),
            p_w * cp_beta / omega_t_bar)


def equilibrium(v_bar, params: TurbineParams) -> OperatingPoint:
    """Maximum-power steady state for mean wind v_bar in [4, 11] m/s.

    Rotor speed sits on the optimal tip-speed-ratio locus, pitch at its
    optimum, and the torques follow from the steady torque balance. The
    residual of the plant ODEs at the returned point is verified to be
    below 1e-6 of each state's scale.
    """
    if not V_PARTIAL_MIN <= v_bar <= V_RATED:
        raise DomainError(
            f"v_bar={v_bar} m/s outside the partial-load range [4, 11]")
    omega_t = params.lambda_opt * v_bar / params.radius
    omega_g = params.n_g * omega_t
    beta = params.beta_opt
    t_t = aerodynamic_torque(omega_t, v_bar, beta, params)
    t_tw = t_t / params.n_g
    x_bar = PlantState(omega_t, omega_g, t_tw, t_tw, beta)
    u_bar = ControlInput(t_tw, beta)
    if any(abs(r) > 1e-6 * max(1.0, abs(x))
           for r, x in zip(derivatives(x_bar, u_bar, v_bar, params), x_bar)):
        raise DomainError("equilibrium residual check failed")
    l_omega, l_v, l_beta = torque_gradients(omega_t, v_bar, beta, params)
    return OperatingPoint(v_bar, x_bar, u_bar, t_t, l_omega, l_v, l_beta)


def continuous_model(op: OperatingPoint, params: TurbineParams) -> ContinuousLinearModel:
    """Analytic continuous-time model about an operating point.

    The plant's affine form dx = A x + B u + b2 T_t with the aerodynamic
    torque linearized as T_t ~ L_omega omega_t + L_v v + L_beta beta.
    """
    a, b, b2 = unified_matrices(params)
    a_c = a + np.outer(b2, [op.l_omega, 0.0, 0.0, 0.0, op.l_beta])
    b_cv = (b2 * op.l_v)[:, None]
    c_c = np.array([
        [0.0, 1.0, 0.0, 0.0, 0.0],
        [0.0, params.eta * op.x_bar.t_g, 0.0, params.eta * op.x_bar.omega_g, 0.0],
    ])
    return ContinuousLinearModel(a_c, b, b_cv, c_c)


def matrix_exponential(m) -> np.ndarray:
    """e^M by scaling-and-squaring with a truncated Taylor series.

    Scales by 2^k so the scaled infinity-norm is at most 0.5, sums Taylor
    terms until the next term drops below 1e-16 in norm, then squares k
    times.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DomainError("matrix_exponential requires a square matrix")
    if not np.all(np.isfinite(m)):
        raise DomainError("matrix entries must be finite")
    n = m.shape[0]
    norm = np.abs(m).sum(axis=1).max()
    k = int(math.ceil(math.log2(norm / 0.5))) if norm > 0.5 else 0
    a = m / 2.0**k
    result = np.eye(n)
    term = np.eye(n)
    j = 1
    while True:
        term = term @ a / j
        result = result + term
        if np.abs(term).sum(axis=1).max() < 1e-16 or j > 64:
            break
        j += 1
    for _ in range(k):
        result = result @ result
    if not np.all(np.isfinite(result)):
        raise OverflowError("matrix exponential overflowed")
    return result


def discretize(cm: ContinuousLinearModel, t_s) -> DiscreteLinearModel:
    """Exact zero-order-hold discretization of the continuous model.

    Exponentiating the block matrix [[A_c, B], [0, 0]] * T_s yields
    A_D = e^(A_c T_s) in the top-left block and the ZOH input integral in
    the top-right, covering both the control and disturbance columns.
    """
    if t_s <= 0.0:
        raise DomainError("sampling time must be positive")
    b = np.hstack([cm.b_cu, cm.b_cv])
    n, m = b.shape
    aug = np.zeros((n + m, n + m))
    aug[:n, :n] = cm.a_c * t_s
    aug[:n, n:] = b * t_s
    e = matrix_exponential(aug)
    a_d = e[:n, :n]
    b_full = e[:n, n:]
    n_u = cm.b_cu.shape[1]
    return DiscreteLinearModel(a_d, b_full[:, :n_u].copy(),
                               b_full[:, n_u:].copy(), cm.c_c.copy(), float(t_s))
