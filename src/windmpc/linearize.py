"""Operating points, analytic linearization, and exact ZOH discretization.

The maximum-power locus fixes the equilibrium for a given mean wind speed
in closed form; its plant-ODE residual is checked by the tests, not on
every call. The only nonlinearity is the aerodynamic torque, whose three
gradients (L_omega, L_v, L_beta) close the plant's affine matrix form
(``turbine.unified_matrices``) into the continuous-time linear model. The
gradients are closed-form, chained from the partials of the Cp surface;
finite differences appear only in the oracle that checks the linear model,
``windmpc.verify.fd_jacobian``. The discrete arrays (A_d, B_du, b_d) are
the exact zero-order-hold equivalent obtained from one matrix exponential.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .turbine import (V_PARTIAL_MIN, V_RATED, ControlInput, PlantState,
                      TurbineParams, aerodynamic_torque,
                      power_coefficient_partials, tip_speed_ratio,
                      unified_matrices, wind_power)


@dataclass(frozen=True)
class OperatingPoint:
    """Maximum-power equilibrium at mean wind v_bar; its torque gradients
    are computed where they are read, in :func:`continuous_model`."""

    v_bar: float
    x_bar: PlantState
    u_bar: ControlInput


def torque_gradients(omega_t_bar, v_bar, beta_bar, params: TurbineParams):
    """Aerodynamic-torque partials (L_omega, L_v, L_beta) at an operating point.

    Closed form of T_t = P_w(v) Cp(lambda, beta) / omega_t, with P_w the
    wind power k v^3 and lambda = omega_t R / v:

        L_omega = k v^3 (lambda Cp_lambda - Cp) / omega_t^2
        L_v     = k v^2 (3 Cp - lambda Cp_lambda) / omega_t
        L_beta  = k v^3 Cp_beta / omega_t

    where Cp_lambda and Cp_beta are the Cp surface's partials.
    """
    lam = tip_speed_ratio(omega_t_bar, v_bar, params)
    cp, cp_lam, cp_beta = power_coefficient_partials(lam, beta_bar)
    p_w = wind_power(v_bar, params)
    return (p_w * (lam * cp_lam - cp) / omega_t_bar**2,
            p_w * (3.0 * cp - lam * cp_lam) / (v_bar * omega_t_bar),
            p_w * cp_beta / omega_t_bar)


def equilibrium(v_bar, params: TurbineParams) -> OperatingPoint:
    """Maximum-power steady state for mean wind v_bar in [4, 11] m/s.

    Rotor speed sits on the optimal tip-speed-ratio locus, pitch at its
    optimum, and the torques follow from the steady torque balance, so the
    plant ODEs' residual there is rounding; the tests check it against
    1e-6 of each state's scale, not every call.
    """
    if not V_PARTIAL_MIN <= v_bar <= V_RATED:
        raise DomainError(
            f"v_bar={v_bar} m/s outside the partial-load range [4, 11]")
    omega_t = params.lambda_opt * v_bar / params.radius
    beta = params.beta_opt
    t_tw = aerodynamic_torque(omega_t, v_bar, beta, params) / params.n_g
    x_bar = PlantState(omega_t, params.n_g * omega_t, t_tw, t_tw, beta)
    return OperatingPoint(v_bar, x_bar, ControlInput(t_tw, beta))


def continuous_model(op: OperatingPoint, params: TurbineParams):
    """Analytic continuous-time model (A_c, B_u, b_v, C) about an operating
    point: b_v is the wind column, C gives the outputs [d omega_g, d P_g].

    The plant's affine form dx = A x + B u + b2 T_t with the aerodynamic
    torque linearized as T_t ~ L_omega omega_t + L_v v + L_beta beta, its
    :func:`torque_gradients` at the point.
    """
    a, b, b2 = unified_matrices(params)
    l_omega, l_v, l_beta = torque_gradients(op.x_bar.omega_t, op.v_bar,
                                            op.x_bar.beta, params)
    a_c = a + np.outer(b2, [l_omega, 0.0, 0.0, 0.0, l_beta])
    c = np.array([
        [0.0, 1.0, 0.0, 0.0, 0.0],
        [0.0, params.eta * op.x_bar.t_g, 0.0, params.eta * op.x_bar.omega_g, 0.0],
    ])
    return a_c, b, (b2 * l_v)[:, None], c


def matrix_exponential(m) -> np.ndarray:
    """e^M by scaling-and-squaring with a truncated Taylor series.

    Scales by 2^k so the scaled infinity-norm is at most 0.5, sums Taylor
    terms until the next term drops below 1e-16 in norm (at most 65 terms),
    then squares k times.
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
    for j in range(1, 66):
        term = term @ a / j
        result = result + term
        if np.abs(term).sum(axis=1).max() < 1e-16:
            break
    for _ in range(k):
        result = result @ result
    if not np.all(np.isfinite(result)):
        raise OverflowError("matrix exponential overflowed")
    return result


def discretize(a_c, b_u, b_v, t_s):
    """Exact zero-order-hold discretization (A_d, B_du, b_d) of (A_c, B_u, b_v).

    Exponentiating the block matrix [[A_c, B], [0, 0]] * T_s yields
    A_D = e^(A_c T_s) in the top-left block and the ZOH input integral in
    the top-right, covering both the control and disturbance columns.
    """
    if t_s <= 0.0:
        raise DomainError("sampling time must be positive")
    b = np.hstack([b_u, b_v])
    n, m = b.shape
    n_u = b_u.shape[1]
    aug = np.zeros((n + m, n + m))
    aug[:n, :n] = a_c * t_s
    aug[:n, n:] = b * t_s
    e = matrix_exponential(aug)
    return e[:n, :n], e[:n, n:n + n_u].copy(), e[:n, n + n_u:].copy()
