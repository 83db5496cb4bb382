"""Receding-horizon controller for maximum-power tracking.

One controller step serves two model sources, which differ only in where
the prediction model for the measured wind comes from: a switched bank of
two fixed linearizations (``OfflineMpc``), or a model at the measured wind
every sample (``OnlineMpc``), evaluated from a Chebyshev expansion in wind
speed of the linearized model's cost and prediction blocks. Both sources
build their QP and its factor through ``condense``, the bank at
construction and the online model every sample.
The step runs on full state feedback, shifts measurements into deviation
coordinates of the model's operating point, and tracks the
optimal-tip-speed-ratio generator speed reference. Its disturbance estimate
d_hat adds kappa times each one-step state innovation projected onto the
wind input column, recovering a wind offset with time constant t_s/kappa.
"""

import math
import time
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError
from .linearize import OperatingPoint, continuous_model, discretize, \
    equilibrium
from .mpc import CondensedQp, MpcWeights, StepInfo, augment, condense, \
    condense_cost, mpc_step, prediction_matrices
from .qp import ActiveSetSolver
from .turbine import V_PARTIAL_MIN, V_RATED, ControlInput, TurbineParams, \
    generator_power, max_power

EXPANSION_DEGREE = 12     # Chebyshev degree in v: q2 > 0 needs 12, q2 = 0 only 8
EXPANSION_REL_TOL = 1e-8  # expansion tail and error, of each array's maximum
D_HAT_LIMIT = 5.0         # clamp of the disturbance estimate, m/s of wind


@dataclass(frozen=True)
class ReferenceSignal:
    omega_g_ref: float  # rad/s
    p_g_ref: float      # W


def reference(v, params: TurbineParams) -> ReferenceSignal:
    """Maximum-power tracking targets for measured wind v.

    The generator-speed reference keeps the rotor on the optimal
    tip-speed-ratio locus; the power reference is informational when the
    power error weight is zero.
    """
    if v <= 0.0:
        raise DomainError("wind speed must be positive")
    omega_g_ref = params.n_g * params.lambda_opt * v / params.radius
    return ReferenceSignal(omega_g_ref, max_power(v, params) * params.eta)


def _bounds_about(params: TurbineParams, omega_g, p_g, t_g, beta):
    """The bounds (du_min, du_max, u_min, u_max, y_min, y_max) that ``condense``
    takes, about the point (omega_g, P_g, T_g, beta). The pitch move is
    rate-limited over one sample, the torque move is free, and generator
    speed and power have upper bounds only."""
    return np.array([
        -np.inf, params.beta_rate_min * params.t_s,
        np.inf, params.beta_rate_max * params.t_s,
        0.0 - t_g, params.beta_min - beta, params.t_g_max - t_g,
        params.beta_max - beta, -np.inf, -np.inf, params.omega_g_max - omega_g,
        params.p_g_max - p_g])


@dataclass(frozen=True)
class ModelSet:
    """One operating point bundled with its discrete model, cached
    controller matrices and step offsets."""

    op: OperatingPoint
    a_d: np.ndarray    # discrete state matrix
    b_du: np.ndarray   # discrete input matrix
    qp: CondensedQp
    x_bar: np.ndarray  # op.x_bar as an array
    p_g_bar: float     # generator power at the point, W
    b_d: np.ndarray    # discrete wind-disturbance column, raveled
    b_d_sq: float      # b_d . b_d


def model_arrays(op: OperatingPoint, params: TurbineParams, weights: MpcWeights):
    """The ModelSet arrays that vary with wind speed, built directly at an
    operating point: (A_d, B_du, b_d, H, F, Gamma, Phi)."""
    a_c, b_u, b_v, c = continuous_model(op, params)
    a_d, b_du, b_d = discretize(a_c, b_u, b_v, params.t_s)
    phi, gamma = prediction_matrices(*augment(a_d, b_du, b_d, c), weights.n_p,
                                     weights.n_c)
    h, f = condense_cost(phi, gamma, weights)
    return a_d, b_du, b_d, h, f, gamma, phi


def assemble_model_set(op: OperatingPoint, arrays, params: TurbineParams,
                       weights: MpcWeights) -> ModelSet:
    """ModelSet at an operating point from its ``model_arrays``: ``condense``
    takes the bounds about the point. Raises LinAlgError unless H is
    positive definite."""
    a_d, b_du, b_d, h, f, gamma, phi = arrays
    p_g_bar = generator_power(op.x_bar.t_g, op.x_bar.omega_g, params)
    qp = condense(h, f, gamma, phi, _bounds_about(
        params, op.x_bar.omega_g, p_g_bar, *op.u_bar), weights.n_c)
    b_d = b_d.ravel()
    return ModelSet(op, a_d, b_du, qp, np.array(op.x_bar), p_g_bar, b_d,
                    float(b_d @ b_d))


def build_model_set(v_bar, params: TurbineParams, weights: MpcWeights) -> ModelSet:
    """Direct pipeline for one operating point: linearize, discretize, condense."""
    op = equilibrium(v_bar, params)
    return assemble_model_set(op, model_arrays(op, params, weights), params,
                              weights)


@lru_cache(maxsize=8)
def model_expansion(params: TurbineParams, weights: MpcWeights):
    """Degree-n Chebyshev interpolant in v of ``model_arrays`` on [4, 11]
    m/s, where the model is analytic (Trefethen, Approximation Theory and
    Approximation Practice, 2013): a read-only (n + 1) x entries coefficient
    matrix and each array's (start, stop, shape) in its columns. Raises
    DomainError when an array's two top coefficients exceed
    EXPANSION_REL_TOL of its maximum: degree n misses that model. That the
    expanded arrays then stay within EXPANSION_REL_TOL of the direct build
    is verified at the default weights only (``verify.check_model_expansion``)."""
    n = EXPANSION_DEGREE
    k = np.arange(n + 1)
    s = np.cos(np.pi * k / n)  # Chebyshev points of the second kind
    winds = V_PARTIAL_MIN + 0.5 * (V_RATED - V_PARTIAL_MIN) * (1.0 + s)
    builds = [model_arrays(equilibrium(v, params), params, weights)
              for v in winds.tolist()]
    values = np.array([np.concatenate([a.ravel() for a in arrays])
                       for arrays in builds])
    coef = np.linalg.solve(np.cos(np.pi * np.outer(k, k) / n), values)  # T_k(s)
    stops = np.cumsum([a.size for a in builds[0]])
    blocks = tuple((int(stop - a.size), int(stop), a.shape)
                   for stop, a in zip(stops, builds[0]))
    for start, stop, _ in blocks:
        tail = np.abs(coef[n - 1:, start:stop]).max()
        if tail > EXPANSION_REL_TOL * np.abs(values[:, start:stop]).max():
            raise DomainError(f"degree-{n} model expansion leaves a tail of "
                              f"{tail:.3e}; the model is not resolved")
    coef.flags.writeable = False
    return coef, blocks


def expanded_arrays(expansion, v):
    """``model_arrays`` at wind v evaluated from ``model_expansion``."""
    coef, blocks = expansion
    s = (2.0 * v - (V_PARTIAL_MIN + V_RATED)) / (V_RATED - V_PARTIAL_MIN)
    t = [1.0, s]  # T_0(s) .. T_n(s)
    while len(t) < len(coef):
        t.append(2.0 * s * t[-1] - t[-2])
    flat = np.array(t) @ coef
    return tuple(flat[start:stop].reshape(shape) for start, stop, shape in blocks)


class _MpcControllerBase:
    """The receding-horizon step over a model source.

    Subclasses supply ``mode`` and ``_model_for(v)``, the ModelSet that
    predicts at measured wind v; the step does the rest: coordinate
    shifts, disturbance estimation, the QP and input saturation.
    """

    mode: str

    def __init__(self, params: TurbineParams, weights: MpcWeights | None = None,
                 kappa=0.1):
        if not 0.0 <= kappa < math.inf:
            raise ValueError("kappa must be finite and nonnegative")
        self.params = params
        self.weights = weights if weights is not None else MpcWeights()
        self.kappa = kappa
        self.d_hat = 0.0
        self.solver = ActiveSetSolver()
        self.u_prev: ControlInput | None = None
        self._prediction: tuple[np.ndarray, ModelSet] | None = None

    def step(self, x_meas, v):
        """Input for measured state x_meas and wind v, with its StepInfo.

        A non-finite state or any numerical failure in the model or QP
        pipeline holds the previous input and flags the sample "hold";
        before the first input exists the failure propagates.
        """
        if not V_PARTIAL_MIN <= v < V_RATED:
            raise DomainError(
                f"wind speed {v} m/s outside the partial-load range [4, 11)")
        t0 = time.perf_counter()
        ref = reference(v, self.params)
        try:
            u, info = self._apply(self._model_for(v), x_meas, ref)
        except (DomainError, ArithmeticError, np.linalg.LinAlgError):
            if self.u_prev is None:
                raise
            u = self.u_prev
            self._prediction = None
            info = StepInfo("hold", 0, 0, float("nan"))
        info.mode = self.mode
        info.solve_time = time.perf_counter() - t0
        info.d_hat = self.d_hat
        info.omega_g_ref = ref.omega_g_ref
        return u, info

    def _apply(self, ms: ModelSet, x_meas, ref: ReferenceSignal):
        p = self.params
        if not all(map(math.isfinite, x_meas)):  # before d_hat or the QP
            raise DomainError("measured state must be finite")
        x = np.asarray(x_meas, dtype=float)
        if self._prediction is not None:
            x_pred, ms_prev = self._prediction
            if ms_prev.b_d_sq > 0.0:
                self.d_hat += (self.kappa * float(ms_prev.b_d @ (x - x_pred))
                               / ms_prev.b_d_sq)
                self.d_hat = min(max(self.d_hat, -D_HAT_LIMIT), D_HAT_LIMIT)
        if self.u_prev is None:
            # before the first sample the actuators are assumed settled
            self.u_prev = ControlInput(float(x[3]), float(x[4]))

        dx = x - ms.x_bar
        t_prev, beta_prev = self.u_prev
        du_prev = [t_prev - ms.op.u_bar[0], beta_prev - ms.op.u_bar[1]]
        theta = np.array(dx.tolist() + [self.d_hat] + du_prev + [  # [x_a; r; 1]
            ref.omega_g_ref - ms.op.x_bar.omega_g, ref.p_g_ref - ms.p_g_bar,
            1.0])
        du, info = mpc_step(ms.qp, theta, self.solver)

        du_t, du_beta = du.tolist()
        u_out = ControlInput(
            float(min(max(t_prev + du_t, 0.0), p.t_g_max)),
            float(min(max(beta_prev + du_beta, p.beta_min), p.beta_max)))

        # one-step-ahead prediction with the applied (saturated) input,
        # whose innovation updates d_hat at the next sample
        du_total = np.array([du_prev[0] + (u_out.t_g_ref - t_prev),
                             du_prev[1] + (u_out.beta_ref - beta_prev)])
        x_pred = (ms.x_bar + ms.a_d @ dx + ms.b_du @ du_total
                  + ms.b_d * self.d_hat)
        self._prediction = (x_pred, ms)
        self.u_prev = u_out
        return u_out, info


class OfflineMpc(_MpcControllerBase):
    """Switched-model controller over a fixed bank of two linearizations.

    The low entry (default 6.4 m/s) serves winds in [4, v_switch), the high
    entry (default 10 m/s) serves [v_switch, 11); the threshold sits at
    8.7 m/s. Selection is a pure function of the measured wind speed unless
    a hysteresis band is configured.
    """

    mode = "offline"

    def __init__(self, params: TurbineParams, weights: MpcWeights | None = None,
                 op_low=6.4, op_high=10.0, v_switch=8.7, hysteresis=0.0,
                 kappa=0.1):
        if not 0.0 <= hysteresis < math.inf:
            raise ValueError("hysteresis must be finite and nonnegative")
        if not (op_low < op_high and op_low <= v_switch <= op_high):
            raise ValueError("the bank needs op_low < op_high and v_switch in "
                             "[op_low, op_high]")
        super().__init__(params, weights, kappa)
        self.bank = (build_model_set(op_low, params, self.weights),
                     build_model_set(op_high, params, self.weights))
        self.v_switch = v_switch
        self.hysteresis = hysteresis
        self.active_index = 0

    def _model_for(self, v) -> ModelSet:
        if self.active_index == 0 and v >= self.v_switch + self.hysteresis:
            self.active_index = 1
        elif self.active_index == 1 and v < self.v_switch - self.hysteresis:
            self.active_index = 0
        return self.bank[self.active_index]


class OnlineMpc(_MpcControllerBase):
    """Controller with a model at the measured wind speed every sample.

    Construction builds (or finds cached) its ``model_expansion``; each
    sample runs the equilibrium, one expansion product and ``condense`` on
    the bounds about that point, which factorizes the expanded H afresh.
    """

    mode = "online"

    def __init__(self, params: TurbineParams, weights: MpcWeights | None = None,
                 kappa=0.1):
        super().__init__(params, weights, kappa)
        self.expansion = model_expansion(params, self.weights)

    def _model_for(self, v) -> ModelSet:
        return assemble_model_set(equilibrium(v, self.params),
                                  expanded_arrays(self.expansion, v),
                                  self.params, self.weights)
