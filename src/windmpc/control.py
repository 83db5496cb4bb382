"""Receding-horizon controller for maximum-power tracking.

One controller step serves two model sources, which differ only in where
the prediction model for the measured wind comes from: a switched bank of
two fixed linearizations (``OfflineMpc``), or a fresh linearization at the
measured wind every sample (``OnlineMpc``). The step runs on full state
feedback, shifts measurements into deviation coordinates of the model's
operating point, and tracks the optimal-tip-speed-ratio generator speed
reference.
"""

import time
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .linearize import OperatingPoint, DiscreteLinearModel, continuous_model, \
    discretize, equilibrium
from .mpc import AugmentedModel, CondensedQp, ConstraintSet, MpcWeights, \
    StepInfo, augment_disturbance, augment_velocity, condense, mpc_step
from .qp import ActiveSetSolver
from .turbine import V_PARTIAL_MIN, V_RATED, ControlInput, TurbineParams, \
    generator_power, max_power


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


def shift_constraints(op: OperatingPoint, params: TurbineParams) -> ConstraintSet:
    """Absolute actuator and output bounds expressed about an operating point.

    Move bounds map the pitch rate limits onto one sampling interval; the
    torque move is unbounded (no rate limit on the converter reference).
    Output upper bounds cap generator speed and power; they have no lower
    bounds in the partial-load region.
    """
    t_g_bar = op.u_bar.t_g_ref
    beta_bar = op.u_bar.beta_ref
    p_g_bar = generator_power(op.x_bar.t_g, op.x_bar.omega_g, params)
    return ConstraintSet(
        du_min=np.array([-np.inf, params.beta_rate_min * params.t_s]),
        du_max=np.array([np.inf, params.beta_rate_max * params.t_s]),
        u_min=np.array([0.0 - t_g_bar, params.beta_min - beta_bar]),
        u_max=np.array([params.t_g_max - t_g_bar, params.beta_max - beta_bar]),
        y_min=np.array([-np.inf, -np.inf]),
        y_max=np.array([params.omega_g_max - op.x_bar.omega_g,
                        params.p_g_max - p_g_bar]),
    )


@dataclass(frozen=True)
class ModelSet:
    """One linearization point bundled with its cached controller matrices
    and step offsets."""

    op: OperatingPoint
    dm: DiscreteLinearModel
    am: AugmentedModel
    qp: CondensedQp
    x_bar: np.ndarray  # op.x_bar as an array
    u_bar: np.ndarray  # op.u_bar as an array
    p_g_bar: float     # generator power at the point, W
    b_d: np.ndarray    # dm.b_d raveled
    b_d_sq: float      # b_d . b_d


def build_model_set(v_bar, params: TurbineParams, weights: MpcWeights) -> ModelSet:
    """Full pipeline for one operating point: linearize, discretize, condense."""
    op = equilibrium(v_bar, params)
    dm = discretize(continuous_model(op, params), params.t_s)
    am = augment_velocity(*augment_disturbance(dm))
    qp = condense(am, weights, shift_constraints(op, params))
    b_d = dm.b_d.ravel()
    return ModelSet(op, dm, am, qp, np.array(op.x_bar), np.array(op.u_bar),
                    generator_power(op.x_bar.t_g, op.x_bar.omega_g, params),
                    b_d, float(b_d @ b_d))


class DisturbanceEstimator:
    """Constant-disturbance estimate along the wind input channel.

    Each update projects the one-step state innovation onto the
    disturbance column and accumulates the result with gain kappa, so an
    unmeasured wind offset is recovered with time constant t_s/kappa. The
    estimate is clamped to +-limit (wind-speed-equivalent units).
    """

    def __init__(self, kappa=0.1, limit=5.0):
        self.kappa = kappa
        self.limit = limit
        self.d_hat = 0.0

    def update(self, innovation, b_d, b_d_sq) -> float:
        """Fold in one innovation along the raveled b_d; b_d_sq = b_d . b_d."""
        if b_d_sq > 0.0:
            self.d_hat += self.kappa * float(b_d @ np.asarray(innovation)) / b_d_sq
            self.d_hat = min(max(self.d_hat, -self.limit), self.limit)
        return self.d_hat


class _MpcControllerBase:
    """The receding-horizon step over a model source.

    Subclasses supply ``mode`` and ``_model_for(v)``, the ModelSet that
    predicts at measured wind v; the step does the rest: coordinate
    shifts, disturbance estimation, the QP and input saturation.
    """

    mode: str

    def __init__(self, params: TurbineParams, weights: MpcWeights | None = None,
                 kappa=0.1):
        self.params = params
        self.weights = weights if weights is not None else MpcWeights()
        self.estimator = DisturbanceEstimator(kappa=kappa)
        self.solver = ActiveSetSolver()
        self.u_prev: ControlInput | None = None
        self._prediction: tuple[np.ndarray, ModelSet] | None = None
        self._ref_index = np.tile(np.arange(2), self.weights.n_p)

    def step(self, x_meas, v):
        """Input for measured state x_meas and wind v, with its StepInfo.

        Any numerical failure in the model or QP pipeline holds the
        previous input and flags the sample "hold" instead of aborting the
        loop; before the first input exists the failure propagates.
        """
        if not V_PARTIAL_MIN <= v < V_RATED:
            raise DomainError(
                f"wind speed {v} m/s outside the partial-load range [4, 11)")
        t0 = time.perf_counter()
        try:
            u, info = self._apply(self._model_for(v), x_meas, v)
        except (DomainError, ArithmeticError, np.linalg.LinAlgError):
            if self.u_prev is None:
                raise
            u = self.u_prev
            self._prediction = None
            info = StepInfo("hold", 0, 0, float("nan"))
        info.mode = self.mode
        info.solve_time = time.perf_counter() - t0
        info.d_hat = self.estimator.d_hat
        return u, info

    def _apply(self, ms: ModelSet, x_meas, v):
        p = self.params
        x = np.asarray(x_meas, dtype=float)
        if self._prediction is not None:
            x_pred, ms_prev = self._prediction
            self.estimator.update(x - x_pred, ms_prev.b_d, ms_prev.b_d_sq)
        if self.u_prev is None:
            # before the first sample the actuators are assumed settled
            self.u_prev = ControlInput(float(x[3]), float(x[4]))

        dx = x - ms.x_bar
        u_prev = np.asarray(self.u_prev, dtype=float)
        du_prev = u_prev - ms.u_bar
        x_a = np.concatenate([dx, [self.estimator.d_hat], du_prev])

        ref = reference(v, p)
        r_s = np.array([ref.omega_g_ref - ms.op.x_bar.omega_g,
                        ref.p_g_ref - ms.p_g_bar])[self._ref_index]

        du, info = mpc_step(ms.qp, x_a, r_s, self.solver)

        u = u_prev + du
        u[0] = min(max(u[0], 0.0), p.t_g_max)
        u[1] = min(max(u[1], p.beta_min), p.beta_max)
        u_out = ControlInput(float(u[0]), float(u[1]))

        # one-step-ahead prediction with the applied (saturated) input,
        # consumed by the estimator at the next sample
        du_applied = u - u_prev
        x_pred = (ms.x_bar + ms.dm.a_d @ dx + ms.dm.b_du @ (du_prev + du_applied)
                  + ms.b_d * self.estimator.d_hat)
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
        if not hysteresis >= 0.0:
            raise ValueError("hysteresis must be nonnegative")
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
    """Controller that re-linearizes at the measured wind speed every sample.

    The whole pipeline (operating point, gradients, ZOH discretization,
    augmentation, condensation, QP) runs inside one sampling period.
    """

    mode = "online"

    def _model_for(self, v) -> ModelSet:
        return build_model_set(v, self.params, self.weights)
