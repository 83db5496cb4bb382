"""Prediction-model augmentation and condensation into a dense QP.

The discrete turbine model is augmented twice: first with a constant
disturbance state riding the wind input column, then to velocity form so
the decision variables are input moves and the controller gains integral
action. Eliminating the predicted states condenses the finite-horizon
tracking cost and the stacked bounds into

    min  0.5 dU' H dU + [x' rs'] F dU
    s.t. G dU <= W + S [x; rs]

where everything except the per-sample linear term and bound vector
depends only on the model, horizons, weights and bounds, and is therefore
built once and cached per linearization. ``mpc_step`` solves one sample's
program and reports it in the shared per-sample ``StepInfo`` record.
"""

from dataclasses import dataclass
from functools import lru_cache
from types import SimpleNamespace

import numpy as np

from .errors import InfeasibleQpError, QpIterationError
from .linearize import DiscreteLinearModel
from .qp import ActiveSetSolver, QpFactor, factorize


@dataclass(frozen=True)
class MpcWeights:
    """Stage weights and horizons of the tracking cost.

    q1/q2 weigh the generator-speed and generator-power tracking errors,
    r1/r2 the torque and pitch moves, r3 the absolute pitch deviation from
    its operating-point value (the torque channel carries no absolute
    penalty).
    """

    q1: float = 100.0
    q2: float = 0.0
    r1: float = 1e-6
    r2: float = 1e3
    r3: float = 1e3
    n_p: int = 20
    n_c: int = 5

    def __post_init__(self):
        if self.q1 < 0.0 or self.q2 < 0.0 or self.r3 < 0.0:
            raise ValueError("error and absolute-input weights must be nonnegative")
        if self.r1 <= 0.0 or self.r2 <= 0.0:
            raise ValueError("move weights must be strictly positive")
        if not 1 <= self.n_c <= self.n_p:
            raise ValueError("horizons must satisfy 1 <= n_c <= n_p")

    @property
    def q(self) -> np.ndarray:
        return np.diag([self.q1, self.q2])

    @property
    def r(self) -> np.ndarray:
        return np.diag([self.r1, self.r2])

    @property
    def r_u(self) -> np.ndarray:
        return np.diag([0.0, self.r3])


@dataclass(frozen=True)
class ConstraintSet:
    """Per-step bounds in deviation coordinates.

    Infinite entries are legal and drop the matching stacked rows. du
    bounds apply to single moves, u bounds to accumulated inputs over the
    control horizon, y bounds to predicted outputs over the prediction
    horizon.
    """

    du_min: np.ndarray
    du_max: np.ndarray
    u_min: np.ndarray
    u_max: np.ndarray
    y_min: np.ndarray
    y_max: np.ndarray

    def __post_init__(self):
        for lo_name, hi_name in (("du_min", "du_max"), ("u_min", "u_max"),
                                 ("y_min", "y_max")):
            lo = np.asarray(getattr(self, lo_name), dtype=float)
            hi = np.asarray(getattr(self, hi_name), dtype=float)
            object.__setattr__(self, lo_name, lo)
            object.__setattr__(self, hi_name, hi)
            if np.any(lo >= hi):
                raise ValueError(f"{lo_name} must lie strictly below {hi_name}")


@dataclass(frozen=True)
class AugmentedModel:
    """Velocity-form prediction model x_a(k+1) = A_a x_a + B_a du."""

    a_a: np.ndarray
    b_a: np.ndarray
    c_a: np.ndarray

    @property
    def n_state(self) -> int:
        return self.a_a.shape[0]

    @property
    def n_in(self) -> int:
        return self.b_a.shape[1]

    @property
    def n_out(self) -> int:
        return self.c_a.shape[0]


@dataclass(frozen=True)
class PredictionMatrices:
    """Batch operators Y = Phi x + Gamma dU, U = L1 x + L2 dU."""

    phi: np.ndarray
    gamma: np.ndarray
    l1: np.ndarray
    l2: np.ndarray
    n_p: int
    n_c: int


@dataclass(frozen=True)
class CondensedQp:
    """Cached dense-QP matrices for one model/horizon/weights/bounds tuple.

    The per-sample pieces are assembled from the stacked vector
    z = [x_a; r_s]: linear term f = F' z, bound vector b = W + S z. H and G
    live in the solver's factor, which is built once with them.
    """

    factor: QpFactor
    f: np.ndarray
    w: np.ndarray
    s: np.ndarray
    bounds: ConstraintSet
    n_p: int
    n_c: int
    n_in: int


def _append_held_states(a, b, c, coupling, b_rows):
    """Append states held constant that drive the model through ``coupling``.

    Returns [[A, coupling], [0, I]], [B; b_rows] and [C, 0].
    """
    n, k = coupling.shape
    a_new = np.eye(n + k)
    a_new[:n, :n], a_new[:n, n:] = a, coupling
    b_new = np.empty((n + k, b.shape[1]))
    b_new[:n], b_new[n:] = b, b_rows
    c_new = np.zeros((c.shape[0], n + k))
    c_new[:, :n] = c
    return a_new, b_new, c_new


def augment_disturbance(dm: DiscreteLinearModel):
    """Append a constant disturbance state driving the wind input column.

    Returns (A_p, B_p, C_p) with the disturbance rows an identity block, so
    predictions carry d(k) forward unchanged.
    """
    zero_rows = np.zeros((dm.b_d.shape[1], dm.b_du.shape[1]))
    return _append_held_states(dm.a_d, dm.b_du, dm.c_d, dm.b_d, zero_rows)


def augment_velocity(a_p, b_p, c_p) -> AugmentedModel:
    """Rewrite the model in terms of input moves du(k) = u(k) - u(k-1).

    The appended states hold the previous input, giving the controller
    built-in integral action.
    """
    return AugmentedModel(*_append_held_states(a_p, b_p, c_p, b_p,
                                               np.eye(b_p.shape[1])))


@lru_cache(maxsize=32)
def _layout(n, m, q, n_p, n_c, weights: MpcWeights | None = None):
    """Read-only parts of the condensed QP that no model enters: L1, L2, Gamma's
    lag index and zero blocks, G and S templates, W's gather index, cost terms."""
    # u(k+j) is u(k-1) plus moves 0..j: L1's input block is L2's first column
    l2 = (np.tril(np.ones((n_c, n_c)))[:, None, :, None]
          * np.eye(m)[None, :, None, :]).reshape(m * n_c, m * n_c)
    l1 = np.zeros((m * n_c, n))
    l1[:, n - m:] = l2[:, :m]
    # row blocks y <= y_max, y >= y_min, u <= u_max, u >= u_min, du <= du_max
    # and du >= du_min; the Gamma rows of G and Phi rows of S are per model
    g = np.vstack([np.zeros((2 * q * n_p, m * n_c)), l2, -l2, np.eye(m * n_c),
                   -np.eye(m * n_c)])
    s = np.zeros((len(g), n + q * n_p))
    s[2 * q * n_p:2 * q * n_p + 2 * m * n_c, :n] = np.vstack([-l1, l1])
    w_index = np.concatenate([np.tile(np.arange(k, k + q), n_p) for k in (0, q)] + [
        np.tile(np.arange(k, k + m), n_c) for k in range(2 * q, 2 * q + 4 * m, m)])
    lay = SimpleNamespace(
        l1=l1, l2=l2, g=g, s=s, w_index=w_index,
        lag=np.arange(n_c - 1, n_c - 1 + n_p)[:, None] - np.arange(n_c),
        zero_blocks=np.zeros((n_c - 1, q, m)))
    if weights is not None:
        ru1_l2 = np.tile(weights.r_u.diagonal(), n_c)[:, None] * l2
        lay.q_diag = np.tile(weights.q.diagonal(), n_p)[:, None]
        lay.r1 = np.diag(np.tile(weights.r.diagonal(), n_c))
        lay.l2t_ru1_l2, lay.l1t_ru1_l2 = l2.T @ ru1_l2, l1.T @ ru1_l2
    for array in vars(lay).values():
        array.flags.writeable = False
    return lay


def prediction_matrices(am: AugmentedModel, n_p: int, n_c: int) -> PredictionMatrices:
    """Batch output and input operators over the horizons.

    Phi stacks C A^1..C A^n_p; Gamma is lower block-banded with block
    (i, j) equal to C A^(i-j) B for j <= min(i, n_c-1), so the stacked
    outputs y(k+1..k+n_p) are Phi x + Gamma dU. L1/L2 accumulate the
    previous input and the moves into the stacked input sequence
    u(k..k+n_c-1).
    """
    if not 1 <= n_c <= n_p:
        raise ValueError("horizons must satisfy 1 <= n_c <= n_p")
    a, b, c = am.a_a, am.b_a, am.c_a
    n, m = b.shape
    q = c.shape[0]
    lay = _layout(n, m, q, n_p, n_c)

    c_a = np.empty((n_p + 1, q, n))   # C A^0 .. C A^n_p
    c_a[0] = c
    for i in range(n_p):
        c_a[i + 1] = c_a[i] @ a
    phi = c_a[1:].reshape(q * n_p, n)
    # block (i, j) of Gamma is C A^(i-j) B, gathered by lag from a stack
    # whose n_c - 1 leading zero blocks serve the lags below zero
    c_a_b = np.concatenate([lay.zero_blocks, c_a[:n_p] @ b])
    gamma = c_a_b[lay.lag].transpose(0, 2, 1, 3).reshape(q * n_p, m * n_c)
    return PredictionMatrices(phi, gamma, lay.l1, lay.l2, n_p, n_c)


def condense_cost(pm: PredictionMatrices, weights: MpcWeights):
    """Hessian H and linear map F of the condensed tracking cost.

    H = 2 (Gamma'Q1Gamma + R1 + L2'Ru1L2); F stacks the state-side and
    reference-side contributions so the per-sample linear coefficient is
    F' [x; rs]. Q1, R1 and Ru1 are diagonal, so they enter as tiled weight
    diagonals. H is symmetrized to kill assembly roundoff.
    """
    lay = _layout(pm.l1.shape[1], len(pm.l1) // pm.n_c, len(pm.phi) // pm.n_p,
                  pm.n_p, pm.n_c, weights)
    q1_gamma = lay.q_diag * pm.gamma
    h = 2.0 * (pm.gamma.T @ q1_gamma + lay.r1 + lay.l2t_ru1_l2)
    h = 0.5 * (h + h.T)
    f_top = 2.0 * (pm.phi.T @ q1_gamma + lay.l1t_ru1_l2)
    return h, np.vstack([f_top, -2.0 * q1_gamma])


def condense_constraints(pm: PredictionMatrices, bounds: ConstraintSet):
    """Stacked inequality description G dU <= W + S [x; rs].

    Output bounds repeat over the prediction horizon, input and move bounds
    over the control horizon; rows whose bound is infinite are omitted. The
    reference block of S is identically zero (references never constrain).
    """
    q_n_p, n = pm.phi.shape
    lay = _layout(n, len(pm.l1) // pm.n_c, q_n_p // pm.n_p, pm.n_p, pm.n_c)
    g, s = lay.g.copy(), lay.s.copy()
    g[:q_n_p], g[q_n_p:2 * q_n_p] = pm.gamma, -pm.gamma
    s[:q_n_p, :n], s[q_n_p:2 * q_n_p, :n] = -pm.phi, pm.phi
    w = np.concatenate([bounds.y_max, -bounds.y_min, bounds.u_max,
                        -bounds.u_min, bounds.du_max, -bounds.du_min])[lay.w_index]
    keep = np.isfinite(w)
    return g[keep], w[keep], s[keep]


def condense(am: AugmentedModel, weights: MpcWeights,
             bounds: ConstraintSet) -> CondensedQp:
    """Build the full cached QP description, solver factor included, for
    one linearization."""
    pm = prediction_matrices(am, weights.n_p, weights.n_c)
    h, f = condense_cost(pm, weights)
    g, w, s = condense_constraints(pm, bounds)
    return CondensedQp(factor=factorize(h, g), f=f, w=w, s=s, bounds=bounds,
                       n_p=weights.n_p, n_c=weights.n_c, n_in=am.n_in)


@dataclass
class StepInfo:
    """Per-sample controller diagnostics.

    mpc_step fills the QP fields; the controller step adds its mode, its
    own wall-clock time, the disturbance estimate and the speed reference.
    """

    qp_status: str      # "optimal", "fallback" or "hold"
    qp_iterations: int
    n_active: int
    cost: float
    mode: str = ""
    solve_time: float = 0.0   # full controller step, wall-clock seconds
    d_hat: float = 0.0
    omega_g_ref: float = 0.0  # generator speed reference, rad/s


def mpc_step(qp: CondensedQp, x_a, r_s, solver: ActiveSetSolver):
    """Solve the receding-horizon program; return the first move and a
    StepInfo with the QP fields filled.

    Only the first block of the optimal move sequence is returned (the
    receding-horizon rule). If the QP is infeasible or the solver stalls,
    the unconstrained minimizer clipped to the move bounds is applied
    instead and flagged with status "fallback".
    """
    z = np.concatenate([np.asarray(x_a, dtype=float),
                        np.asarray(r_s, dtype=float)])
    f = qp.f.T @ z
    b = qp.w + qp.s @ z
    m = qp.n_in
    try:
        sol = solver.solve(qp.factor, f, b)
        du_seq = sol.x
        info = StepInfo("optimal", sol.iterations, len(sol.working_set),
                        sol.objective)
    except (InfeasibleQpError, QpIterationError):
        du_seq = -(qp.factor.h_inv @ f)
        lo = np.tile(qp.bounds.du_min, qp.n_c)
        hi = np.tile(qp.bounds.du_max, qp.n_c)
        du_seq = np.clip(du_seq, lo, hi)
        cost = 0.5 * du_seq @ qp.factor.h @ du_seq + f @ du_seq
        info = StepInfo("fallback", 0, 0, float(cost))
    return du_seq[:m].copy(), info
