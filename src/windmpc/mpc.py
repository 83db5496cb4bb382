"""Prediction model and its condensation into a dense QP.

``augment`` places the discrete turbine arrays (A_d, B_du, b_d, C), a
constant disturbance state riding the wind input column and the previous
input in one velocity-form model, so the decision variables are input moves
and the controller gains integral action. Eliminating the predicted states
condenses the finite-horizon tracking cost and the stacked bounds into

    min  0.5 dU' H dU + [x' rs'] F dU
    s.t. G dU <= W + S [x; rs]

where everything except the per-sample linear term and bound vector
depends only on the model, horizons, weights and bounds, and is therefore
built once and cached per linearization, by ``condense`` for any pattern
of finite bounds. ``mpc_step`` solves one sample's program and reports it
in the shared per-sample ``StepInfo`` record.
"""

from dataclasses import dataclass
from functools import lru_cache
from types import SimpleNamespace

import numpy as np

from .errors import InfeasibleQpError, QpIterationError
from .qp import ActiveSetSolver, QpFactor, factor_from_root


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
class CondensedQp:
    """Cached dense-QP matrices for one model/horizon/weights/bounds tuple.

    The per-sample pieces are assembled from the stacked vector
    z = [x_a; r_s]: linear term f = F' z, bound vector b = W + S z. H and G
    live in the solver's factor, which is built once with them. The bounds
    of one move, tiled over the control horizon, clip the fallback.
    """

    factor: QpFactor
    f: np.ndarray
    w: np.ndarray
    s: np.ndarray
    du_min: np.ndarray
    du_max: np.ndarray


def augment(a_d, b_du, b_d, c):
    """Velocity-form prediction model x_a(k+1) = A_a x_a + B_a du, y = C_a x_a,
    as arrays (A_a, B_a, C_a) on the state x_a = [x; d; u(k-1)], with d a
    constant disturbance on the wind column b_d and du(k) = u(k) - u(k-1):

        A_a = [A_d  b_d  B_du]   B_a = [B_du]   C_a = [C  0  0]
              [0    1    0   ]         [0   ]
              [0    0    I   ]         [I   ]
    """
    n, m = b_du.shape
    a = np.eye(n + 1 + m)
    a[:n, :n], a[:n, n:n + 1], a[:n, n + 1:] = a_d, b_d, b_du
    b = np.zeros((n + 1 + m, m))
    b[:n], b[n + 1:] = b_du, np.eye(m)
    c_a = np.zeros((len(c), n + 1 + m))
    c_a[:, :n] = c
    return a, b, c_a


def _input_operators(n, m, n_c):
    """(L1, L2) of the stacked inputs u(k..k+n_c-1) = L1 x_a + L2 dU on a
    state x_a whose last m entries are u(k-1)."""
    # u(k+j) is u(k-1) plus moves 0..j: L1's input block is L2's first column
    l2 = (np.tril(np.ones((n_c, n_c)))[:, None, :, None]
          * np.eye(m)[None, :, None, :]).reshape(m * n_c, m * n_c)
    l1 = np.zeros((m * n_c, n))
    l1[:, n - m:] = l2[:, :m]
    return l1, l2


@lru_cache(maxsize=32)
def _constraint_rows(n, m, q, n_p, n_c, finite: bytes):
    """Read-only parts of G dU <= W + S [x; rs] for one pattern of finite
    stacked bounds: the kept rows of the G and S templates, W's signed
    gather of the bounds and the signed Gamma/Phi rows of its output rows."""
    l1, l2 = _input_operators(n, m, n_c)
    # row blocks y <= y_max, y >= y_min, u <= u_max, u >= u_min, du <= du_max
    # and du >= du_min; the Gamma rows of G and Phi rows of S are per model
    eye = np.eye(m * n_c)
    g = np.vstack([np.zeros((2 * q * n_p, m * n_c)), l2, -l2, eye, -eye])
    s = np.zeros((len(g), n + q * n_p))
    s[2 * q * n_p:2 * q * n_p + 2 * m * n_c, :n] = np.vstack([-l1, l1])
    # each block's bound in the stacked order du_min, du_max, u_min, u_max
    # (m each), y_min, y_max (q each)
    w_gather = np.concatenate(
        [np.tile(np.arange(k, k + q), n_p) for k in (4 * m + q, 4 * m)]
        + [np.tile(np.arange(k, k + m), n_c) for k in (3 * m, 2 * m, m, 0)])
    w_sign = np.tile([1.0, -1.0], 3).repeat([q * n_p] * 2 + [m * n_c] * 4)
    keep = np.frombuffer(finite, dtype=bool)[w_gather]
    kept_y = np.flatnonzero(keep[:2 * q * n_p])
    rows = SimpleNamespace(
        g=g[keep], s=s[keep], w_gather=w_gather[keep], w_sign=w_sign[keep],
        y_rows=kept_y % (q * n_p), g_sign=w_sign[kept_y, None],
        s_sign=-w_sign[kept_y, None])
    for array in vars(rows).values():
        array.flags.writeable = False
    return rows


def prediction_matrices(a, b, c, n_p: int, n_c: int):
    """Batch output operators (Phi, Gamma) of the model (A, B, C) over the
    horizons: Phi stacks C A^1..C A^n_p; Gamma is lower block-banded with
    block (i, j) equal to C A^(i-j) B for j <= min(i, n_c-1), so the stacked
    outputs y(k+1..k+n_p) are Phi x + Gamma dU. The stacked inputs
    u(k..k+n_c-1) are L1 x + L2 dU, with L1 and L2 from ``_input_operators``.
    """
    if not 1 <= n_c <= n_p:
        raise ValueError("horizons must satisfy 1 <= n_c <= n_p")
    n, m = b.shape
    q = c.shape[0]

    c_a = np.empty((n_p + 1, q, n))   # C A^0 .. C A^n_p
    c_a[0] = c
    for i in range(n_p):
        c_a[i + 1] = c_a[i] @ a
    phi = c_a[1:].reshape(q * n_p, n)
    # block (i, j) of Gamma is C A^(i-j) B, gathered by lag from a stack
    # whose n_c - 1 leading zero blocks serve the lags below zero
    c_a_b = np.concatenate([np.zeros((n_c - 1, q, m)), c_a[:n_p] @ b])
    lag = np.arange(n_c - 1, n_c - 1 + n_p)[:, None] - np.arange(n_c)
    gamma = c_a_b[lag].transpose(0, 2, 1, 3).reshape(q * n_p, m * n_c)
    return phi, gamma


def condense_cost(phi, gamma, weights: MpcWeights):
    """Hessian H and linear map F of the condensed tracking cost.

    H = 2 (Gamma'Q1Gamma + R1 + L2'Ru1L2); F stacks the state-side and
    reference-side contributions so the per-sample linear coefficient is
    F' [x; rs]. Q1, R1 and Ru1 are diagonal, so they enter as tiled weight
    diagonals. H is symmetrized to kill assembly roundoff.
    """
    n_p, n_c = weights.n_p, weights.n_c
    l1, l2 = _input_operators(phi.shape[1], gamma.shape[1] // n_c, n_c)
    ru1_l2 = np.tile(weights.r_u.diagonal(), n_c)[:, None] * l2
    q1_gamma = np.tile(weights.q.diagonal(), n_p)[:, None] * gamma
    h = 2.0 * (gamma.T @ q1_gamma + np.diag(np.tile(weights.r.diagonal(), n_c))
               + l2.T @ ru1_l2)
    h = 0.5 * (h + h.T)
    f_top = 2.0 * (phi.T @ q1_gamma + l1.T @ ru1_l2)
    return h, np.vstack([f_top, -2.0 * q1_gamma])


def condense(h, f, gamma, phi, root, bounds, n_c) -> CondensedQp:
    """The cached QP of one model from its cost (H, F), the root R of
    H^-1 = R R', Gamma, Phi and ``bounds``: du_min, du_max, u_min, u_max
    (one entry per input each), y_min and y_max (one per output each)
    stacked in one vector, whose move bounds the QP keeps as views.

    Output bounds repeat over the prediction horizon, input and move bounds
    over the control horizon; rows whose bound is infinite are omitted. The
    reference block of S is identically zero (references never constrain).
    """
    q_n_p, n = phi.shape
    m = gamma.shape[1] // n_c
    q = len(bounds) // 2 - 2 * m
    rows = _constraint_rows(n, m, q, q_n_p // q, n_c,
                            np.isfinite(bounds).tobytes())
    k = len(rows.y_rows)
    g, s = rows.g.copy(), rows.s.copy()
    np.multiply(rows.g_sign, gamma.take(rows.y_rows, 0), out=g[:k])
    np.multiply(rows.s_sign, phi.take(rows.y_rows, 0), out=s[:k, :n])
    w = rows.w_sign * bounds[rows.w_gather]
    return CondensedQp(factor_from_root(h, g, root), f, w, s, bounds[:m],
                       bounds[m:2 * m])


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
    m = len(qp.du_min)
    try:
        sol = solver.solve(qp.factor, f, b)
        du_seq = sol.x
        info = StepInfo("optimal", sol.iterations, len(sol.working_set),
                        sol.objective)
    except (InfeasibleQpError, QpIterationError):
        du_seq = np.clip(-(qp.factor.h_inv @ f).reshape(-1, m), qp.du_min,
                         qp.du_max).ravel()
        cost = 0.5 * du_seq @ qp.factor.h @ du_seq + f @ du_seq
        info = StepInfo("fallback", 0, 0, float(cost))
    return du_seq[:m].copy(), info
