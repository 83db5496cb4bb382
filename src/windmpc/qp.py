"""Dense dual active-set solver for strictly convex quadratic programs.

Solves

    min  0.5 x' H x + f' x    s.t.  G x <= b

with H symmetric positive definite, by the dual method of Goldfarb and
Idnani (1983). Every iterate minimizes the objective subject to the rows
of a working set held as equalities, with nonnegative multipliers. The
most violated row outside the set is then enforced: a full step adds it,
a partial step drops the working row whose multiplier reaches zero first.
No feasible starting point is needed, and a row that no step can reduce
proves the program infeasible.

The steps run in range-space form on a factor of (H, G) that
``factorize`` builds once: a root R of H^-1 = R R' through the diagonally
scaled D H D, D = diag(H)^(-1/2), then H^-1 G' and M = G H^-1 G'. A solve
that steps inverts M_WW on its working set W once and updates the inverse as
rows join and leave W, so a step costs a gather of M's rows and products the
size of W. Suited to receding-horizon
control, where H and G are fixed per model and the active set barely
changes between samples: a solver instance starts from the optimum on its
last working set, pruned of rows with negative multipliers. Each factor also
remembers the working sets found optimal on it as affine laws of (f, b),
the explicit MPC of Bemporad et al. (2002) learned only where the loop goes,
the partial enumeration of Pannocchia et al. (2007); a solve tries them
before the dual loop. A law is built on its factor's next solve, so a factor
solved once builds none, and at most LAW_CAP are kept. The enumeration
oracle the solver is checked against lives in ``windmpc.verify``.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import InfeasibleQpError, QpIterationError

FEAS_TOL = 1e-9         # primal feasibility on G x <= b, scaled by 1 + max|b|
STAT_TOL = 1e-8         # stationarity, scaled by 1 + max|f|, and complementarity
MAX_ITER_FACTOR = 50    # iteration cap as a multiple of the number of variables
# A violated row counts as dependent on the working rows when the part of
# it outside their span, H z below, is under this share of the row: closer
# to dependence the computed step is rounding noise and can point uphill.
DEP_TOL = 1e-6
DEP_SCREEN = 1e4        # rounding margin of the screen in front of that test
LAW_CAP = 256           # optimal working sets remembered per factor


class LawTable(dict):
    """Working sets found optimal on one factor, in learning order: sorted
    rows W -> the law (P, Q), lambda_W = P r and x = x_free - Q r for
    r = G x_free - b, so P holds M_WW^-1 in the columns W and Q = H^-1 G_W' P;
    None until built. ``stack`` holds the built laws in learning order for
    ``match``, None until a build and after an eviction: their sets, buffers
    that double when full of the P blocks row by row, of Q and of each block's
    first row, and the filled P rows. ``recency`` orders sets by last use."""

    def __init__(self):
        super().__init__()
        self.stack, self.recency = None, {}

    def record(self, key):
        """Mark ``key`` optimal now, dropping the least recent at LAW_CAP."""
        self.recency.pop(key, None)
        self.recency[key] = None
        if key not in self:
            if len(self) >= LAW_CAP:
                old = next(iter(self.recency))
                del self[old], self.recency[old]
                self.stack = None  # restack in full
            self[key] = None

    def match(self, factor: "QpFactor", last, x_free, b, tol):
        """(W, lambda_W, 1) for a law optimal at (f, b), lambda_W >= 0 and
        G x - b <= tol: the last working set's law if it is, else the earliest
        learned; None on a miss."""
        if not self:
            return None
        if self.stack is None or len(self.stack[0]) < len(self):
            self._build(factor)
        r, law = factor.g @ x_free - b, self.get(tuple(last))
        if law is not None:
            lam = law[0] @ r
            if lam.min() >= 0.0 and (
                    factor.g @ (x_free - law[1] @ r) - b).max() <= tol:
                return list(last), lam, 1
        keys, p, q, starts, rows = self.stack
        if keys:
            lam = p[:rows] @ r
            dual = np.flatnonzero(
                np.minimum.reduceat(lam, starts[:len(keys)]) >= 0.0)
            x = x_free - q[dual] @ r
            ok = np.flatnonzero((x @ factor.g.T - b).max(axis=1) <= tol)
            if ok.size:
                i = dual[ok[0]]
                return list(keys[i]), lam[starts[i]:starts[i] + len(keys[i])], 1
        return None

    def _build(self, factor: "QpFactor"):
        """Build each pending law, dropping a set whose M_WW fails to invert,
        and append the laws not yet stacked."""
        m, n = factor.g.shape
        keys, p, q, starts, rows = self.stack or (
            [], np.empty((0, m)), np.empty((0, n, m)), np.empty(0, np.intp), 0)
        new = []
        for key in list(self)[len(keys):]:
            if self[key] is None:
                try:
                    m_inv = np.linalg.inv(factor.m[np.ix_(key, key)])
                except np.linalg.LinAlgError:
                    del self[key], self.recency[key]
                    continue
                p_w = np.zeros((len(key), m))
                p_w[:, key] = m_inv
                self[key] = p_w, factor.h_inv_gt[:, key] @ p_w
            new.append(key)
        if rows + sum(map(len, new)) > len(p):  # np.resize keeps the head
            p = np.resize(p, (max(rows + sum(map(len, new)), 2 * len(p)), m))
        if len(keys) + len(new) > len(q):
            q = np.resize(q, (max(len(keys) + len(new), 2 * len(q)), n, m))
            starts = np.resize(starts, len(q))
        for key in new:
            starts[len(keys)], q[len(keys)] = rows, self[key][1]
            p[rows:rows + len(key)] = self[key][0]
            keys.append(key)
            rows += len(key)
        self.stack = keys, p, q, starts, rows


@dataclass(frozen=True)
class QpFactor:
    """The matrices (H, G) of a program and the range-space factor on them."""

    h: np.ndarray          # n x n Hessian, symmetric positive definite
    g: np.ndarray          # m x n constraint rows, m may be 0
    h_inv: np.ndarray      # H^-1
    h_inv_gt: np.ndarray   # H^-1 G', n x m
    m: np.ndarray          # G H^-1 G', m x m
    laws: LawTable = field(default_factory=LawTable, compare=False, repr=False)


def cholesky_root(h):
    """R = D L^-T with D H D = L L', so H^-1 = R R'. cond(D H D) is about 5e3
    for the MPC Hessian against 7e9 for H. Raises LinAlgError unless H is
    positive definite."""
    d = 1.0 / np.sqrt(h.diagonal())
    return d[:, None] * np.linalg.inv(np.linalg.cholesky(d[:, None] * h * d)).T


def factor_from_root(h, g, root) -> QpFactor:
    """Factor of (H, G) on a root R of H^-1 = R R'."""
    g_root = g @ root
    return QpFactor(h, g, root @ root.T, root @ g_root.T, g_root @ g_root.T)


def factorize(h, g=None) -> QpFactor:
    """Factor of (H, G) on H's Cholesky root, G None when unconstrained."""
    h = np.asarray(h, dtype=float)
    g = np.asarray(np.zeros((0, len(h))) if g is None else g, dtype=float)
    return factor_from_root(h, g, cholesky_root(h))


@dataclass
class QpSolution:
    x: np.ndarray
    multipliers: np.ndarray          # one per row of G, zero off the working set
    working_set: list[int] = field(default_factory=list)
    iterations: int = 0
    objective: float = 0.0


class ActiveSetSolver:
    """Dual active-set QP solver, warm-started from the previous working set,
    with KKT verification on every solve."""

    def __init__(self):
        self.working_set: list[int] = []

    def solve(self, factor: QpFactor, f, b=None) -> QpSolution:
        """Minimize 0.5 x'Hx + f'x subject to G x <= b, H and G from ``factor``.

        Raises InfeasibleQpError when no feasible point exists, carrying the
        row this dual path stalled on: the warm start and the step order pick
        it, so it is not a property of the program. Raises QpIterationError
        when the iteration cap is hit or the KKT residuals fail to verify. The
        iteration count includes the start-point solve and each pruned row; a
        solve taken from the factor's law table counts 1.
        """
        h, g = factor.h, factor.g
        f = np.asarray(f, dtype=float).ravel()
        m = len(g)
        x_free = -(factor.h_inv @ f)
        if m == 0:
            return QpSolution(x_free, np.zeros(0), [], 1,
                              self._objective(h, f, x_free))
        b = np.asarray(b, dtype=float).ravel()
        tol = FEAS_TOL * (1.0 + float(np.abs(b).max()))

        ws, lam, iterations = (
            factor.laws.match(factor, self.working_set, x_free, b, tol)
            or self._warm_start(factor, x_free, b))
        x = x_free - factor.h_inv_gt[:, ws] @ lam
        viol = g @ x - b
        viol[ws] = -np.inf
        p = int(np.argmax(viol))
        if viol[p] > tol:
            x, ws, lam, iterations = self._dual_steps(
                factor, x_free, b, tol, ws, lam, iterations, viol, p)
        mult = np.zeros(m)
        mult[ws] = np.maximum(lam, 0.0)
        self._verify_kkt(h, f, g, b, x, mult)
        self.working_set = sorted(ws)
        if ws:
            factor.laws.record(tuple(self.working_set))
        return QpSolution(x, mult, sorted(ws), iterations,
                          self._objective(h, f, x))

    def _dual_steps(self, factor: QpFactor, x_free, b, tol, ws, lam,
                    iterations, viol, p):
        """Steps from working set W = ``ws``, multipliers ``lam``, ``viol`` =
        G x - b (W at -inf) and its worst row ``p`` until no row is violated.

        J = M_WW^-1 is inverted once, bordered by s = M_pp - M_pW J M_Wp when
        row p joins W and downdated by rank one when a row leaves. Per unit of
        row p's multiplier lam_W moves by -u = -J M_Wp and x by z, H z =
        G_W' u - g_p, so G z = M_:W u - M_:p and s = z'Hz = -(G z)_p; viol is
        carried as viol += t G z. Once none is left, lam is solved afresh on W
        (through J's updates it drifts when M_WW is ill-conditioned), x =
        x_free - H^-1 G_W' lam is formed and G x - b at it decides the exit."""
        g, mm = factor.g, factor.m
        max_iter = max(10, MAX_ITER_FACTOR * g.shape[1])
        j = np.linalg.inv(mm[np.array(ws, dtype=np.intp)[:, None], ws])
        screen = DEP_SCREEN * float(np.abs(factor.h_inv).sum()) * DEP_TOL ** 2
        lam, lam_p = lam.tolist(), 0.0     # lam_p: row p's multiplier so far
        while True:
            if p < 0:
                p = int(viol.argmax())
                if viol[p] <= tol:
                    w = np.array(ws, dtype=np.intp)
                    lam = np.linalg.solve(mm[w[:, None], w],
                                          g[w] @ x_free - b[w]).tolist()
                    x = x_free - factor.h_inv_gt[:, ws] @ lam
                    viol = g @ x - b
                    viol[ws] = -np.inf
                    p = int(viol.argmax())
                    if viol[p] <= tol:
                        return x, ws, lam, iterations
            if iterations >= max_iter:
                raise QpIterationError(
                    f"active set did not settle in {max_iter} iterations")
            iterations += 1
            rows = mm.take(ws + [p], 0)
            u = j @ rows[:-1, p]
            g_z = u @ rows[:-1] - rows[-1]
            s, viol_p = -float(g_z[p]), float(viol[p])
            t_full = np.inf                # step that makes row p active
            # row p is dependent on W when H z is tiny; s = (Hz)' H^-1 (Hz)
            # <= |Hz|_inf^2 sum|H^-1| and |g_p|_inf^2 <= g_p'g_p, so a large s
            # proves it is not
            g_p = g[p]
            if s > screen * (g_p @ g_p) or np.abs(u @ g[ws] - g_p).max() \
                    > DEP_TOL * np.abs(g_p).max():
                t_full = viol_p / s
            t_part, drop = np.inf, -1      # step that zeroes a working multiplier
            u = u.tolist()
            for i, (lam_i, u_i) in enumerate(zip(lam, u)):
                if u_i > 0.0 and lam_i / u_i < t_part:
                    t_part, drop = lam_i / u_i, i
            t_part = max(t_part, 0.0)
            t = min(t_full, t_part)
            if t == np.inf:
                if viol_p <= tol:          # partial steps brought it within tolerance
                    p, lam_p = -1, 0.0     # abandoned: the next row starts at 0
                    continue
                raise InfeasibleQpError("no step reduces the violated row",
                                        worst_row=p)
            if t_full < np.inf:
                viol += t * g_z
            lam = [lam_i - t * u_i for lam_i, u_i in zip(lam, u)]
            lam_p += t
            if t_full <= t_part:
                e = np.array(u + [-1.0])
                j, j_w = e[:, None] * (e / s), j
                j[:-1, :-1] += j_w
                ws, lam = ws + [p], lam + [lam_p]
                viol[p], p, lam_p = -np.inf, -1, 0.0
            else:
                keep = [i for i in range(len(ws)) if i != drop]
                j = j - j[:, drop, None] * (j[drop] / j[drop, drop])
                j = j[keep][:, keep]
                viol[ws[drop]] = 0.0       # it was active
                del ws[drop], lam[drop]

    def _warm_start(self, factor: QpFactor, x_free, b):
        """(working set, multipliers, solves spent) to start from: the last
        working set W with M_WW lam = G_W x_free - b_W, dropping the row of
        the most negative multiplier until none is negative, which keeps the
        start dual feasible. An emptied or singular set starts cold."""
        ws = [i for i in self.working_set if i < b.size]
        solves = 1
        while ws:
            w = np.array(ws)
            try:
                lam = np.linalg.solve(factor.m[w[:, None], w],
                                      factor.g[w] @ x_free - b[w])
            except np.linalg.LinAlgError:
                break
            if lam.min() >= 0.0:
                return ws, lam, solves
            del ws[int(np.argmin(lam))]
            solves += 1
        return [], np.zeros(0), solves

    @staticmethod
    def _objective(h, f, x):
        return float(0.5 * x @ h @ x + f @ x)

    @staticmethod
    def _verify_kkt(h, f, g, b, x, mult):
        stationarity = np.abs(h @ x + f + g.T @ mult).max()
        if stationarity > STAT_TOL * (1.0 + np.abs(f).max()):
            raise QpIterationError(
                f"stationarity residual {stationarity:.3e} above tolerance")
        slack = b - g @ x
        if slack.min() < -FEAS_TOL * (1.0 + np.abs(b).max()):
            raise QpIterationError("accepted point is primal infeasible")
        comp = np.abs(mult * slack).max() if mult.size else 0.0
        if comp > STAT_TOL * (1.0 + np.abs(b).max()) * (1.0 + np.abs(mult).max()):
            raise QpIterationError(
                f"complementary slackness residual {comp:.3e} above tolerance")
