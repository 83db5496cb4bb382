"""Dense dual active-set solver for strictly convex quadratic programs.

Solves, at the parameters theta that are a solve's one input,

    min  0.5 x' H x + (F theta)' x    s.t.  G x <= B theta

with H symmetric positive definite and G of at least one row, by the dual
method of Goldfarb and Idnani (1983); a plain program (f, b) is theta =
[f; b] on the identity maps of a factor built without F and B. Every iterate
minimizes the objective subject to the rows of a working set held as
equalities, with nonnegative multipliers. The most violated row outside the
set is then enforced: a full step adds it, a partial step drops the working
row whose multiplier reaches zero first. No feasible starting point is
needed, and a row that no step can reduce proves the program infeasible.

The steps run in range-space form on a factor of (H, G) that only
``factorize`` builds: a root R of H^-1 = R R' from the Cholesky factor of
D H D, D = diag(H)^(-1/2), then H^-1 G' and M = G H^-1 G'. A solve
that steps inverts M_WW on its working set W once and updates the inverse as
rows join and leave W, so a step costs a gather of M's rows and products the
size of W. Suited to receding-horizon control, where H and G are fixed per
model and the active set barely changes between samples: a solver instance
starts from the optimum on its last working set, pruned of rows with negative
multipliers. Each factor also remembers the working sets found optimal on it
as laws affine in theta, the explicit MPC of Bemporad et al. (2002) learned
only where the loop goes, the partial enumeration of Pannocchia et al.
(2007); a solve screens them with one stacked product before the dual loop.
A law that holds hands over the x and G x - b it was tested on to the KKT
check. A law is built on its factor's next solve, so a factor solved once
builds none, and at most LAW_CAP are kept. The solver's enumeration oracle
is in ``windmpc.verify``.
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
    rows W -> the law (Lambda_W, H^-1 G_W', G X_W - B) on the parameters
    theta, lambda_W = Lambda_W theta and x = x_free - H^-1 G_W' lambda_W =
    X_W theta; None until built. With x_free = K theta and G x_free - b =
    R theta, Lambda_W = M_WW^-1 R_W and X_W = K - H^-1 G_W' Lambda_W.
    ``stack`` holds the built laws in learning order for ``match``, None
    until a build and after an eviction: their sets, places, a buffer of
    their Lambda_W that doubles when full, their first rows and the filled
    rows. ``recency`` orders sets by last use."""

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

    def match(self, factor: "QpFactor", last, theta, x_free, b, tol):
        """(W, lambda_W, 1, x, G x - b) of a law holding at (F theta, B theta)
        by ``_test``: the last working set's law, else the earliest learned.
        One stacked product gives lambda_W of every law, and each with
        lambda_W >= 0 and G X_W theta - b <= tol is tested. None on a miss."""
        if self and (self.stack is None or len(self.stack[0]) < len(self)):
            self._build(factor)
        if not self:
            return None
        keys, place, lam_map, starts, rows = self.stack
        i = place.get(tuple(last), -1)
        hit = i >= 0 and self._test(factor, keys[i], self[keys[i]][0] @ theta,
                                    x_free, b, tol)
        if hit:
            return hit
        lam = lam_map[:rows] @ theta
        for j in (np.minimum.reduceat(lam, starts) >= 0.0).nonzero()[0].tolist():
            key = keys[j]
            hit = j != i and (self[key][2] @ theta).max() <= tol and self._test(
                factor, key, lam[starts[j]:starts[j] + len(key)], x_free, b, tol)
            if hit:
                return hit
        return None

    def _test(self, factor: "QpFactor", key, lam_w, x_free, b, tol):
        """(W, lambda_W, 1, x, G x - b) if lambda_W >= 0 and G x - b <= tol
        at x = x_free - H^-1 G_W' lambda_W (stationary for any lambda_W)."""
        if lam_w.min() >= 0.0:
            x = x_free - self[key][1] @ lam_w
            gx_b = factor.g @ x - b
            if gx_b.max() <= tol:
                return list(key), lam_w, 1, x, gx_b
        return None

    def _build(self, factor: "QpFactor"):
        """Build each pending law, dropping a set whose M_WW fails to invert,
        and append the laws not yet stacked."""
        k = -(factor.h_inv @ factor.f_map)
        r, p = factor.g @ k - factor.b_map, k.shape[1]
        keys, place, lam_map, starts, rows = self.stack or (
            [], {}, np.empty((0, p)), [], 0)
        starts = list(starts)
        new = []
        for key in list(self)[len(keys):]:
            if self[key] is None:
                try:
                    m_inv = np.linalg.inv(factor.m[np.ix_(key, key)])
                except np.linalg.LinAlgError:
                    del self[key], self.recency[key]
                    continue
                lam_w, hg_w = m_inv @ r.take(key, 0), factor.h_inv_gt[:, key]
                self[key] = (lam_w, hg_w,
                             factor.g @ (k - hg_w @ lam_w) - factor.b_map)
            new.append(key)
        if rows + sum(map(len, new)) > len(lam_map):  # np.resize keeps the head
            lam_map = np.resize(lam_map, (max(rows + sum(map(len, new)),
                                              2 * len(lam_map)), p))
        for key in new:
            place[key] = len(keys)
            keys.append(key)
            starts.append(rows)
            rows += len(key)
            lam_map[starts[-1]:rows] = self[key][0]
        self.stack = keys, place, lam_map, np.array(starts, np.intp), rows


@dataclass(frozen=True)
class QpFactor:
    """(H, G) of a program, the range-space factor on them and its maps."""

    h: np.ndarray          # n x n Hessian, symmetric positive definite
    g: np.ndarray          # m x n constraint rows, m >= 1
    h_inv: np.ndarray      # H^-1
    h_inv_gt: np.ndarray   # H^-1 G', n x m
    m: np.ndarray          # G H^-1 G', m x m
    f_map: np.ndarray      # F, n x p
    b_map: np.ndarray      # B, m x p
    laws: LawTable = field(default_factory=LawTable, compare=False, repr=False)


def factorize(h, g, f_map=None, b_map=None) -> QpFactor:
    """Factor of (H, G) on the root R = D L^-T of H^-1 = R R', D H D = L L'.
    cond(D H D) is about 5e3 for the MPC Hessian against 7e9 for H. With no
    maps F and B, theta = [f; b]. Raises ValueError when G has no rows and
    LinAlgError unless H is positive definite."""
    h, g = np.asarray(h, dtype=float), np.asarray(g, dtype=float)
    if not len(g):
        raise ValueError("G must have at least one row")
    if f_map is None:
        f_map, b_map = np.split(np.eye(len(h) + len(g)), [len(h)])
    d = 1.0 / np.sqrt(h.diagonal())
    root = d[:, None] * np.linalg.inv(np.linalg.cholesky(d[:, None] * h * d)).T
    if not np.isfinite(root).all():  # NaN passes np.linalg.cholesky silently
        raise np.linalg.LinAlgError("Hessian is not positive definite")
    g_root = g @ root
    return QpFactor(h, g, root @ root.T, root @ g_root.T, g_root @ g_root.T,
                    f_map, b_map)


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

    def solve(self, factor: QpFactor, theta) -> QpSolution:
        """Minimize 0.5 x'Hx + f'x subject to G x <= b at f = F theta and b =
        B theta, H, G, F and B from ``factor``; on a factor built without
        maps, theta = [f; b].

        Raises InfeasibleQpError when no feasible point exists, carrying the
        row this dual path stalled on: the warm start and the step order pick
        it, so it is not a property of the program. Raises QpIterationError
        when the iteration cap is hit or the KKT residuals fail to verify, on a
        law-table hit too, whose x and G x - b are those ``LawTable.match``
        tested. The iteration count includes the start-point solve and each
        pruned row; a hit counts 1.
        """
        f, b = factor.f_map @ theta, factor.b_map @ theta
        x_free = -(factor.h_inv @ f)
        b_scale = 1.0 + float(np.abs(b).max())
        tol = FEAS_TOL * b_scale

        ws, lam, iterations, x, gx_b = (
            factor.laws.match(factor, self.working_set, theta, x_free, b, tol)
            or self._warm_start(factor, x_free, b))
        if gx_b.max() > tol:  # never on a law-table hit
            viol = gx_b.copy()
            viol[ws] = -np.inf
            p = int(np.argmax(viol))
            if viol[p] > tol:
                x, ws, lam, iterations, gx_b = self._dual_steps(
                    factor, x_free, b, tol, ws, lam, iterations, viol, p)
        mult = np.zeros(len(b))
        mult[ws] = np.maximum(lam, 0.0)
        hx = factor.h @ x
        self._verify_kkt(f, factor.g, gx_b, hx, mult, b_scale)
        self.working_set = sorted(ws)
        if ws:
            factor.laws.record(tuple(self.working_set))
        return QpSolution(x, mult, sorted(ws), iterations,
                          float(0.5 * (x @ hx) + f @ x))

    def _dual_steps(self, factor: QpFactor, x_free, b, tol, ws, lam,
                    iterations, viol, p):
        """Steps from working set W = ``ws``, multipliers ``lam``, ``viol`` =
        G x - b (W at -inf) and its worst row ``p`` until no row is violated;
        returns (x, W, lambda_W, iterations, G x - b).

        J = M_WW^-1 is inverted once, bordered by s = M_pp - M_pW J M_Wp when
        row p joins W and downdated by rank one when a row leaves. Per unit of
        row p's multiplier lam_W moves by -u = -J M_Wp and x by z, H z =
        G_W' u - g_p, so G z = M_:W u - M_:p and s = z'Hz = -(G z)_p; viol is
        carried as viol += t G z. Once none is left, ``_point`` solves lam
        afresh on W (through J's updates it drifts when M_WW is
        ill-conditioned), and G x - b at its x decides the exit."""
        g, mm = factor.g, factor.m
        n = g.shape[1]
        max_iter = max(10, MAX_ITER_FACTOR * n)
        j = np.linalg.inv(mm[np.array(ws, dtype=np.intp)[:, None], ws])
        screen = DEP_SCREEN * float(np.abs(factor.h_inv).sum()) * DEP_TOL ** 2
        lam, lam_p = lam.tolist(), 0.0     # lam_p: row p's multiplier so far
        while True:
            if p < 0:
                p = int(viol.argmax())
                if viol[p] <= tol:
                    lam, x, gx_b = self._point(factor, x_free, b, ws)
                    viol = gx_b.copy()
                    viol[ws] = -np.inf
                    p = int(viol.argmax())
                    if viol[p] <= tol:
                        return x, ws, lam, iterations, gx_b
                    lam = lam.tolist()
            if iterations >= max_iter:
                raise QpIterationError(
                    f"active set did not settle in {max_iter} iterations")
            iterations += 1
            rows = mm.take(ws + [p], 0)
            u = j @ rows[:-1, p]
            g_z = u @ rows[:-1] - rows[-1]
            s, viol_p = -float(g_z[p]), float(viol[p])
            t_full = np.inf                # step that makes row p active
            # row p is dependent on W when W already holds n rows (the
            # working rows stay independent, so |W| <= n) or when H z is
            # tiny; s = (Hz)' H^-1 (Hz) <= |Hz|_inf^2 sum|H^-1| and
            # |g_p|_inf^2 <= g_p'g_p, so a large s proves it is not
            g_p = g[p]
            if len(ws) < n and (s > screen * (g_p @ g_p) or np.abs(
                    u @ g[ws] - g_p).max() > DEP_TOL * np.abs(g_p).max()):
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
        """(W, multipliers, solves spent, x, G x - b) to start from: the
        ``_point`` of the last working set W, dropping the row of the most
        negative multiplier until none is negative, which keeps the start
        dual feasible. An emptied or singular set starts cold."""
        ws, solves = [i for i in self.working_set if i < b.size], 1
        while ws:
            try:
                lam, x, gx_b = self._point(factor, x_free, b, ws, prune=True)
            except np.linalg.LinAlgError:
                break
            if x is not None:
                return ws, lam, solves, x, gx_b
            del ws[int(np.argmin(lam))]
            solves += 1
        return [], np.zeros(0), solves, x_free, factor.g @ x_free - b

    @staticmethod
    def _point(factor: QpFactor, x_free, b, ws, prune=False):
        """(lambda_W, x, G x - b) with W = ``ws`` held as equalities: M_WW
        lambda_W = G_W x_free - b_W, x = x_free - H^-1 G_W' lambda_W. With
        ``prune``, x and G x - b are None if some lambda_W < 0."""
        w = np.array(ws, dtype=np.intp)
        lam = np.linalg.solve(factor.m[w[:, None], w],
                              factor.g[w] @ x_free - b[w])
        if prune and lam.min() < 0.0:
            return lam, None, None
        x = x_free - factor.h_inv_gt[:, ws] @ lam
        return lam, x, factor.g @ x - b

    @staticmethod
    def _verify_kkt(f, g, gx_b, hx, mult, b_scale):
        """Raise QpIterationError unless x with G x - b = ``gx_b`` and H x =
        ``hx`` is a KKT point; ``b_scale`` = 1 + max|b| scales as in ``solve``."""
        # each test is written "not residual <= tol", so that NaN fails it
        stationarity = np.abs(hx + f + g.T @ mult).max()
        if not stationarity <= STAT_TOL * (1.0 + np.abs(f).max()):
            raise QpIterationError(
                f"stationarity residual {stationarity:.3e} above tolerance")
        if not gx_b.max() <= FEAS_TOL * b_scale:
            raise QpIterationError("accepted point is primal infeasible")
        comp = np.abs(mult * gx_b).max()
        if not comp <= STAT_TOL * b_scale * (1.0 + mult.max()):
            raise QpIterationError(
                f"complementary slackness residual {comp:.3e} above tolerance")
