"""Dense active-set solver for strictly convex quadratic programs.

Solves

    min  0.5 x' H x + f' x    s.t.  G x <= b

with H symmetric positive definite. The solver keeps a working set of
active rows, takes equality-constrained steps in their null space, adds
the blocking (first-violated) constraint whenever a step is cut short, and
drops the constraint with the most negative multiplier once stationary.
Blocking rows are independent of the working set by construction, which
keeps the subproblems well posed even when many stacked prediction rows
are nearly parallel.

Suited to the small dense programs of receding-horizon control, where the
active set barely changes between consecutive samples; a solver instance
keeps its last working set and reuses it as a warm start. The
enumeration oracle it is checked against lives in ``windmpc.verify``.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import InfeasibleQpError, QpIterationError


@dataclass
class QpSolution:
    x: np.ndarray
    multipliers: np.ndarray          # one per row of G, zero off the working set
    working_set: list[int] = field(default_factory=list)
    iterations: int = 0
    objective: float = 0.0


class ActiveSetSolver:
    """Primal active-set QP solver with KKT verification on every solve.

    Parameters
    ----------
    feas_tol : float
        Primal feasibility tolerance on G x <= b.
    stat_tol : float
        Stationarity and complementary-slackness tolerance; stationarity is
        scaled by (1 + ||f||).
    max_iter_factor : int
        Iteration cap as a multiple of the number of variables.
    """

    def __init__(self, feas_tol=1e-9, stat_tol=1e-8, max_iter_factor=50):
        self.feas_tol = feas_tol
        self.stat_tol = stat_tol
        self.max_iter_factor = max_iter_factor
        self.working_set: list[int] = []

    def solve(self, h, f, g=None, b=None, warm_start=True) -> QpSolution:
        """Minimize 0.5 x'Hx + f'x subject to G x <= b.

        Raises InfeasibleQpError (carrying the most-violated row) when no
        feasible point exists and QpIterationError when the iteration cap
        is hit or the KKT residuals fail to verify.
        """
        h = np.asarray(h, dtype=float)
        f = np.asarray(f, dtype=float).ravel()
        n = h.shape[0]
        if g is None or np.size(g) == 0:
            x = np.linalg.solve(h, -f)
            return QpSolution(x, np.zeros(0), [], 1, self._objective(h, f, x))
        g = np.atleast_2d(np.asarray(g, dtype=float))
        b = np.asarray(b, dtype=float).ravel()
        m = g.shape[0]
        scale_b = 1.0 + float(np.abs(b).max())

        ws = [i for i in self.working_set if i < m] if warm_start else []
        x, ws = self._start_point(h, f, g, b, ws, scale_b)
        x, ws, lam, iterations = self._primal_iterate(h, f, g, b, x, ws)
        mult = np.zeros(m)
        if ws:
            mult[ws] = np.maximum(lam, 0.0)
        self._verify_kkt(h, f, g, b, x, mult)
        self.working_set = sorted(ws)
        return QpSolution(x, mult, sorted(ws), iterations,
                          self._objective(h, f, x))

    @staticmethod
    def _objective(h, f, x):
        return float(0.5 * x @ h @ x + f @ x)

    def _primal_iterate(self, h, f, g, b, x, ws):
        """Active-set iteration from a feasible point x with working set ws.

        Alternates null-space steps, blocking-constraint additions (ratio
        test) and most-negative-multiplier drops until the KKT conditions
        hold. Returns (x, ws, multipliers, iterations).
        """
        m, n = g.shape
        max_iter = max(10, self.max_iter_factor * n)
        for it in range(1, max_iter + 1):
            p = self._null_space_step(h, f, g, x, ws)
            if np.abs(p).max() <= 1e-10 * (1.0 + np.abs(x).max()):
                lam = self._multipliers(h, f, g, x, ws)
                if lam.size == 0 or lam.min() >= -1e-7 * (1.0 + np.abs(lam).max()):
                    return x, ws, lam, it
                ws.pop(int(np.argmin(lam)))
                continue
            # ratio test: step to the first blocking inequality
            d = g @ p
            slack = b - g @ x
            alpha, blocking = 1.0, -1
            outside = np.ones(m, dtype=bool)
            outside[ws] = False
            outside &= d > 1e-13 * (1.0 + np.abs(d).max())
            idx = np.where(outside)[0]
            if idx.size:
                ratios = np.maximum(slack[idx] / d[idx], 0.0)
                j = int(np.argmin(ratios))
                if ratios[j] < alpha:
                    alpha, blocking = float(ratios[j]), int(idx[j])
            x = x + alpha * p
            if blocking >= 0:
                ws.append(blocking)
        raise QpIterationError(f"active set did not settle in {max_iter} iterations")

    def _start_point(self, h, f, g, b, ws, scale_b):
        """Feasible starting point, preferring the warm working set.

        Tries the equality-constrained optimum on the warm set, then the
        unconstrained minimum, then the origin, then an exact slack-variable
        phase-1 solved with the same primal iteration.
        """
        n = h.shape[0]
        x_free = np.linalg.solve(h, -f)
        if ws:
            x_ws = self._eqp_point(h, f, g, b, ws)
            if x_ws is not None and (g @ x_ws - b).max() <= self.feas_tol * scale_b:
                return x_ws, ws
        if (g @ x_free - b).max() <= self.feas_tol * scale_b:
            return x_free, []
        zero = np.zeros(n)
        if (g @ zero - b).max() <= self.feas_tol * scale_b:
            return zero, []
        return self._phase1(g, b, x_free, scale_b), []

    def _phase1(self, g, b, x_ref, scale_b):
        """Feasible point via min 0.5 eps||x - x_ref||^2 + 0.5 s^2 + M s
        subject to Gx - s <= b and s >= 0.

        The augmented problem is strictly convex and trivially feasible at
        (x_ref, max violation + 1), so the primal iteration applies
        directly. With M above the active multiplier mass the slack lands
        exactly on zero whenever the original rows admit a point; otherwise
        M is escalated a few times before declaring infeasibility.
        """
        m, n = g.shape
        eps = 1e-4
        g_aug = np.hstack([g, -np.ones((m, 1))])
        g_aug = np.vstack([g_aug, np.concatenate([np.zeros(n), [-1.0]])])
        b_aug = np.concatenate([b, [0.0]])
        h_aug = np.eye(n + 1)
        h_aug[:n, :n] *= eps
        viol0 = float((g @ x_ref - b).max())
        x0 = np.concatenate([x_ref, [viol0 + 1.0]])
        big_m = 10.0 * (1.0 + abs(viol0))
        x_cand = x_ref
        for _ in range(4):
            f_aug = np.concatenate([-eps * x_ref, [big_m]])
            x_aug, _, _, _ = self._primal_iterate(h_aug, f_aug, g_aug, b_aug,
                                                  x0.copy(), [])
            x_cand = x_aug[:n]
            if (g @ x_cand - b).max() <= self.feas_tol * scale_b:
                return x_cand
            big_m *= 100.0
        viol = g @ x_cand - b
        raise InfeasibleQpError("phase-1 found no feasible point",
                                worst_row=int(np.argmax(viol)))

    @staticmethod
    def _eqp_point(h, f, g, b, ws):
        """Optimum subject to the working-set rows as equalities, or None."""
        ga = g[ws]
        ba = b[ws]
        kkt = np.block([[h, ga.T], [ga, np.zeros((len(ws), len(ws)))]])
        rhs = np.concatenate([-f, ba])
        try:
            sol = np.linalg.solve(kkt, rhs)
        except np.linalg.LinAlgError:
            return None
        x = sol[:h.shape[0]]
        if np.abs(ga @ x - ba).max() > 1e-6 * (1.0 + np.abs(ba).max()):
            return None
        return x

    @staticmethod
    def _null_space_step(h, f, g, x, ws):
        """EQP step from x restricted to the null space of the working set."""
        grad = h @ x + f
        if not ws:
            return np.linalg.solve(h, -grad)
        ga = g[ws]
        _, sv, vt = np.linalg.svd(ga)
        rank = int(np.sum(sv > sv[0] * 1e-12)) if sv.size else 0
        z = vt[rank:].T
        if z.shape[1] == 0:
            return np.zeros_like(x)
        reduced = z.T @ h @ z
        return z @ np.linalg.solve(reduced, -(z.T @ grad))

    @staticmethod
    def _multipliers(h, f, g, x, ws):
        if not ws:
            return np.zeros(0)
        grad = h @ x + f
        lam, *_ = np.linalg.lstsq(g[ws].T, -grad, rcond=None)
        return lam

    def _verify_kkt(self, h, f, g, b, x, mult):
        stationarity = np.abs(h @ x + f + g.T @ mult).max()
        if stationarity > self.stat_tol * (1.0 + np.abs(f).max()):
            raise QpIterationError(
                f"stationarity residual {stationarity:.3e} above tolerance")
        slack = b - g @ x
        if slack.min() < -self.feas_tol * (1.0 + np.abs(b).max()):
            raise QpIterationError("accepted point is primal infeasible")
        comp = np.abs(mult * slack).max() if mult.size else 0.0
        if comp > self.stat_tol * (1.0 + np.abs(b).max()) * (1.0 + np.abs(mult).max()):
            raise QpIterationError(
                f"complementary slackness residual {comp:.3e} above tolerance")
