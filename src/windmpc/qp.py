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

Suited to the small dense programs of receding-horizon control, where the
active set barely changes between consecutive samples: a solver instance
keeps its last working set and starts the next solve from the optimum on
that set whenever its multipliers are nonnegative. The enumeration oracle
the solver is checked against lives in ``windmpc.verify``.
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

    def solve(self, h, f, g=None, b=None) -> QpSolution:
        """Minimize 0.5 x'Hx + f'x subject to G x <= b.

        Raises InfeasibleQpError (carrying the row no step can satisfy)
        when no feasible point exists and QpIterationError when the
        iteration cap is hit or the KKT residuals fail to verify. The
        iteration count includes the start-point solve, so it is at
        least 1.
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
        tol = FEAS_TOL * (1.0 + float(np.abs(b).max()))

        # start on the previous working set if that point is dual feasible
        ws = [i for i in self.working_set if i < m]
        try:
            x, lam = self._kkt_solve(h, g[ws], -f, b[ws])
            warm = bool(np.all(lam >= 0.0))
        except np.linalg.LinAlgError:
            warm = False
        if not warm:
            ws, x, lam = [], np.linalg.solve(h, -f), np.zeros(0)

        max_iter = max(10, MAX_ITER_FACTOR * n)
        iterations = 1
        p = -1          # row being enforced, -1 when none
        lam_p = 0.0     # its multiplier so far
        while True:
            if p < 0:
                viol = g @ x - b
                viol[ws] = -np.inf
                p = int(np.argmax(viol))
                if viol[p] <= tol:
                    break
            if iterations >= max_iter:
                raise QpIterationError(
                    f"active set did not settle in {max_iter} iterations")
            iterations += 1
            # primal step z and multiplier change r per unit of row p's multiplier
            z, r = self._kkt_solve(h, g[ws], -g[p], np.zeros(len(ws)))
            viol_p = float(g[p] @ x - b[p])
            t_full = np.inf                # step that makes row p active
            if np.abs(h @ z).max() > DEP_TOL * np.abs(g[p]).max():
                t_full = viol_p / -float(g[p] @ z)
            t_part, drop = np.inf, -1      # step that zeroes a working multiplier
            shrinking = np.flatnonzero(r < 0.0)
            if shrinking.size:
                ratios = lam[shrinking] / -r[shrinking]
                k = int(np.argmin(ratios))
                t_part, drop = max(float(ratios[k]), 0.0), int(shrinking[k])
            t = min(t_full, t_part)
            if t == np.inf:
                if viol_p <= tol:          # partial steps brought it within tolerance
                    p = -1
                    continue
                raise InfeasibleQpError("no step reduces the violated row",
                                        worst_row=p)
            if t_full < np.inf:
                x = x + t * z
            lam = lam + t * r
            lam_p += t
            if t_full <= t_part:
                ws.append(p)
                lam = np.append(lam, lam_p)
                p, lam_p = -1, 0.0
            else:
                del ws[drop]
                lam = np.delete(lam, drop)

        mult = np.zeros(m)
        mult[ws] = np.maximum(lam, 0.0)
        self._verify_kkt(h, f, g, b, x, mult)
        self.working_set = sorted(ws)
        return QpSolution(x, mult, sorted(ws), iterations,
                          self._objective(h, f, x))

    @staticmethod
    def _objective(h, f, x):
        return float(0.5 * x @ h @ x + f @ x)

    @staticmethod
    def _kkt_solve(h, ga, top, bottom):
        """Solve [[H, Ga'], [Ga, 0]] [x; y] = [top; bottom] for (x, y)."""
        n, k = h.shape[0], ga.shape[0]
        kkt = np.block([[h, ga.T], [ga, np.zeros((k, k))]])
        sol = np.linalg.solve(kkt, np.concatenate([top, bottom]))
        return sol[:n], sol[n:]

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
