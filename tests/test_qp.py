import inspect
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import windmpc.qp
from windmpc import (ActiveSetSolver, InfeasibleQpError, OfflineMpc, OnlineMpc,
                     QpIterationError, build_model_set, factorize,
                     generate_wind, run_closed_loop)
from windmpc.qp import DEP_SCREEN, DEP_TOL
from windmpc.verify import (QP_ORACLE_TOL, check_qp_solver, enumerate_qp,
                            random_qp_instance, run_benchmark)

from helpers import ReferenceSolver, ResidualLaws


def verify_kkt_at(h, f, g, b, x, mult):
    """``ActiveSetSolver._verify_kkt`` on the products it takes, formed at x."""
    ActiveSetSolver._verify_kkt(f, g, g @ x - b, h @ x, mult,
                                1.0 + float(np.abs(b).max()))


class TestScalarCases:
    # theta = [f; b] on the identity maps of a factor built without maps
    def test_clipped_at_bound(self):
        factor = factorize(np.array([[2.0]]), np.array([[1.0]]))
        sol = ActiveSetSolver().solve(factor, np.array([-4.0, 1.0]))
        assert sol.x[0] == pytest.approx(1.0)
        assert sol.working_set == [0]
        assert sol.multipliers[0] > 0.0

    def test_inactive_bound_ignored(self):
        factor = factorize(np.array([[2.0]]), np.array([[1.0]]))
        sol = ActiveSetSolver().solve(factor, np.array([-4.0, 5.0]))
        assert sol.x[0] == pytest.approx(2.0)
        assert sol.working_set == []

    @pytest.mark.parametrize("nan_at", [0, 1])
    def test_kkt_check_rejects_a_nan_point(self, nan_at):
        # NaN compares false with every tolerance, so a check written
        # "residual > tol" would accept it; the optimum is x = (2, 1)
        h, f = np.eye(2), np.array([-2.0, -1.0])
        g, b = np.array([[1.0, 0.0]]), np.array([5.0])
        x, mult = np.array([2.0, 1.0]), np.zeros(1)
        verify_kkt_at(h, f, g, b, x, mult)
        x[nan_at] = np.nan
        with pytest.raises(QpIterationError):
            verify_kkt_at(h, f, g, b, x, mult)


class TestAgainstEnumeration:
    def test_random_instances_match_oracle(self, rng):
        for _ in range(300):
            h, f, g, b = random_qp_instance(rng)
            x = ActiveSetSolver().solve(factorize(h, g), np.r_[f, b]).x
            x_ref = enumerate_qp(h, f, g, b)
            assert np.abs(x - x_ref).max() <= 1e-6

    def test_kkt_residuals_on_accepted_solves(self, rng):
        for _ in range(100):
            h, f, g, b = random_qp_instance(rng)
            sol = ActiveSetSolver().solve(factorize(h, g), np.r_[f, b])
            grad = h @ sol.x + f + g.T @ sol.multipliers
            assert np.abs(grad).max() <= 1e-8 * (1.0 + np.abs(f).max())
            assert (g @ sol.x - b).max() <= 1e-9 * (1.0 + np.abs(b).max())
            comp = np.abs(sol.multipliers * (b - g @ sol.x)).max()
            assert comp <= 1e-7 * (1.0 + np.abs(b).max()) \
                * (1.0 + np.abs(sol.multipliers).max())

    def test_benchmark_clean(self):
        failures, worst, hits = run_benchmark(instances=200, seed=7)
        assert failures == 0
        assert worst <= 1e-6
        assert hits > 0           # some perturbed re-solves take a stored law

    @pytest.mark.parametrize("count", [0, -3])
    def test_check_rejects_a_count_that_verifies_nothing(self, count):
        with pytest.raises(ValueError, match="at least 1"):
            check_qp_solver(count)


class TestScalingInvariance:
    def test_argmin_unchanged_under_positive_scaling(self, rng):
        for _ in range(50):
            h, f, g, b = random_qp_instance(rng)
            x1 = ActiveSetSolver().solve(factorize(h, g), np.r_[f, b]).x
            c = 10.0 ** rng.uniform(-3.0, 3.0)
            x2 = ActiveSetSolver().solve(factorize(c * h, g),
                                         np.r_[c * f, b]).x
            assert np.abs(x1 - x2).max() <= 1e-8 * (1.0 + np.abs(x1).max())


class TestWarmStart:
    def test_second_solve_reuses_working_set(self, rng):
        h, f, g, b = random_qp_instance(np.random.default_rng(3))
        solver, factor = ActiveSetSolver(), factorize(h, g)
        first = solver.solve(factor, np.r_[f, b])
        again = solver.solve(factor, np.r_[f, b])
        assert again.iterations <= first.iterations
        assert np.abs(first.x - again.x).max() <= 1e-10 * (1 + np.abs(first.x).max())

    def test_drifting_sequence_matches_oracle(self, rng):
        # one solver across a drifting sequence, as in the closed loop: same
        # h and g, f and b walking; b never drops below the feasible base
        warm_optimal = 0
        for _ in range(20):
            h, f, g, b = random_qp_instance(rng)
            solver, factor = ActiveSetSolver(), factorize(h, g)
            b_walk = np.zeros_like(b)
            for _ in range(15):
                f = f + 0.2 * rng.normal(size=f.size)
                b_walk = b_walk + 0.05 * rng.normal(size=b.size)
                b_k = b + np.abs(b_walk)
                sol = solver.solve(factor, np.r_[f, b_k])
                assert np.abs(sol.x - enumerate_qp(h, f, g, b_k)).max() <= 1e-6
                warm_optimal += sol.iterations == 1 and bool(sol.working_set)
        assert warm_optimal > 0   # some solves end on the warm working set

    def test_stale_working_set_recovers(self):
        solver = ActiveSetSolver()
        solver.working_set = [0, 1]
        h = np.eye(2)
        f = np.array([-1.0, -1.0])
        g = np.array([[1.0, 0.0], [0.0, 1.0]])
        b = np.array([10.0, 10.0])
        sol = solver.solve(factorize(h, g), np.r_[f, b])
        assert np.allclose(sol.x, [1.0, 1.0])
        assert sol.working_set == []


class TestPrunedWarmStart:
    # rows 0-2 bind at the optimum, row 3 is slack by 9; M = G H^-1 G' is
    # diagonal, so pruning one row leaves the other multipliers unchanged
    h = np.diag([1.0, 2.0, 3.0, 4.0])
    f = -np.diag([1.0, 2.0, 3.0, 4.0]) @ np.ones(4)
    g = np.eye(4)
    b = np.array([0.5, 0.5, 0.5, 10.0])

    def test_negative_row_pruned_not_restarted_cold(self):
        cold = ActiveSetSolver().solve(factorize(self.h, self.g),
                                       np.r_[self.f, self.b])
        solver = ActiveSetSolver()
        solver.working_set = [0, 1, 2, 3]
        # a fresh factor: on the cold solve's, [0, 1, 2] is a stored law
        sol = solver.solve(factorize(self.h, self.g), np.r_[self.f, self.b])
        assert sol.working_set == [0, 1, 2]
        assert sol.iterations == 2       # the start solve and one prune
        assert cold.iterations == 4      # the start and three adding steps
        x_ref = enumerate_qp(self.h, self.f, self.g, self.b)
        assert np.abs(sol.x - x_ref).max() <= 1e-6

    def test_all_negative_multipliers_start_cold(self):
        factor = factorize(self.h, self.g)
        b = np.full(4, 10.0)
        solver = ActiveSetSolver()
        solver.working_set = [0, 1, 2, 3]
        sol = solver.solve(factor, np.r_[self.f, b])
        assert sol.working_set == []
        assert sol.iterations == 5       # the start solve and four prunes
        assert np.array_equal(
            sol.x, ActiveSetSolver().solve(factor, np.r_[self.f, b]).x)


class TestLawTable:
    # the program of TestPrunedWarmStart: x = 1 unconstrained, so row i binds
    # exactly when b_i < 1, and the optimal working set is {i : b_i < 1}
    h = np.diag([1.0, 2.0, 3.0, 4.0])
    f = -np.diag([1.0, 2.0, 3.0, 4.0]) @ np.ones(4)
    g = np.eye(4)

    def _solve(self, solver, factor, b):
        sol = solver.solve(factor, np.r_[self.f, b])
        assert np.abs(sol.x - enumerate_qp(self.h, self.f, self.g, b)).max() <= 1e-6
        return sol

    def test_new_solver_on_shared_factor_hits(self):
        factor = factorize(self.h, self.g)
        first = self._solve(ActiveSetSolver(), factor, np.array([0.5, 0.5, 0.5, 9.0]))
        assert first.iterations == 4     # a cold start and three adding steps
        sol = self._solve(ActiveSetSolver(), factor, np.array([0.4, 0.6, 0.3, 8.0]))
        assert sol.working_set == [0, 1, 2]
        assert sol.iterations == 1

    def _learn(self, factor, *active_rows):
        for rows in active_rows:
            b = np.full(4, 9.0)
            b[list(rows)] = 0.5
            self._solve(ActiveSetSolver(), factor, b)
        assert list(factor.laws) == list(active_rows)

    def test_law_with_negative_multiplier_skipped(self):
        factor = factorize(self.h, self.g)
        self._learn(factor, (0, 1, 2), (1, 2))
        # row 0 slack: the law of [0, 1, 2] keeps x feasible, lambda_0 < 0
        sol = self._solve(ActiveSetSolver(), factor, np.array([2.0, 0.4, 0.6, 9.0]))
        assert sol.working_set == [1, 2]
        assert sol.iterations == 1

    def test_law_with_violated_row_skipped(self):
        factor = factorize(self.h, self.g)
        self._learn(factor, (0,), (0, 1))
        # the law of [0] has lambda_0 > 0 but leaves row 1 violated, whether
        # it is tried as the last working set's or among all laws
        for last in ([], [0]):
            solver = ActiveSetSolver()
            solver.working_set = last
            sol = self._solve(solver, factor, np.array([0.3, 0.7, 9.0, 9.0]))
            assert sol.working_set == [0, 1]
            assert sol.iterations == 1

    def test_no_optimal_law_runs_the_dual_loop(self):
        factor = factorize(self.h, self.g)
        self._learn(factor, (0, 1, 2), (0,))
        sol = self._solve(ActiveSetSolver(), factor, np.array([2.0, 0.5, 0.5, 9.0]))
        assert sol.working_set == [1, 2]
        assert sol.iterations > 1
        assert list(factor.laws) == [(0, 1, 2), (0,), (1, 2)]

    def test_tie_prefers_last_set_then_earliest_learned(self):
        # b_0 = 1 is where row 0 binds with a zero multiplier, so the laws of
        # [1] and [0, 1] are both optimal there
        factor = factorize(self.h, self.g)
        self._learn(factor, (1,), (0, 1))
        b = np.array([1.0, 0.5, 9.0, 9.0])
        assert self._solve(ActiveSetSolver(), factor, b).working_set == [1]
        solver = ActiveSetSolver()
        solver.working_set = [0, 1]
        assert self._solve(solver, factor, b).working_set == [0, 1]

    def test_factor_solved_once_builds_no_law(self):
        factor = factorize(self.h, self.g)
        self._solve(ActiveSetSolver(), factor, np.array([0.5, 0.5, 9.0, 9.0]))
        assert dict(factor.laws) == {(0, 1): None}
        assert factor.laws.stack is None

    def test_cap_drops_least_recently_optimal(self, monkeypatch):
        monkeypatch.setattr(windmpc.qp, "LAW_CAP", 3)
        factor, solver = factorize(self.h, self.g), ActiveSetSolver()
        for rows in ([0], [1], [2], [0], [3], [1, 2], [0]):
            b = np.full(4, 9.0)
            b[rows] = 0.5
            assert self._solve(solver, factor, b).working_set == rows
            assert len(factor.laws) <= 3
        assert list(factor.laws) == [(0,), (3,), (1, 2)]

    def test_singular_working_set_not_learned(self):
        g = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        factor = factorize(np.eye(2), g)
        factor.laws.record((0, 1))       # rows 0 and 1 coincide: M_WW singular
        factor.laws.record((2,))
        f, b = np.array([-1.0, -1.0]), np.array([2.0, 2.0, 0.5])
        sol = ActiveSetSolver().solve(factor, np.r_[f, b])
        assert (0, 1) not in factor.laws
        assert sol.working_set == [2] and sol.iterations == 1
        assert np.abs(sol.x - enumerate_qp(np.eye(2), f, g, b)).max() <= 1e-12

    def test_appended_stack_matches_a_restack(self, monkeypatch):
        # each solve learns at most one set, which the next match appends
        # until LAW_CAP = 4 sets are stacked; later sets evict stacked laws.
        # A table stacked from scratch must match the same (W, lambda_W)
        monkeypatch.setattr(windmpc.qp, "LAW_CAP", 4)
        rng = np.random.default_rng(4)
        h, f, g, b = random_qp_instance(rng)
        factor, solver = factorize(h, g), ActiveSetSolver()
        learned, hits = set(), 0
        for _ in range(150):
            f_k = f + np.abs(f).max() * rng.normal(size=f.size)
            b_k = b + 0.3 * np.abs(rng.normal(size=b.size))
            x_free, tol = -(factor.h_inv @ f_k), 1e-9 * (1.0 + np.abs(b_k).max())
            theta = np.concatenate([f_k, b_k])
            scratch = windmpc.qp.LawTable()
            for key in factor.laws:
                scratch.record(key)
            for last in (solver.working_set, []):
                got = factor.laws.match(factor, last, theta, x_free, b_k, tol)
                want = scratch.match(factor, last, theta, x_free, b_k, tol)
                assert (got is None) == (want is None)
                if want is not None:
                    assert got[0] == want[0] and np.array_equal(got[1], want[1])
                    hits += 1
            if factor.laws:  # the buffers hold the laws as restacked whole
                keys, place, lam_map, starts, rows = factor.laws.stack
                assert keys == list(factor.laws) == scratch.stack[0]
                assert place == scratch.stack[1] == {
                    key: i for i, key in enumerate(keys)}
                assert rows == scratch.stack[4] == sum(map(len, keys))
                assert np.array_equal(lam_map[:rows], scratch.stack[2])
                assert np.array_equal(lam_map[:rows], np.vstack(
                    [factor.laws[key][0] for key in keys]))
                assert np.array_equal(starts, scratch.stack[3])
                assert np.array_equal(starts, np.cumsum(
                    [0] + [len(key) for key in keys[:-1]]))
            try:
                learned.add(tuple(solver.solve(factor, theta).working_set))
            except InfeasibleQpError:
                pass
        assert len(learned) > 8 and hits > 50

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), steps=st.integers(2, 25),
           scale=st.floats(1e-3, 1.0))
    def test_perturbed_sequences_match_oracle(self, seed, steps, scale):
        # two solvers share one factor, so solves meet the last working
        # set's law, the stacked laws and the dual loop; b only grows, so
        # the instance's interior point stays feasible
        rng = np.random.default_rng(seed)
        h, f, g, b = random_qp_instance(rng)
        factor, solvers = factorize(h, g), (ActiveSetSolver(), ActiveSetSolver())
        for k in range(steps):
            f_k = f + scale * rng.normal(size=f.size)
            b_k = b + scale * np.abs(rng.normal(size=b.size))
            x = solvers[k % 2].solve(factor, np.r_[f_k, b_k]).x
            assert np.abs(x - enumerate_qp(h, f_k, g, b_k)).max() <= 1e-6


class TestHitVerified:
    """A law-table hit hands the x and G x - b it tested to the KKT check,
    which rejects a wrong law as it rejects any other accepted point; the
    stacked screen of lambda_W and G X_W theta - b only picks the laws to
    test, so a wrong screen costs a miss, never a wrong answer."""

    F, B = np.array([-2.0, -2.0]), np.array([1.0, 5.0])
    THETA, X_FREE, TOL = np.array([-2.0, -2.0, 1.0, 5.0]), np.array(
        [2.0, 2.0]), 1e-9 * 6.0

    def learned(self, *extra):
        # min 0.5|x|^2 - 2 x1 - 2 x2 on x1 <= 1, x2 <= 5: x = (1, 2) on row
        # 0 with multiplier 1; the second solve builds law {0} and hits it.
        # ``extra`` bound vectors teach their sets first
        factor, solver = factorize(np.eye(2), np.eye(2)), ActiveSetSolver()
        for b in (*extra, self.B):
            solver.solve(factor, np.r_[self.F, b])
        sol = solver.solve(factor, self.THETA)
        assert list(factor.laws)[-1] == (0,) and sol.iterations == 1
        assert np.array_equal(sol.x, [1.0, 2.0])
        return factor, solver

    @staticmethod
    def tamper(factor, key, block, entry, delta):
        """Add ``delta`` at ``entry`` of the law of ``key``: its Lambda_W
        (block 0, in the table and in its stack), H^-1 G_W' (block 1) or
        G X_W - B (block 2)."""
        factor.laws[key][block][entry] += delta
        if block == 0:
            _, place, lam_map, starts, _ = factor.laws.stack
            lam_map[starts[place[key]] + entry[0], entry[1]] += delta

    @pytest.mark.parametrize("block, entry, delta, error", [
        (0, (0, 2), 1.0, "complementary"), (1, (1, 0), 0.5, "stationarity")],
        ids=["lambda", "h_inv_gt"])
    def test_wrong_hit_raises(self, block, entry, delta, error):
        # Lambda: lambda_0 = 2 and x = (0, 2), stationary and feasible but
        # slack on its working row; H^-1 G_W': x = (1, 1.5), feasible with
        # lambda_0 = 1 but not stationary
        factor, solver = self.learned()
        self.tamper(factor, (0,), block, entry, delta)
        with pytest.raises(QpIterationError, match=error):
            solver.solve(factor, self.THETA)

    def test_infeasible_hit_raises(self, monkeypatch):
        # Lambda: lambda_0 = 1/2 and x = (3/2, 2), stationary but breaking
        # its own working row x1 <= 1. The law misses, so the solve answers
        # from the warm start; handed over untested, the point is rejected
        factor, solver = self.learned()
        self.tamper(factor, (0,), 0, (0, 2), -0.5)
        assert factor.laws.match(factor, [0], self.THETA, self.X_FREE, self.B,
                                 self.TOL) is None
        assert np.array_equal(solver.solve(factor, self.THETA).x,
                              [1.0, 2.0])

        def untested(table, factor, last, theta, x_free, b, tol):
            lam_w, hg_w, _ = table[tuple(last)]
            x = x_free - hg_w @ (lam_w @ theta)
            return list(last), lam_w @ theta, 1, x, factor.g @ x - b

        monkeypatch.setattr(windmpc.qp.LawTable, "match", untested)
        with pytest.raises(QpIterationError, match="primal infeasible"):
            solver.solve(factor, self.THETA)

    @pytest.mark.parametrize("block, entry", [(0, (0, 3)), (2, (0, 3)),
                                              (2, (1, 3))],
                             ids=["lambda", "x1", "x2"])
    def test_screen_that_rejects_the_law_misses(self, block, entry):
        # law {0} screens lambda_0 = 1 and G X_0 theta - b = (0, -3); one of
        # them pushed by 10 b_2 = 50 the wrong way drops the law from the
        # sweep of a solver with no last working set, so the solve misses and
        # answers from a cold start
        factor, _ = self.learned()
        self.tamper(factor, (0,), block, entry, -10.0 if block == 0 else 10.0)
        assert factor.laws.match(factor, [], self.THETA, self.X_FREE, self.B,
                                 self.TOL) is None
        sol = ActiveSetSolver().solve(factor, self.THETA)
        assert sol.working_set == [0] and sol.iterations == 2
        assert np.array_equal(sol.x, [1.0, 2.0])

    def test_screen_that_admits_a_wrong_law_is_overruled(self):
        # law {1}, learned first at b = (9, 1/2), is wrong here: lambda_1 =
        # -3 and x = (2, 5) breaks x1 <= 1. With its screen moved to pass it
        # comes first in the sweep, yet x = (2, 2 - lambda_1) breaks x1 <= 1
        # for any lambda_1 >= 0, so its own test rejects it and law {0}
        # answers
        factor, _ = self.learned(np.array([9.0, 0.5]))
        assert list(factor.laws) == [(1,), (0,)]
        assert (factor.laws[(1,)][0] @ self.THETA).tolist() == [-3.0]
        assert (factor.laws[(1,)][2] @ self.THETA).tolist() == [1.0, 0.0]
        self.tamper(factor, (1,), 0, (0, 3), 1.0)
        self.tamper(factor, (1,), 2, (0, 3), -1.0)
        got = factor.laws.match(factor, [], self.THETA, self.X_FREE, self.B,
                                self.TOL)
        assert got[0] == [0] and np.array_equal(got[3], [1.0, 2.0])


class TestFactor:
    def test_inverse_of_condensed_hessian(self, params, weights):
        for v in (4.5, 6.1, 7.7, 9.3, 10.9):
            factor = build_model_set(v, params, weights).qp.factor
            d = 1.0 / np.sqrt(factor.h.diagonal())
            assert np.linalg.cond(d[:, None] * factor.h * d) < 1e5
            eye = np.eye(len(factor.h))
            # an unscaled inverse misses this by 1e-8 at cond(H) ~ 7e9
            assert np.abs(factor.h_inv @ factor.h - eye).max() <= 1e-9

    def test_range_space_products(self, rng):
        for _ in range(20):
            h, _, g, _ = random_qp_instance(rng)
            factor = factorize(h, g)
            assert np.allclose(factor.h_inv_gt, np.linalg.solve(h, g.T))
            assert np.allclose(factor.m, g @ np.linalg.solve(h, g.T))
            assert np.array_equal(factor.m, factor.m.T)

    def test_constraint_matrix_without_rows_rejected(self):
        # every program the solver takes has a row: theta = [f; b] needs b
        with pytest.raises(ValueError, match="at least one row"):
            factorize(np.eye(2), np.zeros((0, 2)))

    def test_indefinite_hessian_rejected(self):
        with pytest.raises(np.linalg.LinAlgError):
            factorize(np.array([[1.0, 2.0], [2.0, 1.0]]), np.eye(2))

    @pytest.mark.parametrize("h", [
        [[np.nan, 0.0], [0.0, 1.0]], [[1.0, np.nan], [np.nan, 1.0]],
        [[-1.0, 0.0], [0.0, 1.0]], [[0.0, 0.0], [0.0, 1.0]],
        [[np.inf, 0.0], [0.0, 1.0]]],
        ids=["nan_diagonal", "nan_off_diagonal", "negative_diagonal",
             "zero_diagonal", "inf_diagonal"])
    def test_hessian_without_a_finite_root_rejected(self, h):
        # np.linalg.cholesky returns NaN for these instead of raising
        with np.errstate(all="ignore"), pytest.raises(np.linalg.LinAlgError):
            factorize(np.array(h), np.eye(2))


class TestInfeasibility:
    def test_contradictory_bounds_detected(self):
        with pytest.raises(InfeasibleQpError) as exc:
            ActiveSetSolver().solve(
                factorize(np.array([[2.0]]), np.array([[1.0], [-1.0]])),
                np.array([0.0, -1.0, -2.0]))
        assert exc.value.worst_row in (0, 1)


def captured_qps(controller, profile, params):
    """(factor, theta) of every solve in one closed loop, in order."""
    calls, solve = [], controller.solver.solve

    def record(factor, theta):
        calls.append((factor, theta.copy()))
        return solve(factor, theta)

    controller.solver.solve = record
    run_closed_loop(profile, controller, params)
    return calls


def replay(qps, solver):
    """Solve ``qps`` in order with one solver, each factor a copy with an
    empty law table, as the loop's was: per solve (working set, iterations,
    error as (type, worst row), x, whether the dual steps ran)."""
    ran, steps, copies, out = [], solver._dual_steps, {}, []

    def spy(*args):
        ran.append(True)
        return steps(*args)

    solver._dual_steps = spy
    for factor, theta in qps:
        factor = copies.setdefault(id(factor), replace(
            factor, laws=windmpc.qp.LawTable()))
        ran.clear()
        try:
            sol = solver.solve(factor, theta)
            out.append((sol.working_set, sol.iterations, None, sol.x, any(ran)))
        except (InfeasibleQpError, QpIterationError) as exc:
            out.append((None, None, (type(exc), getattr(exc, "worst_row", None)),
                        None, any(ran)))
    return out


def assert_same_path(qps, solver, reference):
    """Same working sets, iterations and errors; x bit for bit where no dual
    step ran, else within 1e-9 of max(1, |x|). Returns (stepped, errors)."""
    stepped = errors = 0
    for got, want in zip(replay(qps, solver), replay(qps, reference),
                         strict=True):
        assert got[:3] == want[:3] and got[4] == want[4]
        stepped, errors = stepped + want[4], errors + (want[2] is not None)
        if want[3] is None:
            continue
        if want[4]:
            assert np.abs(got[3] - want[3]).max() <= 1e-9 * max(
                1.0, np.abs(want[3]).max())
        else:
            assert got[3].tobytes() == want[3].tobytes()
    return stepped, errors


class TestReferencePath:
    """The dual steps on a maintained M_WW^-1 against the loop that solves
    M_WW afresh on every step (``helpers.ReferenceSolver``): the same path."""

    @pytest.mark.parametrize("cls, level, std, min_errors", [
        (OfflineMpc, 8.7, 1.0, 0), (OfflineMpc, 10.3, 1.5, 100),
        (OnlineMpc, 8.7, 1.0, 0), (OnlineMpc, 10.3, 1.5, 0)])
    def test_captured_loop(self, params, cls, level, std, min_errors):
        profile = generate_wind("turbulent", 2024, 20.0, params, level=level,
                                std=std)
        qps = captured_qps(cls(params), profile, params)
        stepped, errors = assert_same_path(qps, ActiveSetSolver(),
                                           ReferenceSolver())
        # the offline bank's gusts near rated end in raised errors
        assert len(qps) == 400 and stepped >= 30 and errors >= min_errors

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), steps=st.integers(2, 25),
           scale=st.floats(1e-3, 1.0))
    def test_drifting_sequences(self, seed, steps, scale):
        # one solver on one factor while theta = [f; b] drifts, so law hits,
        # warm starts and dual steps all occur
        rng = np.random.default_rng(seed)
        h, f, g, b = random_qp_instance(rng)
        factor = factorize(h, g)
        qps = [(factor, np.r_[f + scale * rng.normal(size=f.size),
                              b + scale * np.abs(rng.normal(size=b.size))])
               for _ in range(steps)]
        assert_same_path(qps, ActiveSetSolver(), ReferenceSolver())


class TestThetaLaws:
    """The stacked region test in theta against the residual-space match
    it replaced (``helpers.ResidualLaws``): on every QP of a closed loop,
    the same law or the same miss, on the same table."""

    @pytest.mark.parametrize("level, std, min_hits", [(8.7, 1.0, 1000),
                                                       (10.3, 1.5, 700)])
    def test_offline_loop_picks_the_reference_law(self, params, monkeypatch,
                                                  level, std, min_hits):
        match, oracles, seen = windmpc.qp.LawTable.match, {}, []

        def checked(table, factor, last, theta, x_free, b, tol):
            got = match(table, factor, last, theta, x_free, b, tol)
            keys = table.stack[0] if table.stack else []
            want = oracles.setdefault(id(factor), ResidualLaws(factor)).match(
                keys, last, x_free, b, tol)
            assert (got is None) == (want is None)
            if got is not None:
                assert got[0] == want[0]
                assert np.abs(got[3] - want[1]).max() <= QP_ORACLE_TOL
            seen.append(got is not None)
            return got

        monkeypatch.setattr(windmpc.qp.LawTable, "match", checked)
        profile = generate_wind("turbulent", 2024, 60.0, params, level=level,
                                std=std)
        run_closed_loop(profile, OfflineMpc(params), params)
        assert len(seen) == 1200 and sum(seen) >= min_hits


class TestDependentRow:
    """A violated row in the span of the working rows has H z = 0: no primal
    step moves toward it, so a step may only shrink working multipliers."""

    @staticmethod
    def warm_solve(solver, g, f, b):
        # H = I and rows 0 and 1 bind at x = 0, with multipliers 1, on the
        # warm start
        solver.working_set = [0, 1]
        return solver.solve(factorize(np.eye(2), g), np.r_[f, b])

    @pytest.mark.parametrize("cls", [ActiveSetSolver, ReferenceSolver])
    def test_positive_combination_enforced_after_drops(self, cls):
        # x1 <= 0, x2 <= 0 and x1 + x2 <= -1, violated by 1 at x = 0. The
        # first step finds row 2 = row 0 + row 1 dependent and drops row 0
        # with x held; row 1 then leaves by a zero step and a full step
        # adds row 2 at x = (-1/2, -1/2), multiplier 3/2
        g = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        sol = self.warm_solve(cls(), g, np.array([-1.0, -1.0]),
                              np.array([0.0, 0.0, -1.0]))
        assert sol.working_set == [2]
        assert sol.iterations == 4      # the warm start and three steps
        assert np.abs(sol.x + 0.5).max() <= 1e-15
        assert np.abs(sol.multipliers - [0.0, 0.0, 1.5]).max() <= 1e-15

    @pytest.mark.parametrize("cls", [ActiveSetSolver, ReferenceSolver])
    def test_contradictory_combination_is_infeasible(self, cls):
        # x1 >= 0, x2 >= 0 and x1 + x2 <= -1: row 2 = -(row 0 + row 1), so
        # its step grows both working multipliers and none can be dropped
        g = np.array([[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]])
        with pytest.raises(InfeasibleQpError) as exc:
            self.warm_solve(cls(), g, np.array([1.0, 1.0]),
                            np.array([0.0, 0.0, -1.0]))
        assert exc.value.worst_row == 2

    def test_abandoned_row_leaves_its_multiplier_behind(self):
        # H = I, W = {0, 1} at multipliers (1e-9, 0.5), so x_free = (1e-9,
        # 0.5) and x = 0, entered at row 2, which depends on W up to 1e-8.
        # The loop drops row 0 by a partial step of 0.1, then abandons row 2
        # within tolerance, still dependent on row 1, with 0.1 accrued; row
        # 3 joins next and must start from zero, so its carried multiplier
        # at the exit equals the fresh solve's on the final W
        g = np.array([[1.0, 0.0], [0.0, 1.0], [1e-8, -1.0], [0.3, 0.4]])
        b = np.array([0.0, 0.0, 0.5, -0.5])
        lam = np.array([1e-9, 0.5])
        viol = g @ np.zeros(2) - b
        viol[:2] = -np.inf
        code = ActiveSetSolver._dual_steps
        source, first = inspect.getsourcelines(code)
        abandon, fresh = (first + next(i for i, line in enumerate(source)
                                       if text in line)
                          for text in ("abandoned", "self._point("))
        seen = {}

        def trace(frame, event, arg):
            def lines(frame, event, arg):
                if event == "line":
                    seen[frame.f_lineno] = list(frame.f_locals["lam"])
                return lines
            return lines if frame.f_code is code.__code__ else None

        previous = sys.gettrace()
        sys.settrace(trace)
        try:
            x, ws, lam_w, _, gx_b = ActiveSetSolver()._dual_steps(
                factorize(np.eye(2), g), lam.copy(), b, 1e-9 * 1.5, [0, 1],
                lam, 1, viol, 2)
        finally:
            sys.settrace(previous)
        assert abandon in seen and ws == [3, 2]
        assert np.array_equal(gx_b, g @ x - b)
        assert seen[fresh][0] == pytest.approx(lam_w[0], rel=1e-12)
        assert np.abs(x - enumerate_qp(np.eye(2), -lam, g, b)).max() <= 1e-12
        assert np.abs(x - [-1.0, -0.5]).max() <= 1e-7
        mult = np.zeros(4)
        mult[ws] = lam_w
        verify_kkt_at(np.eye(2), -lam, g, b, x, mult)

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(0, 6),
           log_cond=st.floats(0.0, 10.0), log_off=st.floats(-16.0, 0.0))
    def test_screen_bound(self, seed, k, log_cond, log_off):
        # s = z'Hz = (Hz)' H^-1 (Hz) <= |Hz|_inf^2 sum|H^-1| on random SPD H
        # and rows W, with row p within 10^log_off of their span; a screen of
        # DEP_SCREEN times that bound at the dependence threshold must never
        # pass a row the test calls dependent (the solver's, on g_p'g_p >=
        # |g_p|_inf^2, passes fewer)
        rng = np.random.default_rng(seed)
        n = k + int(rng.integers(1, 5))
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        h = (q * np.logspace(0.0, log_cond, n)) @ q.T
        h = 0.5 * (h + h.T)
        g_w = rng.normal(size=(k, n)) * 10.0 ** rng.uniform(-2, 2, (k, 1))
        g_p = rng.normal(size=k) @ g_w + 10.0 ** log_off * rng.normal(size=n)
        factor = factorize(h, np.vstack([g_w, g_p]))
        m, h_inv_sum = factor.m, np.abs(factor.h_inv).sum()
        u = np.linalg.solve(m[:k, :k], m[:k, k])
        s = m[k, k] - m[k, :k] @ u
        h_z = np.abs(u @ g_w - g_p).max()
        rounding = 1e-13 * (m[k, k] + np.abs(m[k, :k]) @ np.abs(u))
        assert s <= (1.0 + 1e-9) * h_z ** 2 * h_inv_sum + rounding
        limit = DEP_TOL * np.abs(g_p).max()
        if s > DEP_SCREEN * h_inv_sum * limit ** 2:
            assert h_z > limit


class TestIndependentWorkingRows:
    """The dual steps keep the working rows linearly independent, so |W| <=
    n (Goldfarb and Idnani 1983): a row repeated, rescaled or mirrored never
    makes M_WW singular."""

    @pytest.mark.parametrize("cls", [ActiveSetSolver, ReferenceSolver])
    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           copies=st.lists(st.tuples(st.integers(0, 5),
                                     st.sampled_from(["dup", "scale", "mirror"]),
                                     st.floats(-1.0, 1.0)),
                           min_size=1, max_size=6))
    def test_dependent_rows_never_raise_linalg_error(self, cls, seed, copies):
        # each copy is row i repeated, scaled by 10^c, or negated with its
        # bound shifted by c (an equality pair for c = 0, a gap for c > 0,
        # an empty slab for c < 0); a cold and a warm solve on one factor
        rng = np.random.default_rng(seed)
        h, f, g, b = random_qp_instance(rng)
        rows, bounds = [g], [b]
        for i, kind, c in copies:
            g_i, b_i = g[i % len(g)], b[i % len(g)]
            if kind == "dup":
                rows.append(g_i[None]), bounds.append([b_i])
            elif kind == "scale":
                rows.append(10.0 ** c * g_i[None]), bounds.append([10.0 ** c * b_i])
            else:
                rows.append(-g_i[None]), bounds.append([c - b_i])
        g, b = np.vstack(rows), np.concatenate(bounds)
        factor, solver = factorize(h, g), cls()
        for f_k in (f, f + 0.1 * rng.normal(size=f.size)):
            try:
                sol = solver.solve(factor, np.r_[f_k, b])
            except (InfeasibleQpError, QpIterationError):
                continue
            assert len(sol.working_set) <= len(h)
            verify_kkt_at(h, f_k, g, b, sol.x, sol.multipliers)

    @pytest.mark.parametrize("cls", [ActiveSetSolver, ReferenceSolver])
    def test_full_working_set_admits_no_row(self, cls, monkeypatch):
        # with the H z test switched off every violated row looks
        # independent; on the program of TestDependentRow, W = {0, 1} already
        # holds n = 2 rows, so row 2 = row 0 + row 1 must still only shrink
        # working multipliers, and the solve ends as it does with the test on
        import helpers
        monkeypatch.setattr(windmpc.qp, "DEP_TOL", -1.0)
        monkeypatch.setattr(helpers, "DEP_TOL", -1.0)
        g = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        sol = TestDependentRow.warm_solve(cls(), g, np.array([-1.0, -1.0]),
                                          np.array([0.0, 0.0, -1.0]))
        assert sol.working_set == [2] and sol.iterations == 4
        assert np.abs(sol.x + 0.5).max() <= 1e-15

    @pytest.mark.parametrize("seed", [1, 2])
    def test_near_rated_offline_loop_never_holds(self, params, seed):
        # gusts at 10.6 m/s once drove the dual steps to a working set of 25
        # rows on 10 variables, whose multiplier solve raised LinAlgError
        profile = generate_wind("turbulent", seed, 60.0, params, level=10.6,
                                std=0.5)
        log = run_closed_loop(profile, OfflineMpc(params), params)
        assert "hold" not in log.qp_status
