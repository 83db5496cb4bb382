import numpy as np
import pytest

from windmpc import (ActiveSetSolver, InfeasibleQpError, build_model_set,
                     factorize)
from windmpc.verify import enumerate_qp, random_qp_instance, run_benchmark


class TestScalarCases:
    def test_unconstrained_minimum(self):
        x = ActiveSetSolver().solve(factorize(np.array([[2.0]])),
                                    np.array([-4.0])).x
        assert x[0] == pytest.approx(2.0)

    def test_clipped_at_bound(self):
        sol = ActiveSetSolver().solve(
            factorize(np.array([[2.0]]), np.array([[1.0]])), np.array([-4.0]),
            np.array([1.0]))
        assert sol.x[0] == pytest.approx(1.0)
        assert sol.working_set == [0]
        assert sol.multipliers[0] > 0.0

    def test_inactive_bound_ignored(self):
        sol = ActiveSetSolver().solve(
            factorize(np.array([[2.0]]), np.array([[1.0]])), np.array([-4.0]),
            np.array([5.0]))
        assert sol.x[0] == pytest.approx(2.0)
        assert sol.working_set == []


class TestAgainstEnumeration:
    def test_random_instances_match_oracle(self, rng):
        for _ in range(300):
            h, f, g, b = random_qp_instance(rng)
            x = ActiveSetSolver().solve(factorize(h, g), f, b).x
            x_ref = enumerate_qp(h, f, g, b)
            assert np.abs(x - x_ref).max() <= 1e-6

    def test_kkt_residuals_on_accepted_solves(self, rng):
        for _ in range(100):
            h, f, g, b = random_qp_instance(rng)
            sol = ActiveSetSolver().solve(factorize(h, g), f, b)
            grad = h @ sol.x + f + g.T @ sol.multipliers
            assert np.abs(grad).max() <= 1e-8 * (1.0 + np.abs(f).max())
            assert (g @ sol.x - b).max() <= 1e-9 * (1.0 + np.abs(b).max())
            comp = np.abs(sol.multipliers * (b - g @ sol.x)).max()
            assert comp <= 1e-7 * (1.0 + np.abs(b).max()) \
                * (1.0 + np.abs(sol.multipliers).max())

    def test_benchmark_clean(self):
        failures, worst = run_benchmark(instances=200, seed=7)
        assert failures == 0
        assert worst <= 1e-6


class TestScalingInvariance:
    def test_argmin_unchanged_under_positive_scaling(self, rng):
        for _ in range(50):
            h, f, g, b = random_qp_instance(rng)
            x1 = ActiveSetSolver().solve(factorize(h, g), f, b).x
            c = 10.0 ** rng.uniform(-3.0, 3.0)
            x2 = ActiveSetSolver().solve(factorize(c * h, g), c * f, b).x
            assert np.abs(x1 - x2).max() <= 1e-8 * (1.0 + np.abs(x1).max())


class TestWarmStart:
    def test_second_solve_reuses_working_set(self, rng):
        h, f, g, b = random_qp_instance(np.random.default_rng(3))
        solver, factor = ActiveSetSolver(), factorize(h, g)
        first = solver.solve(factor, f, b)
        again = solver.solve(factor, f, b)
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
                sol = solver.solve(factor, f, b_k)
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
        sol = solver.solve(factorize(h, g), f, b)
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
        factor = factorize(self.h, self.g)
        cold = ActiveSetSolver().solve(factor, self.f, self.b)
        solver = ActiveSetSolver()
        solver.working_set = [0, 1, 2, 3]
        sol = solver.solve(factor, self.f, self.b)
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
        sol = solver.solve(factor, self.f, b)
        assert sol.working_set == []
        assert sol.iterations == 5       # the start solve and four prunes
        assert np.array_equal(sol.x, ActiveSetSolver().solve(factor, self.f, b).x)


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

    def test_indefinite_hessian_rejected(self):
        with pytest.raises(np.linalg.LinAlgError):
            factorize(np.array([[1.0, 2.0], [2.0, 1.0]]))


class TestInfeasibility:
    def test_contradictory_bounds_detected(self):
        with pytest.raises(InfeasibleQpError) as exc:
            ActiveSetSolver().solve(
                factorize(np.array([[2.0]]), np.array([[1.0], [-1.0]])),
                np.array([0.0]), np.array([-1.0, -2.0]))
        assert exc.value.worst_row in (0, 1)

    def test_empty_constraint_matrix_is_unconstrained(self):
        x = ActiveSetSolver().solve(factorize(np.eye(2), np.zeros((0, 2))),
                                    np.array([-2.0, 4.0]), np.zeros(0)).x
        assert np.allclose(x, [2.0, -4.0])
