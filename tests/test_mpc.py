import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from windmpc import (ActiveSetSolver, MpcWeights, augment, condense_cost,
                     continuous_model, discretize, equilibrium, mpc_step,
                     prediction_matrices, unified_matrices)
from windmpc.mpc import _constraint_rows, _input_operators
from windmpc.verify import explicit_cost, unrolled_bounds_ok

from helpers import (ConstraintSet, condense_constraints_reference,
                     condense_cost_reference, condensed_qp,
                     input_operators_reference, prediction_matrices_reference,
                     shift_constraints, unbounded_constraints)


def condensed_rows(model, bounds, n_p, n_c):
    """(G, W, S) of ``condense`` at default cost weights."""
    qp = condensed_qp(model, MpcWeights(n_p=n_p, n_c=n_c), bounds)
    return qp.factor.g, qp.w, qp.s


def discrete_arrays(v_bar, params):
    """(A_d, B_du, b_d, C) at the v_bar point, as ``augment`` takes them."""
    a_c, b_u, b_v, c = continuous_model(equilibrium(v_bar, params), params)
    return (*discretize(a_c, b_u, b_v, params.t_s), c)


@pytest.fixture(scope="module")
def discrete_model():
    from windmpc import TurbineParams
    params = TurbineParams()
    return params, discrete_arrays(8.0, params)


@pytest.fixture(scope="module")
def augmented(discrete_model):
    _, dm = discrete_model
    return augment(*dm)


class TestAugmentDisturbance:
    def test_block_dimensions(self, discrete_model):
        _, dm = discrete_model
        a, b, c = augment(*dm)
        assert a.shape == (8, 8)
        assert b.shape == (8, 2)
        assert c.shape == (2, 8)
        # the disturbance state is held and enters through b_d alone
        assert np.array_equal(a[5], np.eye(8)[5])
        assert np.array_equal(a[:5, 5], dm[2].ravel())
        assert not b[5].any() and not c[:, 5:].any()

    def test_zero_disturbance_column_decouples(self, discrete_model):
        _, (a_d, b_du, _, c) = discrete_model
        a, _, _ = augment(a_d, b_du, np.zeros((5, 1)), c)
        x = np.concatenate([np.zeros(5), [123.0], np.zeros(2)])
        for _ in range(4):
            x = a @ x
        assert np.allclose(x[:5], 0.0)
        assert x[5] == 123.0

    def test_constant_disturbance_recursion(self, discrete_model, rng):
        _, dm = discrete_model
        a_d, _, b_d, _ = dm
        a, _, _ = augment(*dm)
        d0 = 0.7
        x = np.concatenate([np.zeros(5), [d0], np.zeros(2)])
        for k in range(1, 6):
            x = a @ x  # no moves
            expected = sum(np.linalg.matrix_power(a_d, i) @ b_d.ravel()
                           for i in range(k)) * d0
            assert np.allclose(x[:5], expected, rtol=1e-10, atol=1e-12)


class TestAugmentVelocity:
    def test_integrator_holds_input(self, discrete_model):
        a, _, _ = augment(*discrete_model[1])
        x = np.zeros(8)
        x[6:] = [3.0, -1.0]
        for _ in range(5):
            x = a @ x
        assert np.allclose(x[6:], [3.0, -1.0])

    def test_equivalent_to_accumulated_input_form(self, discrete_model, rng):
        _, (a_d, b_du, b_d, c_p) = discrete_model
        a, b, c = augment(a_d, b_du, b_d, c_p)
        x_p = rng.normal(size=6)
        u_prev = rng.normal(size=2)
        moves = rng.normal(size=(10, 2))
        # velocity form
        x_a = np.concatenate([x_p, u_prev])
        ys_velocity = []
        for du in moves:
            x_a = a @ x_a + b @ du
            ys_velocity.append(c @ x_a)
        # accumulated-input form: the plant driven by the disturbance d and
        # the input u
        x, d = x_p[:5].copy(), x_p[5]
        u = u_prev.copy()
        ys_direct = []
        for du in moves:
            u = u + du
            x = a_d @ x + b_d.ravel() * d + b_du @ u
            ys_direct.append(c_p @ x)
        assert np.allclose(ys_velocity, ys_direct, rtol=1e-12, atol=1e-12)


class TestPredictionMatrices:
    def test_single_step_horizon(self, augmented):
        a, b, c = augmented
        phi, gamma = prediction_matrices(a, b, c, 1, 1)
        assert np.allclose(phi, c @ a)
        assert np.allclose(gamma, c @ b)
        assert np.allclose(_input_operators(8, 2, 1)[1], np.eye(2))

    def test_batch_matches_recursion(self, augmented, rng):
        n_p, n_c = 20, 5
        a, b, c = augmented
        phi, gamma = prediction_matrices(a, b, c, n_p, n_c)
        assert phi.shape == (2 * n_p, 8)
        assert gamma.shape == (2 * n_p, 2 * n_c)
        for _ in range(10):
            x0 = rng.normal(size=8)
            du_seq = rng.normal(size=2 * n_c)
            batch = phi @ x0 + gamma @ du_seq
            x = x0.copy()
            direct = []
            for j in range(n_p):
                du = du_seq[2 * j:2 * j + 2] if j < n_c else np.zeros(2)
                x = a @ x + b @ du
                direct.append(c @ x)
            direct = np.concatenate(direct)
            scale = max(1.0, np.abs(direct).max())
            assert np.abs(batch - direct).max() <= 1e-10 * scale

    def test_stacked_inputs_are_cumulative_sums(self, augmented, rng):
        n_p, n_c = 8, 4
        l1, l2 = _input_operators(8, 2, n_c)
        x0 = rng.normal(size=8)
        du_seq = rng.normal(size=2 * n_c)
        stacked = l1 @ x0 + l2 @ du_seq
        u = x0[6:].copy()
        expected = []
        for j in range(n_c):
            u = u + du_seq[2 * j:2 * j + 2]
            expected.append(u.copy())
        assert np.allclose(stacked, np.concatenate(expected), rtol=0.0,
                           atol=1e-13)

    def test_equals_block_loop(self, discrete_model, weights):
        params = discrete_model[0]
        for v in (4.5, 6.4, 8.3, 10.0, 10.9):
            model = augment(*discrete_arrays(v, params))
            got = prediction_matrices(*model, weights.n_p, weights.n_c)
            want = prediction_matrices_reference(model, weights.n_p,
                                                 weights.n_c)
            for got_k, want_k in zip(got, want, strict=True):
                assert np.array_equal(got_k, want_k)
        for got, want in zip(_input_operators(8, 2, weights.n_c),
                             input_operators_reference(8, 2, weights.n_c),
                             strict=True):
            assert np.array_equal(got, want)

    def test_horizon_validation(self, augmented):
        with pytest.raises(ValueError):
            prediction_matrices(*augmented, 5, 6)


class TestCondenseCost:
    def test_move_penalty_only_gives_identity_hessian(self, augmented):
        w = MpcWeights(q1=0.0, q2=0.0, r1=0.5, r2=0.5, r3=0.0, n_p=6, n_c=3)
        h, _ = condense_cost(*prediction_matrices(*augmented, w.n_p, w.n_c), w)
        assert np.allclose(h, np.eye(6), atol=1e-12)

    def test_hessian_symmetric(self, augmented, weights):
        h, _ = condense_cost(*prediction_matrices(
            *augmented, weights.n_p, weights.n_c), weights)
        assert np.abs(h - h.T).max() < 1e-12

    def test_hessian_minimum_eigenvalue(self, augmented, weights):
        h, _ = condense_cost(*prediction_matrices(
            *augmented, weights.n_p, weights.n_c), weights)
        assert np.linalg.eigvalsh(h).min() >= 2.0 * min(weights.r1, weights.r2) - 1e-12

    def test_condensed_cost_equals_simulated_cost(self, augmented, weights, rng):
        # the load-bearing equivalence: quadratic + linear form matches the
        # explicitly simulated horizon cost up to a du-independent constant
        h, f = condense_cost(*prediction_matrices(
            *augmented, weights.n_p, weights.n_c), weights)
        for _ in range(100):
            x_a = rng.normal(size=8) * np.array([0.5, 10.0, 1e3, 1e3, 2.0,
                                                 0.5, 1e3, 2.0])
            r_s = np.tile(rng.normal(size=2) * np.array([10.0, 1e4]),
                          weights.n_p)
            du = rng.normal(size=2 * weights.n_c) * np.tile([200.0, 0.3],
                                                            weights.n_c)
            z = np.concatenate([x_a, r_s])
            condensed = 0.5 * du @ h @ du + z @ f @ du
            constant = explicit_cost(augmented, weights, x_a, r_s,
                                     np.zeros(2 * weights.n_c))
            explicit = explicit_cost(augmented, weights, x_a, r_s, du)
            assert explicit - condensed == pytest.approx(
                constant, rel=1e-8, abs=1e-8 * max(1.0, abs(explicit)))


class TestCondenseConstraints:
    def example_bounds(self):
        return ConstraintSet(
            du_min=np.array([-300.0, -0.5]), du_max=np.array([300.0, 0.5]),
            u_min=np.array([-2e3, -1.0]), u_max=np.array([2e3, 10.0]),
            y_min=np.array([-50.0, -1e5]), y_max=np.array([50.0, 1e5]))

    def test_row_count_all_bounds_finite(self, augmented):
        g, w, s = condensed_rows(augmented, self.example_bounds(), 20, 5)
        assert g.shape == (120, 10)
        assert w.shape == (120,)
        assert s.shape == (120, 8 + 2 * 20)

    def test_all_infinite_bounds_empty(self, augmented):
        g, w, s = condensed_rows(augmented, unbounded_constraints(), 4, 2)
        assert g.shape == (0, 4)
        assert w.size == 0
        assert s.shape == (0, 8 + 2 * 4)

    def test_membership_matches_unrolled_bounds(self, augmented, rng):
        n_p, n_c = 6, 3
        bounds = self.example_bounds()
        g, wvec, s = condensed_rows(augmented, bounds, n_p, n_c)
        checked = 0
        for _ in range(300):
            x_a = rng.normal(size=8) * np.array([0.1, 2.0, 200.0, 200.0, 0.5,
                                                 0.2, 300.0, 0.5])
            du = rng.normal(size=2 * n_c) * np.tile([150.0, 0.3], n_c)
            z = np.concatenate([x_a, np.zeros(2 * n_p)])
            residual = g @ du - (wvec + s @ z)
            # skip draws sitting on a boundary within tolerance
            if np.abs(residual).min() < 1e-9:
                continue
            checked += 1
            condensed_ok = bool(residual.max() <= 0.0)
            assert condensed_ok == unrolled_bounds_ok(
                augmented, bounds.stacked(), x_a, du, n_p, n_c)
        assert checked > 100

    def test_rows_equal_simulated_slacks(self, augmented, rng):
        # each condensed row, G du - (W + S z), is one bound's excess along
        # the forward simulation, in the stacking order of condense
        n_p, n_c = 6, 3
        a, bm, c = augmented
        m = bm.shape[1]
        bounds = self.example_bounds()
        g, wvec, s = condensed_rows(augmented, bounds, n_p, n_c)
        for _ in range(20):
            x_a = rng.normal(size=8) * np.array([0.1, 2.0, 200.0, 200.0, 0.5,
                                                 0.2, 300.0, 0.5])
            du = rng.normal(size=m * n_c) * np.tile([150.0, 0.3], n_c)
            x, u, ys, us, dus = x_a, x_a[-m:], [], [], []
            for j in range(n_p):
                du_j = du[m * j:m * (j + 1)] if j < n_c else np.zeros(m)
                x = a @ x + bm @ du_j
                u = u + du_j
                ys.append(c @ x)
                if j < n_c:
                    us.append(u)
                    dus.append(du_j)
            ys, us, dus = np.concatenate(ys), np.concatenate(us), np.concatenate(dus)
            expected = np.concatenate([
                ys - np.tile(bounds.y_max, n_p), np.tile(bounds.y_min, n_p) - ys,
                us - np.tile(bounds.u_max, n_c), np.tile(bounds.u_min, n_c) - us,
                dus - np.tile(bounds.du_max, n_c), np.tile(bounds.du_min, n_c) - dus])
            residual = g @ du - (wvec + s @ np.concatenate([x_a, np.zeros(2 * n_p)]))
            np.testing.assert_allclose(residual, expected, rtol=1e-9,
                                       atol=1e-9 * np.abs(expected).max())

    def test_feasible_trajectory_satisfies_rows(self, augmented):
        n_p, n_c = 6, 3
        bounds = self.example_bounds()
        g, wvec, s = condensed_rows(augmented, bounds, n_p, n_c)
        x_a = np.zeros(8)
        du = np.tile([1.0, 0.001], n_c)  # tiny moves from rest stay inside
        z = np.concatenate([x_a, np.zeros(2 * n_p)])
        assert np.all(g @ du <= wvec + s @ z)


class TestCachedLayout:
    """condense fills per-model blocks into cached model-free row templates
    and condense_cost multiplies by tiled weight diagonals; the tile/vstack
    forms in helpers.py are the reference, and they must agree bit for
    bit."""

    WINDS = (4.5, 6.4, 8.3, 10.0, 10.9)
    # every bound distinct, so a block gathered into the wrong place shows
    SKEWED = ConstraintSet(
        du_min=np.array([-300.0, -0.4]), du_max=np.array([250.0, 0.5]),
        u_min=np.array([-2e3, -1.0]), u_max=np.array([1.5e3, 10.0]),
        y_min=np.array([-40.0, -1e5]), y_max=np.array([50.0, 2e5]))

    @staticmethod
    def assert_condensed_as_reference(model, weights, bounds):
        phi, gamma = prediction_matrices(*model, weights.n_p, weights.n_c)
        qp = condensed_qp(model, weights, bounds)
        got = (qp.factor.h, qp.f, qp.factor.g, qp.w, qp.s, qp.du_min,
               qp.du_max)
        want = (condense_cost_reference(phi, gamma, weights)
                + condense_constraints_reference(phi, gamma, bounds, weights)
                + (bounds.du_min, bounds.du_max))
        for a, b in zip(got, want, strict=True):
            assert a.shape == b.shape
            assert a.tobytes() == b.tobytes()
        return qp

    def test_equals_tiled_form_with_interleaved_keys(self, params):
        # over the wind envelope, alternate horizons, weights and bound sets
        # so that a cached piece served under the wrong key would change a
        # shape or a value
        weight_sets = [MpcWeights(), MpcWeights(n_p=4, n_c=2),
                       MpcWeights(q1=3.0, q2=1e-4, r1=2e-6, r2=50.0, r3=7.0),
                       MpcWeights(q1=3.0, q2=1e-4, r1=2e-6, r2=50.0, r3=7.0,
                                  n_p=4, n_c=2)]
        unbounded = unbounded_constraints()
        for v_bar in self.WINDS:
            op = equilibrium(v_bar, params)
            model = augment(*discrete_arrays(v_bar, params))
            for w in weight_sets:
                for bounds in (shift_constraints(op, params), unbounded,
                               self.SKEWED):
                    qp = self.assert_condensed_as_reference(model, w, bounds)
                    if bounds is unbounded:
                        assert qp.factor.g.shape == (0, 2 * w.n_c)

    @settings(max_examples=50, deadline=None)
    @given(draws=st.lists(st.tuples(
        st.lists(st.booleans(), min_size=12, max_size=12),
        st.sampled_from([MpcWeights(), MpcWeights(n_p=4, n_c=2)])),
        min_size=2, max_size=4))
    def test_any_pattern_of_finite_bounds(self, augmented, draws):
        # each of the 12 stacked bounds finite or infinite, several patterns
        # and horizons per example, so a cached row set served under the
        # wrong pattern would show
        finite = self.SKEWED.stacked()
        infinite = np.repeat(np.tile([-np.inf, np.inf], 3), 2)
        for pattern, weights in draws:
            bounds = ConstraintSet(*np.where(pattern, finite, infinite)
                                   .reshape(6, 2))
            qp = self.assert_condensed_as_reference(augmented, weights, bounds)
            assert len(qp.w) == sum(
                n * sum(pattern[k:k + 4]) for k, n in (
                    (0, weights.n_c), (4, weights.n_c), (8, weights.n_p)))

    def test_cached_arrays_are_read_only(self, params, weights, augmented):
        phi, gamma = prediction_matrices(*augmented, weights.n_p, weights.n_c)
        b_u = continuous_model(equilibrium(8.0, params), params)[1]
        bounds = shift_constraints(equilibrium(8.0, params), params)
        qp = condensed_qp(augmented, weights, bounds)
        rows = _constraint_rows(8, 2, 2, weights.n_p, weights.n_c, np.isfinite(
            bounds.stacked()).tobytes())
        for cached in (*unified_matrices(params), b_u, *vars(rows).values()):
            with pytest.raises(ValueError):
                cached[0, ...] = 1.0
        # what a call returns is the caller's own
        h, f = condense_cost(phi, gamma, weights)
        for fresh in (h, f, qp.factor.g, qp.w, qp.s):
            fresh[0, ...] = 1.0


class TestMpcStep:
    def test_zero_state_zero_reference_is_fixed_point(self, augmented, weights, params):
        op = equilibrium(8.0, params)
        qp = condensed_qp(augmented, weights, shift_constraints(op, params))
        du, info = mpc_step(qp, np.zeros(8), np.zeros(2 * weights.n_p),
                            ActiveSetSolver())
        assert np.abs(du).max() <= 1e-9
        assert info.qp_status == "optimal"

    def test_first_move_respects_tight_move_bounds(self, augmented, weights, rng):
        bounds = ConstraintSet(
            du_min=np.array([-np.inf, -0.5]), du_max=np.array([np.inf, 0.5]),
            u_min=np.array([-5e3, 0.0]), u_max=np.array([5e3, 45.0]),
            y_min=np.array([-np.inf, -np.inf]),
            y_max=np.array([60.0, 1e6]))
        qp = condensed_qp(augmented, weights, bounds)
        solver = ActiveSetSolver()
        for _ in range(50):
            x_a = rng.normal(size=8) * np.array([0.2, 8.0, 800.0, 800.0, 1.0,
                                                 1.0, 500.0, 1.0])
            x_a[6:] = np.clip(x_a[6:], bounds.u_min, bounds.u_max)
            r_s = np.tile([rng.normal() * 5.0, 0.0], weights.n_p)
            du, info = mpc_step(qp, x_a, r_s, solver)
            assert abs(du[1]) <= 0.5 + 1e-9

    def test_single_step_horizon_matches_hand_solution(self, augmented):
        w = MpcWeights(q1=2.0, q2=0.0, r1=1.0, r2=1.0, r3=0.0, n_p=1, n_c=1)
        qp = condensed_qp(augmented, w, unbounded_constraints())
        x_a = np.zeros(8)
        r_s = np.array([5.0, 0.0])
        du, _ = mpc_step(qp, x_a, r_s, ActiveSetSolver())
        # hand solution of min (r - c(a x + b du))' q (...) + du' r du at x=0:
        # du* = (b'c' q c b + r)^-1 b'c' q r_s
        cb = augmented[2] @ augmented[1]
        lhs = cb.T @ w.q @ cb + w.r
        rhs = cb.T @ w.q @ r_s
        expected = np.linalg.solve(lhs, rhs)
        assert np.allclose(du, expected, atol=1e-8)

    def test_fallback_on_infeasible_rows(self, augmented, weights):
        bounds = ConstraintSet(
            du_min=np.array([-1.0, -0.5]), du_max=np.array([1.0, 0.5]),
            u_min=np.array([-10.0, -1.0]), u_max=np.array([10.0, 1.0]),
            y_min=np.array([-np.inf, -np.inf]),
            y_max=np.array([0.5, np.inf]))
        qp = condensed_qp(augmented, weights, bounds)
        # free response already violates the output cap and moves cannot
        # recover within the horizon
        x_a = np.zeros(8)
        x_a[1] = 500.0
        du, info = mpc_step(qp, x_a, np.zeros(2 * weights.n_p), ActiveSetSolver())
        assert info.qp_status == "fallback"
        assert np.all(du <= bounds.du_max + 1e-12)
        assert np.all(du >= bounds.du_min - 1e-12)
