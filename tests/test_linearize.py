import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm as scipy_expm

from windmpc import (DomainError, TurbineParams, aerodynamic_torque,
                     continuous_model, derivatives, discretize, equilibrium,
                     fd_jacobian, matrix_exponential, torque_gradients,
                     verify_linearization)
from windmpc.cli import _parse_v_range
from windmpc.verify import JACOBIAN_REL_TOL


class TestTorqueGradients:
    def test_wind_gradient_positive(self, params):
        x_bar = equilibrium(8.0, params).x_bar
        assert torque_gradients(x_bar.omega_t, 8.0, x_bar.beta, params)[1] > 0.0

    def test_l_omega_reduces_to_minus_torque_over_speed_at_peak(self, params):
        # at the Cp peak d(Cp)/d(lambda) = 0, so dT/d(omega) = -T/omega
        for v in (5.0, 8.0, 10.5):
            x_bar = equilibrium(v, params).x_bar
            l_omega = torque_gradients(x_bar.omega_t, v, x_bar.beta, params)[0]
            t_t = aerodynamic_torque(x_bar.omega_t, v, x_bar.beta, params)
            assert l_omega == pytest.approx(-t_t / x_bar.omega_t, rel=1e-2)

    def test_matches_central_differences_over_grid(self, params):
        # 5-point central differences of the torque itself; off beta = 0 the
        # beta^2 term of d(1/lambda_i)/d(beta) is exercised as well
        for lam, beta, v in itertools.product((5.0, 8.1, 11.0),
                                              (0.0, 1.0, 3.0, 8.0),
                                              (4.5, 7.0, 10.5)):
            omega_t = lam * v / params.radius
            point = np.array([omega_t, v, beta])
            closed = torque_gradients(omega_t, v, beta, params)
            for idx in range(3):
                h = 1e-3 * max(1.0, abs(point[idx]))

                def torque(k):
                    shifted = point.copy()
                    shifted[idx] += k * h
                    return aerodynamic_torque(*shifted, params)

                fd = (-torque(2) + 8.0 * torque(1) - 8.0 * torque(-1)
                      + torque(-2)) / (12.0 * h)
                assert closed[idx] == pytest.approx(fd, rel=1e-7), (lam, beta, v)

    def test_rejects_bad_point(self, params):
        with pytest.raises(DomainError):
            torque_gradients(-1.0, 8.0, 0.0, params)


class TestEquilibrium:
    def test_reference_speeds_at_8_7(self, params):
        op = equilibrium(8.7, params)
        assert op.x_bar.omega_t == pytest.approx(2.0134, abs=1e-4)
        assert op.x_bar.omega_g == pytest.approx(126.04, abs=5e-3)

    @settings(max_examples=60, deadline=None)
    @given(j_t=st.floats(1e4, 1e8), j_g=st.floats(1.0, 1e4),
           k_s=st.floats(1e3, 1e8), b_s=st.floats(1.0, 1e5),
           n_g=st.floats(1.0, 200.0), lambda_opt=st.floats(4.0, 12.0),
           beta_opt=st.floats(0.0, 5.0))
    @example(**{name: getattr(TurbineParams(), name) for name in (
        "j_t", "j_g", "k_s", "b_s", "n_g", "lambda_opt", "beta_opt")})
    def test_residuals_on_the_lincheck_grid(self, **drawn):
        # equilibrium does not check its ODE residual itself, so this is the
        # gate: the offline bank's 6.4 and 10.0 m/s and lincheck's 71 winds,
        # on the default turbine and on drawn ones
        params = TurbineParams(**drawn)
        grid = _parse_v_range("4:11:0.1")
        assert len(grid) == 71
        for v in [6.4, 10.0, *grid.tolist()]:
            op = equilibrium(v, params)
            resid = derivatives(op.x_bar, op.u_bar, v, params)
            scale = np.maximum(1.0, np.abs(np.asarray(op.x_bar)))
            assert np.all(np.abs(resid) < 1e-6 * scale), v

    def test_steady_torque_balance(self, params):
        for v in (5.0, 7.3, 9.9):
            op = equilibrium(v, params)
            t_t = aerodynamic_torque(op.x_bar.omega_t, v, op.x_bar.beta, params)
            assert op.x_bar.t_g == pytest.approx(t_t / params.n_g, rel=1e-12)
            assert op.u_bar.t_g_ref == op.x_bar.t_g

    def test_out_of_range_rejected(self, params):
        for v in (3.9, 11.1, -2.0):
            with pytest.raises(DomainError):
                equilibrium(v, params)


class TestContinuousModel:
    def test_actuator_diagonal_entries(self, params):
        a_c = continuous_model(equilibrium(8.0, params), params)[0]
        assert a_c[4, 4] == pytest.approx(-10.0, rel=1e-12)
        assert a_c[3, 3] == pytest.approx(-50.0, rel=1e-12)

    def test_structure(self, params):
        op = equilibrium(8.0, params)
        a_c, b_u, b_v, c = continuous_model(op, params)
        assert (a_c.shape, b_u.shape, b_v.shape, c.shape) == (
            (5, 5), (5, 2), (5, 1), (2, 5))
        assert np.all(b_u[:3] == 0.0)
        assert b_u[3, 0] == pytest.approx(1.0 / params.tau_g)
        assert b_u[4, 1] == pytest.approx(1.0 / params.tau)
        # wind enters through the rotor and shaft-torsion rows only
        assert b_v[1, 0] == 0.0
        assert b_v[3, 0] == 0.0
        assert b_v[4, 0] == 0.0
        assert c[1, 1] == pytest.approx(params.eta * op.x_bar.t_g)
        assert c[1, 3] == pytest.approx(params.eta * op.x_bar.omega_g)

    def test_matches_fd_jacobian(self, params):
        op = equilibrium(8.0, params)
        for analytic, fd in zip(continuous_model(op, params)[:3],
                                fd_jacobian(op.x_bar, op.u_bar, 8.0, params),
                                strict=True):
            floor = 1e-12 * max(1.0, np.abs(analytic).max())
            denom = np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), floor)
            assert (np.abs(analytic - fd) / denom).max() < JACOBIAN_REL_TOL

    def test_fidelity_across_partial_load_band(self, params):
        for v in np.arange(4.0, 11.0 + 1e-9, 0.5):
            assert verify_linearization(float(v), params) < JACOBIAN_REL_TOL


class TestMatrixExponential:
    def test_zero_matrix(self):
        assert np.array_equal(matrix_exponential(np.zeros((3, 3))), np.eye(3))

    def test_diagonal_closed_form(self):
        e = matrix_exponential(np.diag([-0.5, -2.5]))
        assert abs(e[0, 0] - math.exp(-0.5)) < 1e-12
        assert abs(e[1, 1] - math.exp(-2.5)) < 1e-12
        assert abs(e[0, 1]) == 0.0

    def test_nilpotent_exact(self):
        e = matrix_exponential(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert np.array_equal(e, np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_against_scipy_oracle(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 9))
            m = rng.normal(size=(n, n)) * 10.0 ** rng.uniform(-2.0, 2.0)
            ours = matrix_exponential(m)
            ref = scipy_expm(m)
            assert np.abs(ours - ref).max() <= 1e-10 * max(1.0, np.abs(ref).max())

    def test_inverse_identity(self, params, rng):
        # residual scales with the norms of the two factors; pipeline
        # matrices carry norms ~1e5, so the bound is normalized
        mats = [rng.normal(size=(4, 4)), np.diag([-0.5, -2.5])]
        a_c = continuous_model(equilibrium(8.0, params), params)[0]
        mats.append(a_c * params.t_s)
        for m in mats:
            e = matrix_exponential(m)
            e_inv = matrix_exponential(-m)
            resid = np.abs(e @ e_inv - np.eye(m.shape[0])).max()
            scale = max(1.0, np.linalg.norm(e, np.inf)
                        * np.linalg.norm(e_inv, np.inf))
            assert resid <= 1e-10 * scale

    def test_rejects_non_square_and_non_finite(self):
        with pytest.raises(DomainError):
            matrix_exponential(np.zeros((2, 3)))
        with pytest.raises(DomainError):
            matrix_exponential(np.array([[np.inf]]))

    def test_overflow_raises(self):
        with pytest.raises(OverflowError):
            matrix_exponential(np.array([[2000.0]]))


def linear_models(v_bar, params):
    """(A_c, B_u, b_v) at the v_bar point and their ZOH (A_d, B_du, b_d)."""
    a_c, b_u, b_v, _ = continuous_model(equilibrium(v_bar, params), params)
    return (a_c, b_u, b_v), discretize(a_c, b_u, b_v, params.t_s)


class TestDiscretize:
    def test_actuator_diagonals_closed_form(self, params):
        a_d = linear_models(8.0, params)[1][0]
        assert abs(a_d[4, 4] - math.exp(-0.5)) < 1e-9
        assert abs(a_d[3, 3] - math.exp(-2.5)) < 1e-9

    def test_zero_dynamics_reduce_to_euler(self):
        b_u = np.arange(10.0).reshape(5, 2)
        b_v = np.ones((5, 1))
        a_d, b_du, b_d = discretize(np.zeros((5, 5)), b_u, b_v, 0.05)
        assert np.allclose(a_d, np.eye(5), atol=1e-15)
        assert np.allclose(b_du, 0.05 * b_u, atol=1e-15)
        assert np.allclose(b_d, 0.05 * b_v, atol=1e-15)

    def test_against_scipy_zoh_oracle(self, params):
        (a_c, b_u, b_v), (a_d, b_du, b_d) = linear_models(7.5, params)
        aug = np.zeros((8, 8))
        aug[:5, :5] = a_c * params.t_s
        aug[:5, 5:] = np.hstack([b_u, b_v]) * params.t_s
        ref = scipy_expm(aug)
        assert (np.abs(a_d - ref[:5, :5]).max()
                <= 1e-9 * max(1.0, np.abs(ref[:5, :5]).max()))
        assert (np.abs(np.hstack([b_du, b_d]) - ref[:5, 5:]).max()
                <= 1e-9 * max(1.0, np.abs(ref[:5, 5:]).max()))

    def test_integrated_linear_flow_matches(self, params, rng):
        # fine-substep RK4 integration of dx = A_c x over one sample agrees
        # with the exact discretization (a single RK4 step at T_s cannot:
        # the torsional mode puts |eig|*T_s near 4)
        (a_c, _, _), (a_d, _, _) = linear_models(8.0, params)
        dx = rng.normal(size=5) * np.array([0.1, 5.0, 500.0, 200.0, 1.0])
        h = params.t_s / 1000.0
        x = dx.copy()
        for _ in range(1000):
            k1 = a_c @ x
            k2 = a_c @ (x + 0.5 * h * k1)
            k3 = a_c @ (x + 0.5 * h * k2)
            k4 = a_c @ (x + h * k3)
            x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        exact = a_d @ dx
        assert np.abs(x - exact).max() <= 1e-8 * max(1.0, np.abs(exact).max())

    def test_rejects_nonpositive_sampling_time(self, params):
        a_c, b_u, b_v, _ = continuous_model(equilibrium(8.0, params), params)
        with pytest.raises(DomainError):
            discretize(a_c, b_u, b_v, 0.0)
