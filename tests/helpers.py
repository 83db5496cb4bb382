"""Fixtures shared by the unit suites."""

import numpy as np

from windmpc import SimLog


def synthetic_log(n, params, power_error=None):
    """Perfect-tracking stand-in log with optional injected power error."""
    t = np.arange(n) * params.t_s
    p_max = np.full(n, 1e5)
    p_t = p_max - (power_error if power_error is not None else np.zeros(n))
    return SimLog(
        t=t, v=np.full(n, 7.0), omega_t=np.full(n, 1.62),
        omega_g=np.full(n, 101.412), t_tw=np.full(n, 3e3),
        t_g=np.full(n, 3e3), beta=np.zeros(n), t_g_ref=np.full(n, 3e3),
        beta_ref=np.zeros(n), p_g=np.full(n, 1e5), p_t=p_t, p_max=p_max,
        omega_g_ref=np.full(n, 101.412), mode=["online"] * n,
        qp_iters=np.ones(n, dtype=int), qp_status=["optimal"] * n,
        step_time=np.full(n, 1e-3))
