"""Fixtures shared by the unit suites."""

from dataclasses import astuple, dataclass
from pathlib import Path

import numpy as np

from windmpc import (ActiveSetSolver, DomainError, InfeasibleQpError,
                     IntegrationError, OnlineMpc, PlantState, QpIterationError,
                     SimLog, aerodynamic_torque, build_model_set, condense,
                     condense_cost, generator_power, output,
                     prediction_matrices)
from windmpc.control import _bounds_about
from windmpc.experiment import LOG_FLOAT_FIELDS
from windmpc.qp import DEP_TOL, MAX_ITER_FACTOR, cholesky_root


@dataclass(frozen=True)
class ConstraintSet:
    """Per-step bounds in deviation coordinates; ``stacked`` is the vector
    that ``condense`` takes.

    Infinite entries are legal and drop the matching stacked rows. du
    bounds apply to single moves, u bounds to accumulated inputs over the
    control horizon, y bounds to predicted outputs over the prediction
    horizon.
    """

    du_min: np.ndarray
    du_max: np.ndarray
    u_min: np.ndarray
    u_max: np.ndarray
    y_min: np.ndarray
    y_max: np.ndarray

    def __post_init__(self):
        for lo_name, hi_name in (("du_min", "du_max"), ("u_min", "u_max"),
                                 ("y_min", "y_max")):
            lo = np.asarray(getattr(self, lo_name), dtype=float)
            hi = np.asarray(getattr(self, hi_name), dtype=float)
            object.__setattr__(self, lo_name, lo)
            object.__setattr__(self, hi_name, hi)
            if np.any(lo >= hi):
                raise ValueError(f"{lo_name} must lie strictly below {hi_name}")

    def stacked(self):
        return np.concatenate(astuple(self))


def unbounded_constraints(n_in=2, n_out=2):
    """A ConstraintSet whose every bound is infinite, so it adds no rows."""
    inf_in = np.full(n_in, np.inf)
    inf_out = np.full(n_out, np.inf)
    return ConstraintSet(-inf_in, inf_in, -inf_in, inf_in, -inf_out, inf_out)


def shift_constraints(op, params):
    """The controllers' bounds about operating point ``op`` as a
    ``ConstraintSet``."""
    p_g_bar = generator_power(op.x_bar.t_g, op.x_bar.omega_g, params)
    return ConstraintSet(*_bounds_about(params, op.x_bar.omega_g, p_g_bar,
                                        *op.u_bar).reshape(6, 2))


def condensed_qp(model, weights, bounds):
    """``condense`` fed as the controllers feed it: the prediction matrices
    of ``augment``'s (A_a, B_a, C_a), the condensed cost, H's Cholesky root
    and the bounds stacked in ``ConstraintSet``'s field order."""
    phi, gamma = prediction_matrices(*model, weights.n_p, weights.n_c)
    h, f = condense_cost(phi, gamma, weights)
    return condense(h, f, gamma, phi, cholesky_root(h), bounds.stacked(),
                    weights.n_c)


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


class DirectOnlineMpc(OnlineMpc):
    """OnlineMpc that linearizes, discretizes and condenses at the measured
    wind on every sample: the oracle of the model expansion."""

    def _model_for(self, v):
        return build_model_set(v, self.params, self.weights)


class ReferenceSolver(ActiveSetSolver):
    """ActiveSetSolver whose dual loop solves M_WW r = -M_Wp afresh on every
    step, moves x by each step and re-evaluates G x - b whenever it picks a
    row: the oracle of the step loop on a maintained M_WW^-1."""

    def _dual_steps(self, factor, x_free, b, tol, ws, lam, iterations, viol,
                    p):
        g = factor.g
        x = x_free - factor.h_inv_gt[:, ws] @ lam
        max_iter = max(10, MAX_ITER_FACTOR * g.shape[1])
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
            # primal step z and multiplier change r per unit of row p's
            # multiplier: M_WW r = -M_Wp and H z = -(g_p + G_W' r)
            w = np.array(ws, dtype=np.intp)
            r = np.linalg.solve(factor.m[w[:, None], w], -factor.m[w, p])
            h_z = -(g[p] + g[w].T @ r)
            z = -(factor.h_inv_gt[:, p] + factor.h_inv_gt[:, w] @ r)
            viol_p = float(g[p] @ x - b[p])
            t_full = np.inf                # step that makes row p active
            if np.abs(h_z).max() > DEP_TOL * np.abs(g[p]).max():
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
                    p, lam_p = -1, 0.0     # abandoned: the next row starts at 0
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
        return x, ws, lam, iterations


def derivatives_reference(state, u, v, params):
    """The plant ODE through ``aerodynamic_torque``, one relation per
    line: the oracle of ``turbine.derivatives``."""
    if v <= 0.0:
        raise DomainError("wind speed must be positive")
    omega_t, omega_g, t_tw, t_g, beta = map(float, state)
    t_t = aerodynamic_torque(omega_t, v, beta, params)
    d_omega_t = (t_t - params.n_g * t_tw) / params.j_t
    d_omega_g = (t_tw - t_g) / params.j_g
    # the twist rate chains the two accelerations, so it comes after them
    d_t_tw = (params.k_s * (params.n_g * omega_t - omega_g)
              + params.b_s * (params.n_g * d_omega_t - d_omega_g))
    d_t_g = (u[0] - t_g) / params.tau_g
    d_beta = (u[1] - beta) / params.tau
    return d_omega_t, d_omega_g, d_t_tw, d_t_g, d_beta


def rk4_step_reference(state, u, v, dt, params, substeps=10):
    """The plant step on numpy 5-vectors: classical RK4 as one vector
    formula per stage on ``derivatives_reference``, the finiteness check,
    then the actuator clamps."""
    def rate(x):
        return np.array(derivatives_reference(x, u, v, params))

    x = np.asarray(state, dtype=float)
    h = dt / substeps
    for _ in range(substeps):
        k1 = rate(x)
        k2 = rate(x + 0.5 * h * k1)
        k3 = rate(x + 0.5 * h * k2)
        k4 = rate(x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if not np.all(np.isfinite(x)):
        raise IntegrationError("non-finite state after integration step")
    x[3] = min(max(x[3], 0.0), params.t_g_max)
    x[4] = min(max(x[4], params.beta_min), params.beta_max)
    return PlantState(*x.tolist())


def input_operators_reference(n, m, n_c):
    """(L1, L2) of the stacked inputs u(k..k+n_c-1) = L1 x_a + L2 dU, by
    tiling and a Kronecker product."""
    l1 = np.zeros((m * n_c, n))
    l1[:, n - m:] = np.tile(np.eye(m), (n_c, 1))
    return l1, np.kron(np.tril(np.ones((n_c, n_c))), np.eye(m))


def prediction_matrices_reference(model, n_p, n_c):
    """(Phi, Gamma) of (A, B, C) filled block by block while walking up the
    horizon."""
    a, b, c = model
    n, m = b.shape
    q = c.shape[0]
    phi = np.zeros((q * n_p, n))
    gamma = np.zeros((q * n_p, m * n_c))
    c_a_i = c
    c_a_b = []  # C A^i B, appended as i grows
    for i in range(n_p):
        c_a_b.append(c_a_i @ b)
        c_a_i = c_a_i @ a
        phi[i * q:(i + 1) * q] = c_a_i
        for j in range(min(i, n_c - 1) + 1):
            gamma[i * q:(i + 1) * q, j * m:(j + 1) * m] = c_a_b[i - j]
    return phi, gamma


def condense_cost_reference(phi, gamma, weights):
    """(H, F) assembled from tiled weight diagonals on every call."""
    n_p, n_c = weights.n_p, weights.n_c
    l1, l2 = input_operators_reference(phi.shape[1], gamma.shape[1] // n_c,
                                       n_c)
    q1_gamma = np.tile(weights.q.diagonal(), n_p)[:, None] * gamma
    ru1_l2 = np.tile(weights.r_u.diagonal(), n_c)[:, None] * l2
    r1 = np.diag(np.tile(weights.r.diagonal(), n_c))
    h = 2.0 * (gamma.T @ q1_gamma + r1 + l2.T @ ru1_l2)
    h = 0.5 * (h + h.T)
    f_top = 2.0 * (phi.T @ q1_gamma + l1.T @ ru1_l2)
    f_bottom = -2.0 * q1_gamma
    return h, np.vstack([f_top, f_bottom])


def condense_constraints_reference(phi, gamma, bounds, weights):
    """(G, W, S) stacked block by block with tiled bound vectors."""
    n_p, n_c = weights.n_p, weights.n_c
    l1, l2 = input_operators_reference(phi.shape[1], gamma.shape[1] // n_c,
                                       n_c)
    eye = np.eye(l2.shape[1])
    no_state = np.zeros_like(l1)
    g = np.vstack([gamma, -gamma, l2, -l2, eye, -eye])
    w = np.concatenate([
        np.tile(bounds.y_max, n_p), np.tile(-bounds.y_min, n_p),
        np.tile(bounds.u_max, n_c), np.tile(-bounds.u_min, n_c),
        np.tile(bounds.du_max, n_c), np.tile(-bounds.du_min, n_c)])
    s_x = np.vstack([-phi, phi, -l1, l1, no_state, no_state])
    keep = np.isfinite(w)
    s = np.hstack([s_x[keep], np.zeros((int(keep.sum()), phi.shape[0]))])
    return g[keep], w[keep], s


def write_csv_reference(log, path):
    """``output.write_csv`` built row by row, one numpy scalar per cell."""
    path = Path(path)
    lines = [output.CSV_HEADER]
    for k in range(len(log)):
        floats = [repr(float(getattr(log, name)[k]))
                  for name in LOG_FLOAT_FIELDS]
        lines.append(",".join(floats + [log.mode[k], str(int(log.qp_iters[k])),
                                        log.qp_status[k]]))
    path.write_text("\n".join(lines) + "\n")
    return path


def svg_line_plot_reference(series, title, y_label, path=None,
                            x_label="time [s]", width=900, height=360) -> str:
    """``output.svg_line_plot`` mapping and formatting one numpy scalar
    per polyline point."""
    margin_l, margin_r, margin_t, margin_b = 70, 20, 34, 44
    plot_w = width - margin_l - margin_r
    plot_h = height - margin_t - margin_b

    xs = [np.asarray(x, dtype=float) for _, x, _ in series]
    ys = [np.asarray(y, dtype=float) for _, _, y in series]
    x_lo = min((x.min() for x in xs if x.size), default=0.0)
    x_hi = max((x.max() for x in xs if x.size), default=1.0)
    y_lo = min((y.min() for y in ys if y.size), default=0.0)
    y_hi = max((y.max() for y in ys if y.size), default=1.0)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def px(x):
        return margin_l + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y):
        return margin_t + (y_hi - y) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>',
    ]
    for i in range(5):
        frac = i / 4.0
        gx = margin_l + frac * plot_w
        gy = margin_t + frac * plot_h
        xv = x_lo + frac * (x_hi - x_lo)
        yv = y_hi - frac * (y_hi - y_lo)
        parts.append(f'<line x1="{gx:.1f}" y1="{margin_t}" x2="{gx:.1f}" '
                     f'y2="{margin_t + plot_h}" stroke="#dddddd"/>')
        parts.append(f'<line x1="{margin_l}" y1="{gy:.1f}" '
                     f'x2="{margin_l + plot_w}" y2="{gy:.1f}" stroke="#dddddd"/>')
        parts.append(f'<text x="{gx:.1f}" y="{height - margin_b + 16}" '
                     f'text-anchor="middle" font-family="sans-serif" '
                     f'font-size="11">{xv:.4g}</text>')
        parts.append(f'<text x="{margin_l - 6}" y="{gy + 4:.1f}" '
                     f'text-anchor="end" font-family="sans-serif" '
                     f'font-size="11">{yv:.4g}</text>')
    parts.append(f'<rect x="{margin_l}" y="{margin_t}" width="{plot_w}" '
                 f'height="{plot_h}" fill="none" stroke="#333333"/>')
    for i, (label, x, y) in enumerate(series):
        x_t, y_t = output._thin(np.asarray(x, dtype=float),
                                np.asarray(y, dtype=float))
        color = output.PALETTE[i % len(output.PALETTE)]
        points = " ".join(f"{px(a):.2f},{py(b):.2f}" for a, b in zip(x_t, y_t))
        parts.append(f'<polyline fill="none" stroke="{color}" '
                     f'stroke-width="1.2" points="{points}"/>')
        ly = margin_t + 16 + 16 * i
        lx = margin_l + plot_w - 150
        parts.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 24}" '
                     f'y2="{ly - 4}" stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{lx + 30}" y="{ly}" font-family="sans-serif" '
                     f'font-size="12">{label}</text>')
    parts.append(f'<text x="{margin_l + plot_w / 2:.1f}" y="{height - 8}" '
                 f'text-anchor="middle" font-family="sans-serif" '
                 f'font-size="12">{x_label}</text>')
    parts.append(f'<text x="16" y="{margin_t + plot_h / 2:.1f}" '
                 f'text-anchor="middle" font-family="sans-serif" font-size="12" '
                 f'transform="rotate(-90 16 {margin_t + plot_h / 2:.1f})">'
                 f'{y_label}</text>')
    parts.append("</svg>")
    text = "\n".join(parts)
    if path is not None:
        Path(path).write_text(text)
    return text
