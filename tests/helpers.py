"""Fixtures shared by the unit suites."""

from pathlib import Path

import numpy as np

from windmpc import (ConstraintSet, IntegrationError, OnlineMpc, PlantState,
                     SimLog, build_model_set, derivatives, output)
from windmpc.experiment import LOG_FLOAT_FIELDS


def unbounded_constraints(n_in=2, n_out=2):
    """A ConstraintSet whose every bound is infinite, so it adds no rows."""
    inf_in = np.full(n_in, np.inf)
    inf_out = np.full(n_out, np.inf)
    return ConstraintSet(-inf_in, inf_in, -inf_in, inf_in, -inf_out, inf_out)


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


def rk4_step_reference(state, u, v, dt, params, substeps=10):
    """The plant step on numpy 5-vectors: classical RK4 as one vector
    formula per stage, the finiteness check, then the actuator clamps."""
    def rate(x):
        return np.array(derivatives(x, u, v, params))

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


def prediction_matrices_reference(am, n_p, n_c):
    """(Phi, Gamma, L1, L2) with Phi and Gamma filled block by block while
    walking up the horizon."""
    a, b, c = am.a_a, am.b_a, am.c_a
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
    l1 = np.zeros((m * n_c, n))
    l1[:, n - m:] = np.tile(np.eye(m), (n_c, 1))
    l2 = np.kron(np.tril(np.ones((n_c, n_c))), np.eye(m))
    return phi, gamma, l1, l2


def condense_cost_reference(pm, weights):
    """(H, F) assembled from tiled weight diagonals on every call."""
    q1_gamma = np.tile(weights.q.diagonal(), pm.n_p)[:, None] * pm.gamma
    ru1_l2 = np.tile(weights.r_u.diagonal(), pm.n_c)[:, None] * pm.l2
    r1 = np.diag(np.tile(weights.r.diagonal(), pm.n_c))
    h = 2.0 * (pm.gamma.T @ q1_gamma + r1 + pm.l2.T @ ru1_l2)
    h = 0.5 * (h + h.T)
    f_top = 2.0 * (pm.phi.T @ q1_gamma + pm.l1.T @ ru1_l2)
    f_bottom = -2.0 * q1_gamma
    return h, np.vstack([f_top, f_bottom])


def condense_constraints_reference(pm, bounds):
    """(G, W, S) stacked block by block with tiled bound vectors."""
    eye = np.eye(pm.l2.shape[1])
    no_state = np.zeros_like(pm.l1)
    g = np.vstack([pm.gamma, -pm.gamma, pm.l2, -pm.l2, eye, -eye])
    w = np.concatenate([
        np.tile(bounds.y_max, pm.n_p), np.tile(-bounds.y_min, pm.n_p),
        np.tile(bounds.u_max, pm.n_c), np.tile(-bounds.u_min, pm.n_c),
        np.tile(bounds.du_max, pm.n_c), np.tile(-bounds.du_min, pm.n_c)])
    s_x = np.vstack([-pm.phi, pm.phi, -pm.l1, pm.l1, no_state, no_state])
    keep = np.isfinite(w)
    s = np.hstack([s_x[keep], np.zeros((int(keep.sum()), pm.phi.shape[0]))])
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
