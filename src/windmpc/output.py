"""CSV and SVG emission for experiment results.

CSV rows carry full double precision (shortest round-trip repr); the SVG
plots are self-contained documents with no external assets.
"""

import json
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .experiment import LOG_FLOAT_FIELDS, SimLog, torque_total_variation

CSV_HEADER = ",".join(LOG_FLOAT_FIELDS + ("mode", "qp_iters", "qp_status"))

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#ff7f0e")

MAX_PLOT_POINTS = 4000


def write_csv(log: SimLog, path) -> Path:
    """One row per sample under the fixed header; floats round-trip exactly."""
    path = Path(path)
    columns = [map(repr, np.asarray(getattr(log, name), dtype=float).tolist())
               for name in LOG_FLOAT_FIELDS]
    iters = map(str, np.asarray(log.qp_iters, dtype=int).tolist())
    rows = zip(*columns, log.mode, iters, log.qp_status)
    path.write_text("\n".join([CSV_HEADER, *map(",".join, rows)]) + "\n")
    return path


def read_csv(path) -> SimLog:
    """Rebuild a SimLog from an emitted CSV (step times are not stored)."""
    lines = Path(path).read_text().strip().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"{path} does not carry the expected header")
    rows = [line.split(",") for line in lines[1:]]
    n = len(rows)
    data = {name: np.array([float(row[i]) for row in rows])
            for i, name in enumerate(LOG_FLOAT_FIELDS)}
    n_f = len(LOG_FLOAT_FIELDS)
    return SimLog(**data,
                  mode=[row[n_f] for row in rows],
                  qp_iters=np.array([int(row[n_f + 1]) for row in rows], dtype=int),
                  qp_status=[row[n_f + 2] for row in rows],
                  step_time=np.zeros(n))


def _thin(x, y):
    if len(x) <= MAX_PLOT_POINTS:
        return x, y
    stride = int(np.ceil(len(x) / MAX_PLOT_POINTS))
    return x[::stride], y[::stride]


def svg_line_plot(series, title, y_label, path=None) -> str:
    """Minimal self-contained SVG line plot over time, 900 x 360 px.

    ``series`` is a list of (label, x, y) triples; each series gets a
    polyline and a legend entry. Returns the SVG text and writes it to
    ``path`` when given.
    """
    width, height = 900, 360
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
        x_t, y_t = _thin(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
        color = PALETTE[i % len(PALETTE)]
        points = " ".join(map("{:.2f},{:.2f}".format, px(x_t).tolist(),
                              py(y_t).tolist()))
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
                 'font-size="12">time [s]</text>')
    parts.append(f'<text x="16" y="{margin_t + plot_h / 2:.1f}" '
                 f'text-anchor="middle" font-family="sans-serif" font-size="12" '
                 f'transform="rotate(-90 16 {margin_t + plot_h / 2:.1f})">'
                 f'{y_label}</text>')
    parts.append("</svg>")
    text = "\n".join(parts)
    if path is not None:
        Path(path).write_text(text)
    return text


def emit(results: dict, out_dir) -> list[Path]:
    """Write CSV, SVG and metrics files for one or more controller runs.

    ``results`` maps controller name to (SimLog, Metrics). When two runs
    are present an additional power-tracking-error comparison plot is
    emitted with one labeled series per controller.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    metrics_doc = {}
    for name, (log, metrics) in results.items():
        written.append(write_csv(log, out / f"{name}.csv"))
        metrics_doc[name] = asdict(metrics)
        metrics_doc[name]["torque_total_variation"] = torque_total_variation(log)
        if len(log):
            svg_line_plot(
                [("omega_g", log.t, log.omega_g),
                 ("omega_g_ref", log.t, log.omega_g_ref)],
                f"Generator speed tracking ({name})", "omega_g [rad/s]",
                out / f"{name}_speed.svg")
            svg_line_plot(
                [("captured", log.t, log.p_t), ("maximum", log.t, log.p_max)],
                f"Power capture ({name})", "power [W]",
                out / f"{name}_power.svg")
            svg_line_plot(
                [("t_g_ref [kNm]", log.t, log.t_g_ref / 1e3),
                 ("beta_ref [deg]", log.t, log.beta_ref)],
                f"Control inputs ({name})", "input",
                out / f"{name}_inputs.svg")
            written += [out / f"{name}_speed.svg", out / f"{name}_power.svg",
                        out / f"{name}_inputs.svg"]
    if len(results) >= 2:
        series = [(name, log.t, np.abs(log.p_max - log.p_t))
                  for name, (log, _) in results.items() if len(log)]
        if series:
            svg_line_plot(series, "Power tracking error comparison",
                          "|p_max - p_t| [W]", out / "error_comparison.svg")
            written.append(out / "error_comparison.svg")
    metrics_path = out / "metrics.json"
    metrics_path.write_text(json.dumps(metrics_doc, indent=2, sort_keys=True)
                            + "\n")
    written.append(metrics_path)
    return written
