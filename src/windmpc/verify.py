"""Verification oracles and the acceptance checks built on them.

Independent routes to what the runtime pipeline computes: a
finite-difference Jacobian of the plant ODEs, a forward simulation of the
augmented model, exhaustive active-set enumeration for the QP, and the
direct model build that the online model's expansion must reproduce. The
``check_*`` functions are acceptance criteria 1-5 and the expansion check,
each returning (ok, one-line report) against the thresholds named once
below; the ``lincheck`` and ``qpbench`` subcommands and the acceptance
suite call them. ``compare_logs`` states how far two closed-loop logs of
one profile agree.
"""

import math
from itertools import combinations

import numpy as np

from .control import EXPANSION_REL_TOL, _bounds_about, assemble_model_set, \
    build_model_set, expanded_arrays, model_expansion
from .errors import InfeasibleQpError, QpIterationError
from .experiment import LOG_FLOAT_FIELDS, SimLog, count_violations
from .linearize import continuous_model, discretize, equilibrium
from .mpc import MpcWeights, augment
from .qp import ActiveSetSolver, factorize
from .turbine import V_PARTIAL_MIN, V_RATED, TurbineParams, derivatives, \
    power_coefficient

CP_PEAK_REL_TOL = 5e-3          # criterion 1: Cp(lambda_opt, beta_opt) vs cp_opt
LAMBDA_STAR_TOL = 0.1           # criterion 1: Cp grid argmax vs lambda_opt
JACOBIAN_REL_TOL = 1e-7         # criterion 2: analytic vs finite differences
ZOH_DIAGONAL_TOL = 1e-9         # criterion 3: actuator diagonals of A_d
CONDENSED_COST_REL_TOL = 1e-8   # criterion 4: condensed vs simulated cost
MIN_MEMBERSHIP_CHECKS = 50      # criterion 4: draws off every row boundary
QP_ORACLE_TOL = 1e-6            # criterion 5: solver vs enumeration, max norm
QP_INSTANCES = 500              # criterion 5
SAMPLE_BUDGET_S = 0.05          # criterion 9: online step mean and p99, s
EXPANSION_RANDOM_WINDS = 200    # expansion check: seeded winds beyond the grid
LOG_REL_TOL = 1e-6              # compare_logs: worst gap of a logged float
# wall-clock budgets of criteria 1, 2 and 5 in the acceptance suite, s
CP_SWEEP_BUDGET_S = 1.0
JACOBIAN_SWEEP_BUDGET_S = 10.0
QP_BENCH_BUDGET_S = 5.0


def fd_jacobian(x_bar, u_bar, v_bar, params: TurbineParams):
    """Finite-difference Jacobian of the plant ODEs at (x, u, v).

    Independent verification route for the analytic model: central
    differences applied directly to :func:`windmpc.turbine.derivatives`.
    Returns (A, B_u, B_v) with shapes (5, 5), (5, 2), (5, 1).
    """
    z0 = np.concatenate([np.asarray(x_bar, dtype=float),
                         np.asarray(u_bar, dtype=float), [v_bar]])
    jac = np.zeros((5, 8))
    for i in range(8):
        h = 1e-6 * max(1.0, abs(z0[i]))  # relative central-difference step
        zp, zm = z0.copy(), z0.copy()
        zp[i] += h
        zm[i] -= h
        rates = np.subtract(derivatives(zp[:5], zp[5:7], zp[7], params),
                            derivatives(zm[:5], zm[5:7], zm[7], params))
        jac[:, i] = rates / (2.0 * h)
    return jac[:, :5], jac[:, 5:7], jac[:, 7:]


def verify_linearization(v_bar, params: TurbineParams) -> float:
    """Worst entrywise relative mismatch between the analytic linear model
    and the finite-difference Jacobian at the v_bar operating point.

    The denominator is floored at 1e-12 of each matrix's largest entry so
    structurally zero entries compare cleanly.
    """
    op = equilibrium(v_bar, params)
    fd_route = fd_jacobian(op.x_bar, op.u_bar, v_bar, params)
    worst = 0.0
    for analytic, fd in zip(continuous_model(op, params)[:3], fd_route):
        floor = 1e-12 * max(1.0, float(np.abs(analytic).max()))
        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), floor)
        worst = max(worst, float((np.abs(analytic - fd) / denom).max()))
    return worst


def _rollout(model, x_a, du_seq, n_p, n_c):
    """Forward simulation of (A_a, B_a, C_a): step, move, input deviation, y."""
    a, b, c = model
    m = b.shape[1]
    x = np.asarray(x_a, dtype=float)
    u_dev = x[-m:]
    for j in range(n_p):
        du = du_seq[m * j:m * (j + 1)] if j < n_c else np.zeros(m)
        u_dev = u_dev + du
        x = a @ x + b @ du
        yield j, du, u_dev, c @ x


def explicit_cost(model, weights: MpcWeights, x_a, r_s, du_seq):
    """Horizon tracking cost of a move sequence by forward simulation."""
    q_out = len(model[2])
    cost = 0.0
    for j, du, u_dev, y in _rollout(model, x_a, du_seq, weights.n_p, weights.n_c):
        if j < weights.n_c:
            cost += du @ weights.r @ du + u_dev @ weights.r_u @ u_dev
        err = r_s[q_out * j:q_out * (j + 1)] - y
        cost += err @ weights.q @ err
    return cost


def unrolled_bounds_ok(model, bounds, x_a, du_seq, n_p, n_c) -> bool:
    """Check every scalar bound along the forward simulation; ``bounds`` as
    ``condense`` takes them."""
    def within(value, lo, hi):
        return bool(np.all(lo <= value) and np.all(value <= hi))

    m = model[1].shape[1]
    du_min, du_max, u_min, u_max = np.reshape(bounds[:4 * m], (4, -1))
    y_min, y_max = np.reshape(bounds[4 * m:], (2, -1))
    return all(within(y, y_min, y_max)
               and (j >= n_c or (within(du, du_min, du_max)
                                 and within(u, u_min, u_max)))
               for j, du, u, y in _rollout(model, x_a, du_seq, n_p, n_c))


def enumerate_qp(h, f, g, b) -> np.ndarray:
    """Reference QP solve by exhaustive enumeration of candidate active sets.

    Solves the equality-constrained subproblem for every subset of up to n
    constraint rows, keeps the KKT-consistent candidates (primal feasible,
    nonnegative multipliers) and returns the one with the lowest objective.
    Exponential in the row count; intended only as a verification oracle on
    small instances.
    """
    h = np.asarray(h, dtype=float)
    f = np.asarray(f, dtype=float).ravel()
    n = h.shape[0]
    g = np.atleast_2d(np.asarray(g, dtype=float))
    b = np.asarray(b, dtype=float).ravel()
    m = g.shape[0]

    best_x, best_obj = None, np.inf
    for k in range(min(n, m) + 1):
        for rows in combinations(range(m), k):
            ga = g[list(rows)]
            kkt = np.block([[h, ga.T], [ga, np.zeros((k, k))]])
            rhs = np.concatenate([-f, b[list(rows)]])
            try:
                sol = np.linalg.solve(kkt, rhs)
            except np.linalg.LinAlgError:
                continue
            x, lam = sol[:n], sol[n:]
            if np.any(g @ x - b > 1e-8 * (1.0 + np.abs(b).max())):
                continue
            if lam.size and lam.min() < -1e-8:
                continue
            obj = float(0.5 * x @ h @ x + f @ x)
            if obj < best_obj:
                best_x, best_obj = x, obj
    if best_x is None:
        viol = g @ (np.linalg.solve(h, -f)) - b
        raise InfeasibleQpError("no KKT-consistent active set found",
                                worst_row=int(np.argmax(viol)))
    return best_x


def random_qp_instance(rng):
    """Seeded random strictly convex QP, feasible by construction.

    The bound vector is built from a random interior point with
    nonnegative slacks, a third of which are shrunk to near-active so
    interesting active sets occur.
    """
    n = int(rng.integers(1, 5))  # 1 to 4 variables
    m = int(rng.integers(1, 7))  # 1 to 6 rows
    root = rng.normal(size=(n, n))
    h = root.T @ root + (0.1 + rng.random()) * np.eye(n)
    f = rng.normal(size=n) * 10.0 ** rng.uniform(-1.0, 1.0)
    g = rng.normal(size=(m, n))
    x0 = rng.normal(size=n)
    slack = rng.random(m) * 2.0
    slack[rng.random(m) < 0.3] *= 1e-3
    b = g @ x0 + slack
    return h, f, g, b


def run_benchmark(instances=QP_INSTANCES, seed=0):
    """Solve seeded random QPs and compare against the enumeration oracle.

    Each instance is solved twice by one solver on one factor, at theta =
    [f; b] and at a perturbed one that x0 still satisfies, so the second
    solve can take the factor's law table. Returns (failures, worst_deviation,
    hits): a failure is an instance with a solver exception or a solution
    further than QP_ORACLE_TOL from the oracle's in the max norm, and a hit a
    second solve that ends in one iteration on a nonempty working set.
    """
    rng, noise = np.random.default_rng(seed), np.random.default_rng([seed, 1])
    failures, worst, hits = 0, 0.0, 0
    for _ in range(instances):
        h, f, g, b = random_qp_instance(rng)
        solver, factor = ActiveSetSolver(), factorize(h, g)
        again = (f + 1e-3 * noise.normal(size=f.size),
                 b + 1e-4 * np.abs(noise.normal(size=b.size)))
        try:
            deviation = 0.0
            for f_k, b_k in ((f, b), again):
                sol = solver.solve(factor, np.concatenate([f_k, b_k]))
                deviation = max(deviation, float(
                    np.abs(sol.x - enumerate_qp(h, f_k, g, b_k)).max()))
        except (InfeasibleQpError, QpIterationError):
            failures += 1
            continue
        hits += sol.iterations == 1 and bool(sol.working_set)
        worst = max(worst, deviation)
        failures += deviation > QP_ORACLE_TOL
    return failures, worst, hits


def check_cp_peak(params: TurbineParams):
    """Criterion 1: the Cp surface peaks at (lambda_opt, beta_opt) with cp_opt."""
    cp_peak = power_coefficient(params.lambda_opt, params.beta_opt)
    lams = np.arange(2.0, 14.0 + 1e-9, 0.01).tolist()
    lam_star = max(lams, key=lambda lam: power_coefficient(lam, params.beta_opt))
    ok = (abs(cp_peak - params.cp_opt) <= CP_PEAK_REL_TOL * params.cp_opt
          and abs(lam_star - params.lambda_opt) <= LAMBDA_STAR_TOL)
    return ok, (f"Cp peak {cp_peak:.5f} [{params.cp_opt} +- {CP_PEAK_REL_TOL:.1%}], "
                f"grid argmax lambda {lam_star:.2f} [{params.lambda_opt} +- "
                f"{LAMBDA_STAR_TOL}]")


def check_linearization(params: TurbineParams, grid):
    """Criterion 2: analytic linear model vs finite differences over a wind grid."""
    errors = [verify_linearization(float(v_bar), params) for v_bar in grid]
    i = int(np.argmax(errors))
    return errors[i] < JACOBIAN_REL_TOL, (
        f"worst Jacobian mismatch {errors[i]:.3e} (relative) at v = "
        f"{grid[i]:.2f} m/s [tolerance {JACOBIAN_REL_TOL:g}]")


def check_zoh_diagonals(params: TurbineParams, v_bar):
    """Criterion 3: the actuator diagonals of A_d equal exp(-T_s / tau)."""
    a_d = discretize(*continuous_model(equilibrium(v_bar, params), params)[:3],
                     params.t_s)[0]
    pitch_err = abs(a_d[4, 4] - math.exp(-params.t_s / params.tau))
    gen_err = abs(a_d[3, 3] - math.exp(-params.t_s / params.tau_g))
    return max(pitch_err, gen_err) < ZOH_DIAGONAL_TOL, (
        f"ZOH pitch diagonal error {pitch_err:.3e}, generator diagonal error "
        f"{gen_err:.3e} [tolerance {ZOH_DIAGONAL_TOL:g}]")


def check_condensation(params: TurbineParams, weights: MpcWeights):
    """Criterion 4: the condensed QP at 8 m/s against forward simulation.

    Over seeded draws of theta = [x_a; r; 1] and moves at closed-loop scale,
    the condensed cost must equal :func:`explicit_cost` up to the zero-move
    cost, and membership in G dU <= B theta must match
    :func:`unrolled_bounds_ok` wherever no row is within 1e-9 of its bound.
    """
    ms = build_model_set(8.0, params, weights)
    a_c, b_u, b_v, c = continuous_model(ms.op, params)
    model = augment(*discretize(a_c, b_u, b_v, params.t_s), c)
    factor, n_p, n_c = ms.qp.factor, weights.n_p, weights.n_c
    bounds = _bounds_about(params, ms.op.x_bar.omega_g, ms.p_g_bar,
                           *ms.op.u_bar)
    rng = np.random.default_rng(4)
    scale_x = np.array([0.3, 8.0, 800.0, 800.0, 1.5, 0.5, 400.0, 0.4])
    draws, worst, compared, agreed = 100, 0.0, 0, 0
    for _ in range(draws):
        x_a = rng.normal(size=8) * scale_x
        x_a[6:] = np.clip(x_a[6:], *bounds[4:8].reshape(2, 2))  # u_min, u_max
        r = rng.normal(size=2) * np.array([8.0, 5e4])
        r_s = np.tile(r, n_p)
        du = rng.normal(size=2 * n_c) * np.tile([300.0, 0.3], n_c)
        theta = np.concatenate([x_a, r, [1.0]])
        condensed = 0.5 * du @ factor.h @ du + (factor.f_map @ theta) @ du
        constant = explicit_cost(model, weights, x_a, r_s, np.zeros(2 * n_c))
        explicit = explicit_cost(model, weights, x_a, r_s, du)
        worst = max(worst, abs(explicit - (condensed + constant))
                    / max(1.0, abs(explicit)))
        residual = factor.g @ du - factor.b_map @ theta
        if np.abs(residual).min() >= 1e-9:
            compared += 1
            agreed += bool(residual.max() <= 0.0) == unrolled_bounds_ok(
                model, bounds, x_a, du, n_p, n_c)
    ok = (worst < CONDENSED_COST_REL_TOL and agreed == compared
          and compared >= MIN_MEMBERSHIP_CHECKS)
    return ok, (f"condensed-cost equivalence mismatch {worst:.3e} over {draws} "
                f"random draws [tolerance {CONDENSED_COST_REL_TOL:g}], "
                f"{agreed}/{compared} constraint-membership checks agreed "
                f"[at least {MIN_MEMBERSHIP_CHECKS}]")


def check_qp_solver(instances=QP_INSTANCES, seed=0):
    """Criterion 5: the active-set solver against the enumeration oracle."""
    if instances < 1:
        raise ValueError(f"instances must be at least 1, got {instances}")
    failures, worst, hits = run_benchmark(instances, seed)
    return failures == 0 and worst <= QP_ORACLE_TOL, (
        f"failures {failures}/{instances}, worst deviation from the "
        f"enumeration oracle {worst:.3e} [tolerance {QP_ORACLE_TOL:g}], "
        f"{hits}/{instances} perturbed re-solves from the law table")


def check_model_expansion(params: TurbineParams, weights: MpcWeights, grid):
    """The online model's Chebyshev expansion against the direct build, over
    ``grid`` and seeded random winds in [4, 11): each array's worst gap
    relative to its largest entry, B and the QP factor of the expanded H
    included, must stay within EXPANSION_REL_TOL."""
    expansion = model_expansion(params, weights)
    winds = np.concatenate([grid, np.random.default_rng(5).uniform(
        V_PARTIAL_MIN, V_RATED, EXPANSION_RANDOM_WINDS)])
    names = ("A_d", "B_du", "b_d", "H", "F", "G", "B", "H^-1", "H^-1 G'", "M")
    worst = dict.fromkeys(names, 0.0)
    for v in winds.tolist():
        direct = build_model_set(v, params, weights)
        expanded = assemble_model_set(direct.op, expanded_arrays(expansion, v),
                                      params, weights)
        for name, want, got in zip(names, *(
                (ms.a_d, ms.b_du, ms.b_d, ms.qp.factor.h, ms.qp.factor.f_map,
                 ms.qp.factor.g, ms.qp.factor.b_map, ms.qp.factor.h_inv,
                 ms.qp.factor.h_inv_gt, ms.qp.factor.m)
                for ms in (direct, expanded))):
            worst[name] = max(worst[name], float(
                np.abs(got - want).max() / np.abs(want).max()))
    return max(worst.values()) <= EXPANSION_REL_TOL, (
        "model expansion vs direct build over "
        f"{len(winds)} winds, worst relative gap: "
        + ", ".join(f"{name} {gap:.1e}" for name, gap in worst.items())
        + f" [tolerance {EXPANSION_REL_TOL:g}]")


def compare_logs(a: SimLog, b: SimLog, params: TurbineParams):
    """How far two closed-loop logs of one profile agree, as (ok, report).

    ok needs equal row counts, identical mode, qp_status and qp_iters on
    every row and every logged float within LOG_REL_TOL of its counterpart,
    relative to its column's largest magnitude in either log (a torque
    crossing zero would make a gap relative to the value itself
    meaningless). The report gives each float column's worst gap with its
    row, the first row that differs in anything, and each side's
    fallback-or-hold and violation counts.
    """
    if len(a) != len(b):
        return False, f"row counts differ: {len(a)} against {len(b)}"
    same = ((np.array(a.mode) == np.array(b.mode))
            & (np.array(a.qp_status) == np.array(b.qp_status))
            & (a.qp_iters == b.qp_iters))
    differs, gaps = ~same, {}
    for name in LOG_FLOAT_FIELDS:
        x, y = getattr(a, name), getattr(b, name)
        differs |= x != y
        scale = max(np.abs(x).max(initial=0.0), np.abs(y).max(initial=0.0))
        gaps[name] = np.abs(x - y) / (scale or 1.0)
    worst = max(gap.max(initial=0.0) for gap in gaps.values())
    first = int(np.argmax(differs)) if differs.any() else None
    counts = [(sum(s != "optimal" for s in log.qp_status),
               count_violations(log, params)) for log in (a, b)]
    return bool(same.all()) and worst <= LOG_REL_TOL, (
        f"{len(a)} rows, mode/qp_status/qp_iters differ on "
        f"{int(np.count_nonzero(~same))}, first differing row {first}; worst "
        "relative gap: " + ", ".join(
            f"{name} {gap.max():.1e} (row {int(np.argmax(gap))})"
            for name, gap in gaps.items() if gap.size)
        + f" [tolerance {LOG_REL_TOL:g}]; fallback or hold / violations "
        f"{counts[0][0]}/{counts[0][1]} against {counts[1][0]}/{counts[1][1]}")
