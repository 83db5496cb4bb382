"""Command-line interface.

Subcommands: ``simulate`` (one controller over one profile), ``compare``
(both controllers over a shared profile, with comparison plots),
``lincheck`` (analytic linear model vs finite-difference Jacobian, and the
online model's expansion vs the direct build), ``qpbench`` (active-set
solver vs enumeration oracle) and ``compare-logs`` (how far two emitted
CSV logs of one profile agree). Exit codes: 0 success, 1 config error,
2 simulation failure, 3 verification failure.
"""

import argparse
import sys
import time

import numpy as np

from .config import build_config, parse_wind_spec, read_kv_file
from .errors import ConfigError, SimulationError
from .experiment import run_experiment
from .mpc import MpcWeights
from .output import emit, read_csv
from .turbine import V_PARTIAL_MIN, V_RATED, TurbineParams
from .verify import QP_INSTANCES, check_condensation, check_cp_peak, \
    check_linearization, check_model_expansion, check_qp_solver, \
    check_zoh_diagonals, compare_logs


def _add_run_options(parser):
    parser.add_argument("--config", help="flat key = value config file")
    parser.add_argument("--wind",
                        help="profile spec: constant:V | steps | turbulent[:MEAN]")
    parser.add_argument("--seed", type=int, help="profile seed")
    parser.add_argument("--duration", type=float, help="profile length, s")
    parser.add_argument("--out", default="out", help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="windmpc",
        description="Closed-loop maximum-power MPC experiments for a "
                    "variable-speed wind turbine")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run one controller over one profile")
    p_sim.add_argument("--controller", choices=("online", "offline"),
                       default="online")
    _add_run_options(p_sim)

    p_cmp = sub.add_parser("compare",
                           help="run both controllers over a shared profile")
    _add_run_options(p_cmp)

    p_lin = sub.add_parser("lincheck",
                           help="verify the analytic linear model against "
                                "a finite-difference Jacobian")
    p_lin.add_argument("--v-range", default="4:11:0.1",
                       help="mean wind sweep lo:hi:step, m/s")

    p_qp = sub.add_parser("qpbench",
                          help="verify the QP solver against the "
                               "enumeration oracle on random instances")
    p_qp.add_argument("--instances", type=int, default=QP_INSTANCES)
    p_qp.add_argument("--seed", type=int, default=0)

    p_logs = sub.add_parser("compare-logs",
                            help="compare two CSV logs of one profile with "
                                 "the default turbine's bounds")
    p_logs.add_argument("logs", nargs=2, metavar="CSV")
    return parser


def _run_sim(args) -> int:
    file_values = read_kv_file(args.config) if args.config else {}
    overrides = {"seed": args.seed, "duration": args.duration,
                 "controller": getattr(args, "controller", None) or "both"}
    if args.wind:  # build_config skips the level and std left as None
        overrides.update(zip(("wind_kind", "wind_level", "wind_std"),
                             parse_wind_spec(args.wind)))
    config = build_config(file_values, overrides)
    results = run_experiment(config)
    paths = emit(results, args.out)
    for name, (log, metrics) in results.items():
        print(f"{name}: {len(log)} samples | rms power error "
              f"{metrics.rms_power_error:.6g} W | rms speed error "
              f"{metrics.rms_speed_error:.6g} rad/s | violations "
              f"{metrics.constraint_violations} | mean step "
              f"{metrics.step_time_mean * 1e3:.3f} ms | torque variation "
              f"{metrics.torque_total_variation:.6g} N*m")
    if len(results) == 2:
        off, on = results["offline"][1], results["online"][1]
        better = on.rms_power_error <= off.rms_power_error
        print(f"online rms power error <= offline: {better}")
    print(f"wrote {len(paths)} files to {args.out}")
    return 0


def _parse_v_range(spec):
    try:
        lo, hi, step = (float(part) for part in spec.split(":"))
    except ValueError as exc:
        raise ConfigError(f"bad --v-range {spec!r}; expected lo:hi:step") from exc
    if step <= 0.0 or hi < lo:
        raise ConfigError(f"bad --v-range {spec!r}")
    if lo < V_PARTIAL_MIN or hi > V_RATED:
        raise ConfigError(f"--v-range {spec!r} leaves the partial-load range "
                          f"[{V_PARTIAL_MIN:g}, {V_RATED:g}] m/s")
    # clipped so round-off in the last step cannot overshoot hi
    return np.minimum(np.arange(lo, hi + 0.5 * step, step), hi)


def _report(results) -> int:
    for _, detail in results:
        print(f"  {detail}")
    ok = all(ok for ok, _ in results)
    print("PASS" if ok else "FAIL")
    return 0 if ok else 3


def _lincheck(args) -> int:
    params = TurbineParams()
    grid = _parse_v_range(args.v_range)
    t0 = time.perf_counter()
    results = [check_cp_peak(params), check_linearization(params, grid),
               check_zoh_diagonals(params, float(grid[0])),
               check_condensation(params, MpcWeights()),
               check_model_expansion(params, MpcWeights(), grid)]
    print(f"model verification over {len(grid)} operating points "
          f"in {time.perf_counter() - t0:.2f} s")
    return _report(results)


def _qpbench(args) -> int:
    t0 = time.perf_counter()
    try:
        result = check_qp_solver(args.instances, args.seed)
    except ValueError as exc:  # an instance count below 1, a negative seed
        raise ConfigError(str(exc)) from exc
    print(f"qp benchmark: {args.instances} instances, seed {args.seed}, "
          f"{time.perf_counter() - t0:.2f} s")
    return _report([result])


def _compare_logs(args) -> int:
    try:
        logs = [read_csv(path) for path in args.logs]
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read a log: {exc}") from exc
    print(f"log comparison: {args.logs[0]} against {args.logs[1]}")
    return _report([compare_logs(*logs, TurbineParams())])


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command in ("simulate", "compare"):
            return _run_sim(args)
        if args.command == "lincheck":
            return _lincheck(args)
        if args.command == "compare-logs":
            return _compare_logs(args)
        return _qpbench(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except SimulationError as exc:
        print(f"simulation failed at step {exc.step}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
