"""One benchmark run of one workload, closed loop, on one thread.

    python3 perfbench/run.py --workload offline_turbulent --seed 2024 \
        --seconds 40 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/``. A run executes 60 s wind episodes one after another for about
``--seconds`` wall seconds; inside an episode each sample waits for the
previous controller and plant step. Every episode's outputs are checked.

--trace 0 prints the end-to-end metrics; --trace 1 runs each episode
untraced and then traced and prints the per-layer metrics, including the
tracing overhead. The last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}; a detailed record (per
episode digests, fingerprints, step-time max) goes to
perfbench/out/<workload>/seed<seed>_trace<t>.json.
"""

import os

# pin BLAS/OpenMP pools before numpy loads: one thread per run
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from stats import tail_percentile
from workloads import WORKLOADS, CheckError, run_episode, wind_seed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

SETUP_PROBES = 7

# name -> (unit, better); the names and units BENCHMARK.json lists
END_TO_END = {
    "samples_per_s": ("1/s", "higher"),
    "step_ms_p50": ("ms", "lower"),
    "step_ms_p95": ("ms", "lower"),
    "setup_s": ("s", "lower"),
    "ok_step_ratio": ("ratio", "higher"),
    "in_bounds_ratio": ("ratio", "higher"),
    "rms_power_error_w": ("W", "lower"),
}


def import_windmpc():
    """The package from this checkout's src/; exits non-zero when absent."""
    package = SRC / "windmpc"
    if not (package / "__init__.py").is_file():
        sys.exit(f"run.py: no windmpc package under {SRC}")
    sys.path.insert(0, str(SRC))
    import windmpc
    import windmpc.output
    if Path(windmpc.__file__).resolve().parent != package.resolve():
        sys.exit(f"run.py: imported windmpc from {windmpc.__file__}, not {SRC}")
    return windmpc


def probe_setup(workload, seed) -> float:
    """Median cold set-up over fresh interpreters (see setup_probe.py)."""
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload,
             str(seed)],
            capture_output=True, text=True, timeout=60, env=os.environ.copy())
        if done.returncode != 0:
            sys.exit(f"run.py: set-up probe failed:\n{done.stderr}")
        times.append(float(done.stdout.split()[-1]))
    return statistics.median(times)


def end_to_end(episodes, setup_s):
    samples = sum(e.samples for e in episodes)
    steps = [t for e in episodes for t in e.step_time]
    return {
        "samples_per_s": samples / sum(e.loop_s for e in episodes),
        "step_ms_p50": statistics.median(steps) * 1e3,
        "step_ms_p95": tail_percentile(steps, 95) * 1e3,
        "setup_s": setup_s,
        "ok_step_ratio": 1.0 - sum(e.failed for e in episodes) / samples,
        "in_bounds_ratio": 1.0 - sum(e.violations for e in episodes) / samples,
        "rms_power_error_w":
            (sum(e.sq_power_error for e in episodes) / samples) ** 0.5,
    }


def fingerprints(episodes):
    """Per-episode outputs that repeat bit for bit on every run of one seed."""
    return [{"wind_seed": e.wind_seed, "csv_sha256": e.csv_sha256,
             "sq_power_error": e.sq_power_error,
             "qp_iterations": e.qp_iterations,
             "fallback_or_hold": e.failed, "violations": e.violations}
            for e in episodes]


def episodes_until(deadline, run_one):
    """Call ``run_one(index)`` until another episode of average length would
    pass ``deadline``; at least one episode runs."""
    start, index = perf_counter(), 0
    while True:
        run_one(index)
        index += 1
        if perf_counter() + (perf_counter() - start) / index > deadline:
            return


def check_prefix_repeat(windmpc, workload, seed, params, weights, emit_dir, first_csv):
    """Re-run the first 10 s of the first profile; its CSV must equal the
    first rows of the full episode's CSV (the profile prefix is the same)."""
    run_episode(windmpc, workload, seed, params, weights, emit_dir,
                duration=10.0)
    lines = (emit_dir / f"{workload.controller}.csv").read_text().splitlines()
    if lines != first_csv[:len(lines)]:
        raise CheckError(f"repeat of wind seed {seed} changed the emitted CSV")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]

    windmpc = import_windmpc()
    params, weights = windmpc.TurbineParams(), windmpc.MpcWeights()
    out_dir = OUT / workload.name
    emit_dir = out_dir / f"emit_seed{args.seed}_trace{args.trace}"
    emit_dir.mkdir(parents=True, exist_ok=True)
    csv_path = emit_dir / f"{workload.controller}.csv"

    episodes, traced_episodes, detail = [], [], {}
    correct, failed, problem = True, 0, None
    try:
        if args.trace:
            from layers import PER_LAYER, layer_values, targets
            from tracing import Tracer, patched
            tracer = Tracer()
            controller_cls = {"offline": windmpc.OfflineMpc,
                              "online": windmpc.OnlineMpc}[workload.controller]

            def run_pair(index):
                seed = wind_seed(args.seed, index)
                episodes.append(run_episode(windmpc, workload, seed, params, weights,
                                            emit_dir))
                with patched(tracer, targets(windmpc, controller_cls)):
                    traced_episodes.append(run_episode(
                        windmpc, workload, seed, params, weights, emit_dir,
                        tracer.span))
                if traced_episodes[-1].csv_sha256 != episodes[-1].csv_sha256:
                    raise CheckError(f"traced episode of wind seed {seed} "
                                     "changed the emitted CSV")

            episodes_until(perf_counter() + args.seconds, run_pair)
            sps = [sum(e.samples for e in eps) / sum(e.loop_s for e in eps)
                   for eps in (episodes, traced_episodes)]
            metrics = layer_values(tracer, *sps)
            units = PER_LAYER
            tracer.write(out_dir / f"spans_seed{args.seed}.tsv")
        else:
            setup_s = probe_setup(workload.name, args.seed)
            first_csv = []

            def run_one(index):
                episodes.append(run_episode(windmpc, workload,
                                            wind_seed(args.seed, index),
                                            params, weights, emit_dir))
                if index == 0:
                    first_csv.extend(csv_path.read_text().splitlines())

            episodes_until(perf_counter() + args.seconds, run_one)
            check_prefix_repeat(windmpc, workload, args.seed, params, weights,
                                emit_dir, first_csv)
            metrics = end_to_end(episodes, setup_s)
            units = END_TO_END
            steps = [t for e in episodes for t in e.step_time]
            detail["step_ms_p99"] = tail_percentile(steps, 99) * 1e3
            detail["step_ms_max"] = max(steps) * 1e3
            detail["failed_step_ratio"] = 1.0 - metrics["ok_step_ratio"]
            detail["violation_ratio"] = 1.0 - metrics["in_bounds_ratio"]
            detail["setup_s_in_process_median"] = statistics.median(
                e.setup_s for e in episodes)
    except CheckError as exc:
        correct, problem = False, str(exc)
    except windmpc.SimulationError as exc:
        correct, failed, problem = False, 1, str(exc)

    attempted = sum(e.samples for e in episodes + traced_episodes) + failed
    if not correct:
        print(f"run.py: {workload.name} seed {args.seed}: {problem}",
              file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": max(attempted, 1),
                          "failed": failed, "metrics": {}}))
        return 1

    for name, value in metrics.items():
        print(f"{workload.name:18s} {name:36s} {value:>14.6g} {units[name][0]}")
    for name, value in detail.items():
        print(f"{workload.name:18s} {name:36s} {value:>14.6g} (not gated)")
    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "episodes": len(episodes),
        "metrics": metrics, "detail": detail,
        "fingerprints": fingerprints(episodes),
    }
    (out_dir / f"seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps({
        "correct": True, "attempted": attempted, "failed": 0,
        "metrics": {name: {"value": value, "unit": units[name][0]}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
