"""Run every workload, repeated and interleaved, and summarise.

    python3 perfbench/suite.py                      # default seed, 3 repetitions
    python3 perfbench/suite.py --seeds 7 --reps 3   # held-out seed
    python3 perfbench/suite.py --seeds 1 2 3 4 5 6 7 8 9 10 --reps 1 --no-trace

Each repetition runs every (seed, workload) pair once, rotating the
workload order between repetitions, so that drift in machine load spreads
over all workloads instead of landing on one. Runs last about as long as
the episodes that fit in ``--seconds``, so runs of one seed can differ in
episode count; their fingerprints are compared episode by episode. Then one traced run per
workload gives the per-layer metrics. The suite fails (exit 1) when a run's
output checks fail or when runs of one seed disagree on any deterministic
fingerprint (CSV digests, rms power error, QP iterations, fallback and
violation counts). It prints every metric with its unit and writes the
results, with the Python, numpy and CPU details, as JSON.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from layers import PER_LAYER
from run import END_TO_END
from stats import quartile_spread
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
DEFAULT_SEED = 2024


def machine():
    import numpy
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "cpu_model": model,
            "threads_pinned": {v: os.environ[v] for v in
                               ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                "MKL_NUM_THREADS")}}


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {"correct": False}
    if done.returncode != 0 or not result.get("correct"):
        print(done.stderr, file=sys.stderr)
        return result, None
    record_path = BENCH_DIR / "out" / workload / f"seed{seed}_trace{trace}.json"
    return result, json.loads(record_path.read_text())


def same_prefix(a, b):
    """Runs of one seed agree on every episode both completed."""
    n = min(len(a), len(b))
    return a[:n] == b[:n]


def summarise(values):
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 \
        else (values[0],) * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": quartile_spread(values) if len(values) > 1 else 0.0,
            "n": len(values)}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[DEFAULT_SEED])
    ap.add_argument("--reps", type=int, default=3)
    ap.add_argument("--seconds", type=float, default=60.0)
    ap.add_argument("--workloads", nargs="+", default=list(WORKLOADS),
                    choices=list(WORKLOADS))
    ap.add_argument("--no-trace", action="store_true")
    ap.add_argument("--out", type=Path,
                    default=BENCH_DIR / "results" / "latest.json")
    args = ap.parse_args(argv)

    ok = True
    runs, fingerprints = [], {}
    names = args.workloads
    for rep in range(args.reps):
        for seed in args.seeds:
            order = names[rep % len(names):] + names[:rep % len(names)]
            for name in order:
                result, record = run_once(name, seed, args.seconds, 0)
                if record is None:
                    print(f"FAIL {name} seed {seed}: checks failed")
                    ok = False
                    continue
                runs.append({"workload": name, "seed": seed, "rep": rep,
                             "metrics": record["metrics"],
                             "detail": record["detail"]})
                first = fingerprints.setdefault((name, seed),
                                                record["fingerprints"])
                if not same_prefix(first, record["fingerprints"]):
                    print(f"FAIL {name} seed {seed}: fingerprints differ "
                          f"between repetitions")
                    ok = False
                print(f"rep {rep} seed {seed} {name}: " + ", ".join(
                    f"{k}={v:.6g}" for k, v in record["metrics"].items()),
                    flush=True)

    traced = {}
    if not args.no_trace:
        for name in names:
            result, record = run_once(name, args.seeds[0], args.seconds, 1)
            if record is None:
                print(f"FAIL {name} traced run: checks failed")
                ok = False
                continue
            traced[name] = {k: v["value"] for k, v in result["metrics"].items()}
            untraced = fingerprints.get((name, args.seeds[0]), [])
            if not same_prefix(untraced, record["fingerprints"]):
                print(f"FAIL {name}: traced run emitted different outputs")
                ok = False

    summary = {}
    for name in names:
        mine = [r for r in runs if r["workload"] == name]
        if not mine:
            continue
        summary[name] = {
            key: summarise([r[part][key] for r in mine])
            for part in ("metrics", "detail") for key in mine[0][part]}

    print(f"\n{'workload':18s} {'metric':28s} {'median':>12s} {'q1':>12s} "
          f"{'q3':>12s} {'spread':>7s} unit")
    for name, metrics in summary.items():
        for key, s in metrics.items():
            unit = END_TO_END[key][0] if key in END_TO_END else "(not gated)"
            print(f"{name:18s} {key:28s} {s['median']:12.6g} {s['q1']:12.6g} "
                  f"{s['q3']:12.6g} {s['spread']:7.3f} {unit}")
    for name, values in traced.items():
        print(f"\ntraced {name}, seed {args.seeds[0]}:")
        for key, value in values.items():
            print(f"  {key:36s} {value:14.6g} {PER_LAYER[key][0]}")

    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps({
        "machine": machine(),
        "settings": {"seeds": args.seeds, "reps": args.reps,
                     "seconds": args.seconds, "workloads": names},
        "summary": summary, "per_layer": traced, "runs": runs,
        "fingerprints": {f"{n}/seed{s}": fp
                         for (n, s), fp in fingerprints.items()},
        "ok": ok,
    }, indent=1) + "\n")
    print(f"\nwrote {args.out}; {'OK' if ok else 'FAILED'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
