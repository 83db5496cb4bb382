"""The per-layer view: which public names a traced run wraps, and the
per-layer metrics computed from the spans they record."""

import statistics

from stats import tail_percentile
from tracing import by_name


def targets(windmpc, controller_cls):
    """(owner, attribute, span name, observe) for every wrapped call site.

    Each attribute is the name the caller looks up at call time:
    ``run_closed_loop`` calls ``experiment.step``, ``build_model_set`` calls
    ``control.equilibrium``/``continuous_model``/``discretize``/``condense``,
    the controllers call ``control.build_model_set``/``mpc_step``, and
    ``mpc_step`` calls the solver's ``solve`` method.
    """
    control, experiment = windmpc.control, windmpc.experiment

    def qp_counts(counts, solution):
        counts["qp.iterations"] += solution.iterations

    def step_counts(counts, result):
        counts[f"control.{result[1].qp_status}"] += 1

    return [
        (experiment, "step", "turbine.step", None),
        (control, "equilibrium", "linearize.equilibrium", None),
        (control, "continuous_model", "linearize.continuous_model", None),
        (control, "discretize", "linearize.discretize", None),
        (control, "condense", "mpc.condense", None),
        (control, "mpc_step", "mpc.mpc_step", None),
        (control, "build_model_set", "control.build_model_set", None),
        (windmpc.qp.ActiveSetSolver, "solve", "qp.solve", qp_counts),
        (controller_cls, "step", "control.step", step_counts),
    ]


# name -> (unit, better); the names and units BENCHMARK.json lists
PER_LAYER = {
    "turbine.step.calls": ("count", "lower"),
    "turbine.step.ms_p50": ("ms", "lower"),
    "turbine.step.total_s": ("s", "lower"),
    "linearize.equilibrium.calls": ("count", "lower"),
    "linearize.equilibrium.ms_p50": ("ms", "lower"),
    "linearize.continuous_model.ms_p50": ("ms", "lower"),
    "linearize.discretize.ms_p50": ("ms", "lower"),
    "mpc.condense.calls": ("count", "lower"),
    "mpc.condense.ms_p50": ("ms", "lower"),
    "mpc.mpc_step.self_us_p50": ("us", "lower"),
    "qp.solve.calls": ("count", "lower"),
    "qp.solve.ms_p50": ("ms", "lower"),
    "qp.solve.ms_p99": ("ms", "lower"),
    "qp.solve.total_s": ("s", "lower"),
    "qp.iterations.sum": ("count", "lower"),
    "qp.solve.optimal_ratio": ("ratio", "higher"),
    "qp.solve.infeasible": ("count", "lower"),
    "qp.solve.iter_cap": ("count", "lower"),
    "control.step.self_ms_p50": ("ms", "lower"),
    "control.step.ms_p99": ("ms", "lower"),
    "control.build_model_set.ms_p50": ("ms", "lower"),
    "control.fallback": ("count", "lower"),
    "control.hold": ("count", "lower"),
    "experiment.run_closed_loop.self_s": ("s", "lower"),
    "output.emit.s": ("s", "lower"),
    "wind.generate_wind.s": ("s", "lower"),
    "trace.untraced_samples_per_s": ("1/s", "higher"),
    "trace.traced_samples_per_s": ("1/s", "higher"),
    "trace.slowdown": ("ratio", "lower"),
}


def layer_values(tracer, untraced_sps, traced_sps):
    """{metric: value} for every PER_LAYER name, from one traced run.

    Times of a layer that never ran are reported as 0.
    """
    groups = by_name(tracer.spans)

    def durations(name):
        return groups.get(name, ([], [], []))[0]

    def own(name):
        return groups.get(name, ([], [], []))[1]

    def median(values, scale):
        return statistics.median(values) * scale if values else 0.0

    solve_errors = groups.get("qp.solve", ([], [], []))[2]
    solves = len(solve_errors)
    values = {
        "turbine.step.calls": len(durations("turbine.step")),
        "turbine.step.ms_p50": median(durations("turbine.step"), 1e3),
        "turbine.step.total_s": sum(durations("turbine.step")),
        "linearize.equilibrium.calls": len(durations("linearize.equilibrium")),
        "linearize.equilibrium.ms_p50": median(durations("linearize.equilibrium"), 1e3),
        "linearize.continuous_model.ms_p50":
            median(durations("linearize.continuous_model"), 1e3),
        "linearize.discretize.ms_p50": median(durations("linearize.discretize"), 1e3),
        "mpc.condense.calls": len(durations("mpc.condense")),
        "mpc.condense.ms_p50": median(durations("mpc.condense"), 1e3),
        "mpc.mpc_step.self_us_p50": median(own("mpc.mpc_step"), 1e6),
        "qp.solve.calls": solves,
        "qp.solve.ms_p50": median(durations("qp.solve"), 1e3),
        "qp.solve.ms_p99": tail_percentile(durations("qp.solve"), 99) * 1e3,
        "qp.solve.total_s": sum(durations("qp.solve")),
        "qp.iterations.sum": tracer.counts["qp.iterations"],
        "qp.solve.optimal_ratio":
            solve_errors.count(None) / solves if solves else 0.0,
        "qp.solve.infeasible": solve_errors.count("InfeasibleQpError"),
        "qp.solve.iter_cap": solve_errors.count("QpIterationError"),
        "control.step.self_ms_p50": median(own("control.step"), 1e3),
        "control.step.ms_p99": tail_percentile(durations("control.step"), 99) * 1e3,
        "control.build_model_set.ms_p50":
            median(durations("control.build_model_set"), 1e3),
        "control.fallback": tracer.counts["control.fallback"],
        "control.hold": tracer.counts["control.hold"],
        "experiment.run_closed_loop.self_s": sum(own("experiment.run_closed_loop")),
        "output.emit.s": sum(durations("output.emit")),
        "wind.generate_wind.s": sum(durations("wind.generate_wind")),
        "trace.untraced_samples_per_s": untraced_sps,
        "trace.traced_samples_per_s": traced_sps,
        "trace.slowdown": untraced_sps / traced_sps,
    }
    assert values.keys() == PER_LAYER.keys()
    return values
