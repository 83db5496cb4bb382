"""Arithmetic shared by the benchmark runner and the suite.

Plain Python on lists of floats, so it can be tested without numpy or
windmpc.
"""

import math
import statistics

# qp_status values of a sample whose move did not come from an optimal QP
# solve: the clipped unconstrained move ("fallback") or the held previous
# input ("hold").
FAILED_STATUSES = ("fallback", "hold")

# a tail percentile is reported only when this many samples lie beyond it
MIN_BEYOND = 10


def tail_percentile(values, pct, min_beyond=MIN_BEYOND):
    """Nearest-rank percentile that has at least ``min_beyond`` samples above it.

    The p-th percentile is the value at rank ceil(p/100 * n) of the sorted
    sample. Raises ValueError when fewer than ``min_beyond`` samples rank
    above it (so p99 needs at least 1,000 samples).
    """
    n = len(values)
    if not 0.0 < pct < 100.0:
        raise ValueError(f"percentile {pct} outside (0, 100)")
    rank = max(1, math.ceil(pct / 100.0 * n))
    beyond = n - rank
    if beyond < min_beyond:
        raise ValueError(f"p{pct:g} of {n} samples has {beyond} beyond it; "
                         f"need {min_beyond}")
    return sorted(values)[rank - 1]


def count_failed(statuses):
    """Samples whose qp_status marks a fallback or a hold."""
    return sum(1 for s in statuses if s in FAILED_STATUSES)


def quartile_spread(values):
    """(q3 - q1) / median by statistics.quantiles(values, n=4)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
