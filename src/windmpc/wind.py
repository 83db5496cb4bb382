"""Deterministic wind-speed profile generation for closed-loop experiments."""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .turbine import V_PARTIAL_MIN, TurbineParams

# profiles stay strictly inside the partial-load envelope
V_PROFILE_MIN = V_PARTIAL_MIN
V_PROFILE_MAX = 10.999

KINDS = ("constant", "steps", "turbulent")

TURBULENCE_TIME_CONSTANT = 2.0  # s, first-order filter on the gust noise


@dataclass(frozen=True)
class WindProfile:
    """Wind speed sampled at the controller rate over [0, duration)."""

    t: np.ndarray
    v: np.ndarray
    kind: str
    seed: int

    def __len__(self):
        return self.t.shape[0]


def generate_wind(kind, seed, duration, params: TurbineParams,
                  level=None, std=0.5) -> WindProfile:
    """Build a profile of the given kind, deterministic per seed.

    constant: fixed at ``level`` (default 7 m/s).
    steps: piecewise-constant seeded levels, guaranteed to cross the
        8.7 m/s model-switch threshold at least once.
    turbulent: mean ``level`` (default 8.7 m/s) plus zero-mean noise put
        through a first-order filter with a 2 s time constant, stationary
        standard deviation ``std``.
    All samples are clamped to [4, 11) m/s.
    """
    if duration < 0.0:
        raise DomainError("duration must be nonnegative")
    if kind not in KINDS:
        raise DomainError(f"unknown wind kind {kind!r}; expected one of {KINDS}")
    n = int(round(duration / params.t_s))
    t = np.arange(n) * params.t_s
    rng = np.random.default_rng(seed)

    if kind == "constant":
        v = np.full(n, float(level) if level is not None else 7.0)
    elif kind == "steps":
        n_levels = max(2, int(duration // 20.0) + 1)
        levels = rng.uniform(4.5, 10.5, size=n_levels)
        if levels.min() >= 8.7:
            levels[0] = 6.5
        if levels.max() < 8.7:
            levels[-1] = 9.8
        dwell = max(1, math.ceil(n / n_levels)) if n else 1
        v = np.repeat(levels, dwell)[:n]
    else:
        mean = float(level) if level is not None else 8.7
        a = math.exp(-params.t_s / TURBULENCE_TIME_CONSTANT)
        sigma_w = std * math.sqrt(1.0 - a * a)
        noise = np.empty(n)
        y = rng.normal(0.0, std)  # stationary start
        for k in range(n):
            noise[k] = y
            y = a * y + rng.normal(0.0, sigma_w)
        v = mean + noise

    v = np.clip(v, V_PROFILE_MIN, V_PROFILE_MAX)
    return WindProfile(t=t, v=v, kind=kind, seed=int(seed))
