"""Flat key = value configuration files and the experiment config bundle.

Every TurbineParams and MpcWeights field plus the harness knobs below is
addressable by its field name; CLI flags override file values.
"""

import math
from dataclasses import dataclass, fields
from pathlib import Path

from .errors import ConfigError
from .mpc import MpcWeights
from .turbine import V_PARTIAL_MIN, V_RATED, TurbineParams
from .wind import KINDS

TURBINE_KEYS = {f.name for f in fields(TurbineParams)}
WEIGHT_KEYS = {f.name for f in fields(MpcWeights)}


@dataclass
class ExperimentConfig:
    """Everything one simulate/compare invocation needs."""

    turbine: TurbineParams
    weights: MpcWeights
    duration: float = 60.0
    seed: int = 0
    wind_kind: str = "turbulent"
    wind_level: float | None = None
    wind_std: float = 0.5
    controller: str = "online"
    op_low: float = 6.4
    op_high: float = 10.0
    v_switch: float = 8.7
    hysteresis: float = 0.0
    kappa: float = 0.1


HARNESS_KEYS = {f.name for f in fields(ExperimentConfig)} - {"turbine", "weights"}
FLOAT_KEYS = tuple(f.name for f in fields(ExperimentConfig)
                   if f.type in (float, float | None))
_TYPED_FIELDS = (*fields(MpcWeights), *fields(ExperimentConfig))
INT_KEYS = {f.name for f in _TYPED_FIELDS if f.type is int}
STR_KEYS = {f.name for f in _TYPED_FIELDS if f.type is str}


def read_kv_file(path) -> dict[str, str]:
    """Parse a flat ``key = value`` file; '#' starts a comment."""
    values = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ConfigError(f"{path}:{lineno}: empty key or value")
        values[key] = value
    return values


def _coerce(key, value):
    if isinstance(value, str):
        if key in STR_KEYS:
            return value
        try:
            return int(value) if key in INT_KEYS else float(value)
        except ValueError as exc:
            raise ConfigError(f"config key {key}: bad value {value!r}") from exc
    return value


def build_config(file_values: dict | None = None,
                 overrides: dict | None = None) -> ExperimentConfig:
    """Merge config-file values with CLI overrides into an ExperimentConfig.

    Rejects unknown keys, negative durations, gust deviations, hysteresis
    bands, gains kappa or seeds, non-finite float harness keys, model points
    op_low or op_high outside [4, 11] m/s, and a bank without op_low <
    op_high and v_switch in [op_low, op_high]. Overrides win over the file.
    """
    merged: dict = {}
    for source in (file_values or {}, overrides or {}):
        for key, value in source.items():
            if value is None:
                continue
            merged[key] = _coerce(key, value)

    turbine_kwargs, weight_kwargs, harness_kwargs = {}, {}, {}
    for key, value in merged.items():
        if key in WEIGHT_KEYS:
            weight_kwargs[key] = value
        elif key in TURBINE_KEYS:
            turbine_kwargs[key] = value
        elif key in HARNESS_KEYS:
            harness_kwargs[key] = value
        else:
            raise ConfigError(f"unknown config key {key!r}")
    if harness_kwargs.get("wind_kind") not in (None, *KINDS):
        raise ConfigError(f"unknown wind kind {harness_kwargs['wind_kind']!r}")
    if harness_kwargs.get("controller") not in (None, "online", "offline", "both"):
        raise ConfigError(f"unknown controller {harness_kwargs['controller']!r}")
    for key in ("duration", "wind_std", "hysteresis", "kappa", "seed"):
        if not harness_kwargs.get(key, 0.0) >= 0.0:  # NaN fails too
            raise ConfigError(f"config key {key} must be nonnegative")
    for key in FLOAT_KEYS:
        if key in harness_kwargs and not math.isfinite(harness_kwargs[key]):
            raise ConfigError(f"config key {key} must be finite")
    for key in ("op_low", "op_high"):
        if not V_PARTIAL_MIN <= harness_kwargs.get(key, V_RATED) <= V_RATED:
            raise ConfigError(f"config key {key} must lie in [{V_PARTIAL_MIN}, "
                              f"{V_RATED}] m/s")
    try:
        turbine = TurbineParams(**turbine_kwargs)
        weights = MpcWeights(**weight_kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    config = ExperimentConfig(turbine=turbine, weights=weights, **harness_kwargs)
    if not (config.op_low < config.op_high
            and config.op_low <= config.v_switch <= config.op_high):
        raise ConfigError("config keys need op_low < op_high and v_switch in "
                          "[op_low, op_high]")
    return config


def parse_wind_spec(spec: str):
    """Split a CLI wind spec into (kind, level, std).

    Forms: "constant:7", "steps", "turbulent", "turbulent:8.7" and
    "turbulent:8.7:1.0" (mean and gust standard deviation).
    """
    kind, *rest = spec.split(":")
    if kind not in KINDS or len(rest) > 2:
        raise ConfigError(f"bad wind spec {spec!r}; expected "
                          "kind[:level[:std]] with kind one of "
                          f"{KINDS}")
    try:
        level = float(rest[0]) if rest and rest[0] else None
        std = float(rest[1]) if len(rest) == 2 else None
    except ValueError as exc:
        raise ConfigError(f"bad wind spec {spec!r}") from exc
    return kind, level, std
