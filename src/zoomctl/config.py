"""Plain-text key=value experiment configs.

Grammar: one ``key = value`` pair per line, ``#`` starts a comment, blank
lines ignored.  Keys are namespaced flat:

    system     A.kind plus the family's named parameters (A.mean, ...),
               same for W.*
    strategy   P, L, M0, K, c
    experiment horizon, trials, seed, policy, alpha, policy.range

Unknown keys are rejected with the offending line number.  The strategy
block is required in full for the adaptive policy; the static baseline
needs only L and M0; the oracle policies need no strategy keys (defaults
are filled in so reports can still echo a parameter block).
"""

from __future__ import annotations

import math
from pathlib import Path

from zoomctl.codec import StrategyParams
from zoomctl.distributions import KIND_FIELDS, DistributionSpec, moments
from zoomctl.harness import POLICY_KINDS, ExperimentConfig, Policy


class ConfigError(ValueError):
    """Config rejected; carries an optional 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        self.message = message
        super().__init__(message if line is None else f"line {line}: {message}")


_STRATEGY_KEYS = {"P": float, "L": int, "M0": float, "K": float, "c": float}
_EXPERIMENT_KEYS = {
    "horizon": int,
    "trials": int,
    "seed": int,
    "policy": str,
    "alpha": float,
    "policy.range": float,
}

# defaults used when a policy does not require a strategy block
_FALLBACK_STRATEGY = {"P": 2.0, "L": 4, "M0": 1.0, "K": 2.0, "c": 0.2}


def _known_keys() -> set[str]:
    keys = set(_STRATEGY_KEYS) | set(_EXPERIMENT_KEYS)
    for side in ("A", "W"):
        keys.add(f"{side}.kind")
        for fields in KIND_FIELDS.values():
            keys.update(f"{side}.{f}" for f in fields)
    return keys


KNOWN_KEYS = _known_keys()


def parse_config_text(text: str) -> dict[str, tuple[str, int]]:
    """key -> (raw value, line number); syntax and key-name validation only."""
    entries: dict[str, tuple[str, int]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"expected key = value, got {line!r}", lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in KNOWN_KEYS:
            raise ConfigError(f"unknown key {key!r}", lineno)
        if key in entries:
            raise ConfigError(f"duplicate key {key!r} (first set on line {entries[key][1]})", lineno)
        if not value:
            raise ConfigError(f"empty value for {key!r}", lineno)
        entries[key] = (value, lineno)
    return entries


def apply_overrides(entries: dict[str, tuple[str, int]], overrides: list[str]) -> None:
    """--set key=value overrides; line number 0 marks the command line."""
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, value = (part.strip() for part in item.split("=", 1))
        if key not in KNOWN_KEYS:
            raise ConfigError(f"unknown key {key!r} in --set")
        entries[key] = (value, 0)


def _convert(key: str, raw: str, line: int, typ):
    try:
        if typ is int:
            return int(raw)
        if typ is float:
            val = float(raw)
            if not math.isfinite(val):
                raise ValueError
            return val
        return raw
    except ValueError:
        raise ConfigError(f"{key} expects {typ.__name__}, got {raw!r}", line) from None


def _build_spec(side: str, entries: dict[str, tuple[str, int]]) -> DistributionSpec:
    key = f"{side}.kind"
    if key not in entries:
        raise ConfigError(f"missing {key}")
    kind, line = entries[key][0], entries[key][1]
    if kind not in KIND_FIELDS:
        raise ConfigError(f"{key} must be one of {sorted(KIND_FIELDS)}, got {kind!r}", line)
    values = []
    for f in KIND_FIELDS[kind]:
        pkey = f"{side}.{f}"
        if pkey not in entries:
            if kind == "student_t" and f == "shift":
                values.append(0.0)
                continue
            raise ConfigError(f"{kind} law needs {pkey}")
        values.append(_convert(pkey, entries[pkey][0], entries[pkey][1], float))
    # reject parameters that belong to another family
    for other_kind, fields in KIND_FIELDS.items():
        if other_kind == kind:
            continue
        for f in fields:
            pkey = f"{side}.{f}"
            if pkey in entries and f not in KIND_FIELDS[kind]:
                raise ConfigError(
                    f"{pkey} does not apply to {side}.kind={kind}", entries[pkey][1]
                )
    try:
        return DistributionSpec(kind, tuple(values))
    except ValueError as exc:
        raise ConfigError(f"{side}: {exc}", line) from None


def build_experiment(entries: dict[str, tuple[str, int]]) -> ExperimentConfig:
    """Validate entries and assemble the experiment description.

    Raises ConfigError for structural problems, including a gain law that
    fails the stabilizability requirement sigma_A^2 < 1 and an adaptive
    strategy whose bound on the first control, |mu_A|*P*M0, is not finite.
    """
    a_spec = _build_spec("A", entries)
    w_spec = _build_spec("W", entries)

    missing = [k for k in ("horizon", "trials", "seed", "policy") if k not in entries]
    if missing:
        raise ConfigError(f"missing experiment keys: {', '.join(missing)}")
    horizon = _convert("horizon", *entries["horizon"], int)
    trials = _convert("trials", *entries["trials"], int)
    seed = _convert("seed", *entries["seed"], int)
    policy_kind = entries["policy"][0]
    if policy_kind not in POLICY_KINDS:
        raise ConfigError(
            f"policy must be one of {POLICY_KINDS}, got {policy_kind!r}",
            entries["policy"][1],
        )
    alpha = _convert("alpha", *entries["alpha"], float) if "alpha" in entries else 4.5

    if policy_kind == "adaptive_fixed_rate":
        required = set(_STRATEGY_KEYS)
    elif policy_kind == "static_quantizer":
        required = {"L", "M0"}
    else:
        required = set()
    missing = [k for k in sorted(required) if k not in entries]
    if missing:
        raise ConfigError(
            f"policy {policy_kind} requires strategy keys: {', '.join(missing)}"
        )

    strategy = dict(_FALLBACK_STRATEGY)
    for k, typ in _STRATEGY_KEYS.items():
        if k in entries:
            strategy[k] = _convert(k, *entries[k], typ)
    try:
        params = StrategyParams(**strategy)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    range_val = None
    if "policy.range" in entries:
        if policy_kind != "static_quantizer":
            raise ConfigError(
                "policy.range applies to static_quantizer only", entries["policy.range"][1]
            )
        range_val = _convert("policy.range", *entries["policy.range"], float)
    try:
        policy = Policy(policy_kind, range_val)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    _, var_a = moments(a_spec)
    if var_a >= 1.0:
        raise ConfigError(
            f"A has sigma_A^2 = {var_a:.4g} >= 1: the system is not second-moment "
            "stabilizable at any rate"
        )

    try:
        return ExperimentConfig(
            a_spec=a_spec,
            w_spec=w_spec,
            params=params,
            policy=policy,
            horizon=horizon,
            trials=trials,
            master_seed=seed,
            alpha=alpha,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def load_config(path, overrides: list[str] | None = None) -> ExperimentConfig:
    text = Path(path).read_text()
    entries = parse_config_text(text)
    if overrides:
        apply_overrides(entries, overrides)
    return build_experiment(entries)
