"""Flat dotted-key configuration for the command-line drivers.

One text format: `key = value` lines with `#` comments.  Every key lives in
a registry with a type and default; anything outside the registry is
rejected by name, so typos fail loudly instead of silently using defaults.
Flag overrides (`--set key=value`) are parsed with the same coercion and
win over file values.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields
from pathlib import Path

from .training import TrainConfig


# TrainConfig annotation -> coercion; the annotations are strings under
# postponed evaluation
_COERCIONS = {"int": int, "float": float, "str": str}


def _train_key(name: str) -> str:
    """A TrainConfig field's key: train.<field>, and seed for the seed."""
    return name if name == "seed" else f"train.{name}"


# dotted key -> (coercion, default); trainer defaults come from TrainConfig
REGISTRY: dict[str, tuple] = {
    "data.path": (str, ""),
    "data.per_class": (int, 20),
    "data.val_fraction": (float, 1.0 / 3.0),
    **{_train_key(f.name): (_COERCIONS[f.type], f.default)
       for f in fields(TrainConfig)},
}


def default_values() -> dict:
    return {key: default for key, (_, default) in REGISTRY.items()}


def coerce(key: str, text: str):
    """Parse a raw string for a registered key; unknown keys are an error."""
    if key not in REGISTRY:
        raise KeyError(f"unknown config key: {key!r}")
    caster, _ = REGISTRY[key]
    try:
        return caster(text)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"config key {key!r}: cannot parse {text!r}") from exc


def parse_config_file(path) -> dict:
    """Read `key = value` lines; comments (#) and blank lines are skipped."""
    out = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        key, text = (part.strip() for part in line.split("=", 1))
        out[key] = coerce(key, text)
    return out


def parse_overrides(pairs) -> dict:
    """Parse `key=value` strings from --set flags."""
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise ValueError(f"override must look like key=value: {pair!r}")
        key, text = (part.strip() for part in pair.split("=", 1))
        out[key] = coerce(key, text)
    return out


@dataclass
class RunConfig:
    """Merged configuration: defaults, then file values, then overrides."""

    values: dict
    out_dir: Path

    @property
    def seed(self) -> int:
        return self.values["seed"]

    def __getitem__(self, key: str):
        return self.values[key]

    def train_config(self) -> TrainConfig:
        return TrainConfig(**{f.name: self.values[_train_key(f.name)]
                              for f in fields(TrainConfig)})

    def hash(self) -> str:
        """Stable digest of the merged configuration, for run manifests."""
        lines = "\n".join(f"{k}={self.values[k]!r}" for k in sorted(self.values))
        return hashlib.sha256(lines.encode()).hexdigest()[:16]


def build_config(config_file=None, overrides=(), out_dir="runs") -> RunConfig:
    values = default_values()
    if config_file is not None:
        values.update(parse_config_file(config_file))
    values.update(parse_overrides(overrides))
    return RunConfig(values=values, out_dir=Path(out_dir))
