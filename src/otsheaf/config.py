"""Flat dotted-key configuration for the command-line drivers.

One text format: `key = value` lines with `#` comments.  Every key lives in
a registry with a type and default; anything outside the registry is
rejected by name, so typos fail loudly instead of silently using defaults.
Flag overrides (`--set key=value`) are parsed with the same coercion and
win over file values.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

from .training import TrainConfig


def _bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _optional_int(text: str):
    low = text.strip().lower()
    if low in ("", "none"):
        return None
    return int(text)


# dotted key -> (coercion, default)
REGISTRY: dict[str, tuple] = {
    "seed": (int, 0),
    "data.path": (str, ""),
    "data.per_class": (int, 20),
    "data.val_fraction": (float, 1.0 / 3.0),
    "ot.eps": (float, 0.5),
    "train.lambda_kl": (float, 1.0),
    "train.lambda_spec": (float, 1.0),
    "train.lr": (float, 1e-3),
    "train.weight_decay": (float, 5e-4),
    "train.epochs": (int, 200),
    "train.patience": (int, 30),
    "train.delta": (float, 0.05),
    "train.dt": (float, 0.1),
    "train.gap_steps": (int, 5),
    "train.fd_check": (_bool, False),
    "train.d_v": (int, 16),
    "train.d_e": (_optional_int, None),
    "train.n_layers": (int, 1),
    "train.cheb_order": (int, 3),
    "train.cg_tol": (float, 1e-8),
    "train.cg_max_iter": (int, 1000),
    "train.a0": (float, 1.0),
    "train.b0": (float, 1.0),
    "train.gamma_cap": (float, 50.0),
    "train.optimizer": (str, "gd"),
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
        v = self.values
        return TrainConfig(
            lambda_kl=v["train.lambda_kl"],
            lambda_spec=v["train.lambda_spec"],
            lr=v["train.lr"],
            weight_decay=v["train.weight_decay"],
            epochs=v["train.epochs"],
            patience=v["train.patience"],
            delta=v["train.delta"],
            dt=v["train.dt"],
            gap_steps=v["train.gap_steps"],
            fd_check=v["train.fd_check"],
            d_v=v["train.d_v"],
            d_e=v["train.d_e"],
            n_layers=v["train.n_layers"],
            cheb_order=v["train.cheb_order"],
            cg_tol=v["train.cg_tol"],
            cg_max_iter=v["train.cg_max_iter"],
            a0=v["train.a0"],
            b0=v["train.b0"],
            gamma_cap=v["train.gamma_cap"],
            lift_eps=v["ot.eps"],
            optimizer=v["train.optimizer"],
            seed=v["seed"],
        )

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
