"""Flat key=value configuration with VULNMINER_* environment overrides."""

from __future__ import annotations

import os
from dataclasses import dataclass, fields
from pathlib import Path

from .errors import ConfigError

ENV_PREFIX = "VULNMINER_"


@dataclass
class Config:
    model: str = "model.json"
    lexicon: str = ""                 # train, augment; empty = built-in
    tau: float = 0.5
    tau1: float = 0.2
    alpha: float = 0.6
    max_iterations: int = 2
    backend: str = "deterministic"
    endpoint: str = ""
    endpoint_token: str = ""
    timeout: float = 10.0
    seed: int = 0
    verify_hook: str = ""

    def __post_init__(self):
        if not 0.0 <= self.tau <= 1.0:
            raise ConfigError("tau must be in [0, 1]")
        if not 0.0 <= self.tau1 < 1.0:
            raise ConfigError("tau1 must be in [0, 1)")
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError("alpha must be in [0, 1]")
        if self.max_iterations < 1:
            raise ConfigError("max_iterations must be >= 1")
        if self.timeout <= 0:
            raise ConfigError("timeout must be positive")
        if self.backend not in ("deterministic", "remote", "refusal"):
            raise ConfigError(f"unknown backend {self.backend!r}")


_FIELD_TYPES = {f.name: f.type for f in fields(Config)}


def _coerce(name: str, raw: str):
    kind = _FIELD_TYPES[name]
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
    except ValueError as exc:
        raise ConfigError(f"config key {name}: {exc}")
    return raw


def load_config(path: str | Path | None = None,
                overrides: dict | None = None,
                env: dict | None = None) -> Config:
    """File values, then VULNMINER_* environment, then CLI overrides."""
    values: dict = {}
    if path:
        for lineno, raw in enumerate(
                Path(path).read_text(encoding="utf-8").splitlines(), 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key = value")
            key, _, value = line.partition("=")
            key = key.strip().lower()
            if key not in _FIELD_TYPES:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            values[key] = _coerce(key, value.strip())
    env = os.environ if env is None else env
    for key in _FIELD_TYPES:
        env_key = ENV_PREFIX + key.upper()
        if env_key in env:
            values[key] = _coerce(key, env[env_key])
    for key, value in (overrides or {}).items():
        if value is not None:
            values[key] = value
    return Config(**values)
