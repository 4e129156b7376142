"""Run configuration: flat dotted-key documents with typed parsing.

A config file is plain text, one `key = value` per line, `#` comments.
Values are typed per key (scalars, or comma-separated float lists).
Optional keys left at None are omitted on emit, so parse(emit(c)) == c
holds exactly; the sha of the emitted text, less the output keys,
identifies a computation.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

from ..errors import ConfigError

__all__ = ["RunConfig", "config_hash", "emit_config", "parse_config"]

TASKS = ("coeffs", "fig1", "fig2", "fig3", "fig4", "validate")
FORMATS = ("csv", "json", "svg")

# dotted key -> (dataclass attribute, value kind)
KEYMAP = {
    "task": ("task", "str"),
    "profile.shape": ("profile_shape", "str"),
    "profile.width": ("profile_width", "float"),
    "k0.list": ("k0_values", "floats"),
    "c1.list": ("c1_values", "floats"),
    "phi.min": ("phi_min", "float"),
    "phi.max": ("phi_max", "float"),
    "phi.n": ("phi_n", "int"),
    "lattice.k0.min": ("lattice_k0_min", "float"),
    "lattice.k0.max": ("lattice_k0_max", "float"),
    "lattice.k0.n": ("lattice_k0_n", "int"),
    "lattice.phi.n": ("lattice_phi_n", "int"),
    "headon.separation": ("headon_separation", "float"),
    "headon.v1": ("headon_v1", "float"),
    "headon.v2": ("headon_v2", "float"),
    "headon.k0": ("headon_k0", "float"),
    "headon.phis": ("headon_phis", "floats"),
    "headon.time_n": ("headon_time_n", "int"),
    "grid.core_n": ("grid_core_n", "int"),
    "grid.halfwidth": ("grid_halfwidth", "float"),
    "output.format": ("output_format", "str"),
    "output.path": ("output_path", "str"),
}

_ATTR_TO_KEY = {attr: key for key, (attr, _) in KEYMAP.items()}
_SEMANTIC_KEYS = tuple(key for key in KEYMAP if not key.startswith("output."))


@dataclass(frozen=True)
class RunConfig:
    """All knobs of a run; None means 'use the task default'."""

    task: str = "coeffs"
    profile_shape: str = "gaussian"
    profile_width: float | None = None
    k0_values: tuple[float, ...] | None = None
    c1_values: tuple[float, ...] | None = None
    phi_min: float | None = None
    phi_max: float | None = None
    phi_n: int | None = None
    lattice_k0_min: float = 0.1
    lattice_k0_max: float = 8.0
    lattice_k0_n: int = 80
    lattice_phi_n: int = 64
    headon_separation: float = 10.0
    headon_v1: float = 5000.0
    headon_v2: float = -5000.0
    headon_k0: float = 0.001
    headon_phis: tuple[float, ...] = (math.pi / 4, math.pi / 2,
                                      3 * math.pi / 4, math.pi)
    headon_time_n: int = 121
    grid_core_n: int = 401
    grid_halfwidth: float = 10.0
    output_format: str = "csv"
    output_path: str | None = None

    def __post_init__(self):
        if self.task not in TASKS:
            raise ConfigError(f"unknown task {self.task!r}; expected one of {TASKS}")
        if self.profile_shape not in ("gaussian", "square"):
            raise ConfigError(f"unsupported profile.shape {self.profile_shape!r}")
        if self.output_format not in FORMATS:
            raise ConfigError(f"unknown output.format {self.output_format!r}")
        for name in ("k0_values", "c1_values", "headon_phis"):
            val = getattr(self, name)
            if val is not None:
                val = tuple(float(v) for v in val)
                if len(val) == 0:
                    raise ConfigError(f"{_ATTR_TO_KEY[name]} must be non-empty")
                object.__setattr__(self, name, val)
        for key, (attr, kind) in KEYMAP.items():
            val = getattr(self, attr)
            vals = (val,) if kind == "float" else val if kind == "floats" else ()
            if val is not None and not all(math.isfinite(v) for v in vals):
                raise ConfigError(f"{key} must be finite, got {val!r}")
        if self.profile_width is not None and self.profile_width <= 0.0:
            raise ConfigError("profile.width must be positive")
        if self.profile_width is not None and self.profile_shape != "square":
            raise ConfigError("profile.width is read for square pulses only, "
                              f"not for profile.shape = {self.profile_shape}")
        if self.k0_values is not None and any(v <= 0 for v in self.k0_values):
            raise ConfigError("k0.list entries must be positive")
        if self.phi_n is not None and self.phi_n < 2:
            raise ConfigError("phi.n must be at least 2")
        if (self.phi_min is not None and self.phi_max is not None
                and not self.phi_min < self.phi_max):
            raise ConfigError("phi.min must be below phi.max")
        for name in ("lattice_k0_n", "lattice_phi_n", "headon_time_n", "grid_core_n"):
            if getattr(self, name) < 2:
                raise ConfigError(f"{_ATTR_TO_KEY[name]} must be at least 2")
        if not self.lattice_k0_min < self.lattice_k0_max:
            raise ConfigError("lattice.k0.min must be below lattice.k0.max")
        if self.lattice_k0_min <= 0.0:
            raise ConfigError("lattice.k0.min must be positive")
        if self.headon_separation < 0.0:
            raise ConfigError("headon.separation must be non-negative")
        if self.headon_v1 == self.headon_v2:
            raise ConfigError("headon velocities must differ")
        if self.headon_k0 <= 0.0:
            raise ConfigError("headon.k0 must be positive")
        if self.grid_halfwidth <= 0.0:
            raise ConfigError("grid.halfwidth must be positive")


def _format_value(value, kind: str) -> str:
    if kind == "float":
        return repr(float(value))
    if kind == "int":
        return str(int(value))
    if kind == "floats":
        return ", ".join(repr(float(v)) for v in value)
    return str(value)


def _parse_value(text: str, kind: str, key: str):
    text = text.strip()
    try:
        if kind == "float":
            return float(text)
        if kind == "int":
            return int(text)
        if kind == "floats":
            parts = [p.strip() for p in text.split(",") if p.strip()]
            if not parts:
                raise ValueError("empty list")
            return tuple(float(p) for p in parts)
        return text
    except ValueError as exc:
        raise ConfigError(f"bad value for {key!r}: {text!r} ({exc})") from None


def _config_text(config: RunConfig, keys) -> str:
    lines = []
    for key in sorted(keys):
        attr, kind = KEYMAP[key]
        value = getattr(config, attr)
        if value is None:
            continue
        lines.append(f"{key} = {_format_value(value, kind)}")
    return "\n".join(lines) + "\n"


def emit_config(config: RunConfig) -> str:
    """Canonical text form: sorted keys, one per line, None keys omitted."""
    return _config_text(config, KEYMAP)


def parse_config(text: str) -> RunConfig:
    """Parse a config document; unknown keys and bad values are errors."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in KEYMAP:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        attr, kind = KEYMAP[key]
        if attr in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        values[attr] = _parse_value(val, kind, key)
    try:
        return RunConfig(**values)
    except TypeError as exc:
        raise ConfigError(str(exc)) from None


def config_hash(config: RunConfig) -> str:
    """Short digest of the canonical config text, for provenance.

    Only the keys that shape the computed numbers are hashed: where and in
    which format the result is written (output.path, output.format) leaves
    the digest unchanged.
    """
    text = _config_text(config, _SEMANTIC_KEYS)
    return hashlib.sha256(text.encode()).hexdigest()[:12]
