"""Tabular sweep results shared by the solver modules and the CLI.

A SweepResult is a flat table over the cartesian product of its axes, in
row-major order (first axis outermost). Serialization lives in the CLI
output module; this container only enforces shape and range invariants.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError

__all__ = ["Axis", "SweepResult"]


@dataclass(frozen=True)
class Axis:
    """One swept parameter: a name, a unit tag, and its sample values."""

    name: str
    unit: str
    values: tuple[float, ...]

    def __post_init__(self):
        if not self.name:
            raise ParameterError("axis needs a non-empty name")
        values = tuple(float(v) for v in self.values)
        if len(values) == 0:
            raise ParameterError(f"axis {self.name!r} has no values")
        if not np.isfinite(values).all():
            raise ParameterError(f"axis {self.name!r} has non-finite values")
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return len(self.values)


def _is_fidelity(name: str) -> bool:
    return name == "F" or name.startswith("F[")


def _is_entropy(name: str) -> bool:
    return name == "S_L" or name.startswith("S_L[")


@dataclass(frozen=True)
class SweepResult:
    """Row-major table over the axis product, plus provenance for replay."""

    kind: str
    axes: tuple[Axis, ...]
    columns: dict[str, tuple[float, ...]]
    provenance: dict[str, object] = field(default_factory=dict)
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.axes:
            raise ParameterError("sweep result needs at least one axis")
        object.__setattr__(self, "axes", tuple(self.axes))
        rows = self.n_rows
        cols = {}
        for name, values in self.columns.items():
            arr = tuple(float(v) for v in values)
            if len(arr) != rows:
                raise ParameterError(
                    f"column {name!r} has {len(arr)} entries, expected {rows}")
            if not np.isfinite(arr).all():
                raise ParameterError(f"column {name!r} has non-finite entries")
            if _is_fidelity(name) and not all(-1e-9 <= v <= 1.0 + 1e-9 for v in arr):
                raise ParameterError(f"column {name!r} leaves [0, 1]")
            if _is_entropy(name) and not all(-1e-9 <= v < 1.0 for v in arr):
                raise ParameterError(f"column {name!r} leaves [0, 1)")
            cols[name] = arr
        object.__setattr__(self, "columns", cols)
        for key, value in self.provenance.items():
            if not isinstance(value, (str, int, float, bool)):
                raise ParameterError(f"provenance entry {key!r} must be scalar")
        object.__setattr__(self, "warnings", tuple(self.warnings))

    @property
    def n_rows(self) -> int:
        n = 1
        for axis in self.axes:
            n *= len(axis)
        return n

    def axis(self, name: str) -> Axis:
        for ax in self.axes:
            if ax.name == name:
                return ax
        raise ParameterError(f"no axis named {name!r}")

    def axis_columns(self) -> dict[str, tuple[float, ...]]:
        """Axis values expanded to one entry per row (row-major order)."""
        grids = np.meshgrid(*[ax.values for ax in self.axes], indexing="ij")
        return {ax.name: tuple(float(v) for v in g.ravel())
                for ax, g in zip(self.axes, grids)}

    def to_dict(self) -> dict:
        """Plain nested structure mirroring the result, ready for JSON."""
        return {
            "kind": self.kind,
            "axes": [{"name": ax.name, "unit": ax.unit, "values": list(ax.values)}
                     for ax in self.axes],
            "columns": {name: list(vals) for name, vals in self.columns.items()},
            "provenance": dict(self.provenance),
            "warnings": list(self.warnings),
        }
