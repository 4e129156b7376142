"""Serialization of sweep results: CSV, JSON, and self-contained SVG.

Every emitter is deterministic: no timestamps, fixed palettes, fixed
ordering, so identical inputs produce byte-identical files. CSV carries
the provenance as a trailing comment block; JSON mirrors the result
structure; SVG renders line charts (or a heatmap for the lattice task)
with inline styling only.
"""

from __future__ import annotations

import json

from ..errors import ParameterError
from ..results import SweepResult

__all__ = ["emit", "render_csv", "render_json", "render_svg"]

# tasks whose CSV pivots the outer axis into per-value column groups
_PIVOTS = {
    "fig1": ("C1", ("theta",)),
    "fig2": ("k0", ("F", "S_L")),
    "fig4": ("phi", ("F", "theta")),
}

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
            "#8c564b", "#17becf", "#7f7f7f", "#bcbd22", "#e377c2")

# dark-to-bright heatmap anchors, interpolated linearly in RGB
_HEAT_STOPS = ((0.00, (68, 1, 84)), (0.25, (59, 82, 139)),
               (0.50, (33, 145, 140)), (0.75, (94, 201, 98)),
               (1.00, (253, 231, 37)))


def _fmt(value: float) -> str:
    return f"{value:.9g}"


def _provenance_block(result: SweepResult) -> list[str]:
    lines = ["# provenance:"]
    for key in sorted(result.provenance):
        lines.append(f"#   {key} = {result.provenance[key]}")
    for note in result.warnings:
        lines.append(f"#   warning: {note}")
    return lines


def render_csv(result: SweepResult) -> str:
    """CSV table (pivoted for the curve-family tasks) + provenance block."""
    pivot = _PIVOTS.get(result.kind)
    lines = []
    if pivot is not None and len(result.axes) == 2 and result.axes[0].name == pivot[0]:
        outer, inner = result.axes
        _, value_cols = pivot
        n_in = len(inner)
        extra = [c for c in result.columns if c not in value_cols]
        header = [inner.name]
        for col in value_cols:
            header += [f"{col}[{outer.name}={v:g}]" for v in outer.values]
        header += extra
        lines.append(",".join(header))
        for j, x in enumerate(inner.values):
            row = [_fmt(x)]
            for col in value_cols:
                vals = result.columns[col]
                row += [_fmt(vals[i * n_in + j]) for i in range(len(outer))]
            row += [_fmt(result.columns[c][j]) for c in extra]
            lines.append(",".join(row))
    else:
        axis_cols = result.axis_columns()
        header = list(axis_cols) + list(result.columns)
        lines.append(",".join(header))
        # each column formatted once, the rows joined from the formatted columns
        cols = [map(_fmt, values) for values in (*axis_cols.values(), *result.columns.values())]
        lines += map(",".join, zip(*cols))
    lines += _provenance_block(result)
    return "\n".join(lines) + "\n"


def _json_block(brackets: str, items: list[str], depth: int) -> str:
    """Entries as json.dumps(..., indent=2) writes a dict or list depth levels deep."""
    if not items:
        return brackets
    pad = "\n" + "  " * (depth + 1)
    return brackets[0] + pad + ("," + pad).join(items) + pad[:-2] + brackets[1]


def _json_floats(values: tuple[float, ...], depth: int) -> str:
    return _json_block("[]", list(map(float.__repr__, values)), depth)


def _json_nested(value, depth: int) -> str:
    """json.dumps(value, indent=2) as it reads depth levels deep."""
    return json.dumps(value, indent=2).replace("\n", "\n" + "  " * depth)


def render_json(result: SweepResult) -> str:
    """JSON document mirroring the SweepResult structure.

    The text is json.dumps(result.to_dict(), indent=2) + "\n", byte for
    byte. With an indent, json encodes in pure Python, which took about
    9.5 ms for fig3's 5120 fidelities; so the axis values and the columns,
    which SweepResult holds as finite floats, are written here by joining
    float.__repr__ (what json writes for a finite float) at json's indent.
    The strings, the provenance and the warnings still go through
    json.dumps, so their escaping and number forms are json's own.
    """
    axes = [_json_block("{}", [f'"name": {json.dumps(ax.name)}',
                               f'"unit": {json.dumps(ax.unit)}',
                               f'"values": {_json_floats(ax.values, 3)}'], 2)
            for ax in result.axes]
    columns = [f"{json.dumps(name)}: {_json_floats(values, 2)}"
               for name, values in result.columns.items()]
    return _json_block("{}", [
        f'"kind": {json.dumps(result.kind)}',
        f'"axes": {_json_block("[]", axes, 1)}',
        f'"columns": {_json_block("{}", columns, 1)}',
        f'"provenance": {_json_nested(dict(result.provenance), 1)}',
        f'"warnings": {_json_nested(list(result.warnings), 1)}',
    ], 0) + "\n"


def _heat_color(u: float) -> str:
    u = min(max(u, 0.0), 1.0)
    for (u0, c0), (u1, c1) in zip(_HEAT_STOPS, _HEAT_STOPS[1:]):
        if u <= u1:
            w = 0.0 if u1 == u0 else (u - u0) / (u1 - u0)
            rgb = tuple(round(a + w * (b - a)) for a, b in zip(c0, c1))
            return f"rgb({rgb[0]},{rgb[1]},{rgb[2]})"
    return "rgb(253,231,37)"


def _ticks(lo: float, hi: float, n: int = 6) -> list[float]:
    if hi == lo:
        return [lo]
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n)]


def _svg_header(width: int, height: int, title: str) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}" '
        f'font-family="sans-serif" font-size="12">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="18" text-anchor="middle" '
        f'font-size="14">{title}</text>',
    ]


def _line_chart(result: SweepResult) -> str:
    """Polyline chart: one series per outer-axis value and data column."""
    width, height = 640, 420
    ml, mr, mt, mb = 60, 150, 30, 45
    pw, ph = width - ml - mr, height - mt - mb
    if len(result.axes) == 2:
        outer, inner = result.axes
        n_in = len(inner)
        series = []
        for col, vals in result.columns.items():
            if col == "gauge":
                continue
            for i, ov in enumerate(outer.values):
                label = f"{col} {outer.name}={ov:g}" if len(outer) > 1 else col
                series.append((label, vals[i * n_in: (i + 1) * n_in]))
        xs = inner.values
        x_name = inner.name
    else:
        xs = result.axes[0].values
        x_name = result.axes[0].name
        series = list(result.columns.items())
    x_lo, x_hi = min(xs), max(xs)
    all_y = [v for _, ys in series for v in ys]
    y_lo, y_hi = min(0.0, min(all_y)), max(all_y)
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def sx(v: float) -> float:
        return ml + (v - x_lo) / (x_hi - x_lo) * pw

    def sy(v: float) -> float:
        return mt + ph - (v - y_lo) / (y_hi - y_lo) * ph

    parts = _svg_header(width, height, f"{result.kind}: {x_name} sweep")
    for tv in _ticks(x_lo, x_hi):
        x = sx(tv)
        parts.append(f'<line x1="{x:.2f}" y1="{mt}" x2="{x:.2f}" '
                     f'y2="{mt + ph}" stroke="#dddddd" stroke-width="1"/>')
        parts.append(f'<text x="{x:.2f}" y="{mt + ph + 16}" '
                     f'text-anchor="middle">{tv:.3g}</text>')
    for tv in _ticks(y_lo, y_hi):
        y = sy(tv)
        parts.append(f'<line x1="{ml}" y1="{y:.2f}" x2="{ml + pw}" '
                     f'y2="{y:.2f}" stroke="#dddddd" stroke-width="1"/>')
        parts.append(f'<text x="{ml - 6}" y="{y + 4:.2f}" '
                     f'text-anchor="end">{tv:.3g}</text>')
    parts.append(f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" '
                 f'fill="none" stroke="#333333"/>')
    parts.append(f'<text x="{ml + pw / 2:.1f}" y="{height - 8}" '
                 f'text-anchor="middle">{x_name}</text>')
    for k, (label, ys) in enumerate(series):
        color = _PALETTE[k % len(_PALETTE)]
        pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
        parts.append(f'<polyline points="{pts}" fill="none" '
                     f'stroke="{color}" stroke-width="1.5"/>')
        ly = mt + 14 + 16 * k
        parts.append(f'<line x1="{ml + pw + 8}" y1="{ly - 4}" '
                     f'x2="{ml + pw + 28}" y2="{ly - 4}" '
                     f'stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{ml + pw + 32}" y="{ly}">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _heatmap(result: SweepResult) -> str:
    """Cell grid over the two axes, colored by the first data column."""
    outer, inner = result.axes
    col_name = next(iter(result.columns))
    vals = result.columns[col_name]
    v_lo, v_hi = min(vals), max(vals)
    span = v_hi - v_lo or 1.0
    width, height = 640, 420
    ml, mr, mt, mb = 60, 90, 30, 45
    pw, ph = width - ml - mr, height - mt - mb
    n_o, n_i = len(outer), len(inner)
    cw, ch = pw / n_o, ph / n_i
    parts = _svg_header(width, height,
                        f"{result.kind}: {col_name}({outer.name}, {inner.name})")
    for i in range(n_o):
        for j in range(n_i):
            u = (vals[i * n_i + j] - v_lo) / span
            x = ml + i * cw
            y = mt + ph - (j + 1) * ch
            parts.append(f'<rect x="{x:.2f}" y="{y:.2f}" width="{cw + 0.5:.2f}" '
                         f'height="{ch + 0.5:.2f}" fill="{_heat_color(u)}"/>')
    parts.append(f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" '
                 f'fill="none" stroke="#333333"/>')
    for tv in _ticks(outer.values[0], outer.values[-1]):
        x = ml + (tv - outer.values[0]) / (outer.values[-1] - outer.values[0]) * pw
        parts.append(f'<text x="{x:.2f}" y="{mt + ph + 16}" '
                     f'text-anchor="middle">{tv:.3g}</text>')
    for tv in _ticks(inner.values[0], inner.values[-1]):
        y = mt + ph - (tv - inner.values[0]) / (inner.values[-1] - inner.values[0]) * ph
        parts.append(f'<text x="{ml - 6}" y="{y + 4:.2f}" '
                     f'text-anchor="end">{tv:.3g}</text>')
    parts.append(f'<text x="{ml + pw / 2:.1f}" y="{height - 8}" '
                 f'text-anchor="middle">{outer.name}</text>')
    bar_x, bar_w, n_strip = ml + pw + 20, 18, 40
    for s in range(n_strip):
        u = (s + 0.5) / n_strip
        y = mt + ph - (s + 1) / n_strip * ph
        parts.append(f'<rect x="{bar_x}" y="{y:.2f}" width="{bar_w}" '
                     f'height="{ph / n_strip + 0.5:.2f}" fill="{_heat_color(u)}"/>')
    parts.append(f'<text x="{bar_x + bar_w + 4}" y="{mt + 10}">{v_hi:.3g}</text>')
    parts.append(f'<text x="{bar_x + bar_w + 4}" y="{mt + ph}">{v_lo:.3g}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_svg(result: SweepResult) -> str:
    if result.kind == "fig3" and len(result.axes) == 2:
        return _heatmap(result)
    return _line_chart(result)


RENDERERS = {"csv": render_csv, "json": render_json, "svg": render_svg}


def emit(result: SweepResult, format: str, path: str) -> None:
    """Write the result to path in the requested format."""
    if format not in RENDERERS:
        raise ParameterError(f"unknown output format {format!r}")
    text = RENDERERS[format](result)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
