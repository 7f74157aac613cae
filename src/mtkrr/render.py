"""Every data file the commands write: the one place that decides their bytes.

Rows end in "\\n" on every platform; floats are written as Python prints
them, the shortest string that reads back to the same double; JSON is
indented by 2 and ends in a newline.  The SVG heatmap is hand-rolled on
purpose: the output must be byte-identical across runs, which rules out
plotting backends that embed hashed ids or timestamps.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import fields

CELL = 64
MARGIN_LEFT = 110
MARGIN_TOP = 70
MARGIN_BOTTOM = 30
LEGEND_WIDTH = 150


def _color(value: float, lo: float, hi: float) -> str:
    """Diverging blue-white-red ramp anchored at 1.0 (ratio parity)."""
    if value <= 1.0:
        t = 0.0 if lo >= 1.0 else max(0.0, min(1.0, (1.0 - value) / (1.0 - lo)))
        r, g, b = (int(round(255 - t * (255 - 33))), int(round(255 - t * (255 - 102))), 255)
    else:
        t = 0.0 if hi <= 1.0 else max(0.0, min(1.0, (value - 1.0) / (hi - 1.0)))
        r, g, b = (255, int(round(255 - t * (255 - 60))), int(round(255 - t * (255 - 40))))
    return f"#{r:02x}{g:02x}{b:02x}"


def svg_heatmap(
    values: list[list[float]],
    halfwidths: list[list[float]],
    row_name: str,
    row_labels: list[float],
    col_name: str,
    col_labels: list[float],
    title: str,
    path: str,
) -> None:
    """Write a grid heatmap of mean ratios; each cell prints value +- half-width."""
    n_rows, n_cols = len(values), len(values[0])
    flat = [v for row in values for v in row]
    lo, hi = min(flat), max(flat)
    width = MARGIN_LEFT + n_cols * CELL + LEGEND_WIDTH
    height = MARGIN_TOP + n_rows * CELL + MARGIN_BOTTOM
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="monospace" font-size="11">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{MARGIN_LEFT}" y="20" font-size="14">{title}</text>',
        f'<text x="{MARGIN_LEFT + n_cols * CELL / 2:.1f}" y="{MARGIN_TOP - 28}" text-anchor="middle">{col_name}</text>',
        f'<text x="18" y="{MARGIN_TOP + n_rows * CELL / 2:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 18 {MARGIN_TOP + n_rows * CELL / 2:.1f})">{row_name}</text>',
    ]
    for j, cl in enumerate(col_labels):
        x = MARGIN_LEFT + j * CELL + CELL / 2
        parts.append(f'<text x="{x:.1f}" y="{MARGIN_TOP - 10}" text-anchor="middle">{cl:g}</text>')
    for i, rl in enumerate(row_labels):
        y = MARGIN_TOP + i * CELL + CELL / 2 + 4
        parts.append(f'<text x="{MARGIN_LEFT - 8}" y="{y:.1f}" text-anchor="end">{rl:g}</text>')
    for i in range(n_rows):
        for j in range(n_cols):
            x, y = MARGIN_LEFT + j * CELL, MARGIN_TOP + i * CELL
            parts.append(
                f'<rect x="{x}" y="{y}" width="{CELL}" height="{CELL}" '
                f'fill="{_color(values[i][j], lo, hi)}" stroke="#888"/>'
            )
            parts.append(
                f'<text x="{x + CELL / 2:.1f}" y="{y + CELL / 2:.1f}" text-anchor="middle">{values[i][j]:.3f}</text>'
            )
            parts.append(
                f'<text x="{x + CELL / 2:.1f}" y="{y + CELL / 2 + 14:.1f}" text-anchor="middle" '
                f'font-size="9" fill="#444">&#177;{halfwidths[i][j]:.3f}</text>'
            )
    # legend: three reference swatches (min, parity, max)
    lx = MARGIN_LEFT + n_cols * CELL + 20
    for k, (label, val) in enumerate((("min", lo), ("1.0", 1.0), ("max", hi))):
        y = MARGIN_TOP + k * 28
        parts.append(f'<rect x="{lx}" y="{y}" width="20" height="20" fill="{_color(val, lo, hi)}" stroke="#888"/>')
        parts.append(f'<text x="{lx + 28}" y="{y + 14}">{label} = {val:.3f}</text>')
    parts.append("</svg>")
    write_lines(path, parts)


def write_lines(path: str, lines: list[str]) -> None:
    """Write ``lines``, each ended by "\\n"."""
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")


def write_csv(path: str, rows) -> None:
    """Write ``rows`` as CSV; a cell is written by ``str``, for a Python float its shortest round-trip form."""
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def write_json(path: str, payload: dict) -> None:
    """Write ``payload`` as JSON indented by 2; tuples become lists, nan and inf stay NaN and Infinity."""
    write_lines(path, [json.dumps(payload, indent=2)])


def write_report_json(report, path: str) -> None:
    """An experiment report: its fields in declaration order, with the ratios moved to the end."""
    payload = {field.name: getattr(report, field.name) for field in fields(report) if field.name != "ratios"}
    write_json(path, payload | {"spec": report.spec.to_dict(), "ratios": report.ratios})


def emit_table(reports, path: str) -> None:
    """Write one CSV row per experiment report, in the layout of the comparison tables."""
    if not reports:
        raise ValueError("no reports to tabulate")
    rows = [("C2", "r", "beta_or_m", "b_bar", "pi1", "mean_ratio", "std_ratio", "pi2")]
    for rep in reports:
        s = rep.spec
        r = s.c2 / s.c1 if s.c1 > 0 else math.inf
        rows.append((s.c2, r, s.beta_or_m, rep.b_bar, rep.pi1, rep.mean_ratio, rep.std_ratio, rep.pi2))
    write_csv(path, rows)


def emit_heatmap(reports, row_name: str, row_values: list[float], col_name: str, col_values: list[float],
                 path: str, svg_path: str | None = None, title: str = "") -> None:
    """Write the heatmap of the reports, given row by row, as CSV and, with ``svg_path``, as SVG.

    Both are drawn from one pair of grids: the CSV holds the grid of mean ratios followed by the matching
    grid of ci95 half-widths, and the SVG prints each cell's mean +- half-width.
    """
    width = len(col_values)
    if not reports or len(reports) != len(row_values) * width:
        raise ValueError("report grid does not match the declared axes")
    grid = [reports[i * width:(i + 1) * width] for i in range(len(row_values))]
    means = [[rep.mean_ratio for rep in row] for row in grid]
    halves = [[(rep.ci95[1] - rep.ci95[0]) / 2.0 for rep in row] for row in grid]
    header = [f"{row_name}\\{col_name}", *col_values]
    write_csv(path, [["# mean_ratio"], header, *([rv, *row] for rv, row in zip(row_values, means)),
                     ["# ci95_halfwidth"], header, *([rv, *row] for rv, row in zip(row_values, halves))])
    if svg_path:
        svg_heatmap(means, halves, row_name, row_values, col_name, col_values, title, svg_path)
