"""Rendering and persisting figure tables.

Three output forms per figure panel:

* an aligned text table (what the benches print, and what
  docs/REPRODUCING.md shows);
* a CSV file (for anyone who wants to re-plot with real tooling);
* an ASCII line chart (curve-shape comparison at a glance);
* a JSON document (for downstream tooling and archival — the same
  shape the result cache stores, one level up).
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

from repro.experiments.figures import FigureTable
from repro.viz.ascii_chart import line_chart

__all__ = ["format_table", "to_csv", "to_chart", "to_json"]


def format_table(table: FigureTable, digits: int = 2) -> str:
    """Aligned text table: one row per node count, one column per router."""
    header = ["nodes"] + list(table.routers)
    rows = [header]
    for i, n in enumerate(table.node_counts):
        rows.append(
            [str(n)]
            + [
                f"{table.values[r][i]:.{digits}f}"
                for r in table.routers
            ]
        )
    widths = [
        max(len(row[col]) for row in rows) for col in range(len(header))
    ]
    lines = [f"{table.figure_id.upper()}: {table.title}"]
    for index, row in enumerate(rows):
        lines.append(
            "  ".join(cell.rjust(width) for cell, width in zip(row, widths))
        )
        if index == 0:
            lines.append("  ".join("-" * width for width in widths))
    winners = table.winner_per_point()
    lines.append(f"best per point: {', '.join(winners)}")
    return "\n".join(lines)


def to_csv(table: FigureTable, path: str | Path) -> Path:
    """Write the panel as CSV; returns the written path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ["figure", "deployment", "metric", "nodes"] + list(table.routers)
        )
        for i, n in enumerate(table.node_counts):
            writer.writerow(
                [
                    table.figure_id,
                    table.deployment_model,
                    table.metric,
                    n,
                ]
                + [table.values[r][i] for r in table.routers]
            )
    return path


def to_json(table: FigureTable, path: str | Path) -> Path:
    """Write the panel as a JSON document; returns the written path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "figure": table.figure_id,
        "title": table.title,
        "deployment_model": table.deployment_model,
        "metric": table.metric,
        "node_counts": list(table.node_counts),
        "routers": list(table.routers),
        "values": {r: table.values[r] for r in table.routers},
    }
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return path


def to_chart(table: FigureTable, width: int = 64, height: int = 14) -> str:
    """ASCII chart of the panel's curves."""
    return line_chart(
        {r: table.values[r] for r in table.routers},
        x_values=list(table.node_counts),
        width=width,
        height=height,
        title=f"{table.figure_id.upper()} ({table.deployment_model}): "
        f"{table.metric} vs node count",
    )
