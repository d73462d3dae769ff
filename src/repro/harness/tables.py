"""Paper-style result formatting.

Every bench prints rows in the layout of the corresponding paper table
or figure so EXPERIMENTS.md can juxtapose paper-vs-measured directly.
"""

from __future__ import annotations

from typing import Iterable, List, Mapping, Optional, Sequence


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence],
    title: Optional[str] = None,
    float_fmt: str = "{:.4f}",
) -> str:
    """Plain-text aligned table."""
    rendered: List[List[str]] = []
    for row in rows:
        rendered.append(
            [
                float_fmt.format(cell) if isinstance(cell, float) else str(cell)
                for cell in row
            ]
        )
    widths = [len(h) for h in headers]
    for row in rendered:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rendered:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def speedup_table(
    speedups: Mapping[str, Mapping[str, float]],
    workloads: Sequence[str],
    schemes: Sequence[str],
    title: str,
    geomeans: Optional[Mapping[str, float]] = None,
) -> str:
    """Figure 10/18/20-style table: rows = workloads, cols = schemes."""
    headers = ["workload"] + list(schemes)
    rows: List[List] = []
    for workload in workloads:
        rows.append([workload] + [speedups[workload][s] for s in schemes])
    if geomeans is not None:
        rows.append(["gmean"] + [geomeans[s] for s in schemes])
    return format_table(headers, rows, title=title)


def reduction_table(
    reductions: Mapping[str, Mapping[str, float]],
    workloads: Sequence[str],
    schemes: Sequence[str],
    title: str,
    averages: Optional[Mapping[str, float]] = None,
) -> str:
    """Figure 11/19/21-style table: MPKI reduction percentages."""
    headers = ["workload"] + list(schemes)
    rows: List[List] = []
    for workload in workloads:
        rows.append(
            [workload]
            + [f"{reductions[workload][s]:+.2f}%" for s in schemes]
        )
    if averages is not None:
        rows.append(["avg"] + [f"{averages[s]:+.2f}%" for s in schemes])
    return format_table(headers, rows, title=title)
