"""Plain-text reporting for the benchmark harness.

Each benchmark prints the rows/series of the table or figure it reproduces
in a compact fixed-width format, so the output can be compared side by side
with the paper (see EXPERIMENTS.md).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

__all__ = ["format_table", "print_table"]


def format_table(rows: Sequence[Dict[str, object]], title: str = "") -> str:
    """Format a list of dict rows as an aligned text table."""
    lines: List[str] = []
    if title:
        lines.append(title)
        lines.append("-" * len(title))
    if not rows:
        lines.append("(no rows)")
        return "\n".join(lines)
    columns = list(rows[0].keys())
    widths = {
        column: max(len(str(column)), *(len(str(row.get(column, ""))) for row in rows))
        for column in columns
    }
    header = "  ".join(str(column).ljust(widths[column]) for column in columns)
    lines.append(header)
    lines.append("  ".join("-" * widths[column] for column in columns))
    for row in rows:
        lines.append(
            "  ".join(str(row.get(column, "")).ljust(widths[column]) for column in columns)
        )
    return "\n".join(lines)


def print_table(rows: Sequence[Dict[str, object]], title: str = "") -> None:
    """Print an aligned text table (see :func:`format_table`)."""
    print(format_table(rows, title))
    print()
