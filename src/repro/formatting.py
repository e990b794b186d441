"""Plain-text tables for the CLI's human-readable output."""

from __future__ import annotations

from collections.abc import Sequence

__all__ = ["format_table", "format_seconds"]


def format_seconds(seconds: float | None) -> str:
    """Human-scaled time: micro/milli/seconds with 3 significant digits.

    ``None`` (an empty latency reservoir's percentile) renders as ``-``.
    """
    if seconds is None:
        return "-"
    if seconds < 1e-3:
        return f"{seconds * 1e6:.1f}us"
    if seconds < 1.0:
        return f"{seconds * 1e3:.2f}ms"
    return f"{seconds:.3f}s"


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """An aligned, pipe-separated table (markdown-compatible)."""
    text_rows = [[str(cell) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in text_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def line(cells: Sequence[str]) -> str:
        padded = (cell.ljust(widths[i]) for i, cell in enumerate(cells))
        return "| " + " | ".join(padded) + " |"

    separator = "|" + "|".join("-" * (width + 2) for width in widths) + "|"
    body = [line(headers), separator]
    body.extend(line(row) for row in text_rows)
    return "\n".join(body)
