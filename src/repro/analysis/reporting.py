"""Terminal-friendly rendering of experiment output.

The benchmark harness prints every regenerated table/figure as ASCII so the
paper-vs-measured comparison is readable straight from the pytest output
(and from ``test_output.txt`` / ``bench_output.txt`` artifacts).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence


def ascii_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    *,
    title: str | None = None,
) -> str:
    """Render rows as a fixed-width ASCII table."""
    str_rows = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells but table has {len(headers)} columns"
            )
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    sep = "-+-".join("-" * w for w in widths)
    lines = []
    if title:
        lines.append(title)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in str_rows:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def ascii_bar_chart(
    labels: Sequence[str],
    values: Sequence[float],
    *,
    title: str | None = None,
    width: int = 40,
    unit: str = "",
) -> str:
    """Render a horizontal bar chart (one bar per label)."""
    if len(labels) != len(values):
        raise ValueError("labels/values length mismatch")
    vmax = max((abs(v) for v in values), default=1.0) or 1.0
    label_w = max((len(l) for l in labels), default=0)
    lines = []
    if title:
        lines.append(title)
    for label, value in zip(labels, values):
        bar = "#" * max(0, round(abs(value) / vmax * width))
        lines.append(f"{label.ljust(label_w)} | {bar} {value:.2f}{unit}")
    return "\n".join(lines)


def series_table(
    x_label: str,
    x_values: Sequence[object],
    series: dict[str, Sequence[object]],
    *,
    title: str | None = None,
) -> str:
    """Render multiple aligned series as one table (figure line plots)."""
    headers = [x_label, *series.keys()]
    columns = [list(x_values), *[list(v) for v in series.values()]]
    n = len(columns[0])
    for name, col in zip(headers[1:], columns[1:]):
        if len(col) != n:
            raise ValueError(f"series {name!r} has {len(col)} points, expected {n}")
    rows = [[col[i] for col in columns] for i in range(n)]
    return ascii_table(headers, rows, title=title)
