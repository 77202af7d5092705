"""Plain-text table and bar-chart rendering for the benchmark harness.

The paper presents its results as stacked bar charts (Figures 5-7) of
execution time relative to the fastest version.  The harness reproduces those
as aligned ASCII output so `pytest benchmarks/ --benchmark-only` prints the
same rows/series the paper reports.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.util.arith import left_sum


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str | None = None,
    floatfmt: str = ".3f",
) -> str:
    """Render rows as an aligned monospace table.

    Numbers are right-aligned and formatted with ``floatfmt``; everything else
    is left-aligned ``str()``.
    """

    def cell(v: object) -> str:
        if isinstance(v, bool):
            return str(v)
        if isinstance(v, float):
            return format(v, floatfmt)
        return str(v)

    str_rows = [[cell(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells but table has {len(headers)} columns"
            )
        for i, c in enumerate(row):
            widths[i] = max(widths[i], len(c))

    def is_num(v: object) -> bool:
        return isinstance(v, (int, float)) and not isinstance(v, bool)

    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for raw, row in zip(rows, str_rows):
        cells = []
        for i, c in enumerate(row):
            cells.append(c.rjust(widths[i]) if is_num(raw[i]) else c.ljust(widths[i]))
        lines.append("  ".join(cells))
    return "\n".join(lines)


#: Glyphs used for the stacked bar segments, in category order.
_BAR_GLYPHS = "#=+~@%"


def format_bar_chart(
    bars: Sequence[tuple[str, Mapping[str, float]]],
    width: int = 60,
    normalize: bool = True,
) -> str:
    """Render stacked horizontal bars, one per (label, {category: value}).

    With ``normalize`` the longest bar spans ``width`` characters and every
    bar is annotated with its total relative to the *shortest* total — the
    same presentation as the paper's "execution time relative to the fastest
    version" figures.
    """
    if not bars:
        return "(no data)"
    categories: list[str] = []
    for _, parts in bars:
        for c in parts:
            if c not in categories:
                categories.append(c)
    totals = [left_sum(parts.values()) for _, parts in bars]
    max_total = max(totals)
    min_total = min(t for t in totals if t > 0) if any(totals) else 1.0
    scale = width / max_total if (normalize and max_total > 0) else 1.0
    label_w = max(len(label) for label, _ in bars)

    lines = []
    for (label, parts), total in zip(bars, totals):
        segs = []
        for i, cat in enumerate(categories):
            v = parts.get(cat, 0.0)
            n = int(round(v * scale))
            segs.append(_BAR_GLYPHS[i % len(_BAR_GLYPHS)] * n)
        rel = total / min_total if min_total else 0.0
        lines.append(f"{label.ljust(label_w)} |{''.join(segs).ljust(width)}| {rel:5.2f}x")
    legend = "  ".join(
        f"{_BAR_GLYPHS[i % len(_BAR_GLYPHS)]}={cat}" for i, cat in enumerate(categories)
    )
    lines.append(f"{' ' * label_w}  legend: {legend}  (lengths relative to fastest=1.00x)")
    return "\n".join(lines)
