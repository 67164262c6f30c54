"""Plain-text table formatting for experiment results."""

from __future__ import annotations

from typing import Iterable, List, Sequence


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: str = "",
) -> str:
    """Render an aligned text table."""
    rendered: List[List[str]] = [[str(h) for h in headers]]
    for row in rows:
        rendered.append([
            f"{v:.3f}" if isinstance(v, float) else str(v) for v in row
        ])
    widths = [
        max(len(r[i]) for r in rendered) for i in range(len(headers))
    ]
    lines = []
    if title:
        lines.append(title)
    header_line = "  ".join(
        rendered[0][i].ljust(widths[i]) for i in range(len(headers))
    )
    lines.append(header_line)
    lines.append("  ".join("-" * w for w in widths))
    for row in rendered[1:]:
        lines.append(
            "  ".join(row[i].rjust(widths[i]) for i in range(len(headers)))
        )
    return "\n".join(lines)

