"""Row formatting for benchmark output — the paper-style tables."""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

#: What every experiment builder returns: named tables of dict-rows.
Tables = Dict[str, List[Dict[str, Any]]]


def mean(values: Sequence[Optional[float]]) -> Optional[float]:
    """Mean of the values that are not None; None when there is none."""
    values = [v for v in values if v is not None]
    return sum(values) / len(values) if values else None


def format_table(rows: Sequence[Dict[str, Any]], columns: Sequence[str] = ()) -> str:
    """Render dict-rows as an aligned text table."""
    if not rows:
        return "(no rows)"
    cols = list(columns) if columns else list(rows[0].keys())

    def fmt(v: Any) -> str:
        if isinstance(v, float):
            return f"{v:.4g}"
        return str(v)

    widths = {c: len(c) for c in cols}
    rendered = []
    for row in rows:
        line = {c: fmt(row.get(c, "")) for c in cols}
        rendered.append(line)
        for c in cols:
            widths[c] = max(widths[c], len(line[c]))
    out = ["  ".join(c.ljust(widths[c]) for c in cols)]
    out.append("  ".join("-" * widths[c] for c in cols))
    for line in rendered:
        out.append("  ".join(line[c].ljust(widths[c]) for c in cols))
    return "\n".join(out)


def print_table(title: str, rows: Sequence[Dict[str, Any]], columns: Sequence[str] = ()) -> None:
    print(f"\n=== {title} ===")
    print(format_table(rows, columns))
