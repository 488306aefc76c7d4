"""Rendering and diffing of metrics exports.

A *report* is the human view of :meth:`MetricsRegistry.export`: one table
per subsystem (the metric-name prefix before the first dot — transport,
rcds, rm, daemon, rpc, span, ...), counters and gauges as single values,
histograms as count/mean/p50/p95/p99/max columns. ``diff_exports`` aligns
two exports by (name, tags) and reports deltas, which is how a perf PR
shows its before/after.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Tuple


def _tags_str(tags: Dict[str, str]) -> str:
    return ",".join(f"{k}={v}" for k, v in sorted(tags.items()))


def _subsystem(name: str) -> str:
    return name.split(".", 1)[0]


def _fmt(v: Any) -> str:
    if isinstance(v, float):
        if v == 0:
            return "0"
        if abs(v) >= 1000 or abs(v) < 0.001:
            return f"{v:.3g}"
        return f"{v:.4f}".rstrip("0").rstrip(".")
    return str(v)


def _render_table(title: str, rows: List[Dict[str, Any]], columns: List[str]) -> str:
    widths = {c: len(c) for c in columns}
    rendered = [{c: _fmt(r.get(c, "")) for c in columns} for r in rows]
    for r in rendered:
        for c in columns:
            widths[c] = max(widths[c], len(r[c]))
    lines = [title, "  " + "  ".join(c.ljust(widths[c]) for c in columns)]
    lines.append("  " + "  ".join("-" * widths[c] for c in columns))
    for r in rendered:
        lines.append("  " + "  ".join(r[c].ljust(widths[c]) for c in columns))
    return "\n".join(lines)


def _report_rows(export: Dict[str, Any]) -> Dict[str, List[Dict[str, Any]]]:
    """Per-subsystem rows from an export dict (see MetricsRegistry.export)."""
    by_sub: Dict[str, List[Dict[str, Any]]] = {}
    for kind in ("counters", "gauges"):
        for m in export.get(kind, []):
            by_sub.setdefault(_subsystem(m["name"]), []).append(
                {"metric": m["name"], "tags": _tags_str(m["tags"]), "value": m["value"]}
            )
    for h in export.get("histograms", []):
        by_sub.setdefault(_subsystem(h["name"]), []).append(
            {
                "metric": h["name"],
                "tags": _tags_str(h["tags"]),
                "count": h["count"],
                "mean": h["mean"],
                "p50": h["p50"],
                "p95": h["p95"],
                "p99": h["p99"],
                "max": h["max"],
            }
        )
    for rows in by_sub.values():
        rows.sort(key=lambda r: (r["metric"], r["tags"]))
    return by_sub


def render_report(export: Dict[str, Any], title: str = "observability report") -> str:
    """The full per-subsystem report as one printable string."""
    by_sub = _report_rows(export)
    if not by_sub:
        return f"== {title} ==\n(no metrics recorded)"
    chunks = [f"== {title} =="]
    for sub in sorted(by_sub):
        rows = by_sub[sub]
        has_hist = any("p50" in r for r in rows)
        columns = ["metric", "tags", "value"]
        if has_hist:
            columns = ["metric", "tags", "value", "count", "mean", "p50", "p95", "p99", "max"]
        chunks.append(_render_table(f"-- {sub} --", rows, columns))
    return "\n\n".join(chunks)


def _flatten(export: Dict[str, Any]) -> Dict[Tuple[str, str], Dict[str, float]]:
    """(name, tags) -> {column: value} for diff alignment."""
    flat: Dict[Tuple[str, str], Dict[str, float]] = {}
    for kind in ("counters", "gauges"):
        for m in export.get(kind, []):
            flat[(m["name"], _tags_str(m["tags"]))] = {"value": m["value"]}
    for h in export.get("histograms", []):
        flat[(h["name"], _tags_str(h["tags"]))] = {
            "count": h["count"], "mean": h["mean"],
            "p50": h["p50"], "p95": h["p95"], "p99": h["p99"], "max": h["max"],
        }
    return flat


def diff_exports(
    base: Dict[str, Any], new: Dict[str, Any]
) -> List[Dict[str, Any]]:
    """Aligned rows {metric, tags, column, base, new, delta, pct}.

    Metrics present on only one side appear with the other side blank —
    a regression that silently removes a metric still shows up.
    """
    a, b = _flatten(base), _flatten(new)
    rows: List[Dict[str, Any]] = []
    for key in sorted(set(a) | set(b)):
        name, tags = key
        cols = sorted(set(a.get(key, {})) | set(b.get(key, {})))
        for col in cols:
            va = a.get(key, {}).get(col)
            vb = b.get(key, {}).get(col)
            row: Dict[str, Any] = {
                "metric": name, "tags": tags, "column": col,
                "base": "" if va is None else va,
                "new": "" if vb is None else vb,
            }
            if va is not None and vb is not None:
                row["delta"] = vb - va
                row["pct"] = (vb - va) / va * 100.0 if va else ""
            rows.append(row)
    return rows


def render_diff(base: Dict[str, Any], new: Dict[str, Any],
                title: str = "observability diff (new vs base)") -> str:
    rows = diff_exports(base, new)
    if not rows:
        return f"== {title} ==\n(no metrics on either side)"
    return _render_table(
        f"== {title} ==", rows,
        ["metric", "tags", "column", "base", "new", "delta", "pct"],
    )


def _bench_rows_to_export(data: Dict[str, Any]) -> Dict[str, Any]:
    """Synthesize a gauge-only export from a BENCH row table.

    Numeric columns become ``bench.<name>.<column>`` gauges; string/bool
    columns become tags. A ``row=<i>`` tag disambiguates rows that share
    all their tag columns — the simulator is deterministic, so two runs
    of the same benchmark produce the same row order and diff cleanly.
    """
    bench = data.get("name", "bench")
    gauges: List[Dict[str, Any]] = []

    def add_table(rows: List[Any], extra: Dict[str, str]) -> None:
        for i, row in enumerate(rows):
            if not isinstance(row, dict):
                continue
            tags = dict(extra, row=str(i))
            tags.update(
                {k: str(v) for k, v in row.items()
                 if isinstance(v, bool) or not isinstance(v, (int, float))}
            )
            for k, v in row.items():
                if isinstance(v, (int, float)) and not isinstance(v, bool):
                    gauges.append({"name": f"bench.{bench}.{k}", "tags": tags, "value": v})

    rows = data.get("rows")
    if isinstance(rows, list):
        add_table(rows, {})
    elif isinstance(rows, dict):
        for table, sub in rows.items():
            if isinstance(sub, list):
                add_table(sub, {"table": str(table)})
    return {"counters": [], "gauges": gauges, "histograms": []}


def load_export(path: str) -> Dict[str, Any]:
    """Read a metrics export (or a BENCH_*.json wrapper) from disk."""
    with open(path) as fh:
        data = json.load(fh)
    if "counters" not in data and "rows" in data:
        # A BENCH file carries a row table: synthesize gauges from it.
        return _bench_rows_to_export(data)
    return data


def save_export(export: Dict[str, Any], path: str) -> None:
    with open(path, "w") as fh:
        json.dump(export, fh, indent=2, sort_keys=True)
        fh.write("\n")


#: Version stamped into every BENCH_*.json envelope; bump when the
#: payload shape changes incompatibly.
BENCH_SCHEMA_VERSION = 1


def write_bench_json(
    name: str,
    rows: List[Dict[str, Any]],
    directory: str,
    scenario: Optional[str] = None,
    seed: Optional[int] = None,
    extra: Optional[Dict[str, Any]] = None,
    filename: Optional[str] = None,
) -> str:
    """Write ``BENCH_<name>.json`` (or *filename*) — the machine-readable
    twin of a benchmark's printed table — and return its path.

    Every file carries a common envelope: ``schema`` (see
    :data:`BENCH_SCHEMA_VERSION`), ``scenario`` (defaults to *name*),
    and ``seed`` when the caller knows it. *extra* merges additional
    payload keys (e.g. a profiler export) without touching the envelope.
    """
    import os

    payload: Dict[str, Any] = {
        "name": name,
        "schema": BENCH_SCHEMA_VERSION,
        "scenario": scenario if scenario is not None else name,
        "rows": rows,
    }
    if seed is not None:
        payload["seed"] = seed
    if extra:
        payload.update(extra)
    os.makedirs(directory or ".", exist_ok=True)
    path = os.path.join(directory, filename or f"BENCH_{name}.json")
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")
    return path

