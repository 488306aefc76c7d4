#!/usr/bin/env python3
"""Render the measured tables of EXPERIMENTS.md from ``results/full/``.

A fenced block

    <!-- results:E3 availability(replicas,availability,host_uptime) -->
    ...
    <!-- /results -->

is replaced by the named tables of ``results/full/E3.json`` as markdown:
every table of the file when none is named, every column when none is
listed. Regenerate the files with ``python -m repro experiments``, then
run this script; ``tests/bench/test_manifest.py`` fails while the
document and the files disagree.
"""

import json
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
FENCE = re.compile(
    r"(<!-- results:(\w+)((?: [\w(),]+)*) -->\n).*?(<!-- /results -->)", re.S)


def _cell(value) -> str:
    if value is None:
        return "—"
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def _markdown(rows, columns) -> str:
    columns = columns or list(rows[0])
    lines = ["| " + " | ".join(columns) + " |", "|" + "---|" * len(columns)]
    lines += ["| " + " | ".join(_cell(r.get(c)) for c in columns) + " |"
              for r in rows]
    return "\n".join(lines)


def render(text: str, results: pathlib.Path = ROOT / "results" / "full") -> str:
    def block(match: re.Match) -> str:
        data = json.loads((results / f"{match[2]}.json").read_text())
        wanted = re.findall(r"(\w+)(?:\(([\w,]+)\))?", match[3]) \
            or [(name, "") for name in data["rows"]]
        parts = []
        for name, columns in wanted:
            table = _markdown(data["rows"][name], columns.split(",") if columns else [])
            parts.append(f"*{name}*\n\n{table}" if len(wanted) > 1 else table)
        return match[1] + "\n" + "\n\n".join(parts) + "\n\n" + match[4]

    return FENCE.sub(block, text)


if __name__ == "__main__":
    path = ROOT / "EXPERIMENTS.md"
    path.write_text(render(path.read_text()))
