"""Every metric has a reader.

A metric that nothing reads is cost, not coverage: each update is hot-path
work, and each name is one more line in every export. The scan below
fails on each literal name passed to ``metrics.counter``, ``.gauge`` or
``.histogram`` in ``src/`` that appears as a string nowhere else in
``src/``, ``tests/`` or ``perfbench/`` — no report, oracle, experiment,
test or benchmark line names it. Such a metric goes; an int attribute
that a report reads keeps its count without a registry twin.

Name families built at run time (``health.<transition>``,
``span.<name>``) are not literals and are not scanned.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src", "tests", "perfbench")
#: Gitignored run outputs: ``compare.py pair`` checks whole commits out there.
SKIPPED = ("perfbench/out/",)
KINDS = ("counter", "gauge", "histogram")


def _scan():
    """``(registered, strings)``: every literal metric name registered in
    ``src/`` as ``name -> [path:line]``, and a count of every string
    constant that is not such a registration's name argument."""
    registered, strings = {}, Counter()
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            rel = path.relative_to(ROOT).as_posix()
            if rel.startswith(SKIPPED):
                continue
            tree = ast.parse(path.read_text(), filename=str(path))
            names = set()
            for node in ast.walk(tree):
                if (top == "src" and isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute) and node.func.attr in KINDS
                        and node.args and isinstance(node.args[0], ast.Constant)
                        and isinstance(node.args[0].value, str)):
                    registered.setdefault(node.args[0].value, []).append(f"{rel}:{node.lineno}")
                    names.add(id(node.args[0]))
            for node in ast.walk(tree):
                if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                        and id(node) not in names):
                    strings[node.value] += 1
    return registered, strings


def test_every_registered_metric_has_a_reader():
    registered, strings = _scan()
    unread = {name: where for name, where in registered.items() if not strings[name]}
    assert unread == {}, "metrics nothing reads: delete them"
    assert len(registered) >= 40  # the scan found the registry
