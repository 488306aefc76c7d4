"""perfbench builds on product packages only: importing a harness the
roadmap plans to collapse would either freeze it or break with it."""

import ast
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(HERE)
FORBIDDEN = ("repro.bench", "repro.robust.chaos", "repro.check", "benchmarks", "scripts")


def _imports(path):
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


def test_no_perfbench_file_imports_a_harness():
    offenders = []
    for folder, dirs, files in os.walk(HERE):
        dirs[:] = [d for d in dirs if d != "out"]  # run outputs, checkouts of other commits
        for name in files:
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                offenders += [(os.path.relpath(path, ROOT), mod) for mod in _imports(path)
                              if mod.startswith(FORBIDDEN)]
    assert offenders == []


def test_importing_perfbench_loads_no_harness():
    code = (
        "import sys; sys.path[:0] = [%r, %r]\n"
        "import perfbench.run, perfbench.layers, perfbench.probes, perfbench.compare\n"
        "import perfbench.workloads\n"
        "bad = [m for m in sys.modules if m.startswith(%r)]\n"
        "assert not bad, bad\n" % (os.path.join(ROOT, "src"), ROOT, FORBIDDEN[:3])
    )
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60)
