"""``src/repro`` never reads the host clock.

The simulator runs on one clock, the virtual one: experiments report
virtual time only and the kernel profiler counts work. Host time is
measured in one place, perfbench (paired runs, medians, quartiles),
which lives outside ``src/``. This scan keeps a stray ``perf_counter``
from turning a results file or a replay digest machine-dependent.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: Host-clock readers, as names or as attributes of any module.
CLOCKS = {
    "perf_counter", "perf_counter_ns", "monotonic", "monotonic_ns",
    "process_time", "process_time_ns",
}


def host_clock_reads(tree: ast.AST):
    """``(line, what)`` for every host-clock import or read in *tree*."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "time":
                    yield node.lineno, "import time"
        elif isinstance(node, ast.ImportFrom) and node.module == "time":
            yield node.lineno, "from time import ..."
        elif isinstance(node, ast.Name) and node.id in CLOCKS:
            yield node.lineno, node.id
        elif isinstance(node, ast.Attribute) and node.attr in CLOCKS:
            yield node.lineno, node.attr
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "time"):
            yield node.lineno, "time()"


def test_src_never_reads_the_host_clock():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for line, what in sorted(host_clock_reads(tree)):
            offenders.append(f"{path.relative_to(SRC.parent)}:{line}: {what}")
    assert not offenders, "host clock read in src/:\n" + "\n".join(offenders)


def test_scan_catches_each_spelling():
    text = ("import time\nfrom time import perf_counter\n"
            "t = time.monotonic()\nu = process_time()\nv = time()\n")
    assert [what for _, what in host_clock_reads(ast.parse(text))].count("time()") == 1
    assert {line for line, _ in host_clock_reads(ast.parse(text))} == {1, 2, 3, 4, 5}
