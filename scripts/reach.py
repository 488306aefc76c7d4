#!/usr/bin/env python3
"""Write ``baselines/unreached.txt``: every ``def`` under ``src/`` that no
test, experiment, benchmark run or example ever calls, one sorted
``path:qualname`` per line.

The runs — tier-1, ``-m slow`` and ``perfbench/tests`` (with
``--hypothesis-seed=0``, so two runs give one list), ``experiments
--quick``, ``perfbench/run.py --quick`` and every example — go two at a
time, each with a ``sys.setprofile`` collector that a generated
``sitecustomize`` installs in every Python process they start (so the
CLI tests' ``python -m repro`` counts too). A failing run fails the
script and leaves the list as it was. DESIGN.md's "Unreached on
purpose" table gives each entry its reason (``tests/test_reach.py``).

Run:  python scripts/reach.py
"""

import ast
import os
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor, as_completed
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "baselines" / "unreached.txt"

COLLECTOR = """\
import atexit, os, sys, threading
seen = set()
def note(frame, event, arg):
    if event == "call":
        seen.add(frame.f_code)
def dump():
    sys.setprofile(None)
    src = os.environ["REACH_SRC"]
    names = {os.path.abspath(c.co_filename) + ":" + c.co_qualname for c in seen}
    with open(os.path.join(os.environ["REACH_DIR"], f"{os.getpid()}.txt"), "a") as fh:
        fh.writelines(n + "\\n" for n in names if n.startswith(src))
atexit.register(dump)
sys.setprofile(note)
threading.setprofile(note)
"""


def defined() -> set:
    """Every ``def`` under ``src/`` as ``path:qualname``, spelled the way
    the interpreter spells a code object's ``co_qualname``."""
    found = set()

    def walk(node, prefix, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.add(f"{path}:{prefix}{child.name}")
                walk(child, f"{prefix}{child.name}.<locals>.", path)
            else:
                inner = f"{prefix}{child.name}." if isinstance(child, ast.ClassDef) else prefix
                walk(child, inner, path)

    for path in sorted((ROOT / "src").rglob("*.py")):
        walk(ast.parse(path.read_text()), "", path.relative_to(ROOT).as_posix())
    return found


def main() -> int:
    started = time.monotonic()
    with tempfile.TemporaryDirectory() as tmp:
        Path(tmp, "sitecustomize.py").write_text(COLLECTOR)
        env = dict(os.environ, REACH_DIR=tmp, REACH_SRC=str(ROOT / "src") + os.sep,
                   PYTHONPATH=os.pathsep.join([tmp, str(ROOT / "src"), str(ROOT)]))
        pytest = [sys.executable, "-m", "pytest", "-p", "no:cacheprovider",
                  "--hypothesis-seed=0"]
        golden = "tests/test_replay_golden.py"  # half of -m slow's time: its own run
        runs = [pytest + ["-m", "slow", golden], pytest + ["-m", "slow", f"--ignore={golden}"],
                # test_reach.py judges this script's output, not src/
                pytest + ["--ignore=tests/test_reach.py"], pytest + ["perfbench/tests"],
                [sys.executable, "-m", "repro", "experiments", "--quick", "--out", tmp],
                [sys.executable, "perfbench/run.py", "--quick"]]
        runs += [[sys.executable, str(p)] for p in sorted((ROOT / "examples").glob("*.py"))]

        def run(cmd):
            done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
            return cmd, done

        failed = False
        with ThreadPoolExecutor(max_workers=2) as pool:
            for future in as_completed([pool.submit(run, cmd) for cmd in runs]):
                cmd, done = future.result()
                print(f"exit {done.returncode}: {' '.join(cmd[1:])}", flush=True)
                if done.returncode:
                    print(done.stdout[-3000:], done.stderr[-3000:], sep="\n")
                    failed = True
        if failed:
            return 1
        reached = {line[len(str(ROOT)) + 1:]
                   for dump in Path(tmp).glob("*.txt") for line in dump.read_text().splitlines()}
    unreached = sorted(defined() - reached)
    OUT.write_text("".join(f"{name}\n" for name in unreached))
    print(f"{len(unreached)} unreached functions -> {OUT.relative_to(ROOT)} "
          f"({time.monotonic() - started:.0f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
