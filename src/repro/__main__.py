"""Command-line entry point: ``python -m repro <command>``.

Commands:

* ``examples`` — list the runnable examples.
* ``experiments`` — regenerate every experiment table (same as
  ``scripts/run_all_experiments.py``).
* ``fig1`` — just the Fig. 1 reproduction, with an ASCII rendering.
* ``info`` — package and inventory summary.
* ``obs`` — observability: ``obs report [export.json]``, ``obs diff
  BASE NEW`` (with ``--fail-over PCT`` as a CI regression gate),
  ``obs profile`` (kernel profiler + flamegraph JSON), ``obs overhead``
  (tracing cost: off/sampled/on), and ``obs slo`` (declarative SLO
  gates over an overload run or a saved export)
  (see :mod:`repro.obs.cli`).
* ``chaos`` — seeded fault injection with invariant checking:
  ``chaos run --seed N`` and ``chaos sweep`` (see :mod:`repro.robust.cli`).
* ``check`` — model checking: explored schedules, reference-model
  oracles, failing-schedule shrinking: ``check run``, ``check sweep``,
  ``check replay TRACE`` (see :mod:`repro.check.cli`).
* ``bulk`` — the bulk-data distribution plane: ``bulk bench`` (E13,
  unicast vs relay tree) and ``bulk tree`` (show the relay tree, run
  one fan-out) (see :mod:`repro.bulk.cli`).
"""

from __future__ import annotations

import sys


def _cmd_examples() -> int:
    import pathlib

    root = pathlib.Path(__file__).resolve().parents[2] / "examples"
    print("Runnable examples (python examples/<name>.py):\n")
    if root.is_dir():
        for path in sorted(root.glob("*.py")):
            doc = ""
            for line in path.read_text().splitlines():
                if line.startswith('"""'):
                    doc = line.strip('"').strip()
                    break
            print(f"  {path.name:28s} {doc}")
    else:
        print("  (examples directory not found — run from a source checkout)")
    return 0


def _cmd_fig1() -> int:
    from repro.bench.fig1 import fig1_bandwidth
    from repro.bench.plotting import ascii_chart
    from repro.bench.table import print_table

    rows = fig1_bandwidth(sizes=[16_384, 131_072, 1_048_576])
    print_table("Fig. 1: bandwidth (MB/s) vs message size", rows,
                ["series", "size", "mbps"])
    series = {}
    for row in rows:
        series.setdefault(row["series"], []).append((row["size"], row["mbps"]))
    print()
    print(ascii_chart(series, title="Fig. 1 (MB/s vs bytes, log-x)",
                      x_label="message size", y_label="MB/s"))
    return 0


def _cmd_info() -> int:
    import repro

    print(f"repro (SNIPE reproduction) {repro.__version__}")
    print(__doc__)
    for pkg in ("sim", "net", "transport", "rcds", "security", "daemon",
                "files", "rm", "playground", "core", "console", "pvm",
                "mpi", "bulk", "bench"):
        mod = __import__(f"repro.{pkg}", fromlist=["__doc__"])
        first = (mod.__doc__ or "").strip().splitlines()[0] if mod.__doc__ else ""
        print(f"  repro.{pkg:12s} {first}")
    return 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    commands = {
        "examples": _cmd_examples,
        "fig1": _cmd_fig1,
        "info": _cmd_info,
    }
    if argv and argv[0] == "experiments":
        from repro.bench.manifest import main as experiments_main

        return experiments_main(argv[1:])
    if argv and argv[0] == "obs":
        from repro.obs.cli import main as obs_main

        return obs_main(argv[1:])
    if argv and argv[0] == "chaos":
        from repro.robust.cli import main as chaos_main

        return chaos_main(argv[1:])
    if argv and argv[0] == "check":
        from repro.check.cli import main as check_main

        return check_main(argv[1:])
    if argv and argv[0] == "bulk":
        from repro.bulk.cli import main as bulk_main

        return bulk_main(argv[1:])
    if not argv or argv[0] not in commands:
        print("usage: python -m repro "
              "{examples|experiments|fig1|info|obs|chaos|check|bulk}")
        return 2
    return commands[argv[0]]()


if __name__ == "__main__":
    raise SystemExit(main())
