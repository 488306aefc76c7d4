"""Command-line entry point: ``python -m repro <command>``.

Commands:

* ``examples`` — list the runnable examples.
* ``experiments`` — run experiments from the manifest (E1/Fig. 1 – E18):
  ``experiments [ID ...] [--quick] [--out DIR]`` builds each row's
  tables, prints them, runs its paper-shape check (exit 1 if any fails)
  and writes ``results/<profile>/<id>.json``
  (see :mod:`repro.bench.manifest`).
* ``info`` — package and inventory summary.
* ``obs`` — observability: ``obs report [export.json]``, ``obs diff
  BASE NEW`` (with ``--fail-over PCT`` as a CI regression gate),
  ``obs profile`` (kernel work counts) and ``obs slo``
  (declarative SLO gates over an overload run or a saved export)
  (see :mod:`repro.obs.cli`).
* ``chaos`` — seeded fault injection judged by the oracles:
  ``chaos run --seed N`` and ``chaos sweep`` (see :mod:`repro.robust.cli`).
* ``check`` — model checking: explored schedules, reference-model
  oracles, failing-schedule shrinking: ``check run``, ``check sweep``,
  ``check replay TRACE`` (see :mod:`repro.check.cli`).
* ``bulk`` — the bulk-data distribution plane: ``bulk tree`` (show the
  relay tree, run one fan-out) (see :mod:`repro.bulk.cli`).
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


#: Verbs with their own argument parser: verb -> module holding ``main``.
_SUBCOMMANDS = {
    "experiments": "repro.bench.manifest",
    "obs": "repro.obs.cli",
    "chaos": "repro.robust.cli",
    "check": "repro.check.cli",
    "bulk": "repro.bulk.cli",
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    commands = {"examples": _cmd_examples, "info": _cmd_info}
    if argv and argv[0] in _SUBCOMMANDS:
        import importlib

        return importlib.import_module(_SUBCOMMANDS[argv[0]]).main(argv[1:])
    if not argv or argv[0] not in commands:
        print("usage: python -m repro "
              "{examples|experiments|info|obs|chaos|check|bulk}")
        return 2
    return commands[argv[0]]()


if __name__ == "__main__":
    raise SystemExit(main())
