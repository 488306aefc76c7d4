"""``python -m repro chaos`` — run a scenario under its seeded chaos plan.

Subcommands:

* ``run`` — one chaos run of a scenario (``--scenario``, default
  ``faults``; ``--help`` lists them with a one-line description each,
  generated from :data:`repro.check.scenarios.SCENARIOS`). Prints the
  report: the fault plan the run armed, the scenario's declared
  columns and its violations — what the oracles found and the safety
  checks the scenario body failed, judged exactly as in a ``check``
  run. Exit status 0 iff there are none. ``--seed N`` picks the plan;
  same seed, same run.
  Scenario-specific flags are tagged ``[scenario, ...]`` in ``--help``;
  passing one to a scenario that does not take it is a usage error
  (exit 2), never ignored. The baselines the experiments compare
  against are such flags: ``--static`` (overload), ``--heartbeat-only``
  (gray), ``--unbounded`` and ``--blackout`` (heal). A baseline is
  slow, not unsafe: it passes, and its columns show what it costs —
  the bounds on them are the experiments' to assert.
* ``sweep`` — run several seeds back to back (default: the CI seeds)
  and print one summary line each (the same columns); exit non-zero if
  any seed fails.

``python -m repro check`` runs the same scenarios under the model
checker, and the experiments built on them (E12, E14–E16) are rows of
:mod:`repro.bench.manifest`: ``python -m repro experiments``.
"""

from __future__ import annotations

import argparse
from typing import Dict, List, Optional, Tuple

from repro.check.scenarios import (
    SCENARIOS,
    add_chaos_flags,
    chaos_kwargs,
    columns,
    show,
    summary,
)
from repro.obs.flight import dump_flight_records
from repro.obs.report import save_export
from repro.robust.chaos import DEFAULT_SEEDS
from repro.robust.spine import FaultEvent


def render(name: str, report: Dict) -> str:
    """The full chaos report of scenario *name* for the CLI."""
    plan = [f"  {FaultEvent.from_dict(d)}" for d in report["plan"]]
    found = report["violations"]
    lines = [f"{name} run: seed={report['seed']}", "", "fault plan:",
             *(plan or ["  (none)"]), ""]
    lines += [f"{col}: {show(value)}" for col, value in columns(name, report)]
    lines += ["", "violations: " + ("none" if not found else "")]
    lines += [f"  [{v['oracle']}] t={v['time']:.3f}s {v['detail']}" for v in found]
    lines += ["", f"RESULT: {'OK' if report['ok'] else 'FAILED'} "
                  f"(simulated {report['finished_at']:.1f}s)"]
    return "\n".join(lines)


def _run_one(seed: int, args, kwargs: Dict) -> dict:
    run = SCENARIOS[args.scenario].runner.run(seed, **kwargs)
    report = run.report
    if args.export:
        save_export(run.sim.obs.export(), args.export)
        print(f"metrics export written to {args.export}")
    if not report["ok"] and report.get("flight"):
        path = f"flight-{args.scenario}-seed{seed}.jsonl"
        n = dump_flight_records(path, report["flight"])
        print(f"flight recorder: {n} records dumped to {path}")
    return report


def parse_args(argv: Optional[List[str]]) -> Tuple[argparse.Namespace, Dict]:
    """Parse and validate a ``chaos`` command line; returns the namespace
    and the selected scenario's runner kwargs."""
    parser = argparse.ArgumentParser(prog="python -m repro chaos",
                                     description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    p_run = sub.add_parser("run", help="one seeded chaos run")
    p_run.add_argument("--seed", type=int, default=1)
    p_sweep = sub.add_parser("sweep", help="run a set of seeds")
    p_sweep.add_argument("--seeds", type=int, nargs="+", default=list(DEFAULT_SEEDS))
    for p in (p_run, p_sweep):
        add_chaos_flags(p)
        p.add_argument("--export", default=None, metavar="PATH",
                       help="save the run's observability metrics export as "
                            "JSON (diffable with `python -m repro obs diff`)")
    args = parser.parse_args(argv)
    return args, chaos_kwargs(sub.choices[args.cmd], args)


def main(argv: Optional[List[str]] = None) -> int:
    args, kwargs = parse_args(argv)
    if args.cmd == "run":
        report = _run_one(args.seed, args, kwargs)
        print(render(args.scenario, report))
        return 0 if report["ok"] else 1
    failures = 0
    for seed in args.seeds:
        report = _run_one(seed, args, kwargs)
        bad = [v["oracle"] for v in report["violations"]]
        print(f"seed {seed:4d}: {'OK  ' if report['ok'] else 'FAIL'} "
              f"{summary(args.scenario, report)} "
              + (f"failed: {bad}" if bad else ""))
        failures += 0 if report["ok"] else 1
    return 0 if failures == 0 else 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
