"""``python -m repro chaos`` — run the seeded chaos harness.

Subcommands:

* ``run`` — one run of a scenario (``--scenario``, default ``faults``;
  ``--help`` lists them with a one-line description each, generated
  from :data:`repro.check.scenarios.SCENARIOS`). Prints the scenario's
  report — fault timeline, measurements, and the invariant/criteria
  table. Exit status 0 iff every invariant/criterion holds. ``--seed N``
  picks the schedule; same seed, same run. Scenario-specific flags are
  tagged ``[scenario, ...]`` in ``--help``; passing one to a scenario
  that does not take it is a usage error (exit 2), never ignored. The
  baselines the experiments compare against are such flags:
  ``--static`` (overload), ``--heartbeat-only`` (gray), ``--unbounded``
  and ``--blackout`` (heal).
* ``sweep`` — run several seeds back to back (default: the CI seeds)
  and print one summary line each; exit non-zero if any seed fails.

The experiments built on these scenarios (E12, E15, E16, E18) are rows
of :mod:`repro.bench.manifest`: ``python -m repro experiments``.
"""

from __future__ import annotations

import argparse
from typing import Dict, List, Optional, Tuple

from repro.check.scenarios import SCENARIOS, add_chaos_flags, chaos_kwargs
from repro.obs.flight import dump_flight_records
from repro.obs.report import save_export
from repro.robust.chaos import DEFAULT_SEEDS, verdicts_of


def _add_run_args(p: argparse.ArgumentParser) -> None:
    add_chaos_flags(p)
    p.add_argument("--obs-sample", type=float, default=None, metavar="RATE",
                   help="enable tracing at this sampling rate (1.0 = every "
                        "record, 0.01 = 1-in-100; default: tracing off)")
    p.add_argument("--export", default=None, metavar="PATH",
                   help="save the run's observability metrics export as "
                        "JSON (diffable with `python -m repro obs diff`)")


def _run_one(seed: int, args, kwargs: Dict) -> dict:
    run = SCENARIOS[args.scenario].chaos.run(
        seed, obs_sample=args.obs_sample, **kwargs)
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
    _add_run_args(p_run)
    p_sweep = sub.add_parser("sweep", help="run a set of seeds")
    p_sweep.add_argument("--seeds", type=int, nargs="+", default=list(DEFAULT_SEEDS))
    _add_run_args(p_sweep)
    args = parser.parse_args(argv)
    return args, chaos_kwargs(sub.choices[args.cmd], args)


def main(argv: Optional[List[str]] = None) -> int:
    args, kwargs = parse_args(argv)
    entry = SCENARIOS[args.scenario]
    if args.cmd == "run":
        report = _run_one(args.seed, args, kwargs)
        print(entry.render(report))
        return 0 if report["ok"] else 1
    failures = 0
    for seed in args.seeds:
        report = _run_one(seed, args, kwargs)
        bad = [name for name, ok, _ in verdicts_of(report)[1] if not ok]
        print(f"seed {seed:4d}: {'OK  ' if report['ok'] else 'FAIL'} "
              f"{entry.sweep_line(report)} "
              + (f"failed: {bad}" if bad else ""))
        failures += 0 if report["ok"] else 1
    return 0 if failures == 0 else 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
