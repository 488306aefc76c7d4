"""``python -m repro check`` — model-check the simulated site.

Subcommands:

* ``run`` — one check run: seeded fault plan + explored schedule +
  continuous oracles. ``--bug NAME`` disables a safety mechanism to
  prove the oracles catch it. On violation the failing run is shrunk
  (``--no-shrink`` to skip) and a minimized trace is written.
* ``sweep`` — seeds 1..N (``--seeds N``) of a scenario; first
  violation is shrunk, written as a trace, and fails the sweep.
* ``replay TRACE`` — re-run a trace file; exit 0 if the violation
  reproduces, 2 if it does not.
"""

from __future__ import annotations

import argparse
import inspect
from typing import List, Optional

from repro.check.explore import BUGS, FaultEvent
from repro.check.scenarios import (
    SCENARIOS,
    bug_help,
    reject_workers,
    run_check,
    scenario_help,
)
from repro.check.shrink import load_trace, minimize, replay_trace, write_trace


#: The workload defaults are :func:`run_check`'s own.
DEFAULT_PARAMS = {name: param.default for name, param
                  in inspect.signature(run_check).parameters.items()}


def _add_run_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scenario", choices=list(SCENARIOS), default="faults",
                   help=scenario_help())
    p.add_argument("--workers", type=int, default=DEFAULT_PARAMS["n_workers"],
                   help=f"worker hosts (default {DEFAULT_PARAMS['n_workers']})")
    p.add_argument("--steps", type=int, default=DEFAULT_PARAMS["total"],
                   help=f"work units per task (default {DEFAULT_PARAMS['total']})")
    p.add_argument("--duration", type=float, default=DEFAULT_PARAMS["duration"],
                   help="simulated-seconds budget per run "
                        f"(default {DEFAULT_PARAMS['duration']:.0f})")
    p.add_argument("--no-explore", action="store_true",
                   help="keep the kernel's FIFO tie-breaking (fault timing "
                        "is still the seeded plan)")
    p.add_argument("--bug", choices=sorted(BUGS), default=None,
                   help="deliberately disable a safety mechanism (and the "
                        "scenario whose oracles catch it): " + bug_help())
    p.add_argument("--no-shrink", action="store_true",
                   help="on violation, skip minimization")
    p.add_argument("--trace", default=None,
                   help="where to write the minimized failing trace "
                        "(default: check-<scenario>-seed<N>.json)")
    p.add_argument("--obs-sample", type=float, default=None, metavar="RATE",
                   help="enable tracing at this sampling rate (1.0 = every "
                        "record, 0.01 = 1-in-100; default: tracing off)")


def _params(args) -> dict:
    return {
        "n_workers": args.workers,
        "total": args.steps,
        "duration": args.duration,
        "obs_sample": args.obs_sample,
    }


def _describe(report: dict) -> str:
    extra = (f" reorders={report['schedule_reordered']}"
             if report["explore"] else " (FIFO schedule)")
    return (f"{SCENARIOS[report['scenario']].check_line(report)}{extra} "
            f"t={report['finished_at']:.1f}s")


def _handle_failure(report: dict, args, params: dict) -> None:
    """Print the violation, shrink it, write the trace."""
    for v in report["violations"]:
        print(f"  VIOLATION [{v['oracle']}] t={v['time']:.3f}s: {v['detail']}")
    plan = [FaultEvent.from_dict(d) for d in report["plan"]]
    if args.no_shrink:
        final = report
    else:
        shrunk = minimize(report["scenario"], report["seed"], report.get("bug"),
                          plan, explore=report["explore"], params=params,
                          log=lambda msg: print(f"  {msg}"))
        final = shrunk["report"]
        print(f"  minimized to {len(shrunk['plan'])} fault event(s) "
              f"in {shrunk['runs']} runs:")
        for ev in shrunk["plan"]:
            print(f"    {ev}")
    path = args.trace or f"check-{report['scenario']}-seed{report['seed']}.json"
    write_trace(path, final)
    print(f"  trace written: {path} (python -m repro check replay {path})")
    flight = final.get("flight") or report.get("flight")
    if flight:
        from os.path import splitext

        from repro.obs.flight import dump_flight_records

        fpath = splitext(path)[0] + ".flight.jsonl"
        n = dump_flight_records(fpath, flight)
        print(f"  flight recorder: {n} records dumped to {fpath}")


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    """Parse and validate a ``check`` command line."""
    parser = argparse.ArgumentParser(prog="python -m repro check",
                                     description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    p_run = sub.add_parser("run", help="one model-checking run")
    p_run.add_argument("--seed", type=int, default=1)
    _add_run_args(p_run)
    p_sweep = sub.add_parser("sweep", help="check seeds 1..N")
    p_sweep.add_argument("--seeds", type=int, default=25,
                         help="number of seeds to run (1..N, default 25)")
    _add_run_args(p_sweep)
    p_replay = sub.add_parser("replay", help="re-run a minimized trace")
    p_replay.add_argument("trace", help="trace file from run/sweep")
    args = parser.parse_args(argv)
    if args.cmd != "replay":
        reject_workers(sub.choices[args.cmd], args.scenario, args.workers)
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if args.cmd == "replay":
        trace = load_trace(args.trace)
        expected = trace.get("violations") or []
        print(f"replaying {args.trace}: scenario={trace['scenario']} "
              f"seed={trace['seed']} bug={trace.get('bug')} "
              f"explore={trace['explore']} "
              f"plan={len(trace['plan'])} event(s)")
        report = replay_trace(trace)
        for v in report["violations"]:
            print(f"  VIOLATION [{v['oracle']}] t={v['time']:.3f}s: {v['detail']}")
        if report["ok"]:
            print("NOT REPRODUCED: the trace ran clean")
            return 2
        if expected and report["violations"][0]["oracle"] != expected[0]["oracle"]:
            print(f"REPRODUCED (different oracle: recorded "
                  f"{expected[0]['oracle']}, got "
                  f"{report['violations'][0]['oracle']})")
        else:
            print("REPRODUCED")
        return 0

    params = _params(args)
    # run: the one seed; sweep: seeds 1..N, stopping at the first violation
    sweep = args.cmd == "sweep"
    for seed in (range(1, args.seeds + 1) if sweep else [args.seed]):
        report = run_check(scenario=args.scenario, seed=seed, bug=args.bug,
                           explore=not args.no_explore, **params)
        status = "OK  " if report["ok"] else "FAIL"
        print(f"seed {seed:4d}: {status} {_describe(report)}")
        if not report["ok"]:
            _handle_failure(report, args, params)
            if sweep:
                print(f"sweep FAILED at seed {seed}/{args.seeds}")
            return 1
    if sweep:
        print(f"sweep OK: {args.seeds} seeds, scenario={args.scenario}, "
              f"no violations")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
