"""``python -m repro check`` — model-check the simulated site.

Subcommands:

* ``run`` — one check run of a scenario: its runner under the entry's
  check profile, a fault plan sampled from the seed, an explored
  schedule and continuous oracles. The scenario-specific flags are the
  ``chaos`` CLI's (one catalogue, ``CHAOS_FLAGS``): they override the
  check profile, and one the scenario does not take is a usage error
  (exit 2). ``--bug NAME`` disables a safety mechanism to prove the
  oracles catch it. On violation the failing run is shrunk
  (``--no-shrink`` to skip) and a minimized trace is written.
* ``sweep`` — seeds 1..N (``--seeds N``) of a scenario; first
  violation is shrunk, written as a trace, and fails the sweep.
* ``replay TRACE`` — re-run a trace file; exit 0 if the violation
  reproduces, 2 if it does not.
"""

from __future__ import annotations

import argparse
from typing import Dict, List, Optional, Tuple

from repro.check.explore import BUGS
from repro.check.scenarios import add_chaos_flags, bug_help, chaos_kwargs, run_check, summary
from repro.check.shrink import load_trace, minimize, replay_trace, write_trace
from repro.net.failures import FaultEvent


def _add_run_args(p: argparse.ArgumentParser) -> None:
    add_chaos_flags(p, check=True)
    p.add_argument("--bug", choices=sorted(BUGS), default=None,
                   help="deliberately disable a safety mechanism (and the "
                        "scenario whose oracles catch it): " + bug_help())
    p.add_argument("--no-shrink", action="store_true",
                   help="on violation, skip minimization")
    p.add_argument("--trace", default=None,
                   help="where to write the minimized failing trace "
                        "(default: check-<scenario>-seed<N>.json)")


def _describe(report: dict) -> str:
    return (f"{summary(report['scenario'], report)} "
            f"reorders={report['schedule_reordered']} t={report['finished_at']:.1f}s")


def _handle_failure(report: dict, args, params: Dict) -> None:
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


def parse_args(argv: Optional[List[str]]) -> Tuple[argparse.Namespace, Dict]:
    """Parse and validate a ``check`` command line; returns the namespace
    and the runner kwargs the given flags set (empty for ``replay``)."""
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
    if args.cmd == "replay":
        return args, {}
    return args, chaos_kwargs(sub.choices[args.cmd], args)


def main(argv: Optional[List[str]] = None) -> int:
    args, params = parse_args(argv)
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

    # run: the one seed; sweep: seeds 1..N, stopping at the first violation
    sweep = args.cmd == "sweep"
    for seed in (range(1, args.seeds + 1) if sweep else [args.seed]):
        report = run_check(scenario=args.scenario, seed=seed, bug=args.bug, **params)
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
