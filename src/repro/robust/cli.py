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
* ``bench`` — the robustness benchmarks: ``--experiment gray`` (E15,
  differential detector vs heartbeat-only; writes
  ``BENCH_gray_goodput.json``), ``--experiment heal`` (E16, bounded
  anti-entropy vs the unbounded blob plus blackout restore; writes
  ``BENCH_heal_reconvergence.json``) or ``--experiment catalog`` (E18,
  sharded federation vs full replication; writes
  ``BENCH_catalog_scale.json``).
"""

from __future__ import annotations

import argparse
import time
from typing import Dict, List, Optional, Tuple

from repro.bench import e15_gray as e15
from repro.bench import e16_heal as e16
from repro.bench import e18_catalog_scale as e18
from repro.check.scenarios import SCENARIOS, add_chaos_flags, chaos_kwargs
from repro.obs.flight import dump_flight_records
from repro.obs.report import save_export, write_bench_json
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


# ---------------------------------------------------------------------------
# bench: experiment -> (run, BENCH name, default --duration, blurb)
# ---------------------------------------------------------------------------
# Each ``run(args, duration)`` returns ``(rows, text, ok, json_kw)``: the
# metric rows, the table to print, the experiment's own gate, and what
# ``write_bench_json`` takes beyond the rows.

def _seed_matrix(bench_rows, fmt, summarize, gate):
    """A bench that is one chaos scenario over ``--seeds`` x configs."""
    def run(args, duration: float) -> Tuple:
        rows = bench_rows(seeds=args.seeds, duration=duration)
        summary = summarize(rows)
        return rows, fmt(rows), gate(summary), {
            "extra": {"summary": summary, "seeds": list(args.seeds)}}
    return run


def _bench_catalog(args, window: float) -> Tuple:
    kw = {}
    if args.names is not None:
        kw["name_counts"] = tuple(args.names)
    if args.clients is not None:
        kw["n_client_hosts"] = args.clients
    rows = e18.catalog_scale(seed=args.seeds[0], window=window, **kw)
    skw = {}
    if args.split_names is not None:
        skw["n_names"] = args.split_names
    sims = []
    split = e18.split_under_load(
        seed=args.seeds[0], window=min(window + 10.0, 30.0),
        instrument=sims.append, **skw)
    sharded = [r for r in rows if r["config"] == "sharded"]
    # misses are a hard zero (every preloaded name must resolve);
    # failed ops get a 0.1%-of-writes allowance — at the saturated
    # top scale a closed-loop QUORUM write can exhaust its retry
    # budget without indicting the federation.
    ok = (all(r["misses"] == 0
              and r["failed"] <= 0.001 * (r["updates"] + r["creates"])
              for r in sharded)
          and split["splits"] >= 1 and split["drain_s"] is not None)
    return rows, e18.format_catalog_bench(rows, split), ok, {
        "seed": args.seeds[0],
        "metrics": sims[0].obs.metrics.export() if sims else None,
        "extra": {"summary": e18.summarize(rows, split), "split": split}}


BENCHES = {
    "gray": (
        _seed_matrix(
            e15.gray_goodput, e15.format_gray_bench, e15.summarize,
            lambda s: (s["goodput_ratio"] is not None
                       and s["goodput_ratio"] >= 2.0
                       and s["false_deaths_differential"] == 0)),
        "gray_goodput", 40.0,
        "E15, differential detector vs heartbeat-only"),
    "heal": (
        _seed_matrix(
            e16.heal_reconvergence, e16.format_heal_bench, e16.summarize,
            lambda s: (s["bounded_all_ok"] and s["blackout_all_ok"]
                       and s["baseline_breaches_bound"]
                       and s["blackout_resurrected"] == 0)),
        "heal_reconvergence", 100.0,
        "E16, bounded anti-entropy vs the unbounded blob, plus blackout "
        "restore"),
    "catalog": (
        _bench_catalog, "catalog_scale", 20.0,
        "E18, sharded federation vs full replication at 10^4-10^5 names "
        "plus a shard split under live load"),
}


def _cmd_bench(args) -> int:
    run, bench_name, default_duration, _blurb = BENCHES[args.experiment]
    t0 = time.monotonic()
    rows, text, ok, json_kw = run(
        args, args.duration if args.duration is not None else default_duration)
    print(text)
    path = write_bench_json(
        bench_name, rows, args.json_dir,
        wall_s=round(time.monotonic() - t0, 2), scenario=args.experiment,
        **json_kw)
    print(f"\nbench json written: {path}")
    return 0 if ok else 1


def parse_args(argv: Optional[List[str]]) -> Tuple[argparse.Namespace, Dict]:
    """Parse and validate a ``chaos`` command line; returns the namespace
    and, for ``run``/``sweep``, the selected scenario's runner kwargs."""
    parser = argparse.ArgumentParser(prog="python -m repro chaos",
                                     description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    p_run = sub.add_parser("run", help="one seeded chaos run")
    p_run.add_argument("--seed", type=int, default=1)
    _add_run_args(p_run)
    p_sweep = sub.add_parser("sweep", help="run a set of seeds")
    p_sweep.add_argument("--seeds", type=int, nargs="+", default=list(DEFAULT_SEEDS))
    _add_run_args(p_sweep)
    p_bench = sub.add_parser(
        "bench", help="robustness benchmarks: E15 gray goodput, E16 heal "
                      "reconvergence, or E18 catalog scale")
    p_bench.add_argument(
        "--experiment", choices=list(BENCHES), default="gray",
        help="; ".join(f"{n}: {b[3]}" for n, b in BENCHES.items())
             + " (default: gray)")
    p_bench.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    p_bench.add_argument(
        "--duration", type=float, default=None,
        help="simulated-seconds budget per run (default: "
             + ", ".join(f"{b[2]:g} for {n}" for n, b in BENCHES.items()) + ")")
    p_bench.add_argument("--names", type=int, nargs="+", default=None,
                         help="[catalog] preloaded catalog sizes per row "
                              "(default: 10000 100000)")
    p_bench.add_argument("--split-names", type=int, default=None,
                         help="[catalog] preload size for the "
                              "split-under-load run (default: 3000)")
    p_bench.add_argument("--clients", type=int, default=None,
                         help="[catalog] client hosts driving the "
                              "closed-loop mix (default: 8)")
    p_bench.add_argument("--json-dir", default=".",
                         help="directory for the BENCH json "
                              "(default: current directory)")
    args = parser.parse_args(argv)
    if args.cmd == "bench":
        return args, {}
    return args, chaos_kwargs(sub.choices[args.cmd], args)


def main(argv: Optional[List[str]] = None) -> int:
    args, kwargs = parse_args(argv)
    if args.cmd == "bench":
        return _cmd_bench(args)

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
