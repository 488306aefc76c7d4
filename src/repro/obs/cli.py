"""``python -m repro obs`` — render, diff, profile, and gate observability.

Subcommands:

* ``report`` — no argument: run the built-in lossy-LAN demo scenario
  (srudp, tcp, and ethernet multicast traffic under 5% frame loss) and
  print the per-subsystem metrics report — p50/p95/p99 message latency
  and retransmit counts per transport. With a file argument: render a
  previously saved export (or ``BENCH_*.json``) instead of simulating.
  ``--json PATH`` saves the export; ``--trace PATH`` enables tracing and
  dumps the JSON-lines trace log.
* ``diff BASE NEW`` — align two saved exports by (metric, tags) and
  print per-column deltas. ``--fail-over PCT`` turns the diff into a CI
  regression gate: exit nonzero when any matching metric moved more than
  PCT percent (``--metrics GLOB`` filters, ``--direction up|down|any``
  picks the gated direction).
* ``profile`` — run a scenario (``demo``, or any chaos scenario in the
  scenario table, with its profile preset) under the deterministic
  kernel profiler; print the hot-subsystem table and write
  ``BENCH_profile_<scenario>.json`` (with a d3-flamegraph-style nested
  JSON under ``flame``; ``--flame PATH`` also writes it standalone).
* ``slo`` — evaluate the declarative SLOs (control-RPC p99, heartbeat
  loss, recovery MTTR, shed rate) continuously over an overload run —
  or offline against a saved export (``--export FILE``) — and exit
  nonzero on violation.

The cost of the observability layer itself (tracing off / sampled /
on) is experiment E14: ``python -m repro experiments E14``.
"""

from __future__ import annotations

import argparse
import json
from typing import Callable, List, Optional

from repro.check.scenarios import SCENARIOS
from repro.obs.report import (
    diff_exports,
    gate_diff,
    load_export,
    render_diff,
    render_report,
    save_export,
    write_bench_json,
)

#: Demo scenario knobs.
LOSS_RATE = 0.05
N_MESSAGES = 20
MSG_BYTES = 65_536


def demo_scenario(
    loss_rate: float = LOSS_RATE,
    n_messages: int = N_MESSAGES,
    msg_bytes: int = MSG_BYTES,
    seed: int = 7,
    trace: bool = False,
    instrument: Optional[Callable] = None,
):
    """Three hosts on a lossy LAN pushing srudp, tcp, and mcast traffic.

    Returns the finished :class:`~repro.sim.kernel.Simulator`; its
    ``sim.obs`` holds the metrics (and the trace, when enabled).
    ``instrument(sim)`` runs before any process exists — the profiler
    attaches through it.
    """
    from repro.net import ETHERNET_100, Medium, Topology
    from repro.sim import Simulator
    from repro.transport import EthernetMulticast, SrudpEndpoint, StreamEndpoint

    medium = Medium(
        name="lan",
        bandwidth=ETHERNET_100.bandwidth,
        latency=ETHERNET_100.latency,
        mtu=ETHERNET_100.mtu,
        frame_overhead=ETHERNET_100.frame_overhead,
        loss_rate=loss_rate,
    )
    sim = Simulator(seed=seed)
    if trace:
        sim.obs.tracer.enabled = True
    if instrument is not None:
        instrument(sim)
    topo = Topology(sim)
    seg = topo.add_segment("lan", medium)
    hosts = []
    for i in range(3):
        h = topo.add_host(f"h{i}")
        topo.connect(h, seg)
        hosts.append(h)
    a, b, c = hosts

    srudp_tx = SrudpEndpoint(a, 5000)
    srudp_rx = SrudpEndpoint(b, 5000)
    tcp_tx = StreamEndpoint(a, 6000)
    tcp_rx = StreamEndpoint(b, 6000)
    mcast = {h.name: EthernetMulticast(h, 7000, "lan") for h in hosts}

    def drain(ep, n):
        for _ in range(n):
            yield ep.recv()

    def send_all(ep, n):
        for i in range(n):
            yield ep.send(b.name, ep.port, f"msg-{i}", msg_bytes)

    def send_group(ep, n):
        for i in range(n):
            yield ep.send_group([b.name, c.name], 7000, f"m-{i}", msg_bytes)

    sim.process(drain(srudp_rx, n_messages), name="drain-srudp")
    sim.process(drain(tcp_rx, n_messages), name="drain-tcp")
    sim.process(drain(mcast[b.name], n_messages), name="drain-mcast-b")
    sim.process(drain(mcast[c.name], n_messages), name="drain-mcast-c")
    procs = [
        sim.process(send_all(srudp_tx, n_messages), name="send-srudp"),
        sim.process(send_all(tcp_tx, n_messages), name="send-tcp"),
        sim.process(send_group(mcast[a.name], n_messages), name="send-mcast"),
    ]
    sim.run(until=sim.all_of(procs))
    return sim


def _cmd_report(args: argparse.Namespace) -> int:
    if args.export is not None:
        export = load_export(args.export)
        print(render_report(export, title=f"observability report: {args.export}"))
        return 0
    sim = demo_scenario(trace=args.trace is not None)
    export = sim.obs.export()
    title = (
        "observability report: lossy-LAN demo "
        f"(loss={LOSS_RATE:.0%}, {N_MESSAGES}x{MSG_BYTES}B per transport)"
    )
    print(render_report(export, title=title))
    if args.json is not None:
        save_export(export, args.json)
        print(f"\nexport written to {args.json}")
    if args.trace is not None:
        sim.obs.tracer.dump_jsonl(args.trace)
        print(f"trace ({len(sim.obs.tracer)} records) written to {args.trace}")
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    base = load_export(args.base)
    new = load_export(args.new)
    print(render_diff(base, new, title=f"observability diff: {args.new} vs {args.base}"))
    if args.fail_over is None:
        return 0
    rows = diff_exports(base, new)
    tripped = gate_diff(rows, args.fail_over, metrics_glob=args.metrics,
                        direction=args.direction)
    print()
    if not tripped:
        print(f"GATE OK: no metric matching {args.metrics!r} moved "
              f"{args.direction} by more than {args.fail_over:g}%")
        return 0
    print(f"GATE FAILED: {len(tripped)} metric change(s) beyond "
          f"{args.fail_over:g}% ({args.direction}):")
    for row in tripped:
        tags = f"[{row['tags']}]" if row["tags"] else ""
        print(f"  {row['metric']}{tags} {row['column']}: "
              f"{row['base']} -> {row['new']} ({row['pct']:+.1f}%)")
    return 1


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.obs.prof import profile_scenario

    result = profile_scenario(args.scenario, seed=args.seed)
    prof = result["profiler"]
    print(prof.format_report(args.scenario))
    path = write_bench_json(
        f"profile_{args.scenario}",
        result["profile"]["by_subsystem"],
        args.out,
        wall_s=result["profile"]["wall_s"],
        scenario=args.scenario,
        seed=args.seed,
        extra={"ok": result["ok"], "profile": result["profile"],
               "flame": result["flame"]},
    )
    print(f"\nprofile written to {path}")
    if args.flame is not None:
        with open(args.flame, "w") as fh:
            json.dump(result["flame"], fh, indent=2)
            fh.write("\n")
        print(f"flamegraph JSON written to {args.flame}")
    return 0


def _cmd_slo(args: argparse.Namespace) -> int:
    from repro.obs.slo import (
        DEFAULT_SLOS,
        SloMonitor,
        evaluate_slos,
        format_slo_results,
        parse_slo,
    )

    slos = tuple(parse_slo(s) for s in args.slo) if args.slo else DEFAULT_SLOS
    if args.export is not None:
        results = evaluate_slos(load_export(args.export), slos)
        title = f"SLO evaluation: {args.export}"
    else:
        from repro.robust.chaos import run_overload

        holder = {}

        def instrument(sim):
            holder["monitor"] = SloMonitor(sim, slos,
                                           interval=args.interval).attach()

        run_overload(args.seed, saturation=args.saturation,
                     adaptive=not args.static, duration=args.duration,
                     instrument=instrument)
        results = holder["monitor"].results()
        mode = "static baseline" if args.static else "adaptive"
        title = (f"SLO evaluation: overload seed={args.seed} "
                 f"saturation={args.saturation:g}x ({mode})")
    print(format_slo_results(results, title=title))
    if args.json is not None:
        with open(args.json, "w") as fh:
            json.dump(results, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"results written to {args.json}")
    return 0 if all(r["ok"] for r in results) else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro obs",
        description="render and diff simulator observability reports",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_report = sub.add_parser("report", help="print a per-subsystem metrics report")
    p_report.add_argument(
        "export", nargs="?", default=None,
        help="saved export (or BENCH_*.json) to render; omit to run the demo scenario",
    )
    p_report.add_argument("--json", default=None, metavar="PATH",
                          help="save the demo scenario's export as JSON")
    p_report.add_argument("--trace", default=None, metavar="PATH",
                          help="enable tracing and dump the JSON-lines trace log")
    p_report.set_defaults(fn=_cmd_report)

    p_diff = sub.add_parser("diff", help="diff two saved exports "
                                         "(optionally as a CI regression gate)")
    p_diff.add_argument("base")
    p_diff.add_argument("new")
    p_diff.add_argument("--fail-over", type=float, default=None, metavar="PCT",
                        help="exit nonzero if any gated metric changed by "
                             "more than PCT percent")
    p_diff.add_argument("--metrics", default="*", metavar="GLOB",
                        help="glob of metric names the gate applies to "
                             "(default: all)")
    p_diff.add_argument("--direction", choices=("any", "up", "down"),
                        default="any",
                        help="gate increases, decreases, or both (default any)")
    p_diff.set_defaults(fn=_cmd_diff)

    p_prof = sub.add_parser("profile",
                            help="run a scenario under the kernel profiler")
    p_prof.add_argument("--scenario", choices=("demo", *SCENARIOS),
                        default="demo")
    p_prof.add_argument("--seed", type=int, default=1)
    p_prof.add_argument("--out", default=".", metavar="DIR",
                        help="directory for BENCH_profile_<scenario>.json "
                             "(default: .)")
    p_prof.add_argument("--flame", default=None, metavar="PATH",
                        help="also write the d3-flamegraph JSON standalone")
    p_prof.set_defaults(fn=_cmd_profile)

    p_slo = sub.add_parser("slo", help="evaluate SLOs over an overload run "
                                       "or a saved export")
    p_slo.add_argument("--seed", type=int, default=1)
    p_slo.add_argument("--saturation", type=float, default=5.0,
                       help="offered load as a multiple of site capacity "
                            "(default 5.0)")
    p_slo.add_argument("--static", action="store_true",
                       help="baseline: fixed timeouts, no breakers, no "
                            "priority lanes (the natural SLO breach)")
    p_slo.add_argument("--duration", type=float, default=32.0)
    p_slo.add_argument("--interval", type=float, default=1.0,
                       help="virtual seconds between in-run SLO samples "
                            "(default 1.0)")
    p_slo.add_argument("--slo", action="append", default=None, metavar="SPEC",
                       help="name:metric[:column]:op:threshold (repeatable; "
                            "default: the built-in SLO set)")
    p_slo.add_argument("--export", default=None, metavar="FILE",
                       help="evaluate offline against a saved export instead "
                            "of simulating")
    p_slo.add_argument("--json", default=None, metavar="PATH",
                       help="save the per-SLO verdicts as JSON")
    p_slo.set_defaults(fn=_cmd_slo)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
