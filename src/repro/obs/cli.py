"""``python -m repro obs`` — render, diff and profile observability.

Subcommands:

* ``report`` — no argument: run the built-in lossy-LAN demo scenario
  (srudp, tcp, and ethernet multicast traffic under 5% frame loss) and
  print the per-subsystem metrics report — p50/p95/p99 message latency
  and retransmit counts per transport. With a file argument: render a
  previously saved export (or ``BENCH_*.json``) instead of simulating.
  ``--json PATH`` saves the export; ``--trace PATH`` enables tracing and
  dumps the JSON-lines trace log.
* ``diff BASE NEW`` — align two saved exports by (metric, tags) and
  print per-column deltas. It renders only: a verdict on a seeded run
  is its replay digest's or its experiment check's.
* ``profile`` — run a scenario (``demo``, or any chaos scenario in the
  scenario table, with its profile preset) under the deterministic
  kernel profiler; print its event/heap/frame counts and write them to
  ``BENCH_profile_<scenario>.json``.

What tracing does to the simulated outcome (off / sampled / on) is
experiment E14, ``python -m repro experiments E14``; what looking costs
in host time is measured by perfbench (``probe.obs.tracing_on_ratio``
for the tracer, ``obs.trace_overhead_ratio`` for its traced pass).
"""

from __future__ import annotations

import argparse
from typing import Callable, List, Optional

from repro.check.scenarios import SCENARIOS
from repro.obs.report import (
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
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.obs.prof import profile_scenario

    result = profile_scenario(args.scenario, seed=args.seed)
    print(result["profiler"].format_report(args.scenario))
    path = write_bench_json(
        f"profile_{args.scenario}", [], args.out,
        scenario=args.scenario, seed=args.seed,
        extra={"ok": result["ok"], "profile": result["profile"]})
    print(f"\nprofile written to {path}")
    return 0


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

    p_diff = sub.add_parser("diff", help="diff two saved exports")
    p_diff.add_argument("base")
    p_diff.add_argument("new")
    p_diff.set_defaults(fn=_cmd_diff)

    p_prof = sub.add_parser("profile",
                            help="run a scenario under the kernel profiler")
    p_prof.add_argument("--scenario", choices=("demo", *SCENARIOS),
                        default="demo")
    p_prof.add_argument("--seed", type=int, default=1)
    p_prof.add_argument("--out", default=".", metavar="DIR",
                        help="directory for BENCH_profile_<scenario>.json "
                             "(default: .)")
    p_prof.set_defaults(fn=_cmd_profile)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
