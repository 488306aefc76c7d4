"""E8 — transparent route/interface failover (§6).

    "The system also provided the ability to switch routes/interfaces as
    links failed without user applications intervention."

Workload: a long transfer between dual-homed hosts (fast primary medium
+ slower secondary), with the primary segment cut mid-stream. We sample
received bytes in windows to produce a throughput timeline, and report
the failover gap (longest receive stall) and total completion.

Two policies: SNIPE multi-path (fails over) vs a single-interface
baseline (the transfer dies with the link).
"""

from __future__ import annotations

from typing import Dict, List

from repro.bench.table import Tables
from repro.net.media import ATM_155, ETHERNET_100
from repro.net.topology import Topology
from repro.sim.kernel import Simulator
from repro.transport.srudp import SrudpEndpoint

#: Bytes per message of the bulk stream the cut interrupts.
MSG_SIZE = 200_000


def failover_timeline(
    total_bytes: int = 10_000_000,
    cut_at: float = 0.15,
    window: float = 0.05,
    seed: int = 0,
) -> Tables:
    """Table ``summary``, rows {policy, delivered_mb, completed,
    failover_gap_ms (None when nothing arrived after the cut),
    route_switches}; table ``timeline``, rows {policy, t, mbps}."""
    timelines: List[Dict] = []
    summaries: List[Dict] = []
    for policy, dual in (("snipe-multipath", True), ("single-interface", False)):
        sim = Simulator(seed=seed)
        topo = Topology(sim)
        primary = topo.add_segment("atm", ATM_155)
        a = topo.add_host("a")
        b = topo.add_host("b")
        topo.connect(a, primary)
        topo.connect(b, primary)
        if dual:
            secondary = topo.add_segment("eth", ETHERNET_100)
            topo.connect(a, secondary)
            topo.connect(b, secondary)
        tx = SrudpEndpoint(a, 5000, max_retries=20)
        rx = SrudpEndpoint(b, 5000)
        arrivals: List[tuple] = []

        def receiver():
            while True:
                msg = yield rx.recv()
                arrivals.append((sim.now, msg.size))

        sim.process(receiver(), name="rx")
        n_msgs = total_bytes // MSG_SIZE
        state = {"done": 0, "failed": False}

        def sender():
            for _ in range(n_msgs):
                try:
                    yield tx.send("b", 5000, None, MSG_SIZE)
                    state["done"] += 1
                except Exception:
                    state["failed"] = True
                    return

        sim.process(sender(), name="tx")

        def cutter():
            yield sim.timeout(cut_at)
            primary.up = False
            topo.bump_version()

        sim.process(cutter(), name="cutter")
        sim.run(until=30.0)
        # Build the throughput timeline.
        horizon = max((t for t, _ in arrivals), default=0.0) + window
        t = 0.0
        while t < horizon:
            got = sum(size for at, size in arrivals if t <= at < t + window)
            timelines.append({"policy": policy, "t": round(t, 3), "mbps": got / window / 1e6})
            t += window
        # Failover gap: longest inter-arrival stall around the cut.
        gap = 0.0
        times = [at for at, _ in arrivals if at > cut_at]
        prev = max((at for at, _ in arrivals if at <= cut_at), default=cut_at)
        for at in times:
            gap = max(gap, at - prev)
            break  # first arrival after the cut defines the stall
        delivered = sum(size for _, size in arrivals)
        summaries.append(
            {
                "policy": policy,
                "delivered_mb": delivered / 1e6,
                "completed": state["done"] == n_msgs,
                "failover_gap_ms": gap * 1e3 if times else None,
                "route_switches": tx.paths.switches,
            }
        )
    return {"summary": summaries, "timeline": timelines}
