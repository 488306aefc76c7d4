"""E10 — fastest-shared-medium selection (§5.3).

    "If the source and destination are on a common private network or
    common IP subnet, the message is sent using the fastest of those."

Workload: two hosts share three media (Myrinet SAN, 100 Mb Ethernet, and
a routed WAN path); a bulk transfer runs under SNIPE's media-shopping
policy and under plain first-interface IP routing. Expected: SNIPE picks
Myrinet (~160 MB/s), the baseline stays on whatever interface was
configured first (Ethernet, ~12 MB/s): an order-of-magnitude difference
available purely from routing policy.
"""

from __future__ import annotations

from typing import Dict, List

from repro.bench.table import Tables
from repro.net.media import ETHERNET_100, MYRINET, WAN_T3
from repro.net.topology import Topology
from repro.sim.kernel import Simulator
from repro.transport.pathsel import DEFAULT_IP, SNIPE
from repro.transport.srudp import SrudpEndpoint


def media_selection(size: int = 20_000_000, seed: int = 0) -> Tables:
    """Table ``media``, rows {policy, segment_used, seconds, mbps}."""
    rows: List[Dict] = []
    for policy in (SNIPE, DEFAULT_IP):
        sim = Simulator(seed=seed)
        topo = Topology(sim)
        # Interface order matters for the baseline: Ethernet first.
        eth = topo.add_segment("eth", ETHERNET_100)
        myr = topo.add_segment("myr", MYRINET)
        wan1 = topo.add_segment("wan1", WAN_T3)
        wan2 = topo.add_segment("wan2", WAN_T3)
        a = topo.add_host("a")
        b = topo.add_host("b")
        gw = topo.add_host("gw", forwarding=True)
        topo.connect(a, eth)
        topo.connect(b, eth)
        topo.connect(a, myr)
        topo.connect(b, myr)
        topo.connect(a, wan1)
        topo.connect(gw, wan1)
        topo.connect(gw, wan2)
        topo.connect(b, wan2)
        tx = SrudpEndpoint(a, 5000, path_policy=policy, window=256)
        rx = SrudpEndpoint(b, 5000)
        done = {}

        def receiver():
            yield rx.recv()
            done["t"] = sim.now

        sim.process(receiver(), name="rx")
        choice = tx.paths.select("b")
        p = tx.send("b", 5000, None, size)
        sim.run(until=p)
        sim.run(until=sim.now + 1.0)
        rows.append(
            {
                "policy": policy,
                "segment_used": choice[0].segment.name if choice else "none",
                "seconds": done["t"],
                "mbps": size / done["t"] / 1e6,
            }
        )
    return {"media": rows}
