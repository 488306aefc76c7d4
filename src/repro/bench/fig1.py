"""E1 / Fig. 1 — "Bandwidth in MegaBytes/Second offered to SNIPE client
applications on various media."

The paper plots achieved bandwidth vs message size for SNIPE's transports
on 100 Mbit Ethernet and 155 Mbit ATM, plus the experimental Ethernet
multicast. We reproduce every series: for each (medium, protocol) pair,
stream messages of increasing size between two hosts (or one-to-four for
multicast) and report goodput at the receiver.

Expected shape: throughput rises with message size, saturating near each
medium's payload ceiling (Ethernet ≈ 12.2 MB/s, ATM ≈ 17.6 MB/s of the
19.4 MB/s line rate after the cell tax); SRUDP edges out TCP (32- vs
40-byte headers, no handshake); multicast delivers to N receivers for
one serialisation but finishes no faster than the slowest member.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.bench.table import Tables
from repro.net.media import ATM_155, ETHERNET_100, Medium
from repro.net.topology import Topology
from repro.sim.kernel import Simulator
from repro.transport.multicast import EthernetMulticast
from repro.transport.srudp import SrudpEndpoint
from repro.transport.stream import StreamEndpoint

#: Fig. 1's x-axis: message sizes from 4 KB to 4 MB.
DEFAULT_SIZES = [4_096, 16_384, 65_536, 262_144, 1_048_576, 4_194_304]


def _measure_unicast(protocol: str, medium: Medium, size: int, seed: int) -> float:
    """Goodput (bytes/s) for one message size on a dedicated pair."""
    sim = Simulator(seed=seed)
    topo = Topology(sim)
    seg = topo.add_segment(medium.name, medium)
    a = topo.add_host("a")
    b = topo.add_host("b")
    topo.connect(a, seg)
    topo.connect(b, seg)
    cls = SrudpEndpoint if protocol == "srudp" else StreamEndpoint
    tx = cls(a, 5000)
    rx = cls(b, 5000)
    arrivals: List[float] = []

    def receiver():
        while True:
            yield rx.recv()
            arrivals.append(sim.now)

    sim.process(receiver(), name="rx")

    def sender():
        # Warm-up message settles the TCP handshake and SRUDP RTT
        # estimate, then the measured transfer.
        yield tx.send("b", 5000, None, min(size, 16_384))
        start = sim.now
        yield tx.send("b", 5000, None, size)
        return start

    p = sim.process(sender(), name="tx")
    start = sim.run(until=p)
    sim.run(until=sim.now + 1.0)
    elapsed = arrivals[-1] - start
    return size / elapsed if elapsed > 0 else 0.0


def _measure_multicast(size: int, n_receivers: int, seed: int) -> float:
    """Group goodput: bytes delivered to every member / completion time."""
    sim = Simulator(seed=seed)
    topo = Topology(sim)
    seg = topo.add_segment(ETHERNET_100.name, ETHERNET_100)
    hosts = []
    for i in range(n_receivers + 1):
        h = topo.add_host(f"h{i}")
        topo.connect(h, seg)
        hosts.append(h)
    eps = [EthernetMulticast(h, 7000, seg.name) for h in hosts]

    def drain(ep):
        while True:
            yield ep.recv()

    for ep in eps[1:]:
        sim.process(drain(ep), name="drain")
    members = [h.name for h in hosts]

    def sender():
        yield eps[0].send_group(members, 7000, None, min(size, 16_384))  # warm-up
        start = sim.now
        yield eps[0].send_group(members, 7000, None, size)
        return sim.now - start

    p = sim.process(sender(), name="mcast-tx")
    elapsed = sim.run(until=p)
    return size / elapsed if elapsed > 0 else 0.0


def fig1_bandwidth(
    sizes: Optional[Sequence[int]] = None,
    media: Sequence[Medium] = (ETHERNET_100, ATM_155),
    seed: int = 0,
) -> Tables:
    """Regenerate every Fig. 1 series; table ``bandwidth``, rows
    {series, medium, protocol, size, mbps}; the multicast series sends
    to a four-member group."""
    sizes = list(sizes or DEFAULT_SIZES)
    rows: List[Dict] = []
    for medium in media:
        for protocol in ("srudp", "tcp"):
            for size in sizes:
                bps = _measure_unicast(protocol, medium, size, seed)
                rows.append(
                    {
                        "series": f"{protocol}/{medium.name}",
                        "medium": medium.name,
                        "protocol": protocol,
                        "size": size,
                        "mbps": bps / 1e6,
                    }
                )
    for size in sizes:
        bps = _measure_multicast(size, 4, seed)
        rows.append(
            {
                "series": f"mcast/{ETHERNET_100.name}",
                "medium": ETHERNET_100.name,
                "protocol": "mcast",
                "size": size,
                "mbps": bps / 1e6,
            }
        )
    return {"bandwidth": rows}


def srudp_window_ablation(
    windows: Sequence[int] = (4, 16, 64, 256),
    size: int = 1_048_576,
    seed: int = 0,
) -> Tables:
    """Ablation: SRUDP window size on a high bandwidth-delay medium.

    Small windows stall on the BDP; the curve should rise and flatten.
    """
    from repro.net.media import SERIAL_SAT

    rows = []
    for window in windows:
        sim = Simulator(seed=seed)
        topo = Topology(sim)
        seg = topo.add_segment("sat", SERIAL_SAT)
        a = topo.add_host("a")
        b = topo.add_host("b")
        topo.connect(a, seg)
        topo.connect(b, seg)
        tx = SrudpEndpoint(a, 5000, window=window)
        rx = SrudpEndpoint(b, 5000)
        done = {}

        def receiver():
            yield rx.recv()
            done["t"] = sim.now

        sim.process(receiver(), name="rx")
        p = tx.send("b", 5000, None, size)
        sim.run(until=p)
        sim.run(until=sim.now + 2.0)
        rows.append({"window": window, "size": size, "mbps": size / done["t"] / 1e6})
    return {"window": rows}


def multicast_fanout_ablation(
    receiver_counts: Sequence[int] = (1, 2, 4, 8),
    size: int = 1_048_576,
    seed: int = 0,
) -> Tables:
    """Ablation: group size vs the cost of multicast and of N unicasts.

    The experimental multicast's selling point: one serialisation reaches
    every receiver, so completion time is ~flat in N, while sequential
    unicasts scale linearly. Rows: {receivers, mcast_s, unicast_s, ratio}.
    """
    rows: List[Dict] = []
    for n in receiver_counts:
        # Multicast: one sender, n receivers on a shared Ethernet.
        mcast_bps = _measure_multicast(size, n, seed)
        mcast_s = size / mcast_bps
        # Unicast baseline: same topology, n sequential SRUDP transfers.
        sim = Simulator(seed=seed)
        topo = Topology(sim)
        seg = topo.add_segment(ETHERNET_100.name, ETHERNET_100)
        hosts = []
        for i in range(n + 1):
            h = topo.add_host(f"h{i}")
            topo.connect(h, seg)
            hosts.append(h)
        tx = SrudpEndpoint(hosts[0], 5000)
        rxs = [SrudpEndpoint(h, 5000) for h in hosts[1:]]

        def drain(ep):
            while True:
                yield ep.recv()

        for ep in rxs:
            sim.process(drain(ep), name="drain")

        def send_all():
            start = sim.now
            for h in hosts[1:]:
                yield tx.send(h.name, 5000, None, size)
            return sim.now - start

        p = sim.process(send_all(), name="unicast-all")
        unicast_s = sim.run(until=p)
        rows.append(
            {
                "receivers": n,
                "mcast_s": mcast_s,
                "unicast_s": unicast_s,
                "speedup": unicast_s / mcast_s,
            }
        )
    return {"fanout": rows}
