"""Bounded transport ingress: backpressure, lanes, and path quarantine."""

from repro.rpc import Request
from repro.transport import SrudpEndpoint
from repro.transport.multicast import EthernetMulticast

from .conftest import make_lan


def test_srudp_bounded_rx_backpressures_without_loss(lan):
    """A full bulk lane withholds the final ACK: the sender retransmits
    and every message is eventually delivered — bounded memory, no
    silent loss."""
    sim, topo, (a, b) = lan
    tx = SrudpEndpoint(a, 5000)
    rx = SrudpEndpoint(b, 5000, rx_capacity=1)
    got = []

    def slow_consumer():
        # Let the queue fill (and overflow) before draining anything.
        yield sim.timeout(2.0)
        while len(got) < 3:
            msg = yield rx.recv()
            got.append(msg.payload)

    sim.process(slow_consumer())
    sends = [tx.send("h1", 5000, f"m{i}", 64) for i in range(3)]
    sim.run(until=10.0)
    for ev in sends:
        assert ev.triggered and ev.ok  # every send eventually acked
    assert sorted(got) == ["m0", "m1", "m2"]
    assert rx.rx_drops > 0  # overflow really happened (as backpressure)
    assert sim.obs.metrics.counter("transport.rx_drops", proto="srudp").value > 0


def test_srudp_control_lane_is_admitted_when_bulk_is_full(lan):
    sim, topo, (a, b) = lan
    tx = SrudpEndpoint(a, 5000)
    rx = SrudpEndpoint(b, 5000, rx_capacity=1)
    sim.run(until=tx.send("h1", 5000, "bulk-0", 64))
    # Bulk lane now full (capacity 1, nobody consuming). A control-plane
    # request (daemon.ping is in CONTROL_METHODS) still gets through
    # without displacing or waiting on the bulk item.
    ping = Request(method="daemon.ping", args={}, reply_port=5000, req_id=1)
    sim.run(until=tx.send("h1", 5000, ping, 64))
    first = rx.recv()
    sim.run(until=1.0)
    assert first.triggered
    assert getattr(first.value.payload, "method", None) == "daemon.ping"
    assert rx.rx_drops == 0


def test_multicast_bounded_rx_repairs_after_drain():
    sim, topo, hosts = make_lan(n_hosts=3)
    tx = EthernetMulticast(hosts[0], 6000, "lan")
    rx1 = EthernetMulticast(hosts[1], 6000, "lan", rx_capacity=1)
    rx2 = EthernetMulticast(hosts[2], 6000, "lan")
    got = {"h1": [], "h2": []}

    def consumer(rx, key, delay):
        yield sim.timeout(delay)
        while len(got[key]) < 2:
            msg = yield rx.recv()
            got[key].append(msg.payload)

    sim.process(consumer(rx1, "h1", 2.0))  # slow: queue overflows first
    sim.process(consumer(rx2, "h2", 0.0))
    sends = [tx.send_group(["h1", "h2"], 6000, f"g{i}", 128) for i in range(2)]
    sim.run(until=15.0)
    for ev in sends:
        assert ev.triggered and ev.ok
    assert sorted(got["h1"]) == ["g0", "g1"]
    assert sorted(got["h2"]) == ["g0", "g1"]


def test_pathsel_demotes_interface_with_open_breaker():
    """Repeated send failures toward a destination quarantine the chosen
    interface; selection falls over to the next-best shared segment and
    returns once the breaker's window expires."""
    from tests.transport.test_pathsel import dual_homed

    sim, topo, a, b, (eth, myr, *_) = dual_homed()
    sel = SrudpEndpoint(a, 5000).paths
    nic, _, _ = sel.select("b")
    assert nic.segment.name == "myr"  # fastest shared medium wins
    # Two failures trip the path board (min_samples=2, threshold 0.75).
    sel.note_result("b", False)
    sel.note_result("b", False)
    nic, _, _ = sel.select("b")
    assert nic.segment.name == "eth"  # myrinet path quarantined
    # After the open window (2s) the peek reports available again.
    sim.run(until=3.0)
    nic, _, _ = sel.select("b")
    assert nic.segment.name == "myr"


def test_pathsel_quarantine_of_all_paths_keeps_a_fallback():
    from tests.transport.test_pathsel import dual_homed

    sim, topo, a, b, (eth, myr, *_) = dual_homed()
    sel = SrudpEndpoint(a, 5000).paths
    for segment in ("myr", "eth"):
        nic, _, _ = sel.select("b")
        assert nic.segment.name == segment
        sel.note_result("b", False)
        sel.note_result("b", False)
    # Every direct interface is open: selection still returns a viable
    # path (fail open) rather than refusing to route.
    nic, _, _ = sel.select("b")
    assert nic is not None


def test_pathsel_breakers_disabled_by_config():
    from tests.transport.test_pathsel import dual_homed

    sim, topo, a, b, _ = dual_homed()
    sim.overload.adaptive = False
    sel = SrudpEndpoint(a, 5000).paths
    sel.note_result("b", False)
    sel.note_result("b", False)
    nic, _, _ = sel.select("b")
    assert nic.segment.name == "myr"  # static baseline: no quarantine
