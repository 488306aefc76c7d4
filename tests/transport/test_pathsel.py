"""Unit tests for §5.3 path selection and failover."""

from repro.net import ETHERNET_100, MYRINET, WAN_T3, Topology
from repro.sim import Simulator
from repro.transport import SrudpEndpoint
from repro.transport.pathsel import DEFAULT_IP, PathSelector


def dual_homed():
    """a and b share eth + myrinet; also reachable via a WAN gateway."""
    sim = Simulator()
    topo = Topology(sim)
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
    return sim, topo, a, b, (eth, myr, wan1, wan2)


def test_snipe_policy_picks_fastest_shared_medium():
    sim, topo, a, b, (eth, myr, *_) = dual_homed()
    sel = PathSelector(a)
    nic, dst_ip, l2 = sel.select("b")
    assert nic.segment.name == "myr"
    assert l2 is None


def test_default_ip_policy_sticks_to_first_interface():
    sim, topo, a, b, segs = dual_homed()
    sel = PathSelector(a, policy=DEFAULT_IP)
    nic, dst_ip, l2 = sel.select("b")
    assert nic.segment.name == "eth"  # first-configured iface, no shopping


def test_failover_cascade_and_switch_count():
    sim, topo, a, b, (eth, myr, wan1, wan2) = dual_homed()
    sel = PathSelector(a)
    assert sel.select("b")[0].segment.name == "myr"
    myr.up = False
    topo.bump_version()
    assert sel.select("b")[0].segment.name == "eth"
    eth.up = False
    topo.bump_version()
    nic, dst_ip, l2 = sel.select("b")
    assert nic.segment.name == "wan1"
    assert l2 is not None  # routed via the gateway
    assert sel.switches == 2


def test_cache_holds_only_the_current_topology_version():
    """A topology bump retires every cached choice: across 100 bumps,
    one selector over three destinations never holds more than one
    entry per destination."""
    sim, topo, a, b, _segs = dual_homed()
    sel = PathSelector(a)
    dests = ("b", "gw", "nowhere")
    for _ in range(100):
        topo.bump_version()
        for dst in dests:
            sel.select(dst)
    assert len(sel._cache) <= len(dests)
    assert sel.select("b")[0].segment.name == "myr"


def test_unreachable_returns_none():
    sim, topo, a, b, segs = dual_homed()
    for seg in segs:
        seg.up = False
    topo.bump_version()
    sel = PathSelector(a)
    assert sel.select("b") is None


def test_transparent_failover_mid_transfer():
    """SRUDP keeps delivering when its segment dies mid-stream (E8 core)."""
    sim, topo, a, b, (eth, myr, wan1, wan2) = dual_homed()
    tx = SrudpEndpoint(a, 5000)
    rx = SrudpEndpoint(b, 5000)
    done = {}

    def receiver(sim, rx):
        msg = yield rx.recv()
        done["size"] = msg.size

    sim.process(receiver(sim, rx))

    def killer(sim):
        yield sim.timeout(0.004)  # mid-transfer on myrinet
        myr.up = False
        topo.bump_version()

    sim.process(killer(sim))
    p = tx.send("b", 5000, "survives", 2_000_000)
    sim.run(until=p)
    sim.run(until=sim.now + 0.5)
    assert done["size"] == 2_000_000
    assert tx.paths.switches >= 1
