"""Per-source shortest-path trees route exactly like per-pair Dijkstra.

``reference_route`` is the per-pair Dijkstra ``Topology`` ran before it
kept one tree per source, kept verbatim as the oracle: every ordered pair
of a random internetwork, across health changes, must get the same path
(equal-cost ties included) from ``Topology.route``.
"""

from __future__ import annotations

import dataclasses
import heapq
from typing import Dict, List, Optional, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import ATM_155, ETHERNET_10, ETHERNET_100, MYRINET, WAN_T3
from repro.net.host import Host
from repro.net.media import Medium
from repro.net.topology import Topology
from repro.sim.kernel import Simulator

MEDIA = [ETHERNET_10, ETHERNET_100, ATM_155, MYRINET, WAN_T3]


def _segment_cost(medium: Medium) -> float:
    return medium.latency + medium.serialize_time(medium.mtu)


def reference_route(topo: Topology, src: str, dst: str) -> Optional[List[str]]:
    """One Dijkstra from *src* to *dst* over every host and segment."""
    if src not in topo.hosts or dst not in topo.hosts:
        return None
    if not topo.hosts[src].up or not topo.hosts[dst].up:
        return None
    dist: Dict[Tuple[str, str], float] = {("h", src): 0.0}
    prev: Dict[Tuple[str, str], Tuple[str, str]] = {}
    pq: List[Tuple[float, Tuple[str, str]]] = [(0.0, ("h", src))]
    target = ("h", dst)
    while pq:
        d, node = heapq.heappop(pq)
        if d > dist.get(node, float("inf")):
            continue
        if node == target:
            break
        kind, name = node
        if kind == "h":
            host = topo.hosts[name]
            if not host.up:
                continue
            if name != src and name != dst and not host.forwarding:
                continue  # cannot route *through* a non-gateway
            for nic in host.nics.values():
                if not nic.up or not nic.segment.up:
                    continue
                nxt = ("s", nic.segment.name)
                nd = d + _segment_cost(nic.segment.medium) / 2
                if nd < dist.get(nxt, float("inf")):
                    dist[nxt] = nd
                    prev[nxt] = node
                    heapq.heappush(pq, (nd, nxt))
        else:
            seg = topo.segments[name]
            if not seg.up:
                continue
            for nic in seg.nics.values():
                if not nic.up or not nic.host.up:
                    continue
                nxt = ("h", nic.host.name)
                nd = d + _segment_cost(seg.medium) / 2
                if nd < dist.get(nxt, float("inf")):
                    dist[nxt] = nd
                    prev[nxt] = node
                    heapq.heappush(pq, (nd, nxt))
    if target not in dist:
        return None
    path: List[str] = []
    node = target
    while True:
        path.append(node[1])
        if node == ("h", src):
            break
        node = prev[node]
    path.reverse()
    return path


@st.composite
def internetworks(draw):
    """(topology, health changes): 2-6 segments of mixed media, the first
    two parallel segments of one medium, multi-homed hosts, random
    gateways; each change takes a host, NIC or segment down or back."""
    media = [draw(st.sampled_from(MEDIA)) for _ in range(draw(st.integers(1, 5)))]
    media.insert(0, media[0])  # two parallel segments force equal-cost ties
    topo = Topology(Simulator(seed=1))
    segs = [topo.add_segment(f"s{i}", m) for i, m in enumerate(media)]
    for h in range(draw(st.integers(2, 7))):
        host = topo.add_host(f"h{h}", forwarding=draw(st.booleans()))
        homes = draw(st.lists(st.sampled_from(segs), max_size=3, unique_by=lambda s: s.name))
        for seg in homes:
            topo.connect(host, seg)
    nics = [nic for host in topo.hosts.values() for nic in host.nics.values()]
    targets = list(topo.hosts.values()) + segs + nics
    changes = draw(st.lists(st.sampled_from(targets), max_size=6))
    return topo, changes


def _toggle(thing) -> None:
    if isinstance(thing, Host):
        thing.recover() if not thing.up else thing.crash()
    else:
        thing.up = not thing.up


def _assert_all_pairs(topo: Topology) -> None:
    names = list(topo.hosts) + ["nowhere"]
    for a in names:
        for b in names:
            assert topo.route(a, b) == reference_route(topo, a, b), (a, b)


@settings(max_examples=150, deadline=None)
@given(internetworks())
def test_route_matches_per_pair_dijkstra(net):
    topo, changes = net
    _assert_all_pairs(topo)
    for thing in changes:
        _toggle(thing)
        topo.bump_version()
        _assert_all_pairs(topo)


def test_parallel_segments_tie_breaks_like_the_reference():
    """Two equal-cost segments: the one the reference pushed first wins,
    for a leaf destination and for a gateway one."""
    for forwarding in (False, True):
        topo = Topology(Simulator(seed=1))
        lan_b, lan_a = topo.add_segment("lan-b", ETHERNET_100), topo.add_segment("lan-a", ETHERNET_100)
        a, b = topo.add_host("a"), topo.add_host("b", forwarding=forwarding)
        for seg in (lan_b, lan_a):
            topo.connect(a, seg)
            topo.connect(b, seg)
        assert topo.route("a", "b") == ["a", "lan-a", "b"] == reference_route(topo, "a", "b")


def test_congestion_reprices_new_routes_and_keeps_cached_ones():
    """``set_medium`` is no version change: a route cached before it keeps
    its path; one computed after it prices the congested medium, also on
    a segment in the middle of the path."""
    topo = Topology(Simulator(seed=1))
    fast1, fast2 = topo.add_segment("fast1", ETHERNET_100), topo.add_segment("fast2", ETHERNET_100)
    slow = topo.add_segment("slow", ETHERNET_10)
    a, gw = topo.add_host("a"), topo.add_host("gw", forwarding=True)
    topo.connect(a, fast1)
    topo.connect(a, slow)
    topo.connect(gw, fast1)
    topo.connect(gw, fast2)
    for name in ("b", "c"):
        host = topo.add_host(name)
        topo.connect(host, fast2)
        topo.connect(host, slow)
    assert topo.route("a", "b") == ["a", "fast1", "gw", "fast2", "b"]
    topo.set_medium("fast1", dataclasses.replace(ETHERNET_100, bandwidth=1e3, latency=1.0))
    assert topo.route("a", "b") == ["a", "fast1", "gw", "fast2", "b"]
    assert topo.route("a", "c") == ["a", "slow", "c"] == reference_route(topo, "a", "c")
    topo.bump_version()
    assert topo.route("a", "b") == ["a", "slow", "b"]


def _build_wan(topo: Topology, n_lans: int, hosts_per_lan: int) -> List[str]:
    """LANs joined by a T3 backbone; each LAN's host 0 is its gateway."""
    wan = topo.add_segment("wan", WAN_T3)
    names = []
    for l in range(n_lans):
        seg = topo.add_segment(f"lan{l}", ETHERNET_100)
        for i in range(hosts_per_lan):
            host = topo.add_host(f"l{l}h{i}", forwarding=(i == 0))
            topo.connect(host, seg)
            if i == 0:
                topo.connect(host, wan)
            names.append(host.name)
    return names


def test_one_tree_per_source_until_the_version_moves(monkeypatch):
    trees: List[str] = []
    real_tree = Topology._tree

    def counting_tree(self, src):
        trees.append(src)
        return real_tree(self, src)

    monkeypatch.setattr(Topology, "_tree", counting_tree)
    topo = Topology(Simulator(seed=1))
    names = _build_wan(topo, 4, 6)
    src = "l1h3"
    for dst in names:
        path = topo.route(src, dst)
        assert path is not None and path[0] == src and path[-1] == dst
    assert trees == [src]
    topo.bump_version()
    assert topo.route(src, "l3h5") == reference_route(topo, src, "l3h5")
    assert trees == [src, src]
