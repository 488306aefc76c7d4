"""Topology: the registry of hosts and segments, plus IP-style routing.

Routing keeps one shortest-path tree per source over the routing core:
the source, the segments and the hosts flagged ``forwarding`` (gateways),
the only hosts that may appear in a path's interior. Any other host is a
leaf, resolved on lookup through the cheapest segment of it the tree
reached. Trees and routes respect link/host health and live until the
topology version counter that failure events bump moves, so routes
recompute after every failure or repair — this is what E8 (failover)
exercises.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.net.host import Host
from repro.net.media import Medium
from repro.net.segment import Segment

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.nic import NIC
    from repro.sim.kernel import Simulator


#: A routing-graph node: ("h", host name) or ("s", segment name).
Node = Tuple[str, str]
_INF = float("inf")


def _segment_cost(medium: Medium) -> float:
    """Routing metric: time to push one full frame across the segment."""
    return medium.latency + medium.serialize_time(medium.mtu)


class Topology:
    """Builder and router for the simulated internetwork."""

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self.hosts: Dict[str, Host] = {}
        self.segments: Dict[str, Segment] = {}
        self._ip_to_host: Dict[str, str] = {}
        self._next_seg_id = 1
        self._version = 0
        # Valid until the next bump_version(): routes per (src, dst), one
        # shortest-path tree per source, and each segment's half-cost.
        self._route_cache: Dict[Tuple[str, str], Optional[List[str]]] = {}
        self._trees: Dict[str, Tuple[Dict[Node, float], Dict[Node, Node]]] = {}
        self._half: Dict[str, float] = {}

    # -- construction -----------------------------------------------------
    def add_segment(self, name: str, medium: Medium) -> Segment:
        if name in self.segments:
            raise ValueError(f"duplicate segment {name!r}")
        seg = Segment(self.sim, name, medium)
        seg._seg_id = self._next_seg_id  # type: ignore[attr-defined]
        self._next_seg_id += 1
        self.segments[name] = seg
        self.bump_version()
        return seg

    def add_host(self, name: str, **kwargs) -> Host:
        if name in self.hosts:
            raise ValueError(f"duplicate host {name!r}")
        host = Host(self.sim, name, self, **kwargs)
        self.hosts[name] = host
        self.bump_version()
        return host

    def connect(
        self, host: Host, segment: Segment, iface: Optional[str] = None, ip: Optional[str] = None
    ) -> "NIC":
        """Attach *host* to *segment*, auto-assigning iface name and IP."""
        if iface is None:
            iface = f"if{len(host.nics)}"
        if ip is None:
            seg_id = getattr(segment, "_seg_id", 0)
            ip = f"10.{seg_id}.0.{len(segment.nics) + 1}"
        nic = host.add_nic(iface, ip, segment)
        self._ip_to_host[ip] = host.name
        self.bump_version()
        return nic

    def bump_version(self) -> None:
        """Invalidate cached routes (called on any topology/health change)."""
        self._version += 1
        self._route_cache.clear()
        self._trees.clear()
        self._half.clear()

    def set_medium(self, segment: str, medium: Medium) -> None:
        """Swap *segment*'s medium (congestion) without a version bump.

        A congested link is neither down nor repaired, so routes already
        cached keep their path; one computed afterwards prices the new
        medium, which is why the trees and half-costs go.
        """
        self.segments[segment].medium = medium
        self._trees.clear()
        self._half.clear()

    # -- media selection (§5.3) --------------------------------------------
    def shared_segments(self, a: str, b: str) -> List[Segment]:
        """Healthy segments both hosts sit on, fastest medium first."""
        ha, hb = self.hosts[a], self.hosts[b]
        out = []
        for nic in ha.nics.values():
            seg = nic.segment
            if not seg.up or not nic.up:
                continue
            other = hb.nic_on_segment(seg.name)
            if other is not None and other.up:
                out.append(seg)
        out.sort(key=lambda s: s.medium.bandwidth, reverse=True)
        return out

    # -- routing ------------------------------------------------------------
    def route(self, src_host: str, dst_host: str) -> Optional[List[str]]:
        """Alternating [host, segment, host, ...] path, or None if cut off."""
        key = (src_host, dst_host)
        if key in self._route_cache:
            return self._route_cache[key]
        path = self._path(src_host, dst_host)
        self._route_cache[key] = path
        return path

    def next_hop(self, src_host: str, dst_ip: str) -> Optional[Tuple["NIC", str]]:
        """(outgoing NIC, next-hop IP on that segment) toward *dst_ip*."""
        dst_host = self._ip_to_host.get(dst_ip)
        if dst_host is None:
            return None
        if dst_host == src_host:
            return None  # local delivery, no hop
        path = self.route(src_host, dst_host)
        if path is None or len(path) < 3:
            return None
        seg_name, nh_host_name = path[1], path[2]
        src = self.hosts[src_host]
        nic = src.nic_on_segment(seg_name)
        if nic is None or not nic.up:
            return None
        nh_ip = self.hosts[nh_host_name].ip_on_segment(seg_name)
        if nh_ip is None:
            return None
        return nic, nh_ip

    def _path(self, src: str, dst: str) -> Optional[List[str]]:
        hosts = self.hosts
        if src not in hosts or dst not in hosts:
            return None
        if not hosts[src].up or not hosts[dst].up:
            return None
        if src == dst:
            return [src]
        tree = self._trees.get(src)
        if tree is None:
            tree = self._trees[src] = self._tree(src)
        dist, prev = tree
        dst_host = hosts[dst]
        if dst_host.forwarding:
            node = ("h", dst)
            if node not in dist:
                return None
            path: List[str] = []
        else:
            # A leaf: of the up NICs whose segment the tree reached, take
            # the one a single-pair Dijkstra would have pushed first at
            # the least cost. Segments pop in (dist, name) order (every
            # cost is positive), and only a strictly cheaper push replaces
            # an earlier one.
            half = self._half_costs()
            best = None
            for nic in dst_host.nics.values():
                seg = nic.segment.name
                d = dist.get(("s", seg))
                if d is None or not nic.up:
                    continue
                rank = (d + half[seg], d, seg)
                if best is None or rank < best:
                    best = rank
            if best is None:
                return None
            node = ("s", best[2])
            path = [dst]
        while True:
            path.append(node[1])
            if node == ("h", src):
                break
            node = prev[node]
        path.reverse()
        return path

    def _half_costs(self) -> Dict[str, float]:
        """Each segment's edge weight: half its routing cost per side."""
        if not self._half:
            self._half = {name: _segment_cost(seg.medium) / 2
                          for name, seg in self.segments.items()}
        return self._half

    def _tree(self, src: str) -> Tuple[Dict[Node, float], Dict[Node, Node]]:
        """Shortest-path tree (dist, prev) from *src* over the routing core.

        Nodes: ("h", host) and ("s", segment). Edges exist where an up NIC
        joins an up host to an up segment. Interior hosts must forward, so
        the core is *src*, the segments and the forwarding hosts; any
        other host is a leaf that :meth:`_path` resolves on lookup.
        """
        half = self._half_costs()
        root = ("h", src)
        dist: Dict[Node, float] = {root: 0.0}
        prev: Dict[Node, Node] = {}
        pq: List[Tuple[float, Node]] = [(0.0, root)]
        while pq:
            d, node = heapq.heappop(pq)
            if d > dist[node]:
                continue
            kind, name = node
            if kind == "h":
                for nic in self.hosts[name].nics.values():
                    seg = nic.segment
                    if not nic.up or not seg.up:
                        continue
                    nxt = ("s", seg.name)
                    nd = d + half[seg.name]
                    if nd < dist.get(nxt, _INF):
                        dist[nxt] = nd
                        prev[nxt] = node
                        heapq.heappush(pq, (nd, nxt))
            else:
                nd = d + half[name]
                for nic in self.segments[name].nics.values():
                    host = nic.host
                    if not nic.up or not host.up or not host.forwarding:
                        continue
                    nxt = ("h", host.name)
                    if nd < dist.get(nxt, _INF):
                        dist[nxt] = nd
                        prev[nxt] = node
                        heapq.heappush(pq, (nd, nxt))
        return dist, prev

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Topology hosts={len(self.hosts)} segments={len(self.segments)}>"
