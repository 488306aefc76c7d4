"""Unicast path selection (§5.3).

    "If the source and destination are on a common private network or
    common IP subnet, the message is sent using the fastest of those.
    Otherwise, the message is sent using the host's normal IP routing."

The selector is consulted per transmission burst, not per connection, so
when a segment dies mid-transfer the very next burst flows over the next
best path — this is the §6 claim that the system "switch[es]
routes/interfaces as links failed without user applications intervention"
(experiment E8).

Reroute and quarantine must agree: when the overload layer's circuit
breaker declares a (destination, interface) pair sick, ``select`` demotes
that interface and shops the remaining shared segments, falling back to
the fastest one only when every candidate is quarantined. Transports
report outcomes through :meth:`PathSelector.note_result`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.host import Host
    from repro.net.nic import NIC
    from repro.net.topology import Topology

#: Policy constants.
SNIPE = "snipe"  # fastest shared medium, then IP routing
DEFAULT_IP = "default-ip"  # plain IP routing only (the E10 baseline)


class PathSelector:
    """Chooses (outgoing NIC, destination IP, l2 next hop) for a peer host."""

    def __init__(self, host: "Host", policy: str = SNIPE) -> None:
        if policy not in (SNIPE, DEFAULT_IP):
            raise ValueError(f"unknown path policy {policy!r}")
        self.host = host
        self.topology: "Topology" = host.topology
        self.policy = policy
        #: Choices per destination, valid for one topology version only.
        self._cache: dict = {}
        self._cache_version = self.topology._version
        self.switches = 0  # route changes observed (E8 metric)
        self._last_choice: dict = {}
        self._obs = host.sim.obs
        self._m_switches = self._obs.metrics.counter("pathsel.switches")
        self._breakers = None  # lazy BreakerBoard keyed (dst_host, iface)

    @property
    def breakers(self):
        """Per-(destination, interface) circuit breakers, built lazily so
        selectors on quiet endpoints cost nothing."""
        if self._breakers is None:
            from repro.robust.overload import BreakerBoard

            board = BreakerBoard(
                self.host.sim,
                scope="path",
                window=8,
                min_samples=2,
                failure_threshold=0.75,
                open_for=2.0,
            )
            # Cached choices can't see breaker flips; drop them on any
            # transition so the next select() re-shops the segments.
            board.on_transition = lambda key, old, new: self._invalidate(key[0])
            self._breakers = board
        return self._breakers

    def note_result(self, dst_host: str, ok: bool) -> None:
        """Transport feedback: the last chosen path to *dst_host* carried a
        message successfully (or exhausted its retries). Feeds the path
        breaker so a sick interface is demoted at the next selection, and
        the differential health board so gray peers lose their place in
        every candidate ordering, not just this selector's."""
        last = self._last_choice.get(dst_host)
        iface = last[0] if last is not None else "*"
        self.host.health.note_outcome(dst_host, ok, kind="srudp", iface=iface)
        if last is not None and self.host.sim.overload.adaptive:
            self.breakers.record((dst_host, iface), ok)

    def _invalidate(self, dst_host: str) -> None:
        self._cache.pop(dst_host, None)

    def select(self, dst_host: str) -> Optional[Tuple["NIC", str, Optional[str]]]:
        """Path to *dst_host*: (nic, dst_ip, l2_next_hop_ip_or_None).

        Returns None when the destination is unreachable (caller buffers
        or fails). Results are cached per topology version.
        """
        if self._cache_version != self.topology._version:
            self._cache.clear()
            self._cache_version = self.topology._version
        cached = self._cache.get(dst_host)
        if cached is not None and self.host.sim.now < cached[1]:
            if cached[0] is None or not self.host.health.iface_quarantined(
                dst_host, cached[0][0].iface
            ):
                return cached[0]
            # A health quarantine landed on the cached interface *after*
            # it was cached. The board can't invalidate every endpoint's
            # selector (it doesn't know them), and gray link faults never
            # bump the topology version — so without this check a choice
            # cached before the fault would ride the sick path forever.
            del self._cache[dst_host]
        choice, expires = self._compute(dst_host)
        self._cache[dst_host] = (choice, expires)
        prev = self._last_choice.get(dst_host)
        if choice is not None:
            sig = (choice[0].iface, choice[2])
            if prev is not None and prev != sig:
                self.switches += 1
                self._m_switches.inc()
                self._obs.tracer.event(
                    "path.switch",
                    host=self.host.name,
                    dst=dst_host,
                    old_iface=prev[0],
                    new_iface=sig[0],
                    net=choice[0].segment.name,
                )
            self._last_choice[dst_host] = sig
        return choice

    def select_via(
        self, dst_host: str, dst_ip: str
    ) -> Optional[Tuple["NIC", str, Optional[str]]]:
        """Path to one address *dst_ip* of *dst_host*, by :meth:`_compute`'s
        rules with no shopping: direct when this host has an interface on
        that address's segment, else routed toward the address. Link
        state, breakers and health are not consulted — a pinned send
        tests its one path, it does not steer around it — and nothing is
        cached or counted as a switch."""
        target = self.topology.hosts.get(dst_host)
        dst_nic = target.nic_for_ip(dst_ip) if target is not None else None
        if dst_nic is None:
            return None
        nic = self.host.nic_on_segment(dst_nic.segment.name)
        if nic is not None:
            return nic, dst_ip, None
        hop = self.topology.next_hop(self.host.name, dst_ip)
        if hop is None:
            return None
        out_nic, l2_ip = hop
        return out_nic, dst_ip, None if l2_ip == dst_ip else l2_ip

    def _compute(
        self, dst_host: str
    ) -> Tuple[Optional[Tuple["NIC", str, Optional[str]]], float]:
        """(choice, cache-expiry). The expiry is finite only when the
        choice demoted a quarantined interface: once that breaker is due
        for its probe, a cached detour must not outlive the quarantine."""
        topo = self.topology
        target = topo.hosts.get(dst_host)
        if target is None or not target.up:
            return None, float("inf")
        if self.policy == SNIPE:
            shared = topo.shared_segments(self.host.name, dst_host)
            if shared:
                # Fastest shared medium first, but demote any interface
                # whose circuit breaker is open: quarantine and reroute
                # must point the same way. If *every* shared candidate is
                # quarantined, fall back to the fastest anyway — a bad
                # path still beats no path, and it doubles as the probe.
                fallback = None
                expires = float("inf")
                quarantine = (
                    self._breakers if self.host.sim.overload.adaptive else None
                )
                health = self.host.health
                for seg in shared:
                    nic = self.host.nic_on_segment(seg.name)
                    dst_ip = target.ip_on_segment(seg.name)
                    if nic is None or dst_ip is None:
                        continue
                    if fallback is None:
                        fallback = (nic, dst_ip, None)
                    if quarantine is not None and quarantine.is_open(
                        (dst_host, nic.iface)
                    ):
                        due = quarantine.due_at((dst_host, nic.iface))
                        if due is not None:
                            expires = min(expires, due)
                        continue
                    # The health board quarantines per (peer, iface) too:
                    # a path failing *application* outcomes (digest drops,
                    # delivery failures) is demoted even while its breaker
                    # still thinks it's fine. Probation bounds the detour.
                    if health.iface_quarantined(dst_host, nic.iface):
                        expires = min(expires, self.host.sim.now + health.probation)
                        continue
                    return (nic, dst_ip, None), expires
                if fallback is not None:
                    return fallback, expires
        else:
            # Plain IP: a shared segment is used only if it's the
            # first-configured interface's segment (no media shopping).
            first_nic = next(iter(self.host.nics.values()), None)
            if first_nic is not None and first_nic.up and first_nic.segment.up:
                dst_ip = target.ip_on_segment(first_nic.segment.name)
                if dst_ip is not None and target.nic_on_segment(first_nic.segment.name).up:
                    return (first_nic, dst_ip, None), float("inf")
        # Fall back to routed delivery toward any of the target's IPs.
        for nic in target.nics.values():
            if not nic.up:
                continue
            hop = topo.next_hop(self.host.name, nic.address.ip)
            if hop is not None:
                out_nic, l2_ip = hop
                l2 = None if l2_ip == nic.address.ip else l2_ip
                return (out_nic, nic.address.ip, l2), float("inf")
        return None, float("inf")
