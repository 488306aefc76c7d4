"""Hosts: multi-homed nodes with a tiny protocol demultiplexer.

A host owns NICs, a table of (proto, port) bindings, an optional IP
forwarding function (gateway hosts), and crash/recover state that the
failure injector drives. SNIPE daemons, RC servers, file servers etc. are
all processes that bind ports on a host.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from repro.net.packet import BROADCAST, Frame
from repro.sim.resources import Store

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.nic import NIC
    from repro.net.segment import Segment
    from repro.net.topology import Topology
    from repro.sim.kernel import Simulator

#: First auto-assigned ephemeral port.
EPHEMERAL_BASE = 49152


class PortBinding:
    """A bound (proto, port): an inbox of frames plus counters.

    A binding normally queues frames in ``inbox`` for a consumer process;
    a protocol that dispatches per frame without blocking can instead set
    ``handler`` and receive each frame synchronously inside the arrival
    event — no Store round-trip, no receive-loop process. The transports
    all use the handler form; the inbox remains for bindings that want a
    blocking ``get()``.
    """

    def __init__(self, sim: "Simulator", host: "Host", proto: str, port: int) -> None:
        self.host = host
        self.proto = proto
        self.port = port
        self.inbox: Store = Store(sim)
        self.handler: Optional[Callable[[Frame], None]] = None
        self.rx_frames = 0

    def get(self):
        """Event yielding the next frame delivered to this binding."""
        return self.inbox.get()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<PortBinding {self.proto}:{self.port}@{self.host.name}>"


class Host:
    """One node of the metacomputer.

    Attributes
    ----------
    arch, os:
        Architecture/OS tags carried in RC host metadata (§5.2.1) and
        matched against spawn requirements.
    cpu_count, cpu_speed:
        Capacity knobs used by the resource managers' load model.
    forwarding:
        If True, frames for other hosts are forwarded along the routing
        table (gateway behaviour).
    """

    def __init__(
        self,
        sim: "Simulator",
        name: str,
        topology: "Topology",
        arch: str = "x86",
        os: str = "unix",
        cpu_count: int = 1,
        cpu_speed: float = 1.0,
        memory: float = 1024.0,
        forwarding: bool = False,
    ) -> None:
        self.sim = sim
        self.name = name
        self.topology = topology
        self.arch = arch
        self.os = os
        self.cpu_count = cpu_count
        self.cpu_speed = cpu_speed
        self.memory = memory
        self.forwarding = forwarding
        self.up = True
        #: Wall-clock skew injected by the failure injector: this host's
        #: notion of "now" is ``sim.now + clock_offset + clock_drift *
        #: (sim.now - _clock_anchor)``. Processes that stamp wall times
        #: into shared state (daemon leases, LWW assertion stamps) must
        #: read :meth:`clock`, never ``sim.now``, so skew propagates the
        #: way it would on real hardware.
        self.clock_offset = 0.0
        self.clock_drift = 0.0
        self._clock_anchor = 0.0
        #: Gray storage fault: when True, checkpoint records written by
        #: processes on this host are silently corrupted after their
        #: digest is computed (a torn/bit-rotten write).
        self.corrupt_ckpt_writes = False
        #: Durable local storage, keyed by component (e.g. ``rcds:385``).
        #: Survives :meth:`crash`/:meth:`recover` — it models the disk,
        #: not memory — so services that journal here can rebuild state
        #: after the host comes back. Only :meth:`Host.__init__` makes a
        #: fresh one: re-provisioning a host is a new machine, losing it.
        self.disk: Dict[str, Any] = {}
        self._health = None
        self.nics: Dict[str, "NIC"] = {}  # iface name -> NIC
        #: Every local IP, for the per-frame "is this frame for us?" test
        #: (kept in step with ``nics``; hosts never lose interfaces).
        self._local_ips: set = set()
        self._bindings: Dict[Tuple[str, int], PortBinding] = {}
        self._next_ephemeral = EPHEMERAL_BASE
        self.unclaimed_frames = 0
        self.forwarded_frames = 0
        #: Called (host) when the host crashes — daemons register here to
        #: kill their tasks; this is how "node failure" propagates upward.
        self.on_crash: List[Callable[["Host"], None]] = []
        self.on_recover: List[Callable[["Host"], None]] = []

    # -- differential health -----------------------------------------------
    @property
    def health(self):
        """This host's view of its peers' differential health
        (:class:`repro.robust.health.HealthBoard`), created on first
        touch. Deliberately *per host*: each node scores peers from its
        own observed outcomes — a real distributed system has no shared
        scoreboard, and one partitioned host's bad experience must not
        quarantine a peer for everyone else."""
        if self._health is None:
            from repro.robust.health import HealthBoard

            self._health = HealthBoard(self.sim, owner=self.name)
        return self._health

    # -- wall clock --------------------------------------------------------
    def clock(self) -> float:
        """This host's (possibly skewed) wall clock.

        Identical to ``sim.now`` until the failure injector installs an
        offset and/or drift via :meth:`set_clock_skew`.
        """
        if self.clock_offset == 0.0 and self.clock_drift == 0.0:
            return self.sim.now
        now = self.sim.now
        return now + self.clock_offset + self.clock_drift * (now - self._clock_anchor)

    def set_clock_skew(self, offset: float = 0.0, drift: float = 0.0) -> None:
        """Install (or clear, with zeros) clock skew, anchored at now."""
        self._clock_anchor = self.sim.now
        self.clock_offset = offset
        self.clock_drift = drift

    # -- interfaces -------------------------------------------------------
    def add_nic(self, iface: str, ip: str, segment: "Segment") -> "NIC":
        from repro.net.nic import NIC  # local import to avoid a cycle

        if iface in self.nics:
            raise ValueError(f"duplicate iface {iface!r} on host {self.name}")
        nic = NIC(self.sim, self, iface, ip, segment)
        self.nics[iface] = nic
        self._local_ips.add(ip)
        return nic

    @property
    def addresses(self) -> List:
        return [nic.address for nic in self.nics.values()]

    def ip_on_segment(self, segment_name: str) -> Optional[str]:
        for nic in self.nics.values():
            if nic.segment.name == segment_name:
                return nic.address.ip
        return None

    def nic_for_ip(self, ip: str) -> Optional["NIC"]:
        for nic in self.nics.values():
            if nic.address.ip == ip:
                return nic
        return None

    def nic_on_segment(self, segment_name: str) -> Optional["NIC"]:
        for nic in self.nics.values():
            if nic.segment.name == segment_name:
                return nic
        return None

    # -- port bindings ------------------------------------------------------
    def bind(self, proto: str, port: int) -> PortBinding:
        key = (proto, port)
        if key in self._bindings:
            raise ValueError(f"{proto}:{port} already bound on {self.name}")
        binding = PortBinding(self.sim, self, proto, port)
        self._bindings[key] = binding
        return binding

    def unbind(self, proto: str, port: int) -> None:
        self._bindings.pop((proto, port), None)

    def ephemeral_port(self) -> int:
        port = self._next_ephemeral
        self._next_ephemeral += 1
        return port

    # -- datapath -----------------------------------------------------------
    def deliver(self, frame: Frame, via_nic: "NIC") -> None:
        """Frame arrived on one of our NICs: consume or forward."""
        if frame.dst_ip in self._local_ips or frame.dst_ip == BROADCAST:
            flight = self.sim.flight
            if flight is not None:
                flight.note_frame(self.name, frame)
            binding = self._bindings.get((frame.proto, frame.dst_port))
            if binding is None:
                self.unclaimed_frames += 1
                return
            binding.rx_frames += 1
            if binding.handler is not None:
                binding.handler(frame)
            else:
                binding.inbox.try_put(frame)
            return
        if self.forwarding and frame.ttl > 0:
            frame.ttl -= 1
            hop = self.topology.next_hop(self.name, frame.dst_ip)
            if hop is not None:
                nic, l2_ip = hop
                frame.l2_dst = None if l2_ip == frame.dst_ip else l2_ip
                tracer = self.sim.obs.tracer
                if tracer.enabled:
                    tracer.event(
                        "frame.forward",
                        trace_id=frame.trace_id,
                        gateway=self.name,
                        proto=frame.proto,
                        dst=frame.dst_ip,
                        out_iface=nic.iface,
                        net=nic.segment.name,
                    )
                nic.send(frame)
                self.forwarded_frames += 1
                return
        self.unclaimed_frames += 1

    # -- failure ------------------------------------------------------------
    def crash(self) -> None:
        """Fail-stop: interfaces go dark, registered cleanups run."""
        if not self.up:
            return
        self.up = False
        for nic in self.nics.values():
            nic.up = False
        self.topology.bump_version()
        self.sim.obs.tracer.event("host.crash", host=self.name)
        for fn in list(self.on_crash):
            fn(self)

    def recover(self) -> None:
        if self.up:
            return
        self.up = True
        for nic in self.nics.values():
            nic.up = True
        self.topology.bump_version()
        self.sim.obs.tracer.event("host.recover", host=self.name)
        for fn in list(self.on_recover):
            fn(self)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Host {self.name} {'up' if self.up else 'DOWN'} nics={list(self.nics)}>"
