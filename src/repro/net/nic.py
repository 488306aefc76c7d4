"""Network interfaces: serialisation, transmit queueing, reception.

The NIC owns the only timing bottleneck in the model: it clocks one
frame at a time onto the wire at the medium's line rate. This is what
makes Fig. 1 come out right — a host cannot exceed its interface's
serialisation rate no matter what the protocol does.

Transmission is clocked by a ``_busy_until`` timestamp rather than a
per-frame completion event: a send on an idle interface charges its wire
time forward and propagates immediately (the arrival event the segment
schedules already encodes serialisation + latency), so the uncontended
path costs exactly one kernel event per frame. Only when frames queue
behind a busy wire does a :class:`_TxDrain` event exist — one per queued
frame — to pace the backlog at line rate. Compared with the original
Store-fed transmit loop this is one event per frame instead of three and
no generator resumes; the NIC was the single hottest subsystem in the
E12 profile.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Tuple

from repro.net.packet import Address, Frame
from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.host import Host
    from repro.net.segment import Segment
    from repro.sim.kernel import Simulator

#: Default transmit-queue depth (frames). Overflow drops, like a real NIC.
DEFAULT_TXQ = 1000


class _TxDrain(Event):
    """The wire is free again: transmit the next queued frame.

    Exists only while the transmit queue is non-empty. Overrides
    ``_process`` so no callback list is allocated.
    """

    __slots__ = ("nic",)

    def __init__(self, nic: "NIC", delay: float) -> None:
        # Slot-inlined init (see segment._Arrival): one of these exists
        # per *queued* frame, which under congestion is most frames.
        self.sim = nic.sim
        self.callbacks = None
        self._value = None
        self._exc = None
        self._processed = False
        self.nic = nic
        self.sim._schedule(self, delay)

    def _process(self) -> None:
        if self._processed:
            return
        self._processed = True
        self.nic._drain()


class NIC:
    """One interface of a host, attached to one segment."""

    def __init__(
        self,
        sim: "Simulator",
        host: "Host",
        iface: str,
        ip: str,
        segment: "Segment",
    ) -> None:
        self.sim = sim
        self.host = host
        self.iface = iface
        self.segment = segment
        self.address = Address(host=host.name, iface=iface, ip=ip, netname=segment.name)
        self.up = True
        self.txq: Deque[Frame] = deque()
        self.txq_capacity = DEFAULT_TXQ
        #: Virtual time until which the wire is occupied by a frame whose
        #: propagation is already scheduled.
        self._busy_until = 0.0
        #: True while a _TxDrain event is pending for the queued backlog.
        self._draining = False
        self.tx_bytes = 0
        self.rx_bytes = 0
        self.tx_frames = 0
        self.rx_frames = 0
        self.drops = 0
        segment.attach(self)

    @property
    def medium(self):
        return self.segment.medium

    def send(self, frame: Frame) -> bool:
        """Queue *frame* for transmission. False == txq overflow (dropped)."""
        if not self.up:
            self.drops += 1
            return False
        now = self.sim.now
        if self._draining or now < self._busy_until:
            # The in-flight frame counts toward the queue depth, so a
            # busy NIC holds at most ``txq_capacity`` frames total.
            if len(self.txq) + 1 >= self.txq_capacity:
                self.drops += 1
                return False
            self.txq.append(frame)
            if not self._draining:
                self._draining = True
                _TxDrain(self, self._busy_until - now)
            return True
        fragments, wire_time = self._wire_cost(frame)
        self._busy_until = now + wire_time
        self._transmit(frame, fragments, wire_time)
        return True

    def _wire_cost(self, frame: Frame) -> Tuple[int, float]:
        """(fragments, wire seconds) for *frame* on this medium.

        Frames larger than the MTU are IP-fragmented at this layer: the
        wire time is the sum over fragments and the loss probability
        compounds per fragment, but the frame is still delivered (or
        lost) as a unit. This is what happens when a transport sized its
        segments for a big-MTU path and a failover reroutes them over a
        smaller-MTU medium.
        """
        medium = self.segment.medium
        mtu = medium.mtu
        if frame.size <= mtu:
            return 1, medium.serialize_time(frame.size)
        full, rem = divmod(frame.size, mtu)
        fragments = full + (1 if rem else 0)
        wire_time = full * medium.serialize_time(mtu)
        if rem:
            wire_time += medium.serialize_time(rem)
        return fragments, wire_time

    def _transmit(self, frame: Frame, fragments: int, wire_time: float) -> None:
        # Accounting is charged when serialisation starts; the arrival
        # the segment schedules lands ``wire_time + latency`` later, so
        # delivery timing is identical to completion-time propagation. A
        # frame whose serialisation has started finishes even if the host
        # crashes mid-way (the bits left the building).
        self.tx_bytes += frame.size
        self.tx_frames += fragments
        prof = self.sim._prof
        if prof is not None:
            prof.wire_bytes += frame.size
            prof.wire_frames += fragments
        self.segment.propagate(self, frame, fragments=fragments, wire_time=wire_time)

    def _drain(self) -> None:
        # Queued frames behind a crashed interface are dropped; a frame
        # already on the wire was propagated when it started serialising.
        txq = self.txq
        if not self.up:
            self.drops += len(txq)
            txq.clear()
            self._draining = False
            return
        frame = txq.popleft()
        fragments, wire_time = self._wire_cost(frame)
        self._busy_until = self.sim.now + wire_time
        self._transmit(frame, fragments, wire_time)
        if txq:
            _TxDrain(self, wire_time)
        else:
            self._draining = False

    def receive(self, frame: Frame) -> None:
        """Frame arrived from the segment; hand it up to the host stack."""
        if not self.up or not self.host.up:
            self.drops += 1
            return
        self.rx_bytes += frame.size
        self.rx_frames += 1
        self.host.deliver(frame, self)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<NIC {self.address} {'up' if self.up else 'DOWN'}>"
