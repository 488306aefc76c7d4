"""The experimental LAN multicast protocol (§6: "an experimental multicast
protocol for ethernet", plotted as Fig. 1's multicast series).

One broadcast frame reaches every NIC on the segment, so N receivers cost
one serialisation instead of N. Reliability is NACK-driven: receivers
report holes when they see a gap or an ack-request probe; the sender
re-broadcasts exactly the missing segments and finishes when every member
has confirmed delivery. This is LAN-scope by construction — the
wide-area, router-based group multicast of §5.4 lives in
:mod:`repro.daemon.mcast` and is a different animal.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.net.packet import BROADCAST, Frame
from repro.robust.overload import BULK, TRANSPORT_RX_CAPACITY, LaneStore, lane_for_request
from repro.sim.events import waker
from repro.sim.resources import Store
from repro.transport.base import Message, SendError, TransportEndpoint

ACK_EVERY = 16
CTRL_BODY_BYTES = 12

# Wire-path payload records are lean __slots__ classes (one _MData per
# broadcast frame); message ids come from ``sim.sequence`` so receiver
# dedup state is per-simulation.


class _MData:
    __slots__ = (
        "msg_id", "seq", "nsegs", "total_size", "ack_req", "payload",
        "reply_port", "sender", "t0",
    )

    def __init__(self, msg_id: int, seq: int, nsegs: int, total_size: int,
                 ack_req: bool, payload: Any, reply_port: int, sender: str,
                 t0: float = 0.0) -> None:
        self.msg_id = msg_id
        self.seq = seq
        self.nsegs = nsegs
        self.total_size = total_size
        self.ack_req = ack_req
        self.payload = payload
        self.reply_port = reply_port
        self.sender = sender
        self.t0 = t0  # virtual send time, for delivery-latency accounting


class _MNack:
    __slots__ = ("msg_id", "member", "missing")

    def __init__(self, msg_id: int, member: str,
                 missing: Tuple[int, ...]) -> None:
        self.msg_id = msg_id
        self.member = member
        self.missing = missing


class _MDone:
    __slots__ = ("msg_id", "member")

    def __init__(self, msg_id: int, member: str) -> None:
        self.msg_id = msg_id
        self.member = member


class EthernetMulticast(TransportEndpoint):
    """Reliable one-to-many message transport over LAN broadcast."""

    proto = "mcast"
    header_bytes = 32
    initial_rto = 0.05  # first retransmission timeout, doubled per retry
    max_retries = 12

    def __init__(
        self,
        host,
        port,
        segment_name: str,
        rx_capacity: Optional[int] = None,
    ) -> None:
        self.segment_name = segment_name
        super().__init__(host, port)
        # Bounded ingress, same discipline as SRUDP: a full bulk lane
        # withholds the _MDone confirmation so the sender NACK-repairs.
        if rx_capacity is None:
            rx_capacity = TRANSPORT_RX_CAPACITY
        self._rx_queue: LaneStore = LaneStore(self.sim, bulk_capacity=rx_capacity)
        self._ctrl: Dict[int, Store] = {}  # msg_id -> sender control inbox
        self._rx_state: Dict[Tuple[str, int], Set[int]] = {}
        self._delivered: Set[Tuple[str, int]] = set()
        self.retransmits = 0

    # -- sending ----------------------------------------------------------
    def send_group(
        self, members: Sequence[str], dst_port: int, payload: Any, size: int
    ):
        """Broadcast a message to *members* (host names on this segment).

        Returns a process event that succeeds when every member confirmed
        delivery and fails with :class:`SendError` naming the stragglers.
        """
        return self.sim.process(
            self._sender(list(members), dst_port, payload, size),
            name=f"mcast-send:{self.host.name}",
        )

    def _broadcast(
        self, dst_port: int, item: Any, body_bytes: int, trace_id=None
    ) -> bool:
        nic = self.host.nic_on_segment(self.segment_name)
        if nic is None or not nic.up:
            return False
        frame = Frame(
            src=nic.address,
            dst_ip=BROADCAST,
            proto=self.proto,
            src_port=self.port,
            dst_port=dst_port,
            payload=item,
            size=body_bytes + self.header_bytes,
            frame_id=self.sim.next_frame_id(),
            trace_id=trace_id,
        )
        if self._tracer.enabled:
            self._tracer.event(
                "frame.tx",
                trace_id=trace_id,
                proto=self.proto,
                src=self.host.name,
                dst=BROADCAST,
                iface=nic.iface,
                net=nic.segment.name,
                bytes=frame.size,
            )
        return nic.send(frame)

    def _sender(self, members: List[str], dst_port: int, payload: Any, size: int):
        members = [m for m in members if m != self.host.name]
        if not members:
            return size
        msg_id = self.sim.sequence("mcast.msg")
        nic = self.host.nic_on_segment(self.segment_name)
        if nic is None:
            raise SendError(f"mcast: {self.host.name} not on {self.segment_name}")
        mss = nic.medium.mtu - self.header_bytes
        nsegs = max(1, -(-size // mss))
        ctrl: Store = Store(self.sim)
        self._ctrl[msg_id] = ctrl
        self._note_tx()
        t0 = self.sim.now
        tracer = self._tracer
        trace_id = tracer.maybe_trace_id()
        if tracer.enabled:
            tracer.event(
                "mcast.send", trace_id=trace_id, msg=msg_id, src=self.host.name,
                members=len(members), bytes=size, nsegs=nsegs,
            )
        try:
            done: Set[str] = set()
            rto = self.initial_rto
            retries = 0
            pending = None

            def seg_bytes(seq: int) -> int:
                if size == 0:
                    return 1
                return min(mss, size - seq * mss)

            def push(seq: int, ack_req: bool, retransmit: bool = False) -> bool:
                if retransmit and tracer.enabled:
                    tracer.event(
                        "mcast.retransmit", trace_id=trace_id, msg=msg_id, seq=seq
                    )
                return self._broadcast(
                    dst_port,
                    _MData(msg_id, seq, nsegs, size, ack_req, payload,
                           self.port, self.host.name, t0),
                    seg_bytes(seq),
                    trace_id=trace_id,
                )

            # Pace the broadcast against the NIC: blasting thousands of
            # segments into a bounded transmit queue silently drops the
            # overflow and turns the transfer into a NACK storm.
            backoff = nic.medium.serialize_time(nic.medium.mtu) * 64
            for seq in range(nsegs):
                while not push(seq, ack_req=(seq == nsegs - 1 or (seq + 1) % ACK_EVERY == 0)):
                    yield self.sim.timeout(backoff)
            send_owner = f"mcast-send:{self.host.name}"
            while len(done) < len(members):
                if pending is None:
                    pending = ctrl.get()
                wake = self.sim.event()
                fire = waker(wake)
                pending.add_callback(fire)
                timer = self.sim.schedule_timer(rto, fire, owner=send_owner)
                yield wake
                timer.cancel()
                item = None
                if pending.processed:
                    item = pending.value
                    pending = None
                if isinstance(item, _MDone):
                    if item.member not in done:
                        done.add(item.member)
                        retries = 0
                    # Duplicate confirmations (elicited by probes) are not
                    # progress; without this, one live member keeps a dead
                    # member's send alive forever.
                elif isinstance(item, _MNack):
                    retries = 0
                    for i, seq in enumerate(item.missing):
                        self.retransmits += 1
                        self._note_retransmit()
                        push(seq, ack_req=(i == len(item.missing) - 1), retransmit=True)
                else:
                    retries += 1
                    if retries > self.max_retries:
                        missing = sorted(set(members) - done)
                        if tracer.enabled:
                            tracer.event(
                                "mcast.failed", trace_id=trace_id, msg=msg_id,
                                stragglers=missing,
                            )
                        raise SendError(f"mcast: no confirmation from {missing}")
                    rto = min(rto * 2, 2.0)
                    # Probe: re-broadcast the last segment with ack_req set.
                    self.retransmits += 1
                    self._note_retransmit()
                    push(nsegs - 1, ack_req=True, retransmit=True)
            if tracer.enabled:
                tracer.event("mcast.acked", trace_id=trace_id, msg=msg_id)
            return size
        finally:
            self._ctrl.pop(msg_id, None)

    # -- receiving ------------------------------------------------------------
    def recv(self):
        """Event yielding the next complete group :class:`Message`."""
        return self._rx_queue.get()

    def _on_frame(self, frame) -> None:
        item = frame.payload
        if isinstance(item, (_MNack, _MDone)):
            inbox = self._ctrl.get(item.msg_id)
            if inbox is not None:
                inbox.try_put(item)
            return
        if isinstance(item, _MData):
            self._on_data(frame, item)

    def _unicast_ctrl(self, data: _MData, item: Any, body: int) -> None:
        self._send_frame(data.sender, data.reply_port, item, body)

    def _on_data(self, frame, data: _MData) -> None:
        key = (data.sender, data.msg_id)
        if key in self._delivered:
            self._unicast_ctrl(data, _MDone(data.msg_id, self.host.name), CTRL_BODY_BYTES)
            return
        got = self._rx_state.setdefault(key, set())
        got.add(data.seq)
        if len(got) == data.nsegs:
            admitted = self._rx_queue.try_put(
                Message(
                    src_host=data.sender,
                    src_ip=frame.src.ip,
                    src_port=frame.src_port,
                    payload=data.payload,
                    size=data.total_size,
                ),
                lane=(
                    lane_for_request(data.payload)
                    if self.sim.overload.adaptive
                    else BULK
                ),
            )
            if not admitted:
                # Bulk lane full: don't confirm; the sender's repair loop
                # resends and delivery happens once the consumer drains.
                self._note_rx_drop()
                return
            del self._rx_state[key]
            self._delivered.add(key)
            if len(self._delivered) > 8192:
                self._delivered.clear()  # tombstone horizon
            self._note_rx(sent_at=data.t0)
            if self._tracer.enabled:
                self._tracer.event(
                    "mcast.deliver", trace_id=frame.trace_id, msg=data.msg_id,
                    src=data.sender, dst=self.host.name, bytes=data.total_size,
                )
            self._unicast_ctrl(data, _MDone(data.msg_id, self.host.name), CTRL_BODY_BYTES)
        elif data.ack_req:
            horizon = max(got) + 1
            missing = tuple(s for s in range(horizon) if s not in got)
            if missing:
                self._unicast_ctrl(
                    data,
                    _MNack(data.msg_id, self.host.name, missing[:256]),
                    CTRL_BODY_BYTES + 4 * min(len(missing), 256),
                )
