"""SRUDP — SNIPE's selective re-send UDP protocol (§6).

The paper's comm module "supported a selective re-send UDP protocol";
this is a full implementation: messages are segmented, a sliding window
of segments streams without per-segment handshaking, receivers report a
cumulative counter plus the exact missing-segment list, and only those
segments are retransmitted. Compared with TCP this saves the connection
handshake, 8 header bytes per frame, and — under loss — the go-back-N
resend storm; that is where the "slightly higher point-to-point
communication performance" of §6.1 comes from.

End-to-end integrity: the sender stamps every data frame with a SHA-256
digest of the message payload (computed once per message via
:func:`repro.security.hashes.content_hash`); the receiver re-verifies on
arrival and a frame whose bytes no longer match — bit flips injected by
a gray link — is counted (``transport.rx_corrupt``), dropped, and left
out of the selective ACK, so the sender simply retransmits it. Corrupt
data is never delivered upward. ``SrudpEndpoint.digest_enabled = False``
(the ``no-digest`` seeded bug) turns verification off; the corruption
oracle then catches the corrupt delivery.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.robust.overload import (
    BULK, TRANSPORT_RX_CAPACITY, LaneStore, RttEstimator, lane_for_request,
)
from repro.sim.events import waker
from repro.sim.resources import Store
from repro.transport.base import Message, SendError, TransportEndpoint

#: Request an ACK at least every this many data segments.
ACK_EVERY = 16
#: ACK frame body: msg id + cumulative counter + missing-list length.
ACK_BODY_BYTES = 12
#: Extra body bytes per reported missing segment.
ACK_MISS_BYTES = 4


class _Data:
    """One data segment (lean ``__slots__`` class: one per frame sent)."""

    __slots__ = (
        "msg_id", "seq", "nsegs", "total_size", "ack_req", "payload",
        "reply_port", "t0",
    )

    def __init__(self, msg_id: int, seq: int, nsegs: int, total_size: int,
                 ack_req: bool, payload: Any, reply_port: int,
                 t0: float = 0.0) -> None:
        self.msg_id = msg_id
        self.seq = seq
        self.nsegs = nsegs
        self.total_size = total_size
        self.ack_req = ack_req
        self.payload = payload  # the message object; delivered on completion
        self.reply_port = reply_port
        self.t0 = t0  # virtual send time, for delivery-latency accounting


class _LazyDigest:
    """A frame-header digest whose hex value is computed on first read.

    The wire model decides verification outcomes from the frame's
    corruption state, so in the common case the SHA-256 over the
    message's canonical encoding is never needed; this defers it while
    keeping ``frame.digest is not None`` semantics (and a real value for
    anything that prints or compares it).
    """

    __slots__ = ("_payload", "_hex")

    def __init__(self, payload: Any) -> None:
        self._payload = payload
        self._hex: Optional[str] = None

    @property
    def hex(self) -> Optional[str]:
        if self._hex is None:
            from repro.security.hashes import content_hash

            try:
                self._hex = content_hash(self._payload)
            except Exception:
                return None  # unhashable payload object: unverified
        return self._hex

    def __eq__(self, other: Any) -> bool:
        if isinstance(other, _LazyDigest):
            return self.hex == other.hex
        return self.hex == other

    def __hash__(self) -> int:
        return hash(self.hex)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<digest {self.hex}>"


class _Ack:
    __slots__ = ("msg_id", "cumulative", "missing", "done")

    def __init__(self, msg_id: int, cumulative: int,
                 missing: Tuple[int, ...], done: bool) -> None:
        self.msg_id = msg_id
        # Next segment the receiver expects (all below arrived) plus the
        # gaps between that and the highest segment received.
        self.cumulative = cumulative
        self.missing = missing
        self.done = done


class _SingleFlight:
    """Callback-driven sender for messages that fit one segment.

    Control-plane traffic — RPC requests and replies, heartbeats, lease
    refreshes — is overwhelmingly single-segment, and for one segment the
    :meth:`SrudpEndpoint._sender` window loop degenerates to "push, wait
    for the done-ACK, retransmit on timeout". Driving that with two
    callbacks (the ACK route and a cancellable wheel timer) instead of a
    generator process saves the Process/initialise-event/resume machinery
    per message, which was the largest remaining block in the overload
    profile after the wire path was flattened.

    The instance registers *itself* in ``_ack_routes`` (it quacks like
    the Store the generator path uses: :meth:`try_put`), and ``event`` is
    the caller-visible send event — succeeds with the byte count on the
    done-ACK, fails with :class:`SendError` on retry exhaustion, exactly
    like the Process event the slow path returns.
    """

    __slots__ = (
        "ep", "dst_host", "dst_port", "payload", "size", "msg_id",
        "trace_id", "digest", "t0", "sent_at", "est", "rto", "retries",
        "timer", "owner", "event", "finished", "via",
    )

    def __init__(self, ep: "SrudpEndpoint", dst_host: str, dst_port: int,
                 payload: Any, size: int, trace_id: Optional[int],
                 parent: Optional[int], via: Optional[str] = None) -> None:
        sim = ep.sim
        self.ep = ep
        self.dst_host = dst_host
        self.dst_port = dst_port
        self.payload = payload
        self.size = size
        self.trace_id = trace_id
        self.via = via
        ep._next_msg_id += 1
        self.msg_id = ep._next_msg_id
        self.digest = ep._message_digest(payload) if ep.digest_enabled else None
        ep._ack_routes[self.msg_id] = self
        ep._note_tx()
        self.t0 = sim.now
        self.owner = f"srudp-send:{ep.host.name}"
        tracer = ep._tracer
        if tracer.enabled:
            tracer.event(
                "srudp.send", trace_id=trace_id, msg=self.msg_id,
                src=ep.host.name, dst=dst_host, bytes=size, nsegs=1,
                parent_trace=parent,
            )
        est = ep._estimator(dst_host) if sim.overload.adaptive else None
        self.est = est
        self.rto = est.rto() if est is not None else ep.initial_rto
        self.retries = 0
        self.finished = False
        self.event = sim.event()
        # An unroutable push falls through to the timer, whose timeout
        # path re-probes — same recovery as the generator's window loop.
        self._push(retransmit=False)
        self.sent_at = sim.now
        self.timer = sim.schedule_timer(self.rto, self._on_timeout,
                                        owner=self.owner)

    def _push(self, retransmit: bool) -> None:
        ep = self.ep
        if retransmit and ep._tracer.enabled:
            ep._tracer.event("srudp.retransmit", trace_id=self.trace_id,
                             msg=self.msg_id, seq=0)
        data = _Data(self.msg_id, 0, 1, self.size, True, self.payload,
                     ep.port, self.t0)
        ep._send_frame(self.dst_host, self.dst_port, data,
                       self.size if self.size else 1,
                       trace_id=self.trace_id, digest=self.digest, via=self.via)

    # Ack-route protocol: the endpoint's _on_frame routes ACKs here.
    def try_put(self, ack: _Ack) -> bool:
        if self.finished:
            return True
        ep = self.ep
        sim = ep.sim
        self.timer.cancel()
        rtt = sim.now - self.sent_at
        est = self.est
        if est is not None:
            est.observe(rtt)
            self.rto = est.rto()
        else:
            ep._srtt = (
                rtt if ep._srtt == 0 else 0.875 * ep._srtt + 0.125 * rtt
            )
            self.rto = max(ep.min_rto, 2.5 * ep._srtt)
        self.retries = 0
        if ack.done:
            self.finished = True
            ep._ack_routes.pop(self.msg_id, None)
            ep._m_send_latency.observe(sim.now - self.t0)
            if self.via is None:
                ep.paths.note_result(self.dst_host, True)
            if ep._tracer.enabled:
                ep._tracer.event("srudp.acked", trace_id=self.trace_id,
                                 msg=self.msg_id)
            self.event.succeed(self.size)
            return True
        # Partial ACK naming our only segment as a hole: selective resend.
        if 0 in ack.missing:
            ep.retransmits += 1
            ep._note_retransmit()
            self._push(retransmit=True)
        self.sent_at = sim.now
        self.timer = sim.schedule_timer(self.rto, self._on_timeout,
                                        owner=self.owner)
        return True

    def _on_timeout(self) -> None:
        if self.finished:
            return
        ep = self.ep
        self.retries += 1
        if self.retries > ep.max_retries:
            self.finished = True
            ep._ack_routes.pop(self.msg_id, None)
            ep._m_send_errors.inc()
            if self.via is None:
                ep.paths.note_result(self.dst_host, False)
            if ep._tracer.enabled:
                ep._tracer.event("srudp.failed", trace_id=self.trace_id,
                                 msg=self.msg_id, outstanding=1)
            exc = SendError(
                f"srudp: {self.dst_host}:{self.dst_port} unreachable "
                f"(msg {self.msg_id}, 1/1 outstanding)"
            )
            ev = self.event
            ev.fail(exc)
            # Mirror the Process contract: an unobserved send failure is
            # a background crash in strict mode, not a silent drop.
            if ep.sim.strict_process_errors and not ev.callbacks:
                ep.sim._crashed.append((ev, exc))
            return
        est = self.est
        if est is not None:
            est.backoff()
            self.rto = est.rto()
        else:
            self.rto = min(self.rto * 2, 2.0)
        ep.retransmits += 1
        ep._note_retransmit()
        self._push(retransmit=True)
        self.sent_at = ep.sim.now
        self.timer = ep.sim.schedule_timer(self.rto, self._on_timeout,
                                           owner=self.owner)


class SrudpEndpoint(TransportEndpoint):
    """Reliable message transport over selective-resend UDP."""

    proto = "srudp"
    header_bytes = 32  # IP 20 + SNIPE reliable-datagram header 12
    #: End-to-end payload digesting (class-level so the ``no-digest``
    #: seeded bug can switch every endpoint off at once).
    digest_enabled = True

    def __init__(
        self,
        host,
        port,
        path_policy: str = "snipe",
        window: int = 64,
        initial_rto: float = 0.05,
        min_rto: float = 0.002,
        max_retries: int = 12,
        rx_capacity: Optional[int] = None,
    ) -> None:
        super().__init__(host, port, path_policy)
        self.window = window
        self.initial_rto = initial_rto
        self.min_rto = min_rto
        self.max_retries = max_retries
        # Bounded two-lane ingress: control messages (fencing, leases,
        # guardian probes) jump the bulk queue; a full bulk lane withholds
        # the final ACK so the sender retransmits — backpressure, never
        # silent loss.
        if rx_capacity is None:
            rx_capacity = TRANSPORT_RX_CAPACITY
        self._rx_queue: LaneStore = LaneStore(self.sim, bulk_capacity=rx_capacity)
        self._ack_routes: Dict[int, Store] = {}  # msg_id -> sender's ack inbox
        self._rx_state: Dict[Tuple[str, int], _RxState] = {}
        self._done: "OrderedDict[Tuple[str, int], bool]" = OrderedDict()
        self.retransmits = 0
        # Per-destination Jacobson RTT estimators (adaptive mode) and the
        # legacy endpoint-wide smoothed RTT (static baseline).
        self._rtt: Dict[str, RttEstimator] = {}
        self._srtt = 0.0
        # Message ids are scoped per endpoint (receivers key reassembly on
        # (src host, src port, msg id)), so a local counter suffices and —
        # unlike a process-global one — keeps same-seed runs identical
        # regardless of what else ran in this process.
        self._next_msg_id = 0

    def _estimator(self, dst_host: str) -> RttEstimator:
        est = self._rtt.get(dst_host)
        if est is None:
            est = self._rtt[dst_host] = RttEstimator(
                initial_rto=self.initial_rto, min_rto=self.min_rto, max_rto=2.0
            )
        return est

    # -- sending ----------------------------------------------------------
    def send(self, dst_host: str, dst_port: int, payload: Any, size: int):
        """Reliably send a message; the returned event succeeds on full
        acknowledgement and fails with :class:`SendError` otherwise.

        Single-segment messages return a plain event driven by
        :class:`_SingleFlight`; multi-segment messages return the sender
        Process. Both support ``yield``/``triggered``/``ok``/``value``.
        """
        # One fresh trace id per message (None when tracing is off),
        # allocated at call time so the caller's ambient span (if any) is
        # recorded as the parent.
        trace_id = self._tracer.maybe_trace_id()
        parent = self._tracer.current_trace_id
        if size <= self.max_payload(dst_host):
            # Single-segment fast path: no sender process, just an ACK
            # callback racing a retransmission timer (see _SingleFlight).
            return _SingleFlight(
                self, dst_host, dst_port, payload, size, trace_id, parent
            ).event
        return self.sim.process(
            self._sender(dst_host, dst_port, payload, size, trace_id, parent),
            name=f"srudp-send:{self.host.name}->{dst_host}",
        )

    def send_via(self, dst_host: str, dst_port: int, payload: Any, size: int,
                 via: str):
        """:meth:`send` with every data frame pinned to *via*, one address
        of *dst_host* (:meth:`PathSelector.select_via`). Single-segment
        messages only. The outcome is the caller's evidence about that
        one path, so it feeds no path steering."""
        if size > self.max_payload(dst_host):
            raise ValueError("srudp: a pinned send must fit one segment")
        return _SingleFlight(
            self, dst_host, dst_port, payload, size,
            self._tracer.maybe_trace_id(), self._tracer.current_trace_id, via,
        ).event

    def _sender(self, dst_host: str, dst_port: int, payload: Any, size: int,
                trace_id: Optional[int], parent: Optional[int] = None):
        self._next_msg_id += 1
        msg_id = self._next_msg_id
        mss = self.max_payload(dst_host)
        nsegs = max(1, -(-size // mss))
        digest = self._message_digest(payload) if self.digest_enabled else None
        acks: Store = Store(self.sim)
        self._ack_routes[msg_id] = acks
        self._note_tx()
        t0 = self.sim.now
        send_owner = f"srudp-send:{self.host.name}"
        tracer = self._tracer
        if tracer.enabled:
            tracer.event(
                "srudp.send", trace_id=trace_id, msg=msg_id,
                src=self.host.name, dst=dst_host, bytes=size, nsegs=nsegs,
                parent_trace=parent,
            )
        try:
            unacked: Set[int] = set(range(nsegs))
            cumulative = 0
            inflight: Set[int] = set()
            next_new = 0
            retries = 0
            # Adaptive mode: per-destination Jacobson estimator owns the
            # RTO (srtt + 4·rttvar, doubled per timeout). Static mode
            # keeps the legacy endpoint-wide 2.5·srtt with ad-hoc backoff.
            est = self._estimator(dst_host) if self.sim.overload.adaptive else None
            rto = est.rto() if est is not None else self.initial_rto
            pending = None  # outstanding acks.get(); reused across timeouts

            def seg_bytes(seq: int) -> int:
                if size == 0:
                    return 1
                return min(mss, size - seq * mss)

            def push(seq: int, ack_req: bool, retransmit: bool = False) -> bool:
                data = _Data(msg_id, seq, nsegs, size, ack_req, payload, self.port, t0)
                if retransmit and tracer.enabled:
                    tracer.event(
                        "srudp.retransmit", trace_id=trace_id, msg=msg_id, seq=seq
                    )
                return self._send_frame(
                    dst_host, dst_port, data, seg_bytes(seq), trace_id=trace_id,
                    digest=digest,
                )

            while unacked:
                # Fill the window with new segments.
                while next_new < nsegs and len(inflight) < self.window:
                    last_of_burst = (
                        next_new == nsegs - 1
                        or len(inflight) == self.window - 1
                        or (next_new + 1) % ACK_EVERY == 0
                    )
                    if not push(next_new, last_of_burst):
                        break  # unroutable right now; rely on timeout path
                    inflight.add(next_new)
                    next_new += 1
                # Wait for an ACK or a retransmission timeout. The get()
                # event is reused across timeouts so an ACK arriving late
                # is never swallowed by an abandoned waiter. The timeout
                # is a cancellable wheel timer: when the ACK wins the race
                # (the overwhelming majority of waits) the timer dies in
                # its bucket without ever touching the event heap.
                sent_at = self.sim.now
                if pending is None:
                    pending = acks.get()
                wake = self.sim.event()
                fire = waker(wake)
                pending.add_callback(fire)
                timer = self.sim.schedule_timer(rto, fire, owner=send_owner)
                yield wake
                timer.cancel()
                ack = None
                if pending.processed:
                    ack = pending.value
                    pending = None
                if isinstance(ack, _Ack):
                    rtt = self.sim.now - sent_at
                    if est is not None:
                        est.observe(rtt)
                        rto = est.rto()
                    else:
                        self._srtt = (
                            rtt if self._srtt == 0 else 0.875 * self._srtt + 0.125 * rtt
                        )
                        rto = max(self.min_rto, 2.5 * self._srtt)
                    retries = 0
                    if ack.done:
                        self._m_send_latency.observe(self.sim.now - t0)
                        self.paths.note_result(dst_host, True)
                        if tracer.enabled:
                            tracer.event(
                                "srudp.acked", trace_id=trace_id, msg=msg_id
                            )
                        return size
                    cumulative = max(cumulative, ack.cumulative)
                    newly_acked = {
                        s
                        for s in unacked
                        if s < cumulative and s not in ack.missing
                    }
                    unacked -= newly_acked
                    inflight -= newly_acked
                    # Selective retransmission of exactly the holes.
                    missing = [s for s in ack.missing if s in unacked]
                    for i, seq in enumerate(missing):
                        self.retransmits += 1
                        self._note_retransmit()
                        push(seq, ack_req=(i == len(missing) - 1), retransmit=True)
                else:
                    # Timeout: probe with the lowest unacked segment.
                    retries += 1
                    if retries > self.max_retries:
                        self._m_send_errors.inc()
                        self.paths.note_result(dst_host, False)
                        if tracer.enabled:
                            tracer.event(
                                "srudp.failed", trace_id=trace_id, msg=msg_id,
                                outstanding=len(unacked),
                            )
                        raise SendError(
                            f"srudp: {dst_host}:{dst_port} unreachable "
                            f"(msg {msg_id}, {len(unacked)}/{nsegs} outstanding)"
                        )
                    if est is not None:
                        est.backoff()
                        rto = est.rto()
                    else:
                        rto = min(rto * 2, 2.0)
                    if unacked:
                        self.retransmits += 1
                        self._note_retransmit()
                        push(min(unacked), ack_req=True, retransmit=True)
            self._m_send_latency.observe(self.sim.now - t0)
            self.paths.note_result(dst_host, True)
            return size
        finally:
            self._ack_routes.pop(msg_id, None)

    # -- receiving ------------------------------------------------------------
    @staticmethod
    def _message_digest(payload) -> Optional["_LazyDigest"]:
        """The end-to-end digest stamped on every data frame.

        Evaluated lazily: receivers decide "does the payload still match
        the header digest?" from the frame's wire-corruption state, so
        the hex value is only ever materialised if something (a debugger,
        a dump) actually reads it — hashing the canonical encoding of
        every message payload up front was a top-five cost in the bulk
        wire profile, for bytes nothing looked at.
        """
        return _LazyDigest(payload)

    def recv(self):
        """Event yielding the next complete :class:`Message`."""
        return self._rx_queue.get()

    def _on_frame(self, frame) -> None:
        item = frame.payload
        if isinstance(item, _Ack):
            if frame.corrupt and self.digest_enabled:
                # Header checksum failed: treat the ACK as lost;
                # the sender's timeout path recovers.
                self._note_rx_corrupt(frame.src.host)
                return
            inbox = self._ack_routes.get(item.msg_id)
            if inbox is not None:
                inbox.try_put(item)
            return
        self._on_data(frame, item)

    def _on_data(self, frame, data: _Data) -> None:
        if frame.corrupt and self.digest_enabled and frame.digest is not None:
            # Recomputing the digest over the received bytes does not
            # match the sender-stamped header digest: count the corrupt
            # receive, drop the segment, and leave it un-ACKed so the
            # sender retransmits. Corrupt bytes never go upward.
            self._note_rx_corrupt(frame.src.host)
            return
        # Keyed by host identity, not IP: a path failover changes the
        # source address mid-message and must not split the reassembly.
        key = (frame.src.host, frame.src_port, data.msg_id)
        if key in self._done:
            # Sender missed our final ACK; repeat it.
            self._send_ack(frame, data, cumulative=data.nsegs, missing=(), done=True)
            return
        state = self._rx_state.get(key)
        if state is None:
            state = self._rx_state[key] = _RxState(data.nsegs)
        if frame.corrupt:
            # Verification is off (no-digest bug) or the payload was
            # unhashable: the flipped bits go undetected and poison the
            # whole reassembly. The corruption oracle's ground truth.
            state.corrupt = True
        state.add(data.seq)
        if state.complete:
            admitted = self._rx_queue.try_put(
                Message(
                    src_host=frame.src.host,
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
                # Bulk lane full: withhold the final ACK and keep the
                # reassembly state. The sender times out and retransmits;
                # the message is delivered once the consumer drains.
                self._note_rx_drop()
                return
            del self._rx_state[key]
            self._done[key] = True
            while len(self._done) > 4096:
                self._done.popitem(last=False)
            self._note_rx(sent_at=data.t0)
            if state.corrupt:
                probes = self.sim.probes
                if probes is not None:
                    probes.emit(
                        "srudp.corrupt_deliver", src=frame.src.host,
                        dst=self.host.name, msg=data.msg_id,
                    )
            if self._tracer.enabled:
                self._tracer.event(
                    "srudp.deliver", trace_id=frame.trace_id, msg=data.msg_id,
                    src=frame.src.host, dst=self.host.name, bytes=data.total_size,
                )
            self._send_ack(frame, data, cumulative=data.nsegs, missing=(), done=True)
        elif data.ack_req:
            cum, missing = state.report()
            self._send_ack(frame, data, cumulative=cum, missing=missing, done=False)

    def _send_ack(self, frame, data: _Data, cumulative: int, missing, done: bool) -> None:
        ack = _Ack(data.msg_id, cumulative, tuple(missing), done)
        body = ACK_BODY_BYTES + ACK_MISS_BYTES * len(ack.missing)
        # ACKs inherit the data frame's trace id: the reverse path is part
        # of the same causal story.
        self._send_frame(
            frame.src.host, data.reply_port, ack, body, trace_id=frame.trace_id
        )


class _RxState:
    """Receiver-side reassembly: which segments of a message have arrived."""

    __slots__ = ("nsegs", "received", "max_seen", "corrupt", "cum")

    def __init__(self, nsegs: int) -> None:
        self.nsegs = nsegs
        self.received: Set[int] = set()
        self.max_seen = -1
        #: True when an undetected-corrupt segment entered the reassembly.
        self.corrupt = False
        #: Lowest segment not yet received, advanced incrementally in
        #: :meth:`add` — re-deriving it per ACK made bulk-message ACK
        #: generation quadratic in message size.
        self.cum = 0

    def add(self, seq: int) -> None:
        received = self.received
        received.add(seq)
        if seq > self.max_seen:
            self.max_seen = seq
        cum = self.cum
        if seq == cum:
            cum += 1
            while cum in received:
                cum += 1
            self.cum = cum

    @property
    def complete(self) -> bool:
        return len(self.received) == self.nsegs

    def report(self) -> Tuple[int, List[int]]:
        """(horizon, missing-below-horizon) for a selective ACK.

        The sender treats every segment below *horizon* that is not in the
        missing list as received. The missing list is capped to keep ACK
        frames small; when it overflows, the horizon is pulled back so no
        unreported hole is ever mistaken for an acknowledgement.
        """
        horizon = self.max_seen + 1
        missing: List[int] = []
        for s in range(self.cum, horizon):
            if s not in self.received:
                missing.append(s)
                if len(missing) >= 256:
                    horizon = s + 1
                    break
        return horizon, missing
