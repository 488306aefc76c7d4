"""Common transport machinery: messages, endpoint base class, send errors.

All SNIPE transports are *message* oriented (PVM heritage): the unit the
client library sees is a tagged message of N bytes, whatever segmentation
the protocol does underneath. Transport headers are charged against frame
size so media overheads come out right in Fig. 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Optional

from repro.net.packet import Frame
from repro.transport.pathsel import PathSelector

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.host import Host, PortBinding
    from repro.sim.kernel import Simulator


class SendError(Exception):
    """A message could not be delivered (peer dead, retries exhausted)."""


@dataclass
class Message:
    """An application-level message as received from a transport.

    ``msg_id`` identifies the message within its transport's dedup scope;
    transports that need one draw it from ``sim.sequence(...)`` so ids are
    per-simulation (never process-global — replays must not depend on how
    many sims ran earlier in the process).
    """

    src_host: str
    src_ip: str
    src_port: int
    payload: Any
    size: int
    msg_id: int = 0


class TransportEndpoint:
    """Base class: binds (proto, port), owns a path selector, sends frames.

    Subclasses implement the actual protocol in :meth:`_on_frame` and their
    ``send``. The local fast path (destination == own host) bypasses the
    NIC entirely, like a kernel loopback.
    """

    #: Protocol name used for port demultiplexing; subclasses override.
    proto = "raw"
    #: Transport+IP header bytes charged per frame.
    header_bytes = 28

    def __init__(
        self,
        host: "Host",
        port: int,
        path_policy: str = "snipe",
    ) -> None:
        self.sim: "Simulator" = host.sim
        self.host = host
        self.port = port
        self.paths = PathSelector(host, policy=path_policy)
        self.binding: "PortBinding" = host.bind(self.proto, port)
        self.closed = False
        self.tx_messages = 0
        self.rx_messages = 0
        self.rx_drops = 0
        self.rx_corrupt = 0
        # Observability: per-protocol metrics are interned by the registry,
        # so every endpoint of one protocol feeds the same histogram.
        obs = self.sim.obs
        self._tracer = obs.tracer
        self._m_tx = obs.metrics.counter("transport.tx_messages", proto=self.proto)
        self._m_rx = obs.metrics.counter("transport.rx_messages", proto=self.proto)
        self._m_latency = obs.metrics.histogram("transport.msg_latency", proto=self.proto)
        self._m_retransmits = obs.metrics.counter(
            "transport.retransmits", proto=self.proto
        )
        self._m_rx_drops = obs.metrics.counter(
            "transport.rx_drops", proto=self.proto
        )
        self._m_rx_corrupt = obs.metrics.counter(
            "transport.rx_corrupt", proto=self.proto
        )
        # Frames dispatch synchronously from the arrival event via the
        # binding handler (no receive-loop process, no Store hop per frame).
        self.binding.handler = self._on_frame

    # -- subclass API -------------------------------------------------------
    def _on_frame(self, frame) -> None:
        """Handle one arrived frame; every protocol overrides this."""
        raise NotImplementedError

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            self.host.unbind(self.proto, self.port)

    # -- accounting helpers -------------------------------------------------
    def _note_tx(self) -> None:
        """Count one outgoing application message."""
        self.tx_messages += 1
        self._m_tx.inc()

    def _note_rx(self, sent_at: Optional[float] = None) -> None:
        """Count one delivered message; *sent_at* feeds the end-to-end
        delivery-latency histogram."""
        self.rx_messages += 1
        self._m_rx.inc()
        if sent_at is not None:
            self._m_latency.observe(self.sim.now - sent_at)

    def _note_retransmit(self) -> None:
        self._m_retransmits.inc()

    def _note_rx_drop(self) -> None:
        """Count one message refused at a full receive queue. For reliable
        transports this is backpressure, not loss: the ACK is withheld and
        the sender retransmits once the consumer drains the queue."""
        self.rx_drops += 1
        self._m_rx_drops.inc()

    def _note_rx_corrupt(self, src_host: str) -> None:
        """Count one frame dropped on digest-verification failure, and
        feed the differential health board (bit-flipping paths get
        quarantined). For reliable transports the drop is retried: no
        ACK covers the segment, so the sender retransmits it."""
        self.rx_corrupt += 1
        self._m_rx_corrupt.inc()
        self.host.health.note_outcome(src_host, False, kind="digest")

    # -- frame helpers --------------------------------------------------------
    def max_payload(self, dst_host: str) -> int:
        """Usable bytes per frame toward *dst_host* after headers."""
        choice = self.paths.select(dst_host)
        if choice is None:
            return 1024  # arbitrary; send will fail anyway
        nic = choice[0]
        return nic.medium.mtu - self.header_bytes

    def _send_frame(
        self,
        dst_host: str,
        dst_port: int,
        payload: Any,
        body_bytes: int,
        trace_id: Optional[int] = None,
        via: Optional[str] = None,
    ) -> bool:
        """Push one protocol frame toward *dst_host*. False if unroutable.

        *trace_id* stamps the frame for causal tracing; a ``frame.tx``
        record naming the chosen interface/network is emitted per frame
        when tracing is on, which is what makes mid-message reroutes
        visible in a trace. *via* pins the frame to one address of
        *dst_host* (:meth:`PathSelector.select_via`) instead of the
        selector's choice.
        """
        if dst_host == self.host.name:
            self._send_local(dst_port, payload, body_bytes, trace_id=trace_id)
            return True
        if via is None:
            choice = self.paths.select(dst_host)
        else:
            choice = self.paths.select_via(dst_host, via)
        if choice is None:
            return False
        nic, dst_ip, l2 = choice
        frame = Frame(
            src=nic.address,
            dst_ip=dst_ip,
            proto=self.proto,
            src_port=self.port,
            dst_port=dst_port,
            payload=payload,
            size=body_bytes + self.header_bytes,
            frame_id=self.sim.next_frame_id(),
            l2_dst=l2,
            trace_id=trace_id,
        )
        if self._tracer.enabled:
            self._tracer.event(
                "frame.tx",
                trace_id=trace_id,
                proto=self.proto,
                src=self.host.name,
                dst=dst_host,
                iface=nic.iface,
                net=nic.segment.name,
                bytes=frame.size,
            )
        return nic.send(frame)

    def _send_local(
        self, dst_port: int, payload: Any, body_bytes: int,
        trace_id: Optional[int] = None,
    ) -> None:
        """Loopback delivery on the same host (no NIC, tiny fixed cost)."""
        from repro.net.media import LOOPBACK

        delay = LOOPBACK.latency + body_bytes / LOOPBACK.bandwidth
        binding_key = (self.proto, dst_port)
        ev = self.sim.timeout(delay, value=payload)

        def deliver(e, host=self.host, key=binding_key):
            if not host.up:
                return
            binding = host._bindings.get(key)
            if binding is None:
                host.unclaimed_frames += 1
                return
            # Wrap in a minimal frame-like for uniform rx handling.
            any_nic = next(iter(host.nics.values()), None)
            src_addr = any_nic.address if any_nic else None
            frame = Frame(
                src=src_addr,
                dst_ip=src_addr.ip if src_addr else "127.0.0.1",
                proto=self.proto,
                src_port=self.port,
                dst_port=dst_port,
                payload=e.value,
                size=body_bytes + self.header_bytes,
                frame_id=host.sim.next_frame_id(),
                via_segment="loopback",
                trace_id=trace_id,
            )
            binding.rx_frames += 1
            if binding.handler is not None:
                binding.handler(frame)
            else:
                binding.inbox.try_put(frame)

        ev.add_callback(deliver)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.host.name}:{self.port}>"
