"""Frames and addresses.

A :class:`Frame` is the unit handed to a NIC: it carries an opaque payload
object plus a declared payload size in bytes. The simulator charges wire
time for the declared size; it never serialises the Python object itself.

An :class:`Address` names one network interface. The paper's hosts are
multi-homed (§5.2.1: "one or more network interfaces … netmask … net
name"), so host identity and interface address are distinct; routing and
media selection happen over addresses, naming over hosts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

#: Destination IP meaning "every NIC on the segment except the sender".
BROADCAST = "*"


@dataclass(frozen=True)
class Address:
    """One interface: (host, iface) identity plus its IP and net name."""

    host: str
    iface: str
    ip: str
    netname: str

    def __str__(self) -> str:
        return f"{self.ip}({self.host}.{self.iface})"


class Frame:
    """A link-layer frame in flight.

    ``size`` is the transport-layer payload size in bytes; the medium adds
    its own framing overhead when computing wire time. ``proto`` and the
    port pair demultiplex to a transport endpoint on the destination host.
    ``ttl`` guards against forwarding loops.

    A hand-rolled ``__slots__`` class rather than a dataclass: frames are
    the hottest allocation on the wire path (one per fragment per hop),
    and dataclass ``__init__``/``__eq__`` machinery plus a ``__dict__``
    per instance showed up in the kernel profile. Frame ids come from
    the owning simulation (:meth:`repro.sim.Simulator.next_frame_id`),
    never from process-global state, so back-to-back simulations in one
    test process see identical id streams.
    """

    __slots__ = (
        "src",
        "dst_ip",
        "proto",
        "src_port",
        "dst_port",
        "payload",
        "size",
        "ttl",
        "frame_id",
        "l2_dst",
        "via_segment",
        "trace_id",
        "corrupt",
    )

    def __init__(
        self,
        src: Address,
        dst_ip: str,
        proto: str,
        src_port: int,
        dst_port: int,
        payload: Any,
        size: int,
        ttl: int = 16,
        frame_id: int = 0,
        l2_dst: Optional[str] = None,
        via_segment: Optional[str] = None,
        trace_id: Optional[int] = None,
        corrupt: bool = False,
    ) -> None:
        self.src = src
        self.dst_ip = dst_ip
        self.proto = proto
        self.src_port = src_port
        self.dst_port = dst_port
        self.payload = payload
        self.size = size
        #: Guards against forwarding loops.
        self.ttl = ttl
        #: Per-simulation id, stamped by the sending transport from
        #: ``sim.next_frame_id()`` (0 = unstamped, only in unit tests).
        self.frame_id = frame_id
        #: L2 next hop on the current segment when forwarding through
        #: gateways; None means "dst_ip is on this segment".
        self.l2_dst = l2_dst
        #: Filled in by the delivering segment so receivers know the medium.
        self.via_segment = via_segment
        #: Causal trace id stamped by the sending transport: every frame a
        #: logical message send produces (first transmissions, retransmits,
        #: reroutes, gateway forwards) carries the same id, so one send can
        #: be reconstructed end-to-end from the trace stream.
        self.trace_id = trace_id
        #: Set by the failure injector when the wire flipped bits in this
        #: frame's payload. A verifying receiver reads it as the outcome
        #: of re-checking the payload digest (the wire model computes no
        #: hash); it is also the corruption oracle's ground truth when
        #: verification is deliberately disabled.
        self.corrupt = corrupt

    def __copy__(self) -> "Frame":
        dup = Frame.__new__(Frame)
        for name in Frame.__slots__:
            setattr(dup, name, getattr(self, name))
        return dup

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<Frame #{self.frame_id} {self.proto} {self.src.ip}:{self.src_port}"
            f"->{self.dst_ip}:{self.dst_port} {self.size}B>"
        )
