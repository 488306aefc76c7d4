"""Network segments: a shared medium joining a set of NICs.

A segment is one L2 network — an Ethernet switch domain, an ATM fabric, a
point-to-point WAN link. It knows which NICs are attached, resolves
destination IPs to NICs, applies propagation latency and loss, and can be
taken down/up by the failure injector.

Beyond the clean fail-stop model (``up = False`` eats everything), a
segment supports *gray* link faults installed by the failure injector:

* **directional blocks** — refcounted per ``(src_host, dst_host)``
  ordered pair (``"*"`` wildcards either side), so an asymmetric
  partition can cut A→B while B→A still flows;
* **link fault profiles** — per-direction probabilistic loss,
  duplication, reordering (extra latency jitter) and payload bit-flip
  corruption, applied on top of the medium's own loss model.

Both are invisible to the control plane by design: they do not bump the
topology version, so routing and path caches keep believing the link is
fine — exactly the property that makes gray failures hard. Detection is
the transports' and the health scorer's problem.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.net.media import Medium
from repro.net.packet import BROADCAST, Frame
from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator
    from repro.net.nic import NIC


class _Arrival(Event):
    """Propagation delay for one frame has elapsed: hand it to the NIC.

    A lean kernel event (no callback list, no Timeout/lambda pair per
    delivered frame — the per-frame arrival path is the hottest event
    producer in the wire profile).
    """

    __slots__ = ("nic", "frame")

    def __init__(self, sim: "Simulator", nic: "NIC", frame: Frame,
                 delay: float) -> None:
        # One _Arrival per delivered frame: initialise the Event slots
        # inline (callbacks stay None — _process is overridden and never
        # runs a callback list) instead of chaining to Event.__init__.
        self.sim = sim
        self.callbacks = None
        self._value = None
        self._exc = None
        self._processed = False
        self.nic = nic
        self.frame = frame
        sim._schedule(self, delay)

    def _process(self) -> None:
        if self._processed:
            return
        self._processed = True
        self.nic.receive(self.frame)


@dataclass(frozen=True)
class LinkFault:
    """A probabilistic impairment profile for one link direction.

    ``loss``/``dup``/``corrupt`` are per-frame probabilities;
    ``reorder`` is the probability a frame is held back by an extra
    ``jitter``-scaled delay (which makes it arrive after frames sent
    later — a genuine reordering, not just slowness).
    """

    loss: float = 0.0
    dup: float = 0.0
    reorder: float = 0.0
    corrupt: float = 0.0
    jitter: float = 0.05


class Segment:
    """One L2 network with a :class:`Medium` personality."""

    def __init__(self, sim: "Simulator", name: str, medium: Medium) -> None:
        self.sim = sim
        self.name = name
        self.medium = medium
        self.up = True
        self.nics: Dict[str, "NIC"] = {}  # ip -> NIC
        self._rng = sim.rng.stream(f"net.segment.{name}")
        self.frames_delivered = 0
        self.frames_lost = 0
        self.frames_blocked = 0
        self.frames_corrupted = 0
        self.frames_duplicated = 0
        self.frames_reordered = 0
        #: Directional hold refcounts: (src_host, dst_host) -> count.
        self._blocked: Dict[Tuple[str, str], int] = {}
        #: Installed impairment profiles: (src_host, dst_host) -> profiles.
        self._faults: Dict[Tuple[str, str], List[LinkFault]] = {}
        # Fast-path flag: the per-frame gray pipeline only runs when some
        # gray state is installed, so clean runs pay one attribute check.
        self._gray = False

    def attach(self, nic: "NIC") -> None:
        if nic.address.ip in self.nics:
            raise ValueError(f"duplicate IP {nic.address.ip} on segment {self.name}")
        self.nics[nic.address.ip] = nic

    # -- gray link state (driven by the failure injector) ------------------
    def block_link(self, src: str, dst: str) -> None:
        """Hold the *src*→*dst* direction down (refcounted; ``"*"`` = any)."""
        key = (src, dst)
        self._blocked[key] = self._blocked.get(key, 0) + 1
        self._update_gray()

    def unblock_link(self, src: str, dst: str) -> None:
        key = (src, dst)
        n = self._blocked.get(key, 0)
        if n <= 1:
            self._blocked.pop(key, None)
        else:
            self._blocked[key] = n - 1
        self._update_gray()

    def add_fault(self, src: str, dst: str, fault: LinkFault) -> None:
        self._faults.setdefault((src, dst), []).append(fault)
        self._update_gray()

    def remove_fault(self, src: str, dst: str, fault: LinkFault) -> None:
        lst = self._faults.get((src, dst))
        if lst and fault in lst:
            lst.remove(fault)
            if not lst:
                del self._faults[(src, dst)]
        self._update_gray()

    def _update_gray(self) -> None:
        self._gray = bool(self._blocked) or bool(self._faults)

    def link_blocked(self, src: str, dst: str) -> bool:
        b = self._blocked
        return ((src, dst) in b or (src, "*") in b or ("*", dst) in b
                or ("*", "*") in b)

    def _faults_for(self, src: str, dst: str) -> List[LinkFault]:
        out: List[LinkFault] = []
        for key in ((src, dst), (src, "*"), ("*", dst), ("*", "*")):
            lst = self._faults.get(key)
            if lst:
                out.extend(lst)
        return out

    # -- delivery ---------------------------------------------------------
    def propagate(
        self, sender: "NIC", frame: Frame, fragments: int = 1,
        wire_time: float = 0.0,
    ) -> None:
        """Called by the sending NIC when serialisation *starts*.

        Applies the loss draw (compounded over IP *fragments* — losing any
        fragment loses the frame) and schedules arrival ``wire_time +
        latency`` later, so delivery lands exactly when it would have
        under completion-time propagation — without a completion event.
        A down segment silently eats every frame (the transports' problem).
        """
        if not self.up:
            self.frames_lost += 1
            return
        frame.via_segment = self.name
        hop_ip = frame.l2_dst or frame.dst_ip
        if hop_ip == BROADCAST:
            for ip, nic in list(self.nics.items()):
                if nic is not sender:
                    self._deliver_one(nic, frame, fragments, sender, wire_time)
            return
        nic = self.nics.get(hop_ip)
        if nic is None:
            self.frames_lost += 1
            return
        self._deliver_one(nic, frame, fragments, sender, wire_time)

    def _deliver_one(
        self, nic: "NIC", frame: Frame, fragments: int = 1,
        sender: Optional["NIC"] = None, wire_time: float = 0.0,
    ) -> None:
        p_loss = self.medium.loss_rate
        if p_loss > 0 and fragments > 1:
            p_loss = 1.0 - (1.0 - p_loss) ** fragments
        if p_loss > 0 and self._rng.random() < p_loss:
            self.frames_lost += 1
            return
        delay = self.medium.latency + wire_time
        if self._gray and sender is not None:
            frame, delay = self._apply_gray(sender, nic, frame, fragments, delay)
            if frame is None:
                return
        self.frames_delivered += 1
        _Arrival(self.sim, nic, frame, delay)

    def _apply_gray(
        self, sender: "NIC", nic: "NIC", frame: Frame, fragments: int,
        delay: float,
    ):
        """Run the gray-fault pipeline for one (sender, receiver) hop.

        Returns ``(frame, delay)`` — possibly a corrupted copy and a
        jittered delay — or ``(None, delay)`` when the frame is eaten.
        """
        src, dst = sender.host.name, nic.host.name
        if self.link_blocked(src, dst):
            self.frames_blocked += 1
            self.frames_lost += 1
            return None, delay
        rng = self._rng
        for f in self._faults_for(src, dst):
            p = f.loss
            if p > 0 and fragments > 1:
                p = 1.0 - (1.0 - p) ** fragments
            if p > 0 and rng.random() < p:
                self.frames_lost += 1
                return None, delay
            if f.corrupt > 0 and rng.random() < f.corrupt:
                # Bit flips on the wire: the receiver gets a frame whose
                # payload bytes no longer match the sender-stamped digest.
                frame = copy.copy(frame)
                frame.corrupt = True
                self.frames_corrupted += 1
            if f.dup > 0 and rng.random() < f.dup:
                # A duplicate copy arrives slightly after the original.
                self.frames_duplicated += 1
                dup_delay = delay + rng.uniform(0.5, 1.5) * f.jitter
                _Arrival(self.sim, nic, frame, dup_delay)
            if f.reorder > 0 and rng.random() < f.reorder:
                # Held back long enough to land behind later sends.
                self.frames_reordered += 1
                delay += rng.uniform(1.0, 3.0) * f.jitter
        return frame, delay

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "up" if self.up else "DOWN"
        return f"<Segment {self.name} [{self.medium.name}] {state} nics={len(self.nics)}>"
