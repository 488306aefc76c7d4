"""Black-box flight recorder: the last N events per host, always armed.

An aircraft flight recorder does not know when the incident will happen;
it keeps a bounded ring of the recent past and survives the crash. This
is the simulator's equivalent: a :class:`FlightRecorder` subscribes to
the semantic probe bus (``sim.probes``) and — via ``sim.flight`` — to
every locally delivered frame, keeping a bounded per-host ring of recent
records. When an oracle fires or a scenario's own safety check fails
(chaos and check runs alike), the harness stamps the violation into the ring and snapshots it
into the failure report; the CLIs dump it as JSONL next to the
ddmin-minimized trace, so a failure ships with its last-N-events context
instead of demanding a re-run under full tracing.

Records are keyed by host (probe ``host``/``dst``/``src`` field, or
``*`` for site-wide records like violations), each ring bounded at
``capacity`` with per-host drop counters — memory stays O(hosts), not
O(run length). A global sequence number preserves total emission order
across rings so a merged snapshot reads like a single tape.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

#: Default per-host ring capacity (records).
DEFAULT_CAPACITY = 512


class FlightRecorder:
    """Bounded per-host rings of recent probes, frames, and violations."""

    def __init__(self, sim, capacity: int = DEFAULT_CAPACITY,
                 capture_frames: bool = True) -> None:
        self.sim = sim
        self.capacity = capacity
        self.capture_frames = capture_frames
        self.recorded = 0
        self.dropped: Dict[str, int] = {}
        self._rings: Dict[str, Deque[Tuple[int, Dict[str, Any]]]] = {}
        self._seq = 0

    def attach(self, bus=None) -> "FlightRecorder":
        """Arm the recorder: frame capture via ``sim.flight``, probe
        capture by subscribing to *bus* (when given)."""
        if self.capture_frames:
            self.sim.flight = self
        if bus is not None:
            bus.subscribe(self.on_probe)
        return self

    def detach(self) -> None:
        if self.sim.flight is self:
            self.sim.flight = None

    # -- recording ----------------------------------------------------------
    def _append(self, host: str, record: Dict[str, Any]) -> None:
        ring = self._rings.get(host)
        if ring is None:
            ring = self._rings[host] = deque()
        if len(ring) >= self.capacity:
            ring.popleft()
            self.dropped[host] = self.dropped.get(host, 0) + 1
        self._seq += 1
        self.recorded += 1
        ring.append((self._seq, record))

    def on_probe(self, kind: str, fields: Dict[str, Any]) -> None:
        """ProbeBus subscriber: file the probe under its host.

        Synchronous and O(1) per the bus contract; never raises.
        """
        host = fields.get("host") or fields.get("dst") or fields.get("src")
        record = {"host": str(host) if host is not None else "*",
                  "t": self.sim.now, "kind": kind}
        record.update(fields)
        self._append(record["host"], record)

    def note_frame(self, host: str, frame) -> None:
        """Called by :meth:`Host.deliver` for every locally consumed frame."""
        self._append(host, {
            "host": host,
            "t": self.sim.now,
            "kind": "frame.rx",
            "proto": frame.proto,
            "src": frame.src.host if frame.src is not None else None,
            "src_port": frame.src_port,
            "dst_port": frame.dst_port,
            "bytes": frame.size,
            "trace": frame.trace_id,
        })

    def note_violation(self, oracle: str, t: float, detail: str) -> None:
        """Stamp a violation onto the tape (site-wide ring), so the dump's
        tail always names what fired and when."""
        self._append("*", {"host": "*", "t": t, "kind": "violation",
                           "oracle": oracle, "detail": detail})

    # -- inspection & export -------------------------------------------------
    def __len__(self) -> int:
        return sum(len(r) for r in self._rings.values())

    def hosts(self) -> List[str]:
        return sorted(self._rings)

    def snapshot(self, host: Optional[str] = None,
                 last: Optional[int] = None) -> List[Dict[str, Any]]:
        """Records in emission order; one host's ring, or all merged.

        ``last`` keeps only the newest *last* records — the tail of the
        tape, which is where the violating event lives.
        """
        if host is not None:
            items = list(self._rings.get(host, ()))
        else:
            items = sorted(
                (item for ring in self._rings.values() for item in ring),
                key=lambda item: item[0],
            )
        if last is not None:
            items = items[-last:]
        return [record for _seq, record in items]

    def dump_jsonl(self, path: str, host: Optional[str] = None) -> int:
        """Write the (merged) tape as JSON lines; returns the record count."""
        records = self.snapshot(host=host)
        with open(path, "w") as fh:
            for record in records:
                fh.write(json.dumps(record, default=str))
                fh.write("\n")
        return len(records)


def dump_flight_records(path: str, records: List[Dict[str, Any]]) -> int:
    """Write an already-snapshotted flight tape (e.g. ``report["flight"]``)
    as JSON lines; returns the record count."""
    with open(path, "w") as fh:
        for record in records:
            fh.write(json.dumps(record, default=str))
            fh.write("\n")
    return len(records)
