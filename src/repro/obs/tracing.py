"""Span-based tracing and causal message traces.

Two cooperating ideas:

* **Spans** measure named operations: virtual start/end times, tags,
  nesting (a span started while another is open records it as parent),
  and an outcome ("ok" or the exception type). Closing a span appends one
  trace record and feeds a ``span.<name>`` duration histogram.

* **Trace ids** follow causality across components. A transport allocates
  one id per message send and stamps it on every frame that message
  produces — first transmissions, selective retransmits, reroutes over a
  different interface, gateway forwards — so one logical send can be
  reconstructed end-to-end from the record stream with a single filter.

Records are plain dicts in a bounded ring buffer (oldest evicted first,
with a dropped counter) so week-long simulated runs cannot grow memory
without limit. ``dump_jsonl`` / ``to_jsonl`` export them as JSON lines.

Tracing is zero-cost when off: emit sites guard on ``tracer.enabled``
before building any record, and frame stamping uses
:meth:`Tracer.maybe_trace_id` so a disabled tracer never even allocates
ids. When on, ``sample_rate`` keeps a deterministic 1-in-N subset of
event/span records (counter-based, so the same run keeps the same
records); metrics and span-duration histograms stay exact regardless —
sampling thins the causal record stream, never the quantitative one.

Caveat on nesting: the simulator interleaves many processes in one OS
thread, so the "current span" stack is global, not per-process. Spans
opened and closed without yielding to the kernel nest exactly; spans held
across yields may record an interleaved sibling as parent. For causal
links across processes, pass trace ids explicitly.
"""

from __future__ import annotations

import itertools
import json
from collections import deque
from typing import Any, Callable, Deque, Dict, Iterable, List, Optional

#: Default ring-buffer capacity (records).
DEFAULT_CAPACITY = 100_000


class Span:
    """One traced operation; use as a context manager or call ``finish``."""

    __slots__ = ("tracer", "name", "trace_id", "span_id", "parent_id",
                 "tags", "start", "end", "outcome")

    def __init__(self, tracer: "Tracer", name: str,
                 trace_id: Optional[int], tags: Dict[str, Any]) -> None:
        self.tracer = tracer
        self.name = name
        self.span_id = next(tracer._span_ids)
        parent = tracer.current_span
        self.parent_id = parent.span_id if parent is not None else None
        if trace_id is None:
            trace_id = parent.trace_id if parent is not None else tracer.new_trace_id()
        self.trace_id = trace_id
        self.tags = tags
        self.start = tracer.clock()
        self.end: Optional[float] = None
        self.outcome: Optional[str] = None

    def finish(self, outcome: str = "ok") -> None:
        """Close the span (idempotent) and emit its trace record."""
        if self.end is not None:
            return
        self.end = self.tracer.clock()
        self.outcome = outcome
        self.tracer._close_span(self)

    def __enter__(self) -> "Span":
        self.tracer._stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.finish("ok" if exc_type is None else f"error:{exc_type.__name__}")
        return None


class Tracer:
    """Ring-buffered sink for trace events and spans."""

    def __init__(
        self,
        clock: Optional[Callable[[], float]] = None,
        enabled: bool = False,
        capacity: int = DEFAULT_CAPACITY,
        metrics=None,
    ) -> None:
        self.clock = clock or (lambda: 0.0)
        self.enabled = enabled
        self.capacity = capacity
        self.metrics = metrics  # optional MetricsRegistry for span durations
        self.dropped = 0
        self.sampled_out = 0
        self._sample_every = 1
        self._sample_tick = 0
        self._records: Deque[Dict[str, Any]] = deque()
        self._ids = itertools.count(1)
        self._span_ids = itertools.count(1)
        self._stack: List[Span] = []

    # -- ids & ambient context ---------------------------------------------
    def new_trace_id(self) -> int:
        return next(self._ids)

    def maybe_trace_id(self) -> Optional[int]:
        """A fresh trace id when tracing is on, else None.

        Frame-stamping sites use this so a detached tracer costs one
        attribute test — no id allocation, and frames carry ``None``.
        """
        return next(self._ids) if self.enabled else None

    # -- sampling -----------------------------------------------------------
    @property
    def sample_rate(self) -> float:
        """Fraction of event/span records kept (1.0 = keep everything)."""
        return 1.0 / self._sample_every

    @sample_rate.setter
    def sample_rate(self, rate: float) -> None:
        if not rate > 0.0:
            raise ValueError(f"sample rate must be positive, got {rate!r}")
        self._sample_every = max(1, round(1.0 / min(rate, 1.0)))
        self._sample_tick = 0

    def _keep(self) -> bool:
        """Deterministic counter-based keep/drop decision (1-in-N)."""
        if self._sample_every == 1:
            return True
        self._sample_tick += 1
        if self._sample_tick >= self._sample_every:
            self._sample_tick = 0
            return True
        self.sampled_out += 1
        return False

    @property
    def current_span(self) -> Optional[Span]:
        return self._stack[-1] if self._stack else None

    @property
    def current_trace_id(self) -> Optional[int]:
        span = self.current_span
        return span.trace_id if span is not None else None

    # -- recording ---------------------------------------------------------
    def _append(self, record: Dict[str, Any]) -> None:
        if self.capacity > 0 and len(self._records) >= self.capacity:
            self._records.popleft()
            self.dropped += 1
        self._records.append(record)

    def event(self, kind: str, trace_id: Optional[int] = None, **fields: Any) -> None:
        """Record one point event (no-op unless tracing is enabled)."""
        if not self.enabled or not self._keep():
            return
        record: Dict[str, Any] = {"t": self.clock(), "kind": kind}
        tid = trace_id if trace_id is not None else self.current_trace_id
        if tid is not None:
            record["trace"] = tid
        record.update(fields)
        self._append(record)

    def span(self, name: str, trace_id: Optional[int] = None, **tags: Any) -> Span:
        """A span starting now. ``with tracer.span(...):`` or ``.finish()``."""
        return Span(self, name, trace_id, tags)

    def _close_span(self, span: Span) -> None:
        try:
            self._stack.remove(span)
        except ValueError:
            pass  # finished without __enter__, or stack already unwound
        if self.metrics is not None:
            self.metrics.histogram(f"span.{span.name}").observe(span.end - span.start)
        if not self.enabled or not self._keep():
            return
        record: Dict[str, Any] = {
            "t": span.start,
            "kind": "span",
            "name": span.name,
            "trace": span.trace_id,
            "span": span.span_id,
            "end": span.end,
            "outcome": span.outcome,
        }
        if span.parent_id is not None:
            record["parent"] = span.parent_id
        if span.tags:
            record.update(span.tags)
        self._append(record)

    # -- inspection & export -----------------------------------------------
    def __len__(self) -> int:
        return len(self._records)

    def records(self) -> List[Dict[str, Any]]:
        return list(self._records)

    def events(self, trace_id: Optional[int] = None,
               kind: Optional[str] = None) -> List[Dict[str, Any]]:
        """Records filtered by trace id and/or kind, in recorded order."""
        out = []
        for rec in self._records:
            if trace_id is not None and rec.get("trace") != trace_id:
                continue
            if kind is not None and rec.get("kind") != kind:
                continue
            out.append(rec)
        return out

    def to_jsonl(self) -> str:
        return "\n".join(json.dumps(rec, default=str) for rec in self._records)

    def dump_jsonl(self, path: str) -> int:
        """Write all records as JSON lines; returns the record count."""
        with open(path, "w") as fh:
            for rec in self._records:
                fh.write(json.dumps(rec, default=str))
                fh.write("\n")
        return len(self._records)


def load_jsonl(lines: Iterable[str]) -> List[Dict[str, Any]]:
    """Parse a JSONL trace dump back into records (blank lines skipped)."""
    return [json.loads(line) for line in lines if line.strip()]
