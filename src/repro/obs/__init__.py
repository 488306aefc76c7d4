"""Observability: tracing, metrics, and reporting for the simulator.

Every :class:`~repro.sim.kernel.Simulator` owns one :class:`Observability`
(reached lazily as ``sim.obs``) bundling a :class:`MetricsRegistry` and a
:class:`Tracer` that both read the virtual clock. Metrics are always on —
an increment is just an attribute add — while trace recording is off by
default and enabled per run with ``sim.obs.tracer.enabled = True``.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.obs.flight import FlightRecorder
from repro.obs.metrics import Gauge, Histogram, MetricCounter, MetricsRegistry
from repro.obs.prof import KernelProfiler, profile_scenario
from repro.obs.report import (
    BENCH_SCHEMA_VERSION,
    diff_exports,
    load_export,
    render_diff,
    render_report,
    save_export,
    write_bench_json,
)
from repro.obs.tracing import DEFAULT_CAPACITY, Span, Tracer, load_jsonl

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "DEFAULT_CAPACITY",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "KernelProfiler",
    "MetricCounter",
    "MetricsRegistry",
    "Observability",
    "Span",
    "Tracer",
    "diff_exports",
    "load_export",
    "load_jsonl",
    "profile_scenario",
    "render_diff",
    "render_report",
    "save_export",
    "write_bench_json",
]


class Observability:
    """One simulation's metrics registry + tracer, sharing a clock."""

    def __init__(
        self,
        clock: Optional[Callable[[], float]] = None,
        trace: bool = False,
        trace_capacity: int = DEFAULT_CAPACITY,
    ) -> None:
        self.metrics = MetricsRegistry(clock=clock)
        self.tracer = Tracer(
            clock=clock, enabled=trace, capacity=trace_capacity, metrics=self.metrics
        )

    def span(self, name: str, trace_id: Optional[int] = None, **tags: Any) -> Span:
        return self.tracer.span(name, trace_id=trace_id, **tags)

    def event(self, kind: str, trace_id: Optional[int] = None, **fields: Any) -> None:
        self.tracer.event(kind, trace_id=trace_id, **fields)

    def export(self) -> dict:
        """JSON-serialisable dump of all metrics plus trace accounting."""
        out = self.metrics.export()
        out["trace"] = {
            "records": len(self.tracer),
            "dropped": self.tracer.dropped,
            "sampled_out": self.tracer.sampled_out,
            "capacity": self.tracer.capacity,
        }
        return out
