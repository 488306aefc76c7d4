"""Declarative SLOs evaluated from the observability metrics.

An :class:`Slo` names one bound over one metric column — ``p99 of
overload.control_latency <= 0.5s``, ``daemon.heartbeats_failed == 0`` —
and is evaluated against a :meth:`MetricsRegistry.export` dict, so the
same spec works live inside a run (:class:`SloMonitor` samples the
registry every interval of virtual time and remembers the first breach)
and offline against a saved export (``python -m repro obs slo --export
FILE``).

Aggregation across tagged instances of one metric name: counters and
gauges sum, histogram columns take the worst (max) instance — an SLO is
a bound, so the conservative reading is the honest one. A metric that
was never created reads as 0.0, which keeps vacuous cases sane (no
recoveries -> recovery MTTR trivially within bound).

``ratio_to`` turns a counter bound into a rate bound: the evaluated
value becomes ``metric / (metric + ratio_to)`` — e.g. shed requests as a
share of all arrivals (shed + served).

:data:`DEFAULT_SLOS` encodes the paper-level service expectations the
chaos/overload experiments already assert piecemeal: control-RPC p99,
lease heartbeat loss, recovery MTTR, and the shed rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

_OPS = {
    "<=": lambda v, t: v <= t,
    ">=": lambda v, t: v >= t,
    "<": lambda v, t: v < t,
    ">": lambda v, t: v > t,
}

#: Columns valid for histogram metrics (counters/gauges use "value").
HIST_COLUMNS = ("count", "mean", "p50", "p95", "p99", "max")


@dataclass(frozen=True)
class Slo:
    """One service-level objective: ``column(metric) op threshold``."""

    name: str
    metric: str
    threshold: float
    column: str = "value"
    op: str = "<="
    #: When set, evaluate ``metric / (metric + ratio_to)`` instead of the
    #: raw value (both read with ``column``); 0/0 counts as 0.
    ratio_to: Optional[str] = None
    #: Histogram SLOs only: mid-run (partial) samples skip the bound
    #: until the metric has this many samples — early in a run one slow
    #: startup call would transiently breach a bound the steady state
    #: comfortably honours. The final verdict ignores ``min_count``.
    min_count: int = 0
    description: str = ""

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise ValueError(f"unknown op {self.op!r} (known: {sorted(_OPS)})")

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        lhs = (f"{self.metric}/({self.metric}+{self.ratio_to})"
               if self.ratio_to else f"{self.column}({self.metric})")
        return f"{self.name}: {lhs} {self.op} {self.threshold:g}"


#: The site-wide objectives the overload/chaos scenarios must hold.
DEFAULT_SLOS: Tuple[Slo, ...] = (
    Slo("control-rpc-p99", "overload.control_latency", 0.5, column="p99",
        min_count=100,
        description="control-plane RPC p99 latency stays under 500ms"),
    Slo("heartbeat-loss", "daemon.heartbeats_failed", 0.0,
        description="no lease heartbeat ever fails"),
    Slo("recovery-mttr-p99", "guardian.recovery_latency", 10.0, column="p99",
        description="death-to-respawn recovery p99 under 10s"),
    Slo("shed-rate", "rpc.requests_shed", 0.9,
        ratio_to="rpc.requests_served",
        description="under 90% of RPC arrivals shed (some service survives)"),
    Slo("sync-payload-max", "rcds.sync_batch_records", 64.0, column="max",
        description="no anti-entropy payload ever exceeds the configured "
                    "per-RPC record bound (heal-storm control)"),
    Slo("redirect-rate", "rcds.redirects", 0.5,
        ratio_to="rcds.lookups",
        description="fewer stale-epoch shard redirects than served catalog "
                    "lookups (map dissemination keeps routing convergent; "
                    "trivially 0 on an unsharded site)"),
)


def _column_values(export: Dict[str, Any], metric: str,
                   column: str) -> List[float]:
    """All values of *column* for *metric* across its tagged instances."""
    out: List[float] = []
    if column == "value":
        for kind in ("counters", "gauges"):
            for m in export.get(kind, []):
                if m["name"] == metric:
                    out.append(float(m["value"]))
    for h in export.get("histograms", []):
        if h["name"] == metric and column in h:
            out.append(float(h[column]))
    return out


def _metric_value(export: Dict[str, Any], metric: str, column: str) -> float:
    values = _column_values(export, metric, column)
    if not values:
        return 0.0
    # Counters/gauges aggregate by sum; histogram columns take the worst
    # instance (an SLO is a bound — the conservative read is the honest one).
    return sum(values) if column == "value" else max(values)


def evaluate_slos(export: Dict[str, Any], slos: Sequence[Slo],
                  partial: bool = False) -> List[Dict[str, Any]]:
    """Evaluate every SLO against one metrics export.

    Returns one dict per SLO: ``{"name", "ok", "value", "threshold",
    "op", "detail"}``, in spec order. With ``partial=True`` (a mid-run
    sample, not a final verdict) a histogram bound whose metric has
    fewer than ``min_count`` samples is not yet evaluable and reads as
    ok — a p99 over a dozen startup calls is the max with extra steps.
    The final evaluation enforces the bound whatever the count.
    """
    results: List[Dict[str, Any]] = []
    for slo in slos:
        value = _metric_value(export, slo.metric, slo.column)
        if slo.ratio_to is not None:
            denom = value + _metric_value(export, slo.ratio_to, slo.column)
            value = value / denom if denom else 0.0
        ok = _OPS[slo.op](value, slo.threshold)
        if (partial and not ok and slo.min_count
                and slo.column in HIST_COLUMNS):
            n = _metric_value(export, slo.metric, "count")
            if n < slo.min_count:
                ok = True  # not yet evaluable — too few samples to judge
        results.append({
            "name": slo.name,
            "ok": ok,
            "value": value,
            "threshold": slo.threshold,
            "op": slo.op,
            "detail": f"{slo} -> {value:g}",
        })
    return results


def parse_slo(spec: str) -> Slo:
    """Parse ``name:metric[:column]:op:threshold`` (CLI ``--slo`` syntax).

    ``op`` accepts ``le``/``ge``/``lt``/``gt`` as spellings of
    ``<=``/``>=``/``<``/``>`` so shells need no quoting.
    """
    words = {"le": "<=", "ge": ">=", "lt": "<", "gt": ">"}
    parts = spec.split(":")
    if len(parts) == 4:
        name, metric, op, threshold = parts
        column = "value"
    elif len(parts) == 5:
        name, metric, column, op, threshold = parts
    else:
        raise ValueError(
            f"bad SLO spec {spec!r}: want name:metric[:column]:op:threshold"
        )
    return Slo(name=name, metric=metric, column=column,
               op=words.get(op, op), threshold=float(threshold))


class SloMonitor:
    """Continuous in-run SLO evaluation over virtual time.

    A background process samples the simulation's metrics registry every
    *interval* virtual seconds and records the first time each SLO is
    out of bounds. :meth:`results` folds that history into the final
    evaluation: an SLO that breached mid-run and recovered by the end is
    still a failure (``transient``), because the bound is continuous, not
    a final-state assertion.
    """

    def __init__(self, sim, slos: Sequence[Slo],
                 interval: float = 1.0) -> None:
        self.sim = sim
        self.slos = tuple(slos)
        self.interval = interval
        self.samples = 0
        self.first_breach: Dict[str, Tuple[float, float]] = {}
        self._proc = None

    def attach(self) -> "SloMonitor":
        self._proc = self.sim.process(self._loop(), name="slo-monitor")
        return self

    def _loop(self):
        while True:
            yield self.sim.timeout(self.interval)
            self.samples += 1
            self._evaluate_tick()

    def _evaluate_tick(self) -> None:
        export = self.sim.obs.metrics.export()
        for r in evaluate_slos(export, self.slos, partial=True):
            if not r["ok"] and r["name"] not in self.first_breach:
                self.first_breach[r["name"]] = (self.sim.now, r["value"])

    def results(self) -> List[Dict[str, Any]]:
        """Final per-SLO verdicts, including mid-run (transient) breaches."""
        self._evaluate_tick()  # never miss a breach between samples and now
        final = evaluate_slos(self.sim.obs.metrics.export(), self.slos)
        for r in final:
            breach = self.first_breach.get(r["name"])
            r["first_breach_t"] = breach[0] if breach else None
            if breach and r["ok"]:
                r["ok"] = False
                r["detail"] += (f" (transient breach: {breach[1]:g} "
                                f"at t={breach[0]:.1f}s)")
        return final

    @property
    def ok(self) -> bool:
        return all(r["ok"] for r in self.results())


def format_slo_results(results: List[Dict[str, Any]],
                       title: str = "SLO evaluation") -> str:
    """Human-readable PASS/FAIL table for the CLI."""
    lines = [f"== {title} =="]
    for r in results:
        mark = "PASS" if r["ok"] else "FAIL"
        when = ""
        if r.get("first_breach_t") is not None:
            when = f" (first breach t={r['first_breach_t']:.1f}s)"
        lines.append(
            f"  [{mark}] {r['name']:18s} {r['value']:10.4g} "
            f"{r['op']} {r['threshold']:g}{when}"
        )
    n_bad = sum(1 for r in results if not r["ok"])
    lines.append("")
    lines.append("RESULT: " + ("OK" if n_bad == 0 else f"{n_bad} SLO(s) violated"))
    return "\n".join(lines)
