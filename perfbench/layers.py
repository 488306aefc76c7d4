"""The traced pass: one extra repeat that yields the per-layer numbers.

End-to-end numbers are always measured with tracing off. This pass
repeats the workload once with the span wrappers installed and the
kernel profiler attached, and reports where the measured phase's host
time went (layer self times), what each layer did (exact counts), how
much of it was useful (ratios) and how long work waited on the virtual
clock (registry histograms, measured-phase delta only).
"""

from __future__ import annotations

import math
from time import perf_counter
from typing import Any, Dict, Tuple

from repro.obs.metrics import GROWTH
from repro.obs.prof import KernelProfiler

from perfbench import harness
from perfbench.spans import LAYERS, Installer, Recorder

#: Counters read from the metrics registry, summed over their tags and
#: reported under the same name.
REGISTRY_COUNTS = (
    "transport.tx_messages", "transport.rx_messages", "transport.retransmits",
    "transport.rx_drops", "pathsel.switches", "rpc.requests_served", "rpc.requests_shed",
    "robust.attempts", "robust.retries", "robust.giveups", "robust.breaker_opened",
    "rcds.lookups", "rcds.updates", "rcds.syncs_ok", "rcds.compactions", "rcds.redirects",
    "rcds.redirect_retries", "rcds.map_refreshes", "rcds.failovers",
    "bulk.bytes", "bulk.chunk_retries",
    "daemon.heartbeats_ok", "daemon.heartbeats_failed", "daemon.spawns",
    "guardian.deaths_declared", "guardian.recoveries", "guardian.recovery_failures",
    "rm.requests", "rm.rejects", "ckpt.verify_failures",
)

#: Virtual waiting: metric -> (registry histogram, its tags, percentile).
VIRT_WAITING: Dict[str, Tuple[str, Dict[str, str], float]] = {
    "transport.virt_msg_latency_p99_ms": ("transport.msg_latency", {"proto": "srudp"}, 99),
    "rcds.virt_lookup_p99_ms": ("rcds.lookup_latency", {}, 99),
    "rcds.virt_update_p99_ms": ("rcds.update_latency", {}, 99),
    "rcds.virt_propagation_lag_p99_ms": ("rcds.propagation_lag", {}, 99),
    "guardian.virt_detect_p50_ms": ("guardian.detect_latency", {}, 50),
    "guardian.virt_recovery_p50_ms": ("guardian.recovery_latency", {}, 50),
    "rm.virt_spawn_p50_ms": ("rm.spawn_latency", {}, 50),
    "overload.virt_control_p99_ms": ("overload.control_latency", {}, 99),
}

#: Every metric the traced pass reports: name -> (unit, better).
TRACED_METRICS: Dict[str, Tuple[str, str]] = {
    **{f"{layer}.self_s": ("s", "lower") for layer in LAYERS},
    "sim.events": ("count", "lower"),
    "sim.callbacks": ("count", "lower"),
    "sim.heap_pushes": ("count", "lower"),
    "sim.timers_scheduled": ("count", "lower"),
    "sim.queue_max": ("count", "lower"),
    "net.frames": ("count", "lower"),
    "net.wire_bytes": ("B", "lower"),
    "net.route_computes": ("count", "lower"),
    "rpc.calls": ("count", "lower"),
    "rcds.sync_records": ("count", "lower"),
    **{name: ("B" if name == "bulk.bytes" else "count", "lower") for name in REGISTRY_COUNTS},
    "net.payload_ratio": ("ratio", "higher"),
    "transport.first_try_ratio": ("ratio", "higher"),
    "rpc.success_ratio": ("ratio", "higher"),
    "rcds.route_hit_ratio": ("ratio", "higher"),
    "bulk.chunk_first_try_ratio": ("ratio", "higher"),
    **{name: ("ms", "lower") for name in VIRT_WAITING},
    "sim.wall_per_event_us": ("us", "lower"),
    "obs.trace_overhead_ratio": ("ratio", "lower"),
    "virt_op_p99_ms": ("ms", "lower"),
    "ops_failed_ratio": ("ratio", "lower"),
}


class _RegistryMark:
    """Registry state at one instant, so a phase's share can be isolated."""

    def __init__(self, registry) -> None:
        export = registry.export()
        self.counters: Dict[str, float] = {}
        for c in export["counters"]:
            self.counters[c["name"]] = self.counters.get(c["name"], 0.0) + c["value"]
        self.sums: Dict[str, float] = {}
        for h in export["histograms"]:
            self.sums[h["name"]] = self.sums.get(h["name"], 0.0) + h["sum"]
        self.buckets = {metric: dict(registry.histogram(name, **tags).counts)
                        for metric, (name, tags, _p) in VIRT_WAITING.items()}


def _bucket_percentile(before: Dict, after: Dict, p: float) -> float:
    """Percentile (virtual seconds) of the observations made between two
    bucket snapshots of one log-bucketed registry histogram."""
    delta = {idx: n - before.get(idx, 0) for idx, n in after.items() if n > before.get(idx, 0)}
    total = sum(delta.values())
    if not total:
        return 0.0
    target = max(1, math.ceil(total * p / 100.0))
    seen = 0
    for idx in sorted(delta, key=lambda i: -math.inf if i is None else i):
        seen += delta[idx]
        if seen >= target:
            return 0.0 if idx is None else GROWTH ** idx
    return 0.0


def _ratio(good: float, total: float) -> float:
    return good / total if total else 1.0


def traced_pass(workload, seed: int, quick: bool, untraced: Dict[str, Any]) -> Dict[str, Any]:
    """Run one traced repeat; returns ``{"metrics", "spans", "problems"}``.

    *untraced* is the result of :func:`harness.run_repeats` for the same
    workload and seed: the overhead ratio and the per-event cost are
    relative to its untraced ``wall_s``.
    """
    inputs = workload.generate(seed, quick)
    rec = Recorder()
    installer = Installer(rec).install()
    seen: Dict[str, Any] = {}

    def around(site, measure):
        sim = site.sim
        registry = sim.obs.metrics
        before = _RegistryMark(registry)
        prof = KernelProfiler().attach(sim)
        root = rec.span_id("measured-phase", "other")
        rec.on = True
        t1 = perf_counter()
        idx = rec.begin(root)
        try:
            outcome = measure()
        finally:
            rec.finish(idx)
            t2 = perf_counter()
            rec.on = False
            prof.detach(sim)
        seen.update(before=before, after=_RegistryMark(registry), profile=prof.export())
        return t1, outcome, t2

    try:
        _setup_s, traced_wall, outcome = harness.run_once(workload, inputs, around)
    finally:
        installer.uninstall()

    before, after, profile = seen["before"], seen["after"], seen["profile"]
    by_name = rec.by_name()

    def counted(name: str) -> float:
        return after.counters.get(name, 0.0) - before.counters.get(name, 0.0)

    def spans_named(name: str) -> int:
        return int(by_name.get(name, {}).get("count", 0))

    m: Dict[str, float] = {f"{layer}.self_s": s for layer, s in rec.layer_self_s(by_name).items()}
    m.update({
        "sim.events": profile["events"],
        "sim.callbacks": profile["callbacks"],
        "sim.heap_pushes": profile["heap"]["pushes"],
        "sim.timers_scheduled": profile["timers_scheduled"],
        "sim.queue_max": profile["heap"]["queue_max"],
        "net.frames": profile["wire"]["frames"],
        "net.wire_bytes": profile["wire"]["bytes"],
        "net.route_computes": rec.route_computes,
        "rpc.calls": spans_named("RpcClient.call"),
        "rcds.sync_records": (after.sums.get("rcds.sync_batch_records", 0.0)
                              - before.sums.get("rcds.sync_batch_records", 0.0)),
    })
    m.update({name: counted(name) for name in REGISTRY_COUNTS})
    served_chunks = spans_named("rpc-handler:bulk.get_chunk")
    catalog_ops = m["rcds.lookups"] + m["rcds.updates"]
    m.update({
        "net.payload_ratio": _ratio(rec.app_bytes, m["net.wire_bytes"]),
        "transport.first_try_ratio": _ratio(
            m["transport.tx_messages"], m["transport.tx_messages"] + m["transport.retransmits"]),
        "rpc.success_ratio": _ratio(m["rpc.calls"] - counted("rpc.errors"), m["rpc.calls"]),
        "rcds.route_hit_ratio": _ratio(catalog_ops, catalog_ops + m["rcds.redirects"]),
        "bulk.chunk_first_try_ratio": _ratio(
            served_chunks, served_chunks + m["bulk.chunk_retries"]),
    })
    for metric, (_name, _tags, p) in VIRT_WAITING.items():
        m[metric] = 1e3 * _bucket_percentile(before.buckets[metric], after.buckets[metric], p)
    wall = harness.value_of(untraced["end_to_end"]["wall_s"])
    m["sim.wall_per_event_us"] = 1e6 * wall / max(m["sim.events"], 1)
    m["obs.trace_overhead_ratio"] = traced_wall / wall
    m["virt_op_p99_ms"] = harness.value_of(untraced["end_to_end"]["virt_op_p99_ms"])
    m["ops_failed_ratio"] = harness.value_of(untraced["end_to_end"]["ops_failed_ratio"])

    problems = []
    if outcome.digest() != untraced["virtual_digest"]:
        problems.append("tracing changed the simulation: virtual metrics differ from the "
                        "untraced repeats")
    covered = sum(m[f"{layer}.self_s"] for layer in LAYERS)
    if abs(covered - traced_wall) > 0.05 * traced_wall:
        problems.append(f"layer self times sum to {covered:.3f}s, traced wall is "
                        f"{traced_wall:.3f}s (more than 5% apart)")
    return {"metrics": m, "traced_wall_s": traced_wall, "spans": rec.dump(by_name),
            "problems": problems}
