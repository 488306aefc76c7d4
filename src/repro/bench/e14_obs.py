"""E14 — what looking does to the system under study.

Observability that changes the system under study distorts every other
experiment, so the knob is itself an experiment: the E12 overload
workload and the E13 bulk-distribution workload each run three times
over —

* **off** — tracer detached (the default every other experiment runs
  under): trace stamping allocates no ids, probe emission short-circuits;
* **sampled** — tracing enabled at 1-in-100 record sampling
  (``--obs-sample 0.01``);
* **on** — tracing enabled at full rate (``--obs-sample 1.0``).

Measured per (workload, config): the simulated outcome (virtual end
time, kernel events), trace records kept, records thinned by sampling,
and ring-buffer drops. The check asserts that the simulated outcome is
identical across configs, and that records kept order 0 = off <
sampled < on — the knob buys a real trade, not a placebo. What tracing
costs in host time is measured by perfbench, paired and gated
(``probe.obs.tracing_on_ratio``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.bench.table import Tables

#: (config name, sampling rate handed to the tracer; None = detached).
CONFIGS: Tuple[Tuple[str, Optional[float]], ...] = (
    ("off", None),
    ("sampled", 0.01),
    ("on", 1.0),
)


def _overload_workload(seed: int, obs_sample: Optional[float], quick: bool):
    """The E12 overload scenario at 2x saturation; returns the sim."""
    from repro.robust.chaos import run_overload

    return run_overload.run(
        seed,
        saturation=2.0,
        duration=10.0 if quick else 20.0,
        obs_sample=obs_sample,
        flight=False,  # isolate the tracing cost from the flight recorder's
    ).sim


def _bulk_workload(seed: int, obs_sample: Optional[float], quick: bool):
    """The E13 relay-tree distribution (4x2 racks); returns the sim."""
    from repro.bulk.testbed import build_bulk_site, make_payload

    env, root, dests = build_bulk_site(seed=seed, racks=4, per_rack=2)
    sim = env.sim
    if obs_sample is not None:
        sim.obs.tracer.enabled = True
        sim.obs.tracer.sample_rate = obs_sample
    chunk_size = 16384
    size = (256 if quick else 512) * 1024
    payload = make_payload(size, chunk_size)
    dist = env.bulk_distributor(root, fanout=2)
    proc = dist.distribute("e14-obj", payload, dests,
                           chunk_size=chunk_size, strategy="tree",
                           deadline=60.0)
    env.run(until=proc)
    return sim


def obs_overhead(seed: int = 1, quick: bool = False) -> Tables:
    """Off vs sampled vs always-on tracing on E12 and E13; table
    ``overhead``."""
    workloads = (
        ("overload-e12", _overload_workload),
        ("bulk-e13", _bulk_workload),
    )
    rows: List[Dict] = []
    for wname, workload in workloads:
        for cname, rate in CONFIGS:
            sim = workload(seed, rate, quick)
            tracer = sim.obs.tracer
            rows.append({
                "workload": wname,
                "config": cname,
                "sample_rate": rate,
                "virtual_s": round(sim.now, 6),
                "events": sim._eid,
                "trace_records": len(tracer),
                "trace_dropped": tracer.dropped,
                "sampled_out": tracer.sampled_out,
            })
    return {"overhead": rows}
