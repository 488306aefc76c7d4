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
and ring-buffer drops. The overload half is a sweep of the ``overload``
scenario in :mod:`repro.bench.manifest`; this module holds the configs,
the columns both halves read off the finished simulator, and the bulk
half. What tracing costs in host time is measured by perfbench, paired
and gated (``probe.obs.tracing_on_ratio``).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from repro.bench.table import Tables
from repro.bulk.testbed import build_bulk_site, make_payload

#: Config name -> sampling rate handed to the tracer (None = detached).
TRACING: Dict[str, Optional[float]] = {"off": None, "sampled": 0.01, "on": 1.0}

#: E14's measured columns, read off the finished simulator.
SIM_COLUMNS: Dict[str, Callable[[Any], Any]] = {
    "virtual_s": lambda sim: round(sim.now, 6),
    "events": lambda sim: sim._eid,
    "trace_records": lambda sim: len(sim.obs.tracer),
    "trace_dropped": lambda sim: sim.obs.tracer.dropped,
    "sampled_out": lambda sim: sim.obs.tracer.sampled_out,
}


def bulk_obs_overhead(seed: int = 1, object_kb: int = 512) -> Tables:
    """The E13 relay-tree distribution (4x2 racks) under each tracing
    config; table ``overhead``."""
    chunk_size = 16384
    rows = []
    for config, rate in TRACING.items():
        env, root, dests = build_bulk_site(seed=seed, racks=4, per_rack=2)
        sim = env.sim
        if rate is not None:
            sim.obs.tracer.enabled = True
            sim.obs.tracer.sample_rate = rate
        payload = make_payload(object_kb * 1024, chunk_size)
        dist = env.bulk_distributor(root, fanout=2)
        env.run(until=dist.distribute("e14-obj", payload, dests,
                                      chunk_size=chunk_size, strategy="tree",
                                      deadline=60.0))
        rows.append({"workload": "bulk-e13", "config": config,
                     "sample_rate": rate,
                     **{name: f(sim) for name, f in SIM_COLUMNS.items()}})
    return {"overhead": rows}
