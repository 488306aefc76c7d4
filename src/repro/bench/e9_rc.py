"""E9 — master–master metadata scalability (§7).

    "A major difference between MDS and SNIPE RC servers is MDS is based
    on LDAP… The RC servers are based on a true master-master update
    data model and are inherently more scalable."

Workload: W writers spread across the site update disjoint URIs as fast
as the catalog confirms them (closed loop) for a fixed window. Two
models on identical hardware:

* master–master — every writer updates its nearest replica (ONE);
* single-master — every write must go to replica 0 (the LDAP/MDS model).

We report confirmed-update throughput and write latency vs replica
count, plus anti-entropy propagation age. Expected: master–master
throughput grows with replicas (writes spread), single-master stays flat
at one server's capacity, with latency growing as it saturates.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.bench.table import Tables
from repro.net.media import ETHERNET_100
from repro.net.topology import Topology
from repro.rcds.client import MASTER, ONE, RCClient
from repro.rcds.server import RCServer
from repro.sim.kernel import Simulator

#: Per-request processing cost at each RC server.
RC_SERVICE_TIME = 0.004


def rc_update_scaling(
    replica_counts: Sequence[int] = (1, 2, 4),
    n_writers: int = 12,
    window: float = 20.0,
    sync_interval: float = 0.5,
    seed: int = 0,
) -> Tables:
    """Table ``scaling``, rows {model, replicas, throughput,
    mean_latency_ms, propagation_ms}."""
    rows: List[Dict] = []
    for model in ("master-master", "single-master"):
        for k in replica_counts:
            sim = Simulator(seed=seed)
            topo = Topology(sim)
            seg = topo.add_segment("lan", ETHERNET_100)
            server_hosts = []
            for i in range(k):
                h = topo.add_host(f"rc{i}")
                topo.connect(h, seg)
                server_hosts.append(h)
            writer_hosts = []
            for i in range(n_writers):
                h = topo.add_host(f"w{i}")
                topo.connect(h, seg)
                writer_hosts.append(h)
            replicas = [(h.name, 385) for h in server_hosts]
            servers = [
                RCServer(
                    h,
                    peers=[r for r in replicas if r[0] != h.name],
                    sync_interval=sync_interval,
                    service_time=RC_SERVICE_TIME,
                )
                for h in server_hosts
            ]
            consistency = ONE if model == "master-master" else MASTER
            latencies: List[float] = []
            counts = [0]

            def writer(i: int, client: RCClient):
                uri = f"urn:snipe:proc:writer{i}"
                seq = 0
                while sim.now < window:
                    seq += 1
                    t0 = sim.now
                    try:
                        yield client.update(uri, {"seq": seq}, consistency)
                        latencies.append(sim.now - t0)
                        counts[0] += 1
                    except Exception:
                        yield sim.timeout(0.05)

            for i, h in enumerate(writer_hosts):
                client = RCClient(h, replicas, rpc_timeout=5.0)
                sim.process(writer(i, client), name=f"writer{i}")
            sim.run(until=window + 10.0)
            # Propagation age: how stale is the most-behind replica for a
            # final marker write?
            marker_client = RCClient(writer_hosts[0], replicas)
            t_write = [0.0]

            def marker():
                t_write[0] = sim.now
                yield marker_client.update("urn:snipe:proc:marker", {"v": 1}, consistency)

            sim.run(until=sim.process(marker(), name="marker"))
            propagated_at = None
            deadline = sim.now + 60.0

            def all_have() -> bool:
                return all(s.store.get("urn:snipe:proc:marker", "v") == 1 for s in servers)

            while sim.now < deadline and not all_have():
                sim.run(until=min(sim.peek(), sim.now + 0.1))
            propagated_at = sim.now if all_have() else float("inf")
            rows.append(
                {
                    "model": model,
                    "replicas": k,
                    "updates": counts[0],
                    "throughput": counts[0] / window,
                    "mean_latency_ms": (sum(latencies) / len(latencies) * 1e3)
                    if latencies
                    else float("inf"),
                    "propagation_ms": (propagated_at - t_write[0]) * 1e3,
                }
            )
    return {"scaling": rows}


def anti_entropy_ablation(
    sync_intervals: Sequence[float] = (0.2, 1.0, 5.0),
    k: int = 4,
    seed: int = 0,
) -> Tables:
    """Ablation: anti-entropy period vs propagation delay and sync traffic."""
    rows: List[Dict] = []
    for interval in sync_intervals:
        sim = Simulator(seed=seed)
        topo = Topology(sim)
        seg = topo.add_segment("lan", ETHERNET_100)
        hosts = []
        for i in range(k + 1):
            h = topo.add_host(f"h{i}")
            topo.connect(h, seg)
            hosts.append(h)
        replicas = [(f"h{i}", 385) for i in range(k)]
        servers = [
            RCServer(hosts[i], peers=[r for r in replicas if r[0] != f"h{i}"],
                     sync_interval=interval)
            for i in range(k)
        ]
        client = RCClient(hosts[k], replicas)

        def write():
            yield client.update("urn:x", {"v": "probe"})

        sim.run(until=sim.process(write(), name="w"))
        t0 = sim.now

        def all_have() -> bool:
            return all(s.store.get("urn:x", "v") == "probe" for s in servers)

        while sim.now < t0 + 300 and not all_have():
            sim.run(until=min(sim.peek(), sim.now + 0.05))
        syncs = sum(s.syncs_ok for s in servers)
        rows.append(
            {
                "sync_interval": interval,
                "propagation_s": sim.now - t0,
                "sync_rounds": syncs,
            }
        )
    return {"anti_entropy": rows}
