"""E3 — availability through replication (§6).

    "SNIPE testbeds have been running at the University of Tennessee
    since autumn 1997 and due to replication have maintained an almost
    perfect level of availability."

We turn the observation into an experiment: hosts fail and recover as
independent Poisson processes; a client on a stable workstation performs
a metadata lookup every second. Availability = successful lookups /
attempts, as a function of replica count. Expected: a single catalog
server tracks raw host availability (mtbf/(mtbf+mttr)); 3 and 5 replicas
push lookup availability toward 100 % — the paper's "almost perfect".
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.bench.table import Tables
from repro.net.failures import FailureInjector
from repro.net.media import ETHERNET_100
from repro.net.topology import Topology
from repro.rcds.client import RCClient
from repro.rcds.server import RCServer
from repro.sim.kernel import Simulator


def availability_vs_replicas(
    replica_counts: Sequence[int] = (1, 3, 5),
    horizon: float = 2_000.0,
    mtbf: float = 150.0,
    mttr: float = 30.0,
    seed: int = 0,
) -> Tables:
    """Table ``availability``, rows {replicas, lookups, failures, availability, host_uptime}."""
    rows: List[Dict] = []
    for k in replica_counts:
        sim = Simulator(seed=seed + k)
        topo = Topology(sim)
        seg = topo.add_segment("lan", ETHERNET_100)
        server_hosts = []
        for i in range(k):
            h = topo.add_host(f"rc{i}")
            topo.connect(h, seg)
            server_hosts.append(h)
        client_host = topo.add_host("client")  # the stable workstation
        topo.connect(client_host, seg)
        replicas = [(h.name, 385) for h in server_hosts]
        for h in server_hosts:
            RCServer(h, peers=[r for r in replicas if r[0] != h.name], sync_interval=2.0)
        client = RCClient(client_host, replicas, rpc_timeout=0.4)
        injector = FailureInjector(sim, topo)
        for ev in injector.churn_plan([h.name for h in server_hosts], mtbf, mttr,
                                      sim.now, horizon):
            injector.inject(ev)

        stats = {"ok": 0, "fail": 0}

        def workload():
            yield client.update("urn:snipe:proc:probe", {"state": "running"})
            while sim.now < horizon:
                yield sim.timeout(1.0)  # one lookup per second
                try:
                    yield client.lookup("urn:snipe:proc:probe")
                    stats["ok"] += 1
                except Exception:
                    stats["fail"] += 1

        sim.process(workload(), name="availability-probe")
        sim.run(until=horizon)
        # Measured host uptime from the failure log (for the baseline row).
        down_time = 0.0
        down_since: Dict[str, float] = {}
        for t, kind, who in injector.log:
            if kind == "host_down":
                down_since[who] = t
            elif kind == "host_up" and who in down_since:
                down_time += t - down_since.pop(who)
        for who, t in down_since.items():
            down_time += horizon - t
        host_uptime = 1.0 - down_time / (horizon * k)
        total = stats["ok"] + stats["fail"]
        rows.append(
            {
                "replicas": k,
                "lookups": total,
                "failures": stats["fail"],
                "availability": stats["ok"] / total if total else 0.0,
                "host_uptime": host_uptime,
            }
        )
    return {"availability": rows}
