"""E4 — resource manager scalability (§2.2).

    "The PVM resource manager uses centralized decision making. This
    would be a bottleneck for a very large virtual machine."

Workload: clients across the site issue spawn requests at a fixed
offered rate for a fixed window. Three systems under test:

* PVM — every request goes through the master pvmd's serialized spawn
  path (fixed per-request service time);
* SNIPE/1 — one SNIPE RM with the same service time (still centralized,
  but the metadata-driven design lets us add more);
* SNIPE/k — k redundant RMs, clients spreading over them.

Expected: with offered load past one server's capacity, the centralized
systems' latency grows without bound (queueing) while k RMs scale the
sustainable rate ~k×.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.bench.table import Tables
from repro.core.environment import SnipeEnvironment
from repro.daemon.tasks import TaskSpec
from repro.pvm.pvmd import Pvmd
from repro.net.media import ETHERNET_100
from repro.net.topology import Topology
from repro.rm.client import RmClient
from repro.sim.kernel import Simulator

#: Per-request decision cost at the managers (both systems).
SERVICE_TIME = 0.02


def _noop_program(ctx, **_kw):
    yield ctx.sleep(0.001)
    return "ok"


def _run_snipe(n_hosts: int, n_rms: int, rate: float, window: float,
               drain: float, seed: int) -> Dict:
    env = SnipeEnvironment.lan_site(
        n_hosts=n_hosts, n_rc=3, n_rm=0, seed=seed, mcast=False, settle=0.0
    )
    env.register_program("noop", _noop_program)
    for i in range(n_rms):
        env.add_rm(f"h{i}", port=3600 + i, service_time=SERVICE_TIME)
    env.settle(3.0)
    latencies: List[float] = []
    failures = [0]
    interval = 1.0 / rate
    start = env.sim.now
    clients = [RmClient(env.topology.hosts[f"h{i}"], env.rc_client(f"h{i}"))
               for i in range(min(4, n_hosts))]

    def one_request(client):
        t0 = env.sim.now
        try:
            yield client.request(TaskSpec(program="noop"), timeout=30.0)
            latencies.append(env.sim.now - t0)
        except Exception:
            failures[0] += 1

    def generator():
        i = 0
        while env.sim.now - start < window:
            yield env.sim.timeout(interval)
            env.sim.process(one_request(clients[i % len(clients)]), name="req")
            i += 1

    env.sim.process(generator(), name="load-gen")
    env.run(until=start + window + drain)
    return _summarize("snipe", n_rms, n_hosts, rate, window, latencies, failures[0])


def _run_pvm(n_hosts: int, rate: float, window: float, drain: float,
             seed: int) -> Dict:
    sim = Simulator(seed=seed)
    topo = Topology(sim)
    seg = topo.add_segment("lan", ETHERNET_100)
    programs = {"noop": lambda ctx, **kw: iter([ctx.sleep(0.001)])}

    def noop(ctx, **kw):
        yield ctx.sleep(0.001)

    programs["noop"] = noop
    hosts = []
    for i in range(n_hosts):
        h = topo.add_host(f"h{i}")
        topo.connect(h, seg)
        hosts.append(h)
    master = Pvmd(hosts[0], programs, service_time=SERVICE_TIME)
    slaves = [Pvmd(h, programs, master_host="h0") for h in hosts[1:]]

    def boot():
        for s in slaves:
            yield s.join()

    sim.run(until=sim.process(boot(), name="boot"))
    latencies: List[float] = []
    failures = [0]
    interval = 1.0 / rate
    start = sim.now
    requesters = slaves[: min(4, len(slaves))] or [master]

    def one_request(pvmd):
        t0 = sim.now
        try:
            yield pvmd.spawn("noop")
            latencies.append(sim.now - t0)
        except Exception:
            failures[0] += 1

    def generator():
        i = 0
        while sim.now - start < window:
            yield sim.timeout(interval)
            sim.process(one_request(requesters[i % len(requesters)]), name="req")
            i += 1

    sim.process(generator(), name="load-gen")
    sim.run(until=start + window + drain)
    return _summarize("pvm", 1, n_hosts, rate, window, latencies, failures[0])


def _summarize(system, n_rms, n_hosts, rate, window, latencies, failures) -> Dict:
    completed = len(latencies)
    return {
        "system": f"{system}/{n_rms}rm" if system == "snipe" else system,
        "hosts": n_hosts,
        "offered_rate": rate,
        "completed": completed,
        "failed": failures,
        "throughput": completed / window,
        "mean_latency_ms": (sum(latencies) / completed * 1e3) if completed else float("inf"),
        "p_max_latency_ms": (max(latencies) * 1e3) if completed else float("inf"),
    }


def rm_scalability(
    n_hosts: int = 16,
    rates: Sequence[float] = (20.0, 45.0, 90.0),
    rm_counts: Sequence[int] = (1, 2, 4),
    window: float = 20.0,
    drain: float = 60.0,
    seed: int = 0,
) -> Tables:
    """Table ``spawn_load``: a row for every (system, offered rate) pair.

    One server's capacity is 1/SERVICE_TIME = 50 req/s: the middle rate
    approaches it, the top rate exceeds it. Load is offered for *window*
    seconds; the run continues *drain* seconds more so queued requests
    finish (or hit their 30 s timeout) and are counted.
    """
    rows: List[Dict] = []
    for rate in rates:
        rows.append(_run_pvm(n_hosts, rate, window, drain, seed))
        for k in rm_counts:
            rows.append(_run_snipe(n_hosts, k, rate, window, drain, seed))
    return {"spawn_load": rows}
