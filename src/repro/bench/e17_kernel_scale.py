"""E17 — kernel scalability: large sites on the optimised event core.

    "SNIPE is intended to scale to thousands of hosts spread across the
    national infrastructure" (§1)

The earlier experiments all run tens of hosts; this one exists to show
the simulator *kernel* itself — one event heap, direct rx dispatch,
timestamp-clocked NICs, slim events — sustains sites in the hundreds of
hosts, so scenario authors can write thousand-endpoint studies without
the harness becoming the bottleneck.

Scenario: ``wan_site`` topologies (LANs of 16 hosts joined by a WAN
backbone through gateway hosts) at increasing total host counts. Every
host runs an RPC echo server and a client that issues a seeded mix of
intra-LAN and cross-LAN calls, so the run exercises the full stack:
srudp retransmit timers, adaptive timeouts, gateway forwarding, and the
per-call deadline timers that dominate the kernel's timer traffic.

Measured per scale: virtual end time, kernel events processed and
frames constructed. The shape assertions are feasibility (every call
completes, no call fails) and linear event volume (same per-host
workload at every scale). How long a scale takes to simulate is a host
number, and host numbers belong to perfbench.
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.bench.table import Tables
from repro.bench.topologies import wan_site
from repro.rpc import RpcClient, RpcServer

#: Port every host's echo server binds.
ECHO_PORT = 7100

#: LAN width used at every scale; host counts must be multiples of this.
HOSTS_PER_LAN = 16


def _run_scale(n_hosts: int, calls_per_host: int, seed: int) -> Dict:
    """One wan_site run at ``n_hosts`` total hosts; returns its row."""
    if n_hosts % HOSTS_PER_LAN:
        raise ValueError(f"n_hosts must be a multiple of {HOSTS_PER_LAN}")
    n_lans = n_hosts // HOSTS_PER_LAN
    sim, topo, lans = wan_site(
        n_lans=n_lans, hosts_per_lan=HOSTS_PER_LAN, seed=seed
    )
    hosts = [h for lan in lans for h in lan]
    for h in hosts:
        server = RpcServer(h, ECHO_PORT)
        server.register("echo", lambda args: args["x"])
    clients = [RpcClient(h) for h in hosts]

    rng = sim.rng.stream("e17.traffic")
    ok = [0]
    failed = [0]

    def caller(idx: int):
        client = clients[idx]
        lan = idx // HOSTS_PER_LAN
        for i in range(calls_per_host):
            # Mostly LAN-local traffic with a cross-site minority, like a
            # real site: 1 in 4 calls crosses the WAN through gateways.
            if rng.random() < 0.25:
                dst = rng.randrange(n_hosts)
            else:
                dst = lan * HOSTS_PER_LAN + rng.randrange(HOSTS_PER_LAN)
            if dst == idx:
                dst = (dst + 1) % n_hosts
            yield sim.timeout(rng.uniform(0.0, 0.5))
            try:
                reply = yield client.call(
                    hosts[dst].name, ECHO_PORT, "echo", x=(idx, i)
                )
                if reply == [idx, i] or reply == (idx, i):
                    ok[0] += 1
                else:
                    failed[0] += 1
            except Exception:
                failed[0] += 1

    def driver():
        procs = [
            sim.process(caller(i), name=f"e17-caller:{i}")
            for i in range(n_hosts)
        ]
        for p in procs:
            yield p

    sim.run(until=sim.process(driver(), name="e17-driver"))
    return {
        "hosts": n_hosts,
        "lans": n_lans,
        "calls": n_hosts * calls_per_host,
        "calls_ok": ok[0],
        "calls_failed": failed[0],
        "virtual_s": round(sim.now, 3),
        "events": sim._eid,
        "frames": sim.frames_constructed,
    }


def kernel_scale(
    scales: Sequence[int] = (256,),
    calls_per_host: int = 4,
    seed: int = 1,
) -> Tables:
    """RPC echo traffic on wan_site topologies at each host count.

    Table ``scale``, one row per host count. The default is one
    256-host site; the manifest's full profile runs (256, 512, 1024).
    """
    return {"scale": [_run_scale(n, calls_per_host, seed) for n in scales]}
