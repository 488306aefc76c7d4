"""rpc-echo-wan: small echo RPCs across a gatewayed WAN site.

The smallest-message regime: per-event, per-frame and per-envelope cost
dominate, so ``sim``, ``net``, ``transport.srudp`` (single-flight path)
and ``rpc`` do nearly all the work while ``rcds``, ``bulk`` and the
daemons do none.

Closed loop, one client per host: each client thinks, calls one of its
four fixed peers (three on its own LAN, one across the WAN — exactly one
call in four crosses), checks the echo and repeats. Fixed peers keep the
route set small enough that the warm-up round (one call per peer) leaves
every route, path choice and adaptive-timeout cell warm, so the measured
phase is steady state and cold ``Topology.route`` cost shows up in
``setup_s`` where it belongs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Tuple

from repro.net.media import ETHERNET_100, WAN_T3
from repro.net.topology import Topology
from repro.rpc import RpcClient, RpcError, RpcServer
from repro.sim.kernel import Simulator

from perfbench.harness import Outcome

ECHO_PORT = 7100
#: Upper edge of the think-time grid (virtual seconds).
THINK_MAX = 0.5
LOCAL_PEERS = 3
#: Request padding is drawn below this many bytes: small messages, but
#: not all the same size.
MAX_PAD = 512


@dataclass
class Inputs:
    seed: int
    n_lans: int
    hosts_per_lan: int
    #: Per client: host indices of its peers, the remote one last.
    peers: List[List[int]]
    #: Per client: ``(destination host index, think seconds, padding
    #: bytes)`` per call.
    plan: List[List[Tuple[int, float, int]]]


@dataclass
class Site:
    sim: Simulator
    topology: Topology
    hosts: list
    clients: List[RpcClient]
    servers: List[RpcServer]


def build_wan(sim: Simulator, n_lans: int, hosts_per_lan: int) -> Tuple[Topology, list]:
    """LANs joined by a T3 backbone; each LAN's host 0 is its gateway."""
    topo = Topology(sim)
    wan = topo.add_segment("wan", WAN_T3)
    hosts = []
    for l in range(n_lans):
        seg = topo.add_segment(f"lan{l}", ETHERNET_100)
        for i in range(hosts_per_lan):
            host = topo.add_host(f"l{l}h{i}", forwarding=(i == 0))
            topo.connect(host, seg)
            if i == 0:
                topo.connect(host, wan)
            hosts.append(host)
    return topo, hosts


def echo(args):
    """The handler every host serves (tests patch in a sabotaged one)."""
    return args["x"]


class RpcEchoWan:
    name = "rpc-echo-wan"
    primary_op = "one RpcClient.call"
    why = ("smallest-message regime: per-event, per-frame and per-envelope cost dominate "
           "(sim, net, transport.srudp single-flight, rpc); rcds, bulk, daemon do none")

    def generate(self, seed: int, quick: bool) -> Inputs:
        n_lans, per_lan, calls = (4, 8, 8) if quick else (16, 16, 40)
        rng = random.Random(seed)
        n = n_lans * per_lan
        peers: List[List[int]] = []
        plan: List[List[Tuple[int, float, int]]] = []
        for idx in range(n):
            lan = idx // per_lan
            local = [h for h in range(lan * per_lan, (lan + 1) * per_lan) if h != idx]
            remote_lan = rng.choice([l for l in range(n_lans) if l != lan])
            mine = rng.sample(local, LOCAL_PEERS)
            mine.append(remote_lan * per_lan + rng.randrange(per_lan))
            peers.append(mine)
            # Exactly one call in four crosses the WAN; think times are a
            # shuffled even grid, so every client has the same total think
            # and the makespan moves with latency, not with the draw.
            dsts = [mine[-1] if j % 4 == 3 else mine[j % LOCAL_PEERS] for j in range(calls)]
            thinks = [(j + 0.5) / calls * THINK_MAX for j in range(calls)]
            rng.shuffle(dsts)
            rng.shuffle(thinks)
            pads = [rng.randrange(MAX_PAD) for _ in range(calls)]
            plan.append(list(zip(dsts, thinks, pads)))
        return Inputs(seed, n_lans, per_lan, peers, plan)

    def setup(self, inputs: Inputs) -> Site:
        sim = Simulator(seed=inputs.seed)
        topo, hosts = build_wan(sim, inputs.n_lans, inputs.hosts_per_lan)
        servers = []
        for h in hosts:
            server = RpcServer(h, ECHO_PORT)
            server.register("echo", echo)
            servers.append(server)
        site = Site(sim, topo, hosts, [RpcClient(h) for h in hosts], servers)
        # Warm-up: one call to every peer, so the measured phase pays no
        # first-use route computation, path selection or RTT cold start.
        warm = [[(dst, 0.01 * k, 0) for k, dst in enumerate(p)] for p in inputs.peers]
        outcome = self._drive(site, warm)
        if outcome.failed:
            raise RuntimeError(f"rpc-echo-wan warm-up: {outcome.failed} calls failed")
        return site

    def measure(self, site: Site, inputs: Inputs) -> Outcome:
        return self._drive(site, inputs.plan)

    @staticmethod
    def _drive(site: Site, plan) -> Outcome:
        sim = site.sim
        hosts = site.hosts
        latencies: List[float] = []
        tally = {"failed": 0, "wrong": 0, "last_done": sim.now}
        t_start = sim.now

        def caller(idx: int, calls):
            client = site.clients[idx]
            for i, (dst, think, pad) in enumerate(calls):
                yield sim.timeout(think)
                t_op = sim.now
                try:
                    reply = yield client.call(hosts[dst].name, ECHO_PORT, "echo",
                                              x=(idx, i), pad="." * pad)
                except RpcError:
                    tally["failed"] += 1
                    continue
                if reply != (idx, i):
                    tally["wrong"] += 1
                    continue
                latencies.append(sim.now - t_op)
                tally["last_done"] = sim.now

        procs = [sim.process(caller(i, calls), name=f"pb-caller:{hosts[i].name}")
                 for i, calls in enumerate(plan)]
        # all_of, not a sequential `for p in procs: yield p`: joining
        # already-finished processes one by one recurses two frames each.
        sim.run(until=sim.all_of(procs))
        attempted = sum(len(calls) for calls in plan)
        problems = []
        if tally["wrong"]:
            problems.append(f"{tally['wrong']} echo replies differ from their argument")
        return Outcome(
            attempted=attempted,
            failed=tally["failed"] + tally["wrong"],
            latencies=latencies,
            makespan=tally["last_done"] - t_start,
            problems=problems,
            facts={"calls": attempted},
        )
