"""Reusable topologies for benchmarks, integration tests and examples."""

from __future__ import annotations

from typing import List

from repro.net.media import ETHERNET_100, MYRINET, WAN_T3
from repro.net.topology import Topology
from repro.pvm.pvmd import Pvmd
from repro.rcds.server import RCServer
from repro.sim.kernel import Simulator


def wan_site(
    n_lans: int = 2,
    hosts_per_lan: int = 4,
    seed: int = 0,
):
    """Several 100 Mbit/s Ethernet LANs joined by a T3 WAN backbone
    through gateway hosts.

    Returns (sim, topo, lans) where lans is a list of host lists; each
    LAN's host 0 is its gateway (also on the WAN segment).
    """
    sim = Simulator(seed=seed)
    topo = Topology(sim)
    wan = topo.add_segment("wan", WAN_T3)
    lans: List[List] = []
    for l in range(n_lans):
        seg = topo.add_segment(f"lan{l}", ETHERNET_100)
        hosts = []
        for i in range(hosts_per_lan):
            host = topo.add_host(f"l{l}h{i}", forwarding=(i == 0))
            topo.connect(host, seg)
            if i == 0:
                topo.connect(host, wan)
            hosts.append(host)
        lans.append(hosts)
    return sim, topo, lans


def two_mpp_site(nodes_per_mpp: int = 4, seed: int = 0, pvm: bool = True):
    """The §6.1 testbed: two MPPs with fast internal fabrics, joined by a
    WAN between their front-end nodes; RC replicas on both front ends
    plus one interior node; optionally a PVM virtual machine spanning
    everything (master on MPP A's front end — the fragile bit).

    Returns a dict with sim, topo, mpp_a, mpp_b (host lists),
    rc_replicas, and pvmds (host name -> Pvmd) when pvm=True.
    """
    sim = Simulator(seed=seed)
    topo = Topology(sim)
    wan = topo.add_segment("wan", WAN_T3)
    fabrics = {}
    mpps = {}
    for tag in ("a", "b"):
        fabric = topo.add_segment(f"mpp{tag}", MYRINET)
        fabrics[tag] = fabric
        hosts = []
        for i in range(nodes_per_mpp):
            # Nodes 0 and 1 are dual-homed gateways: losing one front end
            # (e.g. the PVM master) must not partition the site — exactly
            # the multi-path redundancy SNIPE is designed around.
            gateway = i <= 1 and nodes_per_mpp > 1
            host = topo.add_host(f"{tag}{i}", forwarding=gateway)
            topo.connect(host, fabric)
            if gateway or nodes_per_mpp == 1:
                topo.connect(host, wan)
            hosts.append(host)
        mpps[tag] = hosts
    # RC replicas: both front ends + one interior node of MPP A.
    rc_hosts = [mpps["a"][0], mpps["b"][0], mpps["a"][1]]
    rc_replicas = [(h.name, 385) for h in rc_hosts]
    for h in rc_hosts:
        RCServer(h, peers=[r for r in rc_replicas if r[0] != h.name])
    result = {
        "sim": sim,
        "topo": topo,
        "mpp_a": mpps["a"],
        "mpp_b": mpps["b"],
        "rc_replicas": rc_replicas,
        "pvmds": None,
    }
    if pvm:
        pvmds = {}
        master = Pvmd(mpps["a"][0], {})
        pvmds[mpps["a"][0].name] = master
        slaves = []
        for host in mpps["a"][1:] + mpps["b"]:
            slave = Pvmd(host, {}, master_host=master.host.name)
            pvmds[host.name] = slave
            slaves.append(slave)

        def boot():
            for s in slaves:
                yield s.join()

        sim.run(until=sim.process(boot(), name="pvm-boot"))
        result["pvmds"] = pvmds
    return result
