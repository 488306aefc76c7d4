"""E13 — bulk distribution: relay tree + multi-source vs naive unicast.

    "The network bandwidth available ... must be used as efficiently
    as possible" (ROADMAP north star; PAPER §3-4 replicated servers,
    multi-path communication)

Scenario: one object seeded on a backbone root must reach every member
host of a racked site (each rack its own segment behind a forwarding
gateway). Two strategies face the same topology and seed:

* **unicast** — every destination reads the whole object straight from
  the root: N copies cross the backbone, serialized on the root's link;
* **tree** — the ``repro.bulk`` pipelined relay tree: one pull per rack
  crosses the backbone, no host feeds more than ``FANOUT`` (2)
  children, relays forward chunk *k* while receiving *k+1*, and
  completed peers announce themselves as extra sources.

Measured per (hosts, strategy): completion wall-clock, aggregate
goodput (delivered bytes / elapsed), chunk retries, whether every
per-host digest verified, and the root's load — bytes its NIC sent
during the run over the object's size (``root_copies``; unicast sends
one copy per host, the tree about ``FANOUT``). ``survivor_s`` is the
makespan over the hosts that never crashed and ``victim_s`` the killed
relay's own finish (None without a kill). A third configuration
kills a rack's relay head mid-transfer (recovering it after one
second) and must still complete everywhere with all digests verified —
the mid-object failover + resume claim. The shape assertions are the
data-plane claim: the relay tree beats naive unicast by >= 3x
aggregate goodput at 16 hosts, and its root sends at most
``FANOUT`` + 0.5 copies.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.bench.table import Tables
from repro.bulk.distribute import build_relay_tree
from repro.bulk.testbed import build_bulk_site, make_payload

#: Rack layouts per total host count (racks, hosts per rack).
LAYOUTS = {8: (4, 2), 16: (4, 4), 32: (4, 8)}

#: Chunk size used by E13: small enough that even the 8-host run moves
#: a few dozen chunks per host, so pipelining is actually exercised.
CHUNK = 16384

#: Children per relay-tree host, the root included.
FANOUT = 2

#: How long the killed relay stays down before recovering.
CRASH_OUTAGE = 1.0


def _one_run(
    hosts: int, strategy: str, crash: bool, seed: int, object_kb: int
) -> Dict:
    racks, per_rack = LAYOUTS[hosts]
    env, root, dests = build_bulk_site(seed=seed, racks=racks, per_rack=per_rack)
    payload = make_payload(object_kb * 1024, CHUNK)
    dist = env.bulk_distributor(root, fanout=FANOUT)
    victim: Optional[str] = None
    if crash:
        parents = build_relay_tree(env.topology, root, dests, fanout=FANOUT)
        victim = sorted(d for d, p in parents.items() if p == root)[0]

    def go(sim):
        d = dist.distribute(
            "weights", payload, dests, chunk_size=CHUNK,
            strategy=strategy, deadline=120.0,
        )
        if victim is not None:
            # Kill the rack head once it is genuinely mid-transfer.
            while env.bulk_services[victim].store.count("weights") == 0:
                yield sim.timeout(0.002)
            env.topology.hosts[victim].crash()
            yield sim.timeout(CRASH_OUTAGE)
            env.topology.hosts[victim].recover()
        return (yield d)

    root_nics = env.topology.hosts[root].nics.values()
    tx0 = sum(nic.tx_bytes for nic in root_nics)
    t0 = env.sim.now
    report = env.sim.run(until=env.sim.process(go(env.sim)))
    root_tx = sum(nic.tx_bytes for nic in root_nics) - tx0
    per_dest = report["per_dest"]
    return {
        "hosts": hosts,
        "strategy": strategy,
        "crash": crash,
        "object_kb": object_kb,
        "completed": report["completed"],
        "all_verified": report["all_verified"],
        "elapsed_s": round(report["elapsed"], 3),
        "goodput_mbs": round(report["aggregate_goodput"] / 1e6, 2),
        "chunk_retries": report["chunk_retries"],
        "root_copies": round(root_tx / report["bytes"], 2),
        "crashes": sum(r.get("crashes", 0) for r in per_dest.values()),
        "survivor_s": round(max(
            r["finished_at"] for r in per_dest.values()
            if r.get("ok") and not r["crashes"]) - t0, 3),
        "victim_s": round(per_dest[victim]["finished_at"] - t0, 3)
        if victim is not None else None,
    }


def bulk_distribution(
    host_counts: Sequence[int] = (8, 16, 32),
    object_kb: int = 1024,
    seed: int = 1,
) -> Tables:
    """Unicast vs relay tree (and tree + relay crash); table
    ``distribution``."""
    rows: List[Dict] = []
    for hosts in host_counts:
        unicast = _one_run(hosts, "unicast", False, seed, object_kb)
        tree = _one_run(hosts, "tree", False, seed, object_kb)
        crash = _one_run(hosts, "tree", True, seed, object_kb)
        speedup = (
            tree["goodput_mbs"] / unicast["goodput_mbs"]
            if unicast["goodput_mbs"] else 0.0
        )
        unicast["speedup_vs_unicast"] = 1.0
        tree["speedup_vs_unicast"] = round(speedup, 2)
        crash["speedup_vs_unicast"] = round(
            crash["goodput_mbs"] / unicast["goodput_mbs"]
            if unicast["goodput_mbs"] else 0.0, 2)
        rows.extend([unicast, tree, crash])
    return {"distribution": rows}
