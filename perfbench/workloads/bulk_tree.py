"""bulk-tree: one large object down a pipelined relay tree.

The largest-message regime: ``bulk`` chunk digest/verify, ``security``
hashing, the ``transport.srudp`` windowed multi-segment sender and the
``net`` backlog and gateway forwarding paths. It is the bypass workload
for small-message levers (a flyweight RPC envelope must show nothing
here) and the exerciser for anything that batches frames.

Four racks of eight members behind forwarding gateways, origin on the
backbone; no faults. The primary op is one destination's verified
completion, so the slowest of the 32 sets ``virt_makespan_s``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List

from repro.bulk.testbed import build_bulk_site
from repro.core.environment import SnipeEnvironment

from perfbench.harness import Outcome

CHUNK = 16384
FANOUT = 2
DEADLINE = 120.0
#: Chunks in the object distributed during set-up: enough that every relay
#: link has carried multi-segment messages before the measured phase.
WARM_CHUNKS = 16


@dataclass
class Inputs:
    seed: int
    racks: int
    per_rack: int
    payload: bytes
    #: A small object distributed during set-up to warm every path.
    warm_payload: bytes


@dataclass
class Site:
    env: SnipeEnvironment
    root: str
    dests: List[str]

    @property
    def sim(self):
        return self.env.sim


class BulkTree:
    name = "bulk-tree"
    primary_op = "one destination's verified completion"
    why = ("largest-message regime: bulk chunk digest/verify, security hashing, srudp windowed "
           "sender, net backlog + forwarding; the bypass workload for small-message levers")

    def generate(self, seed: int, quick: bool) -> Inputs:
        racks, per_rack, chunks = (2, 3, 12) if quick else (4, 8, 160)
        rng = random.Random(seed)
        # The last chunk is cut short by a seeded amount, so the object
        # (and with it every virtual time) differs a little between seeds.
        size = chunks * CHUNK - rng.randrange(CHUNK // 2)
        return Inputs(seed, racks, per_rack, rng.randbytes(size), rng.randbytes(WARM_CHUNKS * CHUNK))

    def setup(self, inputs: Inputs) -> Site:
        env, root, dests = build_bulk_site(
            seed=inputs.seed, racks=inputs.racks, per_rack=inputs.per_rack)
        site = Site(env, root, dests)
        outcome = self._distribute(site, "warmup", inputs.warm_payload)
        if outcome.failed:
            raise RuntimeError(f"bulk-tree warm-up failed: {outcome.problems}")
        return site

    def measure(self, site: Site, inputs: Inputs) -> Outcome:
        return self._distribute(site, "object", inputs.payload)

    @staticmethod
    def _distribute(site: Site, name: str, payload: bytes) -> Outcome:
        env = site.env
        t_start = env.sim.now
        dist = env.bulk_distributor(site.root, fanout=FANOUT)
        report = env.sim.run(until=dist.distribute(
            name, payload, site.dests, chunk_size=CHUNK, strategy="tree", deadline=DEADLINE))
        latencies: List[float] = []
        problems: List[str] = []
        failed = 0
        for dest in site.dests:
            r = report["per_dest"][dest]
            store = env.bulk_services[dest].store
            if (r.get("ok") and r.get("hash_ok") and store.complete(name)
                    and store.payload(name) == payload):
                latencies.append(r["finished_at"] - t_start)
            else:
                failed += 1
                problems.append(f"{dest}: object not delivered verified ({r.get('errors')})")
        return Outcome(
            attempted=len(site.dests),
            failed=failed,
            latencies=latencies,
            makespan=max(latencies) if latencies else env.sim.now - t_start,
            problems=problems,
            facts={"bytes": len(payload), "nchunks": report["nchunks"],
                   "chunk_retries": report["chunk_retries"]},
        )
