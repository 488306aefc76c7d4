"""Fan-out distribution: one object to N hosts through a relay tree.

The naive plan — every destination reads the whole object from the root
— serializes N copies through the root's uplink. The
:class:`Distributor` instead builds a topology-aware relay tree whose
every host, the root included, feeds at most ``fanout`` children, so no
NIC sends more than about ``fanout`` copies of the object. Hosts are
clustered by their dominant network segment and each cluster is entered
by exactly one edge, into its *head*: the root feeds ``fanout`` heads,
and each head keeps one slot for its own cluster and relays to further
heads across the backbone with the rest. The other members pull from
relays inside their own segment, so the object crosses the backbone
once per cluster instead of N times.

The tree is *pipelined*: every destination starts at once, and a
relay's ``bulk.get_chunk`` handler holds each request until the chunk
is committed locally (see :mod:`repro.bulk.service`) — so chunk *k*
flows down the tree while chunk *k+1* is still arriving at the relay.
Because every completed host announces itself as a source, the tree
degrades gracefully into a swarm: when a relay dies mid-transfer its
children strike it, re-read the source set, and fail over to the root
or to any announced peer, and the relay itself — its chunk store being
durable — resumes from its missing chunks on recovery rather than
starting over. A destination's ``finished_at`` is its last verified
chunk commit plus its announce.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Dict, List, Optional

from repro.bulk.fetch import BulkError
from repro.sim.errors import Interrupt
from repro.sim.events import defuse

if TYPE_CHECKING:  # pragma: no cover
    from repro.bulk.service import BulkService
    from repro.net.topology import Topology

#: Off-segment source weight relay children fetch with: the root is a
#: failover source for a child whose relay goes dark, not a second feed —
#: any steady share of requests it takes lands on the root's uplink, the
#: one NIC the tree exists to unload.
TREE_FAR_WEIGHT = 0.01


def build_relay_tree(
    topology: "Topology", root: str, dests: List[str], fanout: int = 2
) -> Dict[str, str]:
    """Parent assignment (dest -> parent host) clustered by segment.

    Destinations are grouped by their dominant segment (the one most of
    the destinations share); the first member of each cluster is its
    head. No host gets more than *fanout* children: the root feeds
    ``fanout`` heads, each head feeds ``fanout - 1`` further heads
    breadth-first, and each cluster's other members fill a
    ``fanout``-ary tree under their head's remaining slots, so bulk
    bytes stay inside the segment.
    """
    if fanout < 2:
        raise ValueError(f"fanout {fanout} < 2: a head needs one slot for "
                         "its cluster and one to relay onward")
    seg_count: Dict[str, int] = {}
    dest_segs: Dict[str, List[str]] = {}
    for d in dests:
        segs = sorted({nic.segment.name for nic in topology.hosts[d].nics.values()})
        dest_segs[d] = segs
        for s in segs:
            seg_count[s] = seg_count.get(s, 0) + 1
    clusters: Dict[str, List[str]] = {}
    for d in sorted(dests):
        primary = max(dest_segs[d], key=lambda s: (seg_count[s], s))
        clusters.setdefault(primary, []).append(d)
    parents: Dict[str, str] = {}
    free = {root: fanout}

    def attach(child: str, feeders: Deque[str], slots: int) -> None:
        parent = feeders[0]
        parents[child] = parent
        free[parent] -= 1
        if free[parent] == 0:
            feeders.popleft()
        free[child] = slots
        feeders.append(child)

    head_feeders = deque([root])
    for _seg, members in sorted(clusters.items()):
        attach(members[0], head_feeders, fanout - 1)
    for _seg, members in sorted(clusters.items()):
        head = members[0]
        feeders = deque([head])
        free[head] += 1  # the slot every head keeps for its own cluster
        for d in members[1:]:
            attach(d, feeders, fanout)
    return parents


class Distributor:
    """Drives one-object fan-out over a set of per-host bulk services."""

    def __init__(
        self,
        topology: "Topology",
        services: Dict[str, "BulkService"],
        root: str,
        fanout: int = 2,
    ) -> None:
        if root not in services:
            raise ValueError(f"root {root!r} has no bulk service")
        self.topology = topology
        self.services = services
        self.root = root
        self.fanout = fanout
        self.sim = services[root].sim

    def distribute(
        self,
        name: str,
        payload,
        dests: List[str],
        chunk_size: Optional[int] = None,
        strategy: str = "tree",
        deadline: float = 60.0,
    ):
        """Seed at the root and deliver to every *dest* (a process).

        ``strategy="tree"`` is the pipelined relay tree with swarm
        announcements; ``strategy="unicast"`` is the naive baseline
        where every destination reads the whole object from the root.
        Returns a summary report; per-destination failures are recorded
        rather than raised, so a partial distribution still reports.
        """
        if strategy not in ("tree", "unicast"):
            raise ValueError(f"unknown strategy {strategy!r}")
        return self.sim.process(
            self._distribute(name, payload, list(dests), chunk_size,
                             strategy, deadline),
            name=f"bulk-dist:{name}",
        )

    def _distribute(self, name, payload, dests, chunk_size, strategy, deadline):
        t0 = self.sim.now
        span = self.sim.obs.span("bulk.distribute", obj=name,
                                 strategy=strategy, hosts=len(dests))
        root_svc = self.services[self.root]
        cmap = yield root_svc.seed(name, payload, chunk_size)
        if strategy == "tree":
            parents = build_relay_tree(
                self.topology, self.root, dests, self.fanout)
        else:
            parents = {d: self.root for d in dests}
        t_end = t0 + deadline
        workers = [
            self.sim.process(
                self._one_dest(name, d, parents[d], strategy, t_end),
                name=f"bulk-dest:{name}@{d}",
            )
            for d in dests
        ]
        yield self.sim.all_of(workers)
        results = {d: w.value for d, w in zip(dests, workers)}
        span.finish()
        completed = [d for d, r in results.items() if r.get("ok")]
        finished = [r["finished_at"] for r in results.values() if r.get("ok")]
        elapsed = (max(finished) - t0) if finished else (self.sim.now - t0)
        return {
            "name": name,
            "strategy": strategy,
            "hosts": len(dests),
            "bytes": cmap.size,
            "nchunks": cmap.nchunks,
            "completed": len(completed),
            "failed": sorted(set(dests) - set(completed)),
            "elapsed": elapsed,
            "aggregate_goodput": (len(completed) * cmap.size / elapsed)
            if elapsed > 0 else 0.0,
            "all_verified": bool(completed)
            and all(results[d].get("hash_ok") for d in completed),
            "chunk_retries": sum(r.get("chunk_retries", 0) for r in results.values()),
            "per_dest": results,
        }

    def _one_dest(self, name, dest, parent, strategy, t_end):
        """Deliver to one destination, surviving crashes of it and of
        its sources; returns a per-destination report (never raises)."""
        svc = self.services[dest]
        host = svc.host
        # Only the tree parent is a *hint* (heavily preferred); the root
        # is still reachable through the RC source set, but at far-source
        # weight, so child traffic stays off the backbone.
        hints = [self.services[parent].address]
        errors: List[str] = []
        crashes = 0
        while self.sim.now < t_end:
            if not host.up:
                # Park until the host recovers (or the deadline hits) —
                # the durable chunk store makes the retry a *resume*.
                resumed = self.sim.event()

                def on_up(_h, ev=resumed):
                    if not ev.triggered:
                        ev.succeed()

                host.on_recover.append(on_up)
                try:
                    yield self.sim.any_of(
                        [resumed, self.sim.timeout(max(0.0, t_end - self.sim.now))])
                finally:
                    if on_up in host.on_recover:
                        host.on_recover.remove(on_up)
                continue
            fetch = svc.fetcher.fetch(
                name, hints=hints, deadline=max(0.0, t_end - self.sim.now),
                announce=(strategy == "tree"),
                far_weight=TREE_FAR_WEIGHT if strategy == "tree" else 1.0,
            )
            defuse(fetch)

            def on_down(_h, proc=fetch):
                if proc.is_alive:
                    proc.interrupt("host crashed")

            host.on_crash.append(on_down)
            try:
                report = yield fetch
                report["crashes"] = crashes
                return report
            except Interrupt:
                crashes += 1
                errors.append(f"crashed at {self.sim.now:.2f}")
                continue
            except BulkError as exc:
                errors.append(str(exc))
                yield self.sim.timeout(0.2)
                continue
            finally:
                if on_down in host.on_crash:
                    host.on_crash.remove(on_down)
        return {
            "ok": False,
            "name": name,
            "finished_at": None,
            "crashes": crashes,
            "chunk_retries": 0,
            "errors": errors[-3:],
        }
