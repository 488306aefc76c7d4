"""The shard director: map publication and splits.

One :class:`ShardManager` owns the authoritative map for a site. Its
control loop (a sim process anchored on a core host) watches every
shard group's size: when a shard's live-name count crosses
``split_threshold``, the director samples the names under the heaviest
owned prefix, plans deterministic child prefixes
(:func:`~repro.rcds.shard.map.plan_split`), creates the child replica
groups on the least-loaded placement hosts, and publishes the map at
``epoch + 1``. Data movement is *not* the director's job: each parent
replica's janitor hands its misplaced names off to the children once it
adopts the new epoch, so a partitioned replica that misses the push
simply migrates later — no coordinator stall.

Publication order is safety-first: the serialized map is written to the
root directory group at QUORUM *before* the new config is pushed to the
affected shard servers, so by the time any server starts fencing on the
new epoch, a redirected client can already read the map that resolves
the redirect. A failed publication leaves ``published_epoch`` behind
``map.epoch`` and is retried every control tick.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.rcds.client import QUORUM, ConsistencyError, RCClient
from repro.rcds.shard.map import MAP_KEY, MAP_URI, ROOT_SID, ShardMap, plan_split
from repro.rcds.shard.server import ShardRCServer
from repro.robust import TIMEOUTS
from repro.robust.overload import CONTROL
from repro.rpc import RpcClient, RpcError
from repro.sim.errors import Interrupt

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.host import Host


class ShardManager:
    """Creates shard replica groups and drives the map's evolution."""

    def __init__(
        self,
        sim,
        hosts: Dict[str, "Host"],
        root_replicas: Sequence[Tuple[str, int]],
        secret: Optional[bytes] = None,
        director_host: Optional[str] = None,
        placement_hosts: Optional[Sequence[str]] = None,
        replicas_per_shard: int = 3,
        split_threshold: Optional[int] = None,
        split_fanout: int = 2,
        split_sample: int = 512,
        split_cooldown: float = 15.0,
        check_interval: float = 1.0,
        port_base: int = 1400,
        server_kw: Optional[Dict] = None,
    ) -> None:
        self.sim = sim
        self.hosts = hosts
        self.secret = secret
        self.root_replicas = [tuple(r) for r in root_replicas]
        self.placement_hosts = list(placement_hosts
                                    or sorted(h for h, _ in self.root_replicas))
        self.replicas_per_shard = replicas_per_shard
        self.split_threshold = split_threshold
        self.split_fanout = split_fanout
        self.split_sample = split_sample
        self.split_cooldown = split_cooldown
        self._split_after: Dict[str, float] = {}
        self.check_interval = check_interval
        self.server_kw = dict(server_kw or {})
        self.map = ShardMap.initial(self.root_replicas)
        self.published_epoch = 0
        self.splits = 0
        #: sid -> {server_id: ShardRCServer}, every group this manager
        #: created (root servers are registered by the environment).
        self.servers: Dict[str, Dict[str, ShardRCServer]] = {}
        self._next_port = port_base
        director = director_host or self.root_replicas[0][0]
        self._host = hosts[director]
        self._rc: Optional[RCClient] = None
        self._rpc: Optional[RpcClient] = None
        self._proc = None
        obs = sim.obs
        self._g_shard_count = obs.metrics.gauge("rcds.shard_count")
        self._m_splits = obs.metrics.counter("rcds.shard_splits")
        self._g_records: Dict[str, object] = {}

    # -- group construction -------------------------------------------------
    def register_root(self, servers: Dict[str, ShardRCServer]) -> None:
        """Adopt the root directory group (created by the environment so
        existing boot order is preserved) and seed its map."""
        self.servers[ROOT_SID] = dict(servers)
        for server in servers.values():
            server.adopt_map(self.map)

    def add_shard(self, sid: str, prefixes: Sequence[str],
                  host_names: Optional[Sequence[str]] = None) -> List[ShardRCServer]:
        """Carve an initial shard out of the namespace (pre-traffic):
        create its replica group and push the new map to every server
        directly — nothing to migrate yet, no races to respect."""
        names = list(host_names or self._place(self.replicas_per_shard))
        port = self._alloc_port()
        replicas = tuple((h, port) for h in names)
        self.map = self.map.with_shard(sid, prefixes, replicas, parent=ROOT_SID)
        group = self._make_group(sid, prefixes, replicas)
        self._adopt_everywhere()
        return list(group.values())

    def _make_group(self, sid: str, prefixes: Sequence[str],
                    replicas: Sequence[Tuple[str, int]]) -> Dict[str, ShardRCServer]:
        group: Dict[str, ShardRCServer] = {}
        for hname, port in replicas:
            server = ShardRCServer(
                self.hosts[hname], sid, prefixes,
                root_replicas=self.root_replicas,
                port=port, peers=[tuple(r) for r in replicas],
                secret=self.secret, **self.server_kw)
            group[server.store.server_id] = server
        self.servers[sid] = group
        return group

    def _alloc_port(self) -> int:
        port = self._next_port
        self._next_port += 1
        return port

    def _place(self, n: int) -> List[str]:
        """Least-loaded live placement hosts, deterministic tiebreak."""
        load: Dict[str, int] = {h: 0 for h in self.placement_hosts}
        for group in self.servers.values():
            for server in group.values():
                if server.host.name in load:
                    load[server.host.name] += 1
        candidates = [h for h in self.placement_hosts if self.hosts[h].up]
        candidates.sort(key=lambda h: (load[h], h))
        return candidates[:n]

    def _adopt_everywhere(self) -> None:
        for group in self.servers.values():
            for server in group.values():
                server.adopt_map(self.map)
        self.published_epoch = self.map.epoch

    # -- control loop -------------------------------------------------------
    def start(self) -> None:
        if self._proc is None:
            self._rc = RCClient(self._host, self.root_replicas, secret=self.secret)
            self._rpc = RpcClient(self._host, secret=self.secret)
            self._proc = self.sim.process(self._control_loop(),
                                          name="shard-director")

    def seed_map(self):
        """Write the current map into the root catalog (call once after
        initial shards exist, before traffic starts)."""
        return self.sim.process(self._publish([]), name="shard-seed-map")

    def _control_loop(self):
        rng = self.sim.rng.stream("shard.director")
        try:
            while True:
                yield self.sim.timer_event(
                    self.check_interval * (0.75 + 0.5 * rng.random()),
                    owner="shard-director")
                if not self._host.up:
                    continue
                self._set_gauges()
                if self.published_epoch < self.map.epoch:
                    yield from self._publish(self._changed_sids())
                    continue  # re-observe before changing the map again
                if self.split_threshold is not None:
                    yield from self._maybe_split()
        except Interrupt:
            return

    def _set_gauges(self) -> None:
        self._g_shard_count.set(len(self.map.shards))
        for sid, group in self.servers.items():
            size = max((s.store.live_uri_count() for s in group.values()),
                       default=0)
            gauge = self._g_records.get(sid)
            if gauge is None:
                gauge = self._g_records[sid] = self.sim.obs.metrics.gauge(
                    "rcds.shard_records", shard=sid)
            gauge.set(size)

    def _shard_size(self, sid: str) -> int:
        group = self.servers.get(sid, {})
        return max((s.store.live_uri_count() for s in group.values()), default=0)

    def _changed_sids(self) -> List[str]:
        """Groups whose servers must hear about an unpublished map: any
        group whose replica set or prefix ownership differs from what
        its servers were last told. Cheap over-approximation: all."""
        return list(self.servers)

    # -- split --------------------------------------------------------------
    def _maybe_split(self):
        for sid in sorted(self.servers):
            if sid == ROOT_SID:
                continue  # the directory shard never splits
            if self.sim.now < self._split_after.get(sid, 0.0):
                continue  # handoff from the last split still draining
            if self._shard_size(sid) < self.split_threshold:
                continue
            if (yield from self._split(sid)):
                return

    def _split(self, sid: str):
        """Plan and publish one split. Name sampling reads the biggest
        replica directly — the director is control plane; what must ride
        RPCs (map publication, config push) does."""
        group = self.servers.get(sid)
        if not group:
            return False
        biggest = max(group.values(), key=lambda s: s.store.live_uri_count())
        info = self.map.shards[sid]
        prefix = max(info.prefixes,
                     key=lambda p: len(biggest.store.query(p, limit=self.split_sample)))
        # Plan only over names the *current map* still routes here. The
        # store also holds records a previous split already gave away
        # (handoff still draining); planning over those would mint child
        # prefixes that collide with the earlier split's children. The
        # sample strides the whole owned block rather than taking the
        # sorted-first page — a head page sees only the lexicographically
        # smallest branch and the plan would strand every later branch on
        # the parent. (A branch rarer than pool/sample can still be
        # missed; it just stays with the parent for a later pass.)
        pool = [n for n in biggest.store.query(prefix)
                if self.map.route(n) == sid]
        step = max(1, -(-len(pool) // self.split_sample))
        names = pool[::step][:self.split_sample]
        groups = plan_split(prefix, names, fanout=self.split_fanout)
        if not groups:
            return False
        children = []
        for i, child_prefixes in enumerate(groups):
            port = self._alloc_port()
            hosts = self._place(self.replicas_per_shard)
            if not hosts:
                return False
            replicas = tuple((h, port) for h in hosts)
            children.append((f"{sid}.{self.splits}{chr(ord('a') + i)}",
                             child_prefixes, replicas))
        new_map = self.map.with_split(sid, children)
        for child_sid, child_prefixes, replicas in children:
            self._make_group(child_sid, child_prefixes, replicas)
        self.map = new_map
        self.splits += 1
        self._m_splits.inc()
        # Cooldown covers the parent (its count only drops once handoff
        # drains) and the children (their counts are still filling).
        until = self.sim.now + self.split_cooldown
        self._split_after[sid] = until
        for child_sid, _, _ in children:
            self._split_after[child_sid] = until
        if self.sim.probes is not None:
            self.sim.probes.emit("shard.split", sid=sid,
                                 children=[c[0] for c in children],
                                 epoch=new_map.epoch)
        yield from self._publish([sid] + [c[0] for c in children])
        return True

    # -- publication --------------------------------------------------------
    def _publish(self, sids: Sequence[str]):
        """Map to the root catalog first (QUORUM), then config pushes to
        the affected groups. Any failure leaves ``published_epoch``
        behind and the control loop retries next tick; servers that miss
        the push converge through their periodic map refresh."""
        try:
            yield self._rc.update(MAP_URI, {MAP_KEY: self.map.to_dict()},
                                  consistency=QUORUM, lane=CONTROL)
        except ConsistencyError:
            return
        if self.sim.probes is not None:
            self.sim.probes.emit("shard.map", epoch=self.map.epoch,
                                 shards=sorted(self.map.shards))
        payload = self.map.to_dict()
        for sid in sids:
            for server in self.servers.get(sid, {}).values():
                try:
                    yield self._rpc.call(
                        server.host.name, server.port, "rc.shard_config",
                        timeout=TIMEOUTS["rc.call"], lane=CONTROL, map=payload)
                except RpcError:
                    continue
        self.published_epoch = self.map.epoch

    # -- teardown -----------------------------------------------------------
    def all_servers(self) -> Dict[str, ShardRCServer]:
        """Every shard server (root excluded — the environment owns those),
        keyed by server id."""
        out: Dict[str, ShardRCServer] = {}
        for sid, group in self.servers.items():
            if sid == ROOT_SID:
                continue
            out.update(group)
        return out

    def close(self) -> None:
        if self._proc is not None and self._proc.is_alive:
            self._proc.interrupt("closed")
        if self._rc is not None:
            self._rc.close()
        if self._rpc is not None:
            self._rpc.close()
        for sid, group in self.servers.items():
            if sid == ROOT_SID:
                continue  # environment-owned
            for server in group.values():
                server.close()
