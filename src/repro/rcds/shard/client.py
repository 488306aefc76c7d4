"""The sharded catalog facade — drop-in for :class:`RCClient`.

Callers keep the exact RCClient API (lookup/lookup_many/update/delete/
query/get/set, consistency levels, lanes); underneath, every operation
is routed by the cached shard map to an :class:`RCClient` over the
owning shard's replica group (a ``lookup_many`` batch is split into
one request per owning group). The map is fetched from the root
directory group (QUORUM when possible), cached for ``MAP_TTL``
seconds, and refreshed early whenever an operation fails against a
whole group — the signature of an epoch-fenced redirect. If the
refreshed map carries a newer epoch than the one the operation was
routed under (another session on the client may have fetched it in the
meantime), the operation re-routes and retries; if the epoch did not
move, the group is genuinely unreachable and the failure surfaces
unchanged.

Cross-shard prefix queries scatter to every shard whose ownership can
intersect the prefix, page each shard with ``after``/``limit`` cursors
(no unbounded responses), and merge the sorted streams. Before any map
is published — or when the root group is unreachable at first use —
the facade degrades to the epoch-0 map where the root group owns
everything, i.e. exactly the un-sharded catalog.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.rcds.client import ONE, QUORUM, CatalogClient, ConsistencyError, RCClient
from repro.rcds.shard.map import MAP_KEY, MAP_URI, ShardMap
from repro.robust.overload import BULK, CONTROL

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.host import Host

#: Page size for scatter-gather prefix queries.
QUERY_PAGE = 256

#: Seconds a fetched shard map is trusted before the next operation
#: re-reads it from the root group.
MAP_TTL = 5.0

#: Routed-operation attempts: first try + retries after map refreshes.
_MAX_REROUTES = 3


class ShardedRCClient(CatalogClient):
    """Client-side access to the federated catalog from one host."""

    def __init__(
        self,
        host: "Host",
        root_replicas: List[Tuple[str, int]],
        secret: Optional[bytes] = None,
    ) -> None:
        if not root_replicas:
            raise ValueError("ShardedRCClient needs at least one root replica")
        self.sim = host.sim
        self.host = host
        self.secret = secret
        self.root_replicas = [tuple(r) for r in root_replicas]
        self.map: ShardMap = ShardMap.initial(self.root_replicas)
        self._map_fetched = -1e18
        self._clients: Dict[Tuple[Tuple[str, int], ...], RCClient] = {}
        self._root = self._client_for(self.root_replicas)
        self.redirect_retries = 0
        metrics = self.sim.obs.metrics
        self._m_redirect_retries = metrics.counter("rcds.redirect_retries")
        self._m_map_refreshes = metrics.counter("rcds.map_refreshes")

    # -- plumbing -----------------------------------------------------------
    def _client_for(self, replicas) -> RCClient:
        """The (cached) RCClient over one shard's replica group."""
        key = tuple(tuple(r) for r in replicas)
        client = self._clients.get(key)
        if client is None:
            client = self._clients[key] = RCClient(self.host, list(key), secret=self.secret)
        return client

    def _ensure_map(self, force: bool = False):
        if not force and self.sim.now - self._map_fetched < MAP_TTL:
            return
        self._map_fetched = self.sim.now
        self._m_map_refreshes.inc()
        try:
            assertions = yield from self._root._lookup(MAP_URI, QUORUM, CONTROL)
        except ConsistencyError:
            try:
                assertions = yield from self._root._lookup(MAP_URI, ONE, CONTROL)
            except ConsistencyError:
                return  # root unreachable: keep routing on the cached map
        info = assertions.get(MAP_KEY)
        if info and isinstance(info.get("value"), dict):
            fetched = ShardMap.from_dict(info["value"])
            if fetched.epoch > self.map.epoch:
                self.map = fetched

    def _routed(self, uris: List[str], op):
        """Run *op(client, names)* once per owning group of *uris* and
        return the results. When a whole group refuses (epoch redirect),
        refresh the map, regroup the refused names on it and retry them."""
        yield from self._ensure_map()
        results, pending = [], uris
        for _attempt in range(_MAX_REROUTES):
            epoch, groups = self.map.epoch, {}
            for uri in pending:
                groups.setdefault(self.map.owner(uri).replicas, []).append(uri)
            pending = []
            for replicas, names in groups.items():
                try:
                    results.append((yield from op(self._client_for(replicas), names)))
                except ConsistencyError as exc:
                    pending, refused = pending + names, exc
            if not pending:
                return results
            yield from self._ensure_map(force=True)
            if self.map.epoch == epoch:
                raise refused  # not a stale map — the group is unreachable
            self.redirect_retries += 1
            self._m_redirect_retries.inc()
        raise ConsistencyError(f"shard map unstable for {pending[0]}")

    def _routed_one(self, uri: str, op):
        results = yield from self._routed([uri], lambda client, _names: op(client))
        return results[0]

    # -- the catalog verbs (generators; CatalogClient wraps them) -----------
    def _lookup(self, uri: str, consistency: str, lane: str = BULK):
        return self._routed_one(uri, lambda c: c._lookup(uri, consistency, lane))

    def _lookup_many(self, uris: List[str], consistency: str, lane: str = BULK):
        if not uris:
            return {}
        found: Dict[str, Dict] = {}
        for part in (yield from self._routed(
                uris, lambda c, names: c._lookup_many(names, consistency, lane))):
            found.update(part)
        return found

    def _update(self, uri: str, assertions: Dict[str, Any], consistency: str,
                lane: str = BULK):
        return self._routed_one(uri, lambda c: c._update(uri, assertions, consistency, lane))

    def _delete(self, uri: str, keys: Optional[List[str]], consistency: str,
                lane: str = BULK):
        return self._routed_one(uri, lambda c: c._delete(uri, keys, consistency, lane))

    def query(self, prefix: str, lane: str = BULK):
        """URIs under *prefix*, scatter-gathered across every shard whose
        ownership can intersect it and merged."""
        return self.sim.process(self._query(prefix, lane),
                                name=f"rc.query:{prefix}")

    def _query(self, prefix: str, lane: str = BULK):
        yield from self._ensure_map()
        shards = self.map.shards_for_prefix(prefix)
        found = set()
        for info in shards:
            client = self._client_for(info.replicas)
            after: Optional[str] = None
            while True:
                page = yield from client._query(prefix, lane, after, QUERY_PAGE)
                found.update(page)
                if len(page) < QUERY_PAGE:
                    break
                after = page[-1]
        return sorted(found)
