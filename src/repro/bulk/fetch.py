"""Multi-source chunk fetching: the pull half of the bulk data plane.

A :class:`BulkFetcher` resolves an object's signed chunk map from RC
metadata, then pulls the missing chunks with several concurrent workers
striped across every known *source* — the origin and any peer that has
announced a (possibly partial) copy. Sources are ranked hints-first (the
distributor passes the relay parent as a hint, which is what makes the
relay tree topology-aware) and breaker-open sources sink to the back,
mirroring ``FileClient.read``'s failover order. Striping across
sources also stripes across network paths: each distinct source is a
distinct SRUDP destination, so ``PathSelector`` picks per-destination
interfaces independently.

Failure handling is per chunk: a timed-out or refused request strikes
the source, and the worker holding the chunk requeues it and retries it
itself, so a transfer survives a source dying mid-object as long as any
replica remains. Every chunk is digest-verified against the map before
it is committed to the local :class:`~repro.bulk.service.ChunkStore` —
and since the store is durable, a fetch restarted after a crash resumes
from ``missing()`` instead of starting over.

No timer drives a fetch: it ends at its last verified commit (plus the
announce), and a strike or an empty source pool starts its one re-read
of the ``bulk:`` record, so a healthy fetch reads the record once.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.bulk.chunks import ChunkMap, bulk_urn
from repro.rcds.client import ConsistencyError, RCClient
from repro.robust import TIMEOUTS
from repro.robust.overload import CONTROL
from repro.robust.retry import RetryPolicy
from repro.rpc import RpcClient, RpcError
from repro.security.hashes import content_hash
from repro.sim.errors import Interrupt
from repro.sim.events import defuse

if TYPE_CHECKING:  # pragma: no cover
    from repro.bulk.service import BulkService
    from repro.net.host import Host

#: Strikes before a source is dropped from the pool for this transfer.
MAX_STRIKES = 3

#: Selection weights by proximity: an explicit hint (the relay parent),
#: a peer on a shared segment, anything farther. Weighted — rather than
#: strict-priority — selection keeps a trickle of requests on distant
#: sources, so a transfer aggregates bandwidth across independent links
#: yet leaves the backbone mostly free for the relay heads.
HINT_WEIGHT = 16.0
NEAR_WEIGHT = 4.0
FAR_WEIGHT = 1.0

#: Chunk workers per transfer, each pulling from its own chosen source.
PARALLEL = 4

#: How long a worker with an empty source pool naps when a re-read of
#: the ``bulk:`` record found no new source either.
NO_SOURCE_BACKOFF = 0.25


class BulkError(Exception):
    """Chunk map unavailable, or the transfer could not complete."""


def parse_sources(assertions: Dict) -> List[Tuple[str, int]]:
    """``src:<host>:<port>`` assertion keys -> (host, port) pairs."""
    out = []
    for key, info in assertions.items():
        if key.startswith("src:") and info.get("value"):
            hostname, port = key[len("src:"):].rsplit(":", 1)
            out.append((hostname, int(port)))
    return sorted(out)


class BulkFetcher:
    """Pulls one host's copy of bulk objects from ranked sources."""

    #: Seeded-bug switch (``--bug no-chunk-verify``): with verification
    #: off, corrupt chunks are committed and the chunk oracle must catch
    #: the digest mismatch from the probe stream.
    verify_enabled = True

    def __init__(
        self,
        host: "Host",
        rc: RCClient,
        service: "BulkService",
        secret: Optional[bytes] = None,
    ) -> None:
        self.sim = host.sim
        self.host = host
        self.rc = rc
        self.service = service
        self.secret = secret
        #: Rounds of map resolution; chunk-level retry is per source.
        self.retry = RetryPolicy(attempts=3, base_delay=0.2, deadline=5.0)
        self._rpc = RpcClient(host, secret=secret)
        self._rng = host.sim.rng.stream(f"bulk-fetch.{host.name}")
        metrics = self.sim.obs.metrics
        self._m_retries = metrics.counter("bulk.chunk_retries")
        self._m_bytes = metrics.counter("bulk.bytes")

    # -- map resolution -----------------------------------------------------
    def _resolve_map(self, name: str):
        """Fetch + authenticate the chunk map, with its current sources."""

        def one_round(_attempt: int):
            lookup = self.rc.lookup(bulk_urn(name), lane=CONTROL)
            defuse(lookup)  # the fetch may be interrupted mid-lookup
            try:
                assertions = yield lookup
            except ConsistencyError as exc:
                raise BulkError(f"chunk map for {name!r}: {exc}") from None
            try:
                cmap = ChunkMap.from_assertions(assertions, self.secret)
            except (KeyError, ValueError) as exc:
                raise BulkError(str(exc)) from None
            return cmap, parse_sources(assertions)

        return (
            yield from self.retry.run(
                self.sim, one_round, retry_on=(BulkError,),
                rng=self._rng, op="bulk.map",
            )
        )

    def _rank_sources(
        self, sources: List[Tuple[str, int]], hints: List[Tuple[str, int]],
        strikes: Dict[Tuple[str, int], int], far_weight: float = FAR_WEIGHT,
    ) -> List[Tuple[Tuple[str, int], float]]:
        """Weighted source pool: ``[(source, weight), ...]``.

        Hints dominate (the relay parent in a tree), same-segment peers
        come next, distant sources trail — so bulk bytes stay near the
        destination — and a breaker-open source keeps only a token
        weight. Struck-out sources are dropped entirely.
        """
        me = (self.host.name, self.service.port)
        topo = self.host.topology
        pool: List[Tuple[Tuple[str, int], float]] = []
        seen = set()
        for s in list(hints) + list(sources):
            if s == me or s in seen:
                continue
            seen.add(s)
            if strikes.get(s, 0) >= MAX_STRIKES:
                continue
            if s in hints:
                weight = HINT_WEIGHT
            elif s[0] in topo.hosts and topo.shared_segments(self.host.name, s[0]):
                weight = NEAR_WEIGHT
            else:
                weight = far_weight
            if self._rpc.breaker_open(*s):
                weight *= 0.1
            pool.append((s, weight))
        return pool

    def _pick_source(
        self, pool: List[Tuple[Tuple[str, int], float]]
    ) -> Tuple[str, int]:
        """Weighted draw, so workers stripe across every source while
        still sending most requests to the closest ones."""
        total = sum(w for _, w in pool)
        r = self._rng.random() * total
        for src, w in pool:
            r -= w
            if r <= 0:
                return src
        return pool[-1][0]

    # -- fetching -----------------------------------------------------------
    def fetch(self, name: str, hints: Optional[List[Tuple[str, int]]] = None,
              deadline: float = 30.0, announce: bool = True,
              far_weight: float = FAR_WEIGHT):
        """Pull *name* until the local store holds every chunk (a process).

        *hints* are tried before RC-discovered sources (the relay parent
        in a distribution tree); *far_weight* tunes how much traffic
        off-segment sources get (the distributor lowers it so relay
        children stay off the backbone). Returns a transfer report dict;
        raises :class:`BulkError` if the object is incomplete at
        *deadline*.
        """
        return self.sim.process(
            self._fetch(name, list(hints or []), deadline, announce, far_weight),
            name=f"bulk-fetch:{name}@{self.host.name}",
        )

    def _fetch(self, name: str, hints: List[Tuple[str, int]],
               deadline: float, announce: bool, far_weight: float = FAR_WEIGHT):
        t0 = self.sim.now
        span = self.sim.obs.span("bulk.fetch", host=self.host.name, obj=name)
        cmap, sources = yield from self._resolve_map(name)
        store = self.service.store
        store.ensure(cmap)
        state = {
            "cmap": cmap,
            "queue": deque(store.missing(name)),  # ascending: in-order
            "sources": sources,
            "hints": hints,
            "strikes": {},
            "far_weight": far_weight,
            "retries": 0,
            "bad": 0,
            "bytes_by_source": {},
            "t_end": t0 + deadline,
            "reread": None,  # the one source re-read in flight, if any
        }
        procs = [
            self.sim.process(self._worker(name, state), name=f"bulk-w{w}:{name}")
            for w in range(min(PARALLEL, len(state["queue"])))
        ]
        try:
            if procs:
                yield self.sim.all_of(procs)
        finally:
            for p in procs + [state["reread"]]:
                if p is not None and p.is_alive:
                    p.interrupt("fetch done")
        elapsed = self.sim.now - t0
        span.finish()
        if not store.complete(name):
            raise BulkError(
                f"{name!r} incomplete on {self.host.name}: "
                f"{store.count(name)}/{cmap.nchunks} chunks after {elapsed:.2f}s"
            )
        # Hash the reassembled object without keeping it: a local would
        # hold a whole extra copy across the announce below.
        actual = content_hash(store.payload(name))
        hash_ok = actual == cmap.hash
        if type(self).verify_enabled and not hash_ok:
            # The store holds bytes that no longer hash to the map (e.g.
            # local corruption after commit). Evict exactly the chunks
            # whose digests disagree so the caller's retry re-pulls them
            # from a clean source instead of reassembling the same
            # corrupt payload forever.
            evicted = []
            for seq in range(cmap.nchunks):
                if (store.has(name, seq)
                        and content_hash(store.get(name, seq)) != cmap.digests[seq]):
                    store.discard(name, seq)
                    evicted.append(seq)
                    if self.sim.probes is not None:
                        self.sim.probes.emit("bulk.evict", host=self.host.name,
                                             name=name, seq=seq)
            raise BulkError(
                f"{name!r}: reassembled hash mismatch; evicted "
                f"{len(evicted)} corrupt chunk(s) for refetch"
            )
        if self.sim.probes is not None:
            self.sim.probes.emit("bulk.complete", host=self.host.name,
                                 name=name, hash=actual)
        self._m_bytes.inc(cmap.size)
        if announce:
            # Completed copies become sources, swarm-style. Best-effort:
            # a partitioned RC must not fail an already-complete fetch.
            ann = self.service.announce(name)
            defuse(ann)
            try:
                yield ann
            except ConsistencyError:
                pass
        return {
            "ok": True,
            "name": name,
            "bytes": cmap.size,
            "nchunks": cmap.nchunks,
            "elapsed": elapsed,
            "finished_at": self.sim.now,
            "chunk_retries": state["retries"],
            "integrity_failures": state["bad"],
            "bytes_by_source": dict(state["bytes_by_source"]),
            "hash_ok": hash_ok,
        }

    def _worker(self, name: str, state: Dict):
        """One fetch lane: pop the next missing chunk, ask a source; return
        once the queue is empty (a failed chunk is requeued and re-popped
        by the lane that held it)."""
        store = self.service.store
        cmap: ChunkMap = state["cmap"]
        queue: deque = state["queue"]
        try:
            while queue and self.sim.now < state["t_end"]:
                seq = queue.popleft()
                if store.has(name, seq):
                    continue
                pool = self._rank_sources(
                    state["sources"], state["hints"], state["strikes"],
                    state["far_weight"])
                if not pool:
                    queue.appendleft(seq)
                    if not (yield self._reread_sources(name, state)):
                        yield self.sim.timeout(NO_SOURCE_BACKOFF)
                    continue
                src = self._pick_source(pool)
                call = self._rpc.call(
                    src[0], src[1], "bulk.get_chunk",
                    timeout=TIMEOUTS["bulk.chunk"], name=name, seq=seq,
                )
                # The worker may be interrupted (host crash, fetch done)
                # while parked on this call; defuse so the orphaned call
                # failing later is not an uncaught background crash.
                defuse(call)
                try:
                    resp = yield call
                except RpcError:
                    self._strike(name, state, src, 1)
                    queue.appendleft(seq)
                    continue
                data = resp["data"]
                digest = content_hash(data)
                if type(self).verify_enabled and digest != cmap.digests[seq]:
                    state["bad"] += 1
                    self._strike(name, state, src, MAX_STRIKES)  # poisoned
                    queue.appendleft(seq)
                    continue
                if store.add(name, seq, data):
                    by = state["bytes_by_source"]
                    by[src] = by.get(src, 0) + len(data)
                    if self.sim.probes is not None:
                        self.sim.probes.emit(
                            "bulk.chunk", host=self.host.name, name=name,
                            seq=seq, digest=digest, source=src[0],
                        )
        except Interrupt:
            return

    def _strike(self, name: str, state: Dict, src: Tuple[str, int],
                strikes: int) -> None:
        """Count a failed chunk against *src*, and look for new sources."""
        state["strikes"][src] = state["strikes"].get(src, 0) + strikes
        state["retries"] += 1
        self._m_retries.inc()
        self._reread_sources(name, state)

    def _reread_sources(self, name: str, state: Dict):
        """The fetch's one re-read of the ``bulk:`` record (a process,
        started unless one is already in flight); its value is whether
        it merged a source the pool did not know."""
        proc = state["reread"]
        if proc is None or not proc.is_alive:
            proc = state["reread"] = self.sim.process(
                self._merge_sources(name, state), name=f"bulk-reread:{name}")
            defuse(proc)  # a strike starts it and need not wait for it
        return proc

    def _merge_sources(self, name: str, state: Dict):
        lookup = self.rc.lookup(bulk_urn(name), lane=CONTROL)
        defuse(lookup)  # the fetch may end mid-lookup
        try:
            assertions = yield lookup
        except ConsistencyError:
            return False
        new = [s for s in parse_sources(assertions) if s not in state["sources"]]
        state["sources"].extend(new)
        return bool(new)
