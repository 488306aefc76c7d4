"""The per-host bulk service: a verified chunk store behind an RPC port.

Every participating host runs one :class:`BulkService`. It holds the
host's verified chunks (a :class:`ChunkStore`), serves them to peers
over ``bulk.get_chunk``, and registers the host as a *source* for an
object in RC metadata once it holds chunks of it — completed fetchers
become additional sources, swarm-style. Nobody polls for them: a
fetcher re-reads the source set only when a source fails it or it has
none left (see :mod:`repro.bulk.fetch`).

The crucial detail for pipelined relay trees is that ``bulk.get_chunk``
*waits*: a request for a chunk the host does not hold yet — because it
is still fetching it, or has not even resolved the object's map — parks
inside the handler until the chunk is committed (bounded by
:data:`SERVE_WAIT`), then answers. A relay
therefore forwards chunk *k* to its children while chunk *k+1* is still
arriving from its parent, with no extra protocol machinery: the
children simply ask slightly ahead of the relay's own progress.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.bulk.chunks import (
    DEFAULT_CHUNK_SIZE,
    ChunkMap,
    build_chunk_map,
    bulk_urn,
    object_bytes,
)
from repro.rcds.client import QUORUM, RCClient
from repro.robust.overload import CONTROL
from repro.rpc import RpcServer, Sized

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.host import Host

#: Well-known bulk service port.
BULK_PORT = 2200

#: How long ``bulk.get_chunk`` holds a request for a chunk the host is
#: still fetching. Kept below the client's ``TIMEOUTS["bulk.chunk"]`` so
#: the server answers with a clean error before the caller times out.
SERVE_WAIT = 2.0


class ChunkStore:
    """Verified chunks of named objects, with arrival events.

    Only digest-verified chunks enter the store (the fetcher checks
    before ``add``; seeding hashes its own data), so everything served
    from here is authentic. The store survives host crashes — it models
    the durable chunk cache a real implementation would keep on disk —
    which is what makes transfers resumable: a restarted fetcher calls
    ``missing()`` and continues where its predecessor died.
    """

    def __init__(self, sim) -> None:
        self.sim = sim
        self.maps: Dict[str, ChunkMap] = {}
        self._chunks: Dict[str, Dict[int, bytes]] = {}
        self._waiters: Dict[Tuple[str, int], List] = {}

    def ensure(self, cmap: ChunkMap) -> None:
        """Start tracking an object (idempotent)."""
        self.maps.setdefault(cmap.name, cmap)
        self._chunks.setdefault(cmap.name, {})

    def add(self, name: str, seq: int, data: bytes) -> bool:
        """Commit a verified chunk; False if it was already present."""
        held = self._chunks.setdefault(name, {})
        if seq in held:
            return False
        held[seq] = data
        for ev in self._waiters.pop((name, seq), []):
            if not ev.triggered:
                ev.succeed(data)
        return True

    def has(self, name: str, seq: int) -> bool:
        return seq in self._chunks.get(name, ())

    def get(self, name: str, seq: int) -> bytes:
        return self._chunks[name][seq]

    def discard(self, name: str, seq: int) -> None:
        """Drop one held chunk (corruption recovery: evict, then refetch)."""
        self._chunks.get(name, {}).pop(seq, None)

    def count(self, name: str) -> int:
        return len(self._chunks.get(name, ()))

    def missing(self, name: str) -> List[int]:
        """Outstanding chunk numbers, ascending (the fetch order)."""
        cmap = self.maps[name]
        held = self._chunks.get(name, {})
        return [i for i in range(cmap.nchunks) if i not in held]

    def complete(self, name: str) -> bool:
        cmap = self.maps.get(name)
        return cmap is not None and self.count(name) == cmap.nchunks

    def payload(self, name: str) -> bytes:
        """The reassembled object (requires ``complete``)."""
        cmap = self.maps[name]
        held = self._chunks[name]
        return b"".join(held[i] for i in range(cmap.nchunks))

    def wait(self, name: str, seq: int):
        """Event firing when chunk (name, seq) is committed."""
        ev = self.sim.event()
        if self.has(name, seq):
            ev.succeed(self.get(name, seq))
        else:
            self._waiters.setdefault((name, seq), []).append(ev)
        return ev


class BulkService:
    """One host's bulk-plane endpoint: chunk store + RPC server.

    ``seed`` makes this host the origin of an object (build the map,
    publish it signed to RC on the control lane, hold every chunk);
    ``announce`` registers the host as a source.
    """

    def __init__(
        self,
        host: "Host",
        rc: RCClient,
        port: int = BULK_PORT,
        secret: Optional[bytes] = None,
    ) -> None:
        self.sim = host.sim
        self.host = host
        self.rc = rc
        self.port = port
        self.secret = secret
        self.store = ChunkStore(self.sim)
        self.rpc = RpcServer(host, port, secret=secret)
        self.rpc.register("bulk.get_chunk", self._h_get_chunk)
        self._fetcher = None

    @property
    def address(self) -> Tuple[str, int]:
        return (self.host.name, self.port)

    @property
    def fetcher(self):
        """This host's :class:`~repro.bulk.fetch.BulkFetcher` (lazy)."""
        if self._fetcher is None:
            from repro.bulk.fetch import BulkFetcher

            self._fetcher = BulkFetcher(self.host, self.rc, self, secret=self.secret)
        return self._fetcher

    # -- origin-side API ----------------------------------------------------
    def seed(self, name: str, payload, chunk_size: Optional[int] = None):
        """Become the origin of *name* (a process): chunk, publish, announce."""
        return self.sim.process(
            self._seed(name, payload, chunk_size), name=f"bulk-seed:{name}"
        )

    def _seed(self, name: str, payload, chunk_size: Optional[int]):
        data = object_bytes(payload)
        cmap, chunks = build_chunk_map(
            name, data, chunk_size or DEFAULT_CHUNK_SIZE
        )
        self.store.ensure(cmap)
        for seq, chunk in enumerate(chunks):
            self.store.add(name, seq, chunk)
        if self.sim.probes is not None:
            self.sim.probes.emit(
                "bulk.map", name=name, size=cmap.size, chunk_size=cmap.chunk_size,
                digests=cmap.digests, hash=cmap.hash,
            )
        assertions = cmap.to_assertions(self.secret)
        assertions[f"src:{self.host.name}:{self.port}"] = True
        # Chunk-map metadata is control-plane: publish on the control
        # lane at QUORUM so fetchers read their own site's writes.
        yield self.rc.update(bulk_urn(name), assertions,
                             consistency=QUORUM, lane=CONTROL)
        return cmap

    def announce(self, name: str):
        """Register this host as a source for *name* (a process)."""
        return self.rc.update(
            bulk_urn(name), {f"src:{self.host.name}:{self.port}": True},
            consistency=QUORUM, lane=CONTROL,
        )

    # -- serving ------------------------------------------------------------
    def _h_get_chunk(self, args: Dict):
        name, seq = args["name"], args["seq"]
        if self.store.has(name, seq):
            data = self.store.get(name, seq)
            return Sized({"seq": seq, "data": data}, size=len(data) + 64)
        # A relay mid-fetch — or one still resolving the object's map, as
        # every tree level starts at once: hold the request until the
        # chunk lands.
        return self._wait_chunk(name, seq)

    def _wait_chunk(self, name: str, seq: int):
        arrived = self.store.wait(name, seq)
        yield self.sim.any_of([arrived, self.sim.timeout(SERVE_WAIT)])
        if not self.store.has(name, seq):
            raise KeyError(f"{self.host.name}: chunk {seq} of {name!r} "
                           f"not here after {SERVE_WAIT}s")
        data = self.store.get(name, seq)
        return Sized({"seq": seq, "data": data}, size=len(data) + 64)
