"""The replicated assertion store behind every RC server.

Design (§2.1, §7): metadata for a URI is a list of ``name=value``
assertions; replicas accept updates independently ("true master–master")
and converge by anti-entropy. Each accepted update becomes an immutable
:class:`Record` tagged with its origin server and per-origin sequence
number; a replica's knowledge is summarised by a version vector
``{origin: max_seq}``, so a sync ships exactly the records the peer
lacks. Conflicting writes to the same (uri, key) resolve last-writer-wins
on a Lamport clock (ties broken by origin id) — deterministic and
convergent on every replica. The one exception is a max register
(:data:`MAX_KEYS`), which keeps its highest value instead.

Deletions are tombstones; "automatic time stamping of metadata by the RC
servers" (§3.1) is the ``wall`` field, stamped with the accepting
server's simulation time and returned to clients so "temporally dis-joint
tasks" can judge the age of what they read.

Replication state is bounded. The version vector is a *contiguous*
knowledge summary: ``vector[origin] == n`` promises every record
``1..n`` from that origin has been applied here, so out-of-order
records buffer in the log without advancing the vector until the gap
fills. That contract is what makes the rest safe: per-origin logs
compact below a gossiped stability watermark (``compact``), tombstones
are garbage-collected only once every configured peer has acked past
them (``gc_tombstones``), and a peer whose vector predates the
compaction horizon catches up from a register snapshot
(``snapshot_needed_for`` / ``install_entries`` / ``adopt_vector``)
instead of a record replay that no longer exists.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple


#: Tombstone value recording "migrated to the owning shard" rather than
#: "deleted by a client" — see :meth:`RCStore.mark_moved`.
MOVED = "__moved__"

#: Keys merged as *max registers*: the highest value ever written wins
#: whatever its stamp, so a late, lower fence write never lowers one; a
#: deletion loses to any value, a shard handoff's moved marker beats all.
MAX_KEYS = frozenset({"fenced-below"})


def _rank(key: str, entry: "Entry") -> Tuple:
    """Merge order of one register's entries: the greater rank wins."""
    if key not in MAX_KEYS:
        return entry.stamp()
    if entry.deleted:
        return (2 if entry.value == MOVED else 0,) + entry.stamp()
    return (1, entry.value) + entry.stamp()


@dataclass(frozen=True)
class Entry:
    """Current state of one (uri, key) register."""

    value: Any
    lamport: int
    origin: str
    wall: float
    deleted: bool = False
    #: Per-origin sequence number of the record that produced this entry.
    #: Tombstone GC compares it against the group's stability watermark:
    #: a tombstone may only be dropped once every peer's vector covers it.
    seq: int = 0

    def stamp(self) -> Tuple[float, int, str]:
        """LWW ordering key: accept timestamp first, then Lamport clock,
        then origin id as the final tiebreak.

        Per-server Lamport counters advance at each server's own write
        rate and are not comparable across replicas between syncs; the
        accept timestamp (the paper's "automatic time stamping") is what
        makes last-writer-wins mean *last in time*, with the Lamport
        clock ordering causally-related writes that share a timestamp.
        """
        return (self.wall, self.lamport, self.origin)

    def to_dict(self) -> Dict[str, Any]:
        return {"value": self.value, "lamport": self.lamport,
                "origin": self.origin, "wall": self.wall,
                "deleted": self.deleted, "seq": self.seq}

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "Entry":
        return cls(value=d["value"], lamport=d["lamport"], origin=d["origin"],
                   wall=d["wall"], deleted=d.get("deleted", False),
                   seq=d.get("seq", 0))


@dataclass(frozen=True)
class Record:
    """One accepted update, as shipped between replicas."""

    origin: str
    seq: int
    uri: str
    key: str
    entry: Entry

    def to_dict(self) -> Dict[str, Any]:
        return {"origin": self.origin, "seq": self.seq, "uri": self.uri,
                "key": self.key, "entry": self.entry.to_dict()}

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "Record":
        return cls(origin=d["origin"], seq=d["seq"], uri=d["uri"],
                   key=d["key"], entry=Entry.from_dict(d["entry"]))


class RCStore:
    """One replica's state: registers + per-origin logs + version vector."""

    #: Model-checker test hook: set False to *disable* the last-writer-wins
    #: comparison (every applied entry blindly overwrites), which breaks
    #: replica convergence. Never touched in production paths.
    lww_enabled = True

    #: Model-checker bug switch (``--bug vector-gap``): set False to
    #: restore the legacy ``apply_remote`` that bumps the version vector
    #: to any record's seq even when earlier seqs from that origin are
    #: missing — after which ``missing_for`` never requests the skipped
    #: records and replicas silently diverge.
    contiguous_vector_enabled = True

    #: Model-checker bug switch (``--bug early-gc``): set False to let
    #: ``gc_tombstones`` drop tombstones without waiting for every peer
    #: to ack past them — a peer that still holds the pre-delete write
    #: then resurrects the deleted key on the next sync.
    safe_gc_enabled = True

    def __init__(self, server_id: str) -> None:
        self.server_id = server_id
        self.data: Dict[str, Dict[str, Entry]] = {}
        #: Sorted view of ``data``'s keys. Prefix queries bisect to the
        #: range instead of scanning every uri — the difference between
        #: O(log n + answer) and O(n) per query at 10^5+ names.
        self._index: List[str] = []
        #: uri -> count of live (non-tombstoned) registers, maintained on
        #: every apply so liveness checks and ``live_uri_count`` are O(1).
        self._bucket_live: Dict[str, int] = {}
        self._live_uris = 0
        self.logs: Dict[str, Dict[int, Record]] = {}  # origin -> seq -> record
        self.vector: Dict[str, int] = {}
        #: Compaction horizon per origin: every record with
        #: ``seq <= compacted[origin]`` has been dropped from the log
        #: (its effect lives on in ``data``). A peer whose vector is
        #: below this horizon cannot be served records and must take a
        #: snapshot instead.
        self.compacted: Dict[str, int] = {}
        self.lamport = 0
        self.applied = 0
        self.compactions = 0
        self.records_compacted = 0
        self.tombstones_collected = 0
        #: Optional observer called as ``on_apply(uri, key, entry)`` for
        #: every record folded into this replica (local or remote). The
        #: check subsystem's convergence oracle mirrors replica state
        #: through this hook.
        self.on_apply: Optional[Callable[[str, str, Entry], None]] = None
        #: Optional observer called as ``on_record(record)`` once a record
        #: has entered this replica's log *and* been applied (local
        #: accept or remote merge) — registers, vector and lamport all
        #: cover it, which is what lets the durability journal cut a
        #: snapshot from inside the hook. The check subsystem's
        #: compaction oracle hangs off it too.
        self.on_record: Optional[Callable[[Record], None]] = None
        #: ``(uri, key)`` of every register changed since the durability
        #: layer last folded a snapshot. ``None`` until a base generation
        #: exists: the first fold walks the whole store anyway, so a bulk
        #: preload never pays for tracking.
        self.dirty: Optional[set] = None

    # -- local writes -------------------------------------------------------
    def local_update(self, uri: str, assertions: Dict[str, Any], wall: float) -> List[Record]:
        """Accept a client update at this replica; returns the new records."""
        out = []
        for key, value in assertions.items():
            out.append(self._accept(uri, key, value, wall, deleted=False))
        return out

    def local_delete(self, uri: str, keys: Optional[Iterable[str]], wall: float) -> List[Record]:
        """Tombstone specific keys, or every current key of *uri*."""
        if keys is None:
            keys = list(self.data.get(uri, {}).keys())
        return [self._accept(uri, k, None, wall, deleted=True) for k in keys]

    def _accept(self, uri: str, key: str, value: Any, wall: float, deleted: bool) -> Record:
        self.lamport += 1
        seq = self.vector.get(self.server_id, 0) + 1
        self.vector[self.server_id] = seq
        entry = Entry(value=value, lamport=self.lamport, origin=self.server_id,
                      wall=wall, deleted=deleted, seq=seq)
        record = Record(self.server_id, seq, uri, key, entry)
        self.logs.setdefault(self.server_id, {})[seq] = record
        self._apply_entry(uri, key, entry)
        if self.on_record is not None:
            self.on_record(record)
        return record

    # -- replication --------------------------------------------------------
    def missing_for(self, remote_vector: Dict[str, int]) -> List[Record]:
        """Records this replica has that a peer with *remote_vector* lacks.

        Iterates the version vector (not the logs: a fully-compacted
        origin has an empty log but non-zero knowledge). Sequence
        numbers that fell below the compaction horizon are skipped —
        the batch may therefore carry gaps, which is fine: the
        receiver's contiguous watermark refuses to advance past them
        and its next ``sync_begin`` reports ``snapshot_needed`` so the
        missing prefix arrives as a register snapshot instead.
        """
        out: List[Record] = []
        origins = set(self.logs) | set(self.vector)
        for origin in sorted(origins):
            log = self.logs.get(origin, {})
            have = remote_vector.get(origin, 0)
            mine = self.vector.get(origin, 0)
            for seq in range(have + 1, mine + 1):
                rec = log.get(seq)
                if rec is not None:
                    out.append(rec)
        return out

    def snapshot_needed_for(self, remote_vector: Dict[str, int]) -> bool:
        """True if a peer at *remote_vector* needs more than records:
        some origin's compaction horizon is past what the peer has seen,
        so the records it lacks no longer exist."""
        return any(remote_vector.get(origin, 0) < horizon
                   for origin, horizon in self.compacted.items())

    def apply_remote(self, records: Iterable[Record]) -> int:
        """Merge records from a peer; returns how many were new.

        The version vector only advances over *contiguous* sequence
        runs: a record with ``seq > seen + 1`` buffers in the log (and
        folds into the registers — LWW makes that safe in any order)
        but leaves the vector at the last gap-free point, so
        ``missing_for`` keeps requesting the skipped records. The
        ``contiguous_vector_enabled = False`` branch preserves the
        historical bug for the model checker.
        """
        new = 0
        for rec in records:
            seen = self.vector.get(rec.origin, 0)
            if not self.contiguous_vector_enabled:
                # Legacy behaviour (the vector-gap bug): skip only exact
                # duplicates, and bump the vector to any higher seq.
                if rec.seq <= seen and rec.seq in self.logs.get(rec.origin, {}):
                    continue
                self.logs.setdefault(rec.origin, {})[rec.seq] = rec
                if rec.seq > seen:
                    self.vector[rec.origin] = rec.seq
            else:
                if rec.seq <= seen or rec.seq in self.logs.get(rec.origin, {}):
                    continue  # already covered by the vector or buffered
                self.logs.setdefault(rec.origin, {})[rec.seq] = rec
                self._advance_vector(rec.origin)
            if rec.entry.lamport > self.lamport:
                self.lamport = rec.entry.lamport
            self._apply_entry(rec.uri, rec.key, rec.entry)
            if self.on_record is not None:
                self.on_record(rec)
            new += 1
        return new

    def _advance_vector(self, origin: str) -> None:
        """Slide ``vector[origin]`` forward over the contiguous run of
        buffered records, starting from the later of the current vector
        and the compaction horizon (compacted seqs are known-applied)."""
        log = self.logs.get(origin, {})
        floor = max(self.vector.get(origin, 0), self.compacted.get(origin, 0))
        while floor + 1 in log:
            floor += 1
        if floor > self.vector.get(origin, 0):
            self.vector[origin] = floor

    # -- snapshot catch-up --------------------------------------------------
    def state_entries(self) -> List[Tuple[str, str, Entry]]:
        """Every register — tombstones included — in deterministic order.
        This is the unit of snapshot catch-up: a peer too far behind the
        compaction horizon installs these instead of replaying records."""
        out: List[Tuple[str, str, Entry]] = []
        for uri in sorted(self.data):
            bucket = self.data[uri]
            for key in sorted(bucket):
                out.append((uri, key, bucket[key]))
        return out

    def install_entries(self, entries: Iterable[Tuple[str, str, Entry]]) -> int:
        """LWW-fold snapshot registers into this replica. Order-independent
        and idempotent, so paged snapshot transfer needs no coordination."""
        n = 0
        for uri, key, entry in entries:
            if entry.lamport > self.lamport:
                self.lamport = entry.lamport
            self._apply_entry(uri, key, entry)
            n += 1
        return n

    def import_entry(self, uri: str, key: str, entry: Entry) -> Optional[Record]:
        """Accept a register migrated from *another* replica group.

        Shard handoff moves names between groups whose version vectors
        share no origins, so the entry cannot ship as a foreign record:
        it is re-originated here — new local sequence number, this
        server's origin id — while its LWW stamp (wall, lamport) is
        preserved so a client write racing the migration still orders
        against the migrated value. Returns ``None`` when the local
        register already ranks equal or higher, origin aside (idempotent:
        every parent replica hands off the same names independently).
        """
        current = self.data.get(uri, {}).get(key)
        # The rank's last component is the origin, which import rewrites.
        if current is not None and _rank(key, current)[:-1] >= _rank(key, entry)[:-1]:
            return None
        if entry.lamport > self.lamport:
            self.lamport = entry.lamport
        seq = self.vector.get(self.server_id, 0) + 1
        self.vector[self.server_id] = seq
        imported = Entry(value=entry.value, lamport=entry.lamport,
                         origin=self.server_id, wall=entry.wall,
                         deleted=entry.deleted, seq=seq)
        record = Record(self.server_id, seq, uri, key, imported)
        self.logs.setdefault(self.server_id, {})[seq] = record
        self._apply_entry(uri, key, imported)
        if self.on_record is not None:
            self.on_record(record)
        return record

    def adopt_vector(self, snap_vector: Dict[str, int]) -> None:
        """After installing a full snapshot taken at *snap_vector*: raise
        our vector and compaction horizon to cover everything the
        snapshot already folded in, then re-run the contiguity scan over
        any records buffered past the adopted point."""
        for origin, seq in snap_vector.items():
            if seq > self.compacted.get(origin, 0):
                self.compacted[origin] = seq
            if seq > self.vector.get(origin, 0):
                self.vector[origin] = seq
            self._advance_vector(origin)

    # -- compaction / tombstone GC -----------------------------------------
    def compact(self, stable: Dict[str, int]) -> int:
        """Drop log records at or below the *stable* watermark (per
        origin: the min of the replica group's version vectors, as
        gossiped by anti-entropy). Returns how many records were
        dropped. Registers are untouched — compaction only forgets the
        *history*, never the state."""
        dropped = 0
        for origin, log in self.logs.items():
            horizon = min(stable.get(origin, 0), self.vector.get(origin, 0))
            if horizon <= self.compacted.get(origin, 0):
                continue
            stale = [seq for seq in log if seq <= horizon]
            for seq in stale:
                del log[seq]
            if horizon > self.compacted.get(origin, 0):
                self.compacted[origin] = horizon
            dropped += len(stale)
        if dropped:
            self.compactions += 1
            self.records_compacted += dropped
        return dropped

    def gc_tombstones(self, stable: Dict[str, int],
                      now: Optional[float] = None,
                      grace: float = 0.0) -> int:
        """Remove tombstones every configured peer has acked past.

        *stable* must be the min over **all** configured peers' vectors
        (unknown peer => 0), not just recently-heard ones: collecting a
        tombstone a partitioned peer never saw lets that peer's stale
        pre-delete write win the next merge — resurrection. The
        ``safe_gc_enabled = False`` branch drops that guard for the
        model checker's ``--bug early-gc``.

        The vector guard only covers *this group's* peers. When the
        store also receives cross-group imports (shard handoff), pass a
        wall-clock *grace*: a tombstone younger than ``grace`` at local
        time *now* is retained even if every group peer acked it, so a
        delayed foreign janitor still finds the tombstone that refuses
        its stale pre-delete entry.
        """
        removed = 0
        for uri in list(self.data):
            bucket = self.data[uri]
            for key in list(bucket):
                entry = bucket[key]
                if not entry.deleted:
                    continue
                if self.safe_gc_enabled:
                    if stable.get(entry.origin, 0) < entry.seq:
                        continue  # a peer hasn't acked past the delete
                    if now is not None and now - entry.wall < grace:
                        continue  # within cross-group handoff grace
                del bucket[key]
                if self.dirty is not None:
                    self.dirty.add((uri, key))
                removed += 1
            if not bucket:
                del self.data[uri]
                self._bucket_live.pop(uri, None)
                i = bisect_left(self._index, uri)
                if i < len(self._index) and self._index[i] == uri:
                    del self._index[i]
        self.tombstones_collected += removed
        return removed

    # -- durability support -------------------------------------------------
    def clear(self) -> None:
        """Wipe replica state in place (a crash losing memory), keeping
        the observer hooks attached so oracles and journals survive."""
        self.data.clear()
        self._index.clear()
        self._bucket_live.clear()
        self._live_uris = 0
        self.logs.clear()
        self.vector.clear()
        self.compacted.clear()
        self.lamport = 0
        self.dirty = None

    def record_count(self) -> int:
        """Records currently held across all per-origin logs."""
        return sum(len(log) for log in self.logs.values())

    def tombstone_count(self) -> int:
        """Deleted registers awaiting tombstone GC."""
        return sum(1 for bucket in self.data.values()
                   for e in bucket.values() if e.deleted)

    def _apply_entry(self, uri: str, key: str, entry: Entry) -> None:
        bucket = self.data.get(uri)
        if bucket is None:
            bucket = self.data[uri] = {}
            insort(self._index, uri)
        current = bucket.get(key)
        if current is None or not self.lww_enabled or (
                entry.stamp() > current.stamp() if key not in MAX_KEYS  # the hot path
                else _rank(key, entry) > _rank(key, current)):
            was_live = current is not None and not current.deleted
            now_live = not entry.deleted
            if was_live != now_live:
                n = self._bucket_live.get(uri, 0)
                if now_live:
                    if n == 0:
                        self._live_uris += 1
                    self._bucket_live[uri] = n + 1
                else:
                    if n == 1:
                        self._live_uris -= 1
                        del self._bucket_live[uri]
                    elif n > 1:
                        self._bucket_live[uri] = n - 1
            bucket[key] = entry
            if self.dirty is not None:
                self.dirty.add((uri, key))
            self.applied += 1
        if self.on_apply is not None:
            self.on_apply(uri, key, entry)

    # -- reads ------------------------------------------------------------
    def lookup(self, uri: str) -> Dict[str, Dict[str, Any]]:
        """Visible (non-tombstoned) assertions for *uri*, with timestamps."""
        out = {}
        for key, entry in self.data.get(uri, {}).items():
            if not entry.deleted:
                out[key] = {"value": entry.value, "wall": entry.wall, "origin": entry.origin}
        return out

    def get(self, uri: str, key: str) -> Optional[Any]:
        entry = self.data.get(uri, {}).get(key)
        if entry is None or entry.deleted:
            return None
        return entry.value

    def query(self, prefix: str, after: Optional[str] = None,
              limit: Optional[int] = None) -> List[str]:
        """URIs starting with *prefix* that have at least one live
        assertion, in sorted order.

        Bisects the sorted uri index to the prefix range instead of
        scanning every name the replica holds. ``after`` resumes
        strictly past a previous page's last uri and ``limit`` caps the
        page size, so cross-shard scatter-gather can stream large
        namespaces without one unbounded response.
        """
        if after is not None and after >= prefix:
            lo = bisect_right(self._index, after)
        else:
            lo = bisect_left(self._index, prefix)
        out: List[str] = []
        for i in range(lo, len(self._index)):
            uri = self._index[i]
            if not uri.startswith(prefix):
                break  # index is sorted: the prefix block is contiguous
            if self._bucket_live.get(uri):
                out.append(uri)
                if limit is not None and len(out) >= limit:
                    break
        return out

    def live_uri_count(self) -> int:
        """URIs with at least one live assertion (the shard split
        trigger reads this every poll, so it must stay O(1))."""
        return self._live_uris

    def iter_uris(self) -> List[str]:
        """Snapshot of every uri this replica holds — tombstoned ones
        included — in sorted order (the shard janitor's scan surface)."""
        return list(self._index)

    def mark_moved(self, uri: str, key: str, wall: float) -> Record:
        """Overwrite one register with a shard-handoff tombstone.

        A normal tombstone, except its value marks *why* the register
        died — migration, not deletion — so the janitor never forwards
        it to the owning shard (which already received the live entry,
        stamp-preserved) and group peers that merge it stop forwarding
        their own copies too."""
        return self._accept(uri, key, MOVED, wall, deleted=True)

    def digest(self) -> Dict[str, int]:
        """Copy of the version vector (what a peer needs for a sync)."""
        return dict(self.vector)

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """Full visible state — used by convergence tests."""
        return {
            uri: {k: e.value for k, e in bucket.items() if not e.deleted}
            for uri, bucket in self.data.items()
            if any(not e.deleted for e in bucket.values())
        }
