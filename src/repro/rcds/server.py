"""The RC/metadata server process (§3.1, §6).

Serves authenticated lookup/lookup_many/update/delete/query RPCs against its
:class:`~repro.rcds.records.RCStore` and runs push-pull anti-entropy with
its peer replicas. Any replica accepts writes — the "true master–master
update data model" the paper contrasts with LDAP-based directories (§7).

Anti-entropy is heal-storm controlled. Each round opens with a
``rc.sync_begin`` vector exchange on the CONTROL lane — a few dozen
bytes that must never queue behind a healing backlog — and then moves
records in bounded, spaced batches (``max_sync_records`` per RPC) over
the BULK lane. A peer whose vector predates the compaction horizon is
told ``snapshot_needed`` and pages the full register state across
instead of replaying records that no longer exist. Setting
``max_sync_records=None`` restores the legacy protocol — one unbounded
record blob per sync on the CONTROL lane, no compaction — which is the
E16 baseline.

Each replica is durable: every record entering the log is
journaled to the host's :attr:`~repro.net.host.Host.disk` with a
content digest, and the journal folds into a digest-verified snapshot
every ``snapshot_every`` records (two snapshot generations are kept, so
a corrupting write costs one journal replay, not the catalog). The fold
is incremental — it re-encodes and re-hashes only the registers that
changed since the previous generation and shares the rest with it — so
its cost follows the write rate, not the catalog size. A host
crash wipes the in-memory store; recovery — or a cold restart after
*all* replicas crash — rebuilds the full visible state locally instead
of replaying peers' history.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.rcds.records import Entry, RCStore, Record
from repro.robust import TIMEOUTS
from repro.robust.overload import BULK, CONTROL
from repro.rpc import RpcClient, RpcError, RpcServer
from repro.security.hashes import content_hash
from repro.sim.errors import Interrupt

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.host import Host

#: Well-known RC server port.
RC_PORT = 385

#: Hard cap on snapshot catch-up pages per sync round; a guard against a
#: cursor loop, not a tuning knob (the page size bounds each RPC).
_MAX_SNAPSHOT_PAGES = 512

#: CPU cost per record assembled or applied in a sync payload. On a
#: single-threaded replica (``service_time > 0``) this is what makes an
#: unbounded blob a head-of-line block: the serve loop is occupied for
#: the whole apply, and every queued request behind it waits.
APPLY_COST = 0.0002

#: Pause between consecutive batches of one anti-entropy round.
SYNC_SPACING = 0.02


#: Snapshot entry leaves combine by addition modulo this: order
#: independent, so a fold adds and subtracts only the leaves it touched.
_LEAF_MOD = 1 << 256


def _leaf(uri: str, key: str, entry_dict: Dict) -> int:
    """SHA-256 leaf of one on-disk snapshot entry, as an integer."""
    return int(content_hash((uri, key, entry_dict)), 16)


def _failure_cause(exc: RpcError) -> str:
    """Classify a sync failure so health evidence and the E16 report can
    tell congestion from death: breaker-open (we didn't even try),
    timeout (sent, no answer in time), transport (path/peer refused)."""
    msg = str(exc)
    if "circuit open" in msg:
        return "breaker-open"
    if "timed out" in msg:
        return "timeout"
    return "transport"


class RCServer:
    """One catalog replica, hosted on *host*."""

    def __init__(
        self,
        host: "Host",
        port: int = RC_PORT,
        peers: Optional[List[Tuple[str, int]]] = None,
        secret: Optional[bytes] = None,
        sync_interval: float = 0.5,
        service_time: float = 0.0002,
        max_sync_records: Optional[int] = 64,
        sync_rounds: int = 8,
        compact_interval: float = 2.0,
        tombstone_grace: float = 0.0,
        peer_stale_after: float = 10.0,
        log_keep_tail: int = 32,
        snapshot_every: int = 256,
    ) -> None:
        self.sim = host.sim
        self.host = host
        self.port = port
        self.store = RCStore(server_id=f"{host.name}:{port}")
        self.peers = list(peers or [])
        self.sync_interval = sync_interval
        #: Records per sync RPC on the BULK lane; ``None`` = legacy
        #: unbounded single-blob protocol with no compaction (baseline).
        self.max_sync_records = max_sync_records
        #: Max pull/push batches per anti-entropy round — the rest of a
        #: large backlog waits for the next round (rate limiting).
        self.sync_rounds = sync_rounds
        self.compact_interval = compact_interval
        #: Minimum wall-clock age before a tombstone is GC-eligible.
        #: The vector-based guard in ``gc_tombstones`` only covers this
        #: replica group's peers — any *cross-group* source of imports
        #: (shard handoff via ``rc.install``) needs a time floor instead:
        #: retention must exceed the maximum handoff delay, or a janitor
        #: delayed past it can re-install a stale pre-delete entry after
        #: the tombstone that would have refused it is gone.
        self.tombstone_grace = tombstone_grace
        #: A peer not heard from for this long stops holding the *log*
        #: compaction watermark back (it will catch up from a snapshot);
        #: tombstone GC still waits for every configured peer.
        self.peer_stale_after = peer_stale_after
        #: Recent records kept in the log past the stability watermark,
        #: so a briefly-lagging peer syncs records instead of snapshots.
        self.log_keep_tail = log_keep_tail
        self.snapshot_every = snapshot_every
        #: Last version vector heard from each peer: server_id ->
        #: (vector, sim-time heard). Gossip for the stability watermarks.
        self.peer_vectors: Dict[str, Tuple[Dict[str, int], float]] = {}
        self._snap_sessions: Dict[str, Tuple[list, Dict[str, int]]] = {}
        self.rpc = RpcServer(host, port, secret=secret, service_time=service_time)
        self.rpc.register("rc.lookup", self._h_lookup)
        self.rpc.register("rc.lookup_many", self._h_lookup_many)
        self.rpc.register("rc.update", self._h_update)
        self.rpc.register("rc.delete", self._h_delete)
        self.rpc.register("rc.query", self._h_query)
        self.rpc.register("rc.sync", self._h_sync)
        self.rpc.register("rc.sync_begin", self._h_sync_begin)
        self.rpc.register("rc.sync_pull", self._h_sync_pull)
        self.rpc.register("rc.sync_push", self._h_sync_push)
        self.rpc.register("rc.snapshot", self._h_snapshot)
        self._client = RpcClient(host, secret=secret)
        self.syncs_ok = 0
        self.syncs_failed = 0
        self.snapshot_catchups = 0
        self.snapshots_written = 0
        self.snapshot_entries_folded = 0
        self.snapshots_rejected = 0
        self.journal_skipped = 0
        self.restores = 0
        obs = self.sim.obs
        self._m_syncs_ok = obs.metrics.counter("rcds.syncs_ok")
        self._m_updates = obs.metrics.counter("rcds.updates")
        self._m_lookups = obs.metrics.counter("rcds.lookups")
        #: How stale a record was when anti-entropy delivered it here:
        #: virtual now minus the record's origin stamp, per applied record.
        self._m_lag = obs.metrics.histogram("rcds.propagation_lag")
        #: Records per sync payload, observed wherever a batch is
        #: assembled (pull replies, push batches, snapshot pages, legacy
        #: blobs). Its max is E16's heal-storm bound.
        self._m_batch = obs.metrics.histogram("rcds.sync_batch_records")
        self._m_compactions = obs.metrics.counter("rcds.compactions")
        self._m_snapshots = obs.metrics.counter("rcds.snapshots")
        self._m_folded = obs.metrics.counter("rcds.snapshot_entries_folded")
        self._obs = obs
        self._disk = host.disk.setdefault(f"rcds:{port}", {
            "snapshot": None, "snapshot_prev": None,
            "journal": [], "journal_prev": [],
        })
        self._restoring = False
        #: Sum of the current generation's entry leaves mod
        #: ``_LEAF_MOD``; meaningful while ``store.dirty`` is a set.
        #: Kept in memory: a storage fault may rot the header's copy.
        self._combined = 0
        # Resolved here, not at module import: ``repro.core`` imports
        # this module at package init, so a top-level import back
        # into it would be circular.
        from repro.core.checkpoint import seal_record, verify_checkpoint_record
        self._seal, self._verify = seal_record, verify_checkpoint_record
        self.store.on_record = self._journal_record
        host.on_crash.append(self._on_host_crash)
        host.on_recover.append(self._on_host_recover)
        if (self._disk["snapshot"] is not None or self._disk["journal"]
                or self._disk["journal_prev"]):
            # Cold restart on a machine whose disk has catalog state.
            self._restore_from_disk()
        self.sim.process(self._anti_entropy(), name=f"rc-sync:{host.name}")
        if max_sync_records is not None:
            self.sim.process(self._maintenance(), name=f"rc-compact:{host.name}")

    # -- RPC handlers -------------------------------------------------------
    def _h_lookup(self, args: Dict) -> Dict:
        self._m_lookups.inc()
        return self.store.lookup(args["uri"])

    def _h_lookup_many(self, args: Dict) -> Dict:
        """``{uri: assertions}`` for a whole scan in one request: one
        ``service_time`` charge and one ``rcds.lookups`` count."""
        self._m_lookups.inc()
        return {uri: self.store.lookup(uri) for uri in args["uris"]}

    def _h_update(self, args: Dict) -> Dict:
        self._m_updates.inc()
        # LWW stamps come from the accepting server's *wall clock*, which
        # the failure injector may skew — the whole point of the LWW-skew
        # property tests and the gray scenario. Never self.sim.now here.
        stamp = self.host.clock()
        records = self.store.local_update(args["uri"], args["assertions"], stamp)
        return {"stamped": stamp, "count": len(records)}

    def _h_delete(self, args: Dict) -> Dict:
        records = self.store.local_delete(args["uri"], args.get("keys"),
                                          self.host.clock())
        return {"count": len(records)}

    def _h_query(self, args: Dict) -> List[str]:
        return self.store.query(args.get("prefix", ""),
                                after=args.get("after"),
                                limit=args.get("limit"))

    def _apply_delay(self, n: int):
        """CPU time to assemble/apply *n* sync records, stretched when the
        host is slowed. On a single-threaded replica the serve loop holds
        this long — the mechanism that turns an unbounded anti-entropy
        blob into a head-of-line block for every queued request."""
        if n > 0:
            speed = max(getattr(self.host, "cpu_speed", 1.0), 1e-9)
            yield self.sim.timeout(APPLY_COST * n / speed)

    def _h_sync(self, args: Dict):
        """Legacy push-pull merge: apply the caller's records, return
        everything it lacks in one blob. Kept for the unbounded baseline
        and for mixed-version peers."""
        their_vector = args["vector"]
        want = self.store.missing_for(their_vector)
        self._m_batch.observe(len(want))
        records = args.get("records", [])
        yield from self._apply_delay(len(want) + len(records))
        self._observe_lag(records)
        self.store.apply_remote(records)
        return {"vector": self.store.digest(), "records": want}

    def _h_sync_begin(self, args: Dict) -> Dict:
        """CONTROL-lane vector exchange opening a bounded sync round."""
        who, their = args.get("who"), args["vector"]
        if who:
            self.peer_vectors[who] = (dict(their), self.sim.now)
        return {
            "who": self.store.server_id,
            "vector": self.store.digest(),
            "snapshot_needed": self.store.snapshot_needed_for(their),
        }

    def _h_sync_pull(self, args: Dict):
        """One bounded batch of records the caller lacks (BULK lane)."""
        who, their = args.get("who"), args["vector"]
        if who:
            self.peer_vectors[who] = (dict(their), self.sim.now)
        want = self.store.missing_for(their)
        more = False
        if self.max_sync_records is not None and len(want) > self.max_sync_records:
            want, more = want[: self.max_sync_records], True
        self._m_batch.observe(len(want))
        yield from self._apply_delay(len(want))
        return {"who": self.store.server_id, "vector": self.store.digest(),
                "records": want, "more": more}

    def _h_sync_push(self, args: Dict):
        """Apply one bounded batch pushed by a peer (BULK lane)."""
        who = args.get("who")
        if who and args.get("vector") is not None:
            self.peer_vectors[who] = (dict(args["vector"]), self.sim.now)
        records = args.get("records", [])
        yield from self._apply_delay(len(records))
        self._observe_lag(records)
        self.store.apply_remote(records)
        return {"who": self.store.server_id, "vector": self.store.digest()}

    def _h_snapshot(self, args: Dict):
        """Serve one page of a frozen register snapshot (BULK lane).

        The first page (cursor 0) freezes ``(state_entries, vector)`` in
        one sim event, so the pages a peer installs are mutually
        consistent with the vector it adopts at the end — entries
        written *during* the transfer arrive by normal record sync.
        """
        who = args.get("who", "?")
        cursor = int(args.get("cursor", 0))
        if cursor == 0 or who not in self._snap_sessions:
            self._snap_sessions[who] = (self.store.state_entries(),
                                        self.store.digest())
        entries, vector = self._snap_sessions[who]
        page = self.max_sync_records or max(len(entries), 1)
        chunk = entries[cursor:cursor + page]
        more = cursor + page < len(entries)
        self._m_batch.observe(len(chunk))
        yield from self._apply_delay(len(chunk))
        out: Dict = {"entries": chunk, "cursor": cursor + page, "more": more}
        if not more:
            out["vector"] = vector
            self._snap_sessions.pop(who, None)
        return out

    def stats(self) -> Dict:
        """Replication-state introspection for reports."""
        return {
            "server_id": self.store.server_id,
            "records": self.store.record_count(),
            "tombstones": self.store.tombstone_count(),
            "vector": self.store.digest(),
            "compacted": dict(self.store.compacted),
            "compactions": self.store.compactions,
            "records_compacted": self.store.records_compacted,
            "tombstones_collected": self.store.tombstones_collected,
            "snapshots_written": self.snapshots_written,
            "snapshot_entries_folded": self.snapshot_entries_folded,
            "snapshots_rejected": self.snapshots_rejected,
            "restores": self.restores,
            "snapshot_catchups": self.snapshot_catchups,
            "syncs_ok": self.syncs_ok,
            "syncs_failed": self.syncs_failed,
        }

    def _observe_lag(self, records) -> None:
        """Catalog update propagation lag: age of each record arriving via
        anti-entropy, measured against its origin's accept stamp."""
        now = self.sim.now
        for record in records:
            self._m_lag.observe(now - record.entry.wall)

    # -- anti-entropy ---------------------------------------------------------
    def _anti_entropy(self):
        rng = self.sim.rng.stream(f"rc.anti-entropy.{self.store.server_id}")
        owner = f"rc:{self.host.name}"
        try:
            while True:
                yield self.sim.timer_event(
                    self.sync_interval * (0.5 + rng.random()), owner=owner
                )
                if not self.peers or not self.host.up:
                    continue
                peer_host, peer_port = self.peers[rng.randrange(len(self.peers))]
                if peer_host == self.host.name and peer_port == self.port:
                    continue
                yield from self._sync_with(peer_host, peer_port)
        except Interrupt:
            return

    def _sync_with(self, peer_host: str, peer_port: int):
        """One sync round with a specific peer (also callable directly)."""
        # Manual finish() rather than a with-block: the span stays open
        # across the RPC yields, and generator code cannot rely on the
        # ambient span stack surviving a context switch.
        span = self._obs.span("rcds.sync", peer=f"{peer_host}:{peer_port}")
        try:
            if self.max_sync_records is None:
                yield from self._sync_unbounded(peer_host, peer_port)
            else:
                yield from self._sync_bounded(peer_host, peer_port)
            self.syncs_ok += 1
            self._m_syncs_ok.inc()
            span.finish("ok")
        except RpcError as exc:
            cause = _failure_cause(exc)
            self.syncs_failed += 1
            self._obs.metrics.counter("rcds.sync_failures", cause=cause).inc()
            span.finish(f"error:{cause}")

    def _sync_unbounded(self, peer_host: str, peer_port: int):
        """Legacy round: pull-first full exchange, one blob per RPC."""
        reply = yield self._client.call(
            peer_host,
            peer_port,
            "rc.sync",
            timeout=TIMEOUTS["rc.sync"],
            lane=CONTROL,
            vector=self.store.digest(),
            records=[],  # pull-first: learn their vector, then push
        )
        self._observe_lag(reply["records"])
        self.store.apply_remote(reply["records"])
        # Push what the peer lacks according to its reported vector.
        missing = self.store.missing_for(reply["vector"])
        if missing:
            self._m_batch.observe(len(missing))
            yield self._client.call(
                peer_host,
                peer_port,
                "rc.sync",
                timeout=TIMEOUTS["rc.sync"],
                lane=CONTROL,
                vector=self.store.digest(),
                records=missing,
            )

    def _sync_bounded(self, peer_host: str, peer_port: int):
        """Vector exchange on CONTROL, then bounded spaced batches on BULK."""
        begin = yield self._client.call(
            peer_host, peer_port, "rc.sync_begin",
            timeout=TIMEOUTS["rc.sync"], lane=CONTROL,
            who=self.store.server_id, vector=self.store.digest(),
        )
        peer_id = begin.get("who", f"{peer_host}:{peer_port}")
        peer_vec = begin["vector"]
        self.peer_vectors[peer_id] = (dict(peer_vec), self.sim.now)
        if begin.get("snapshot_needed"):
            yield from self._snapshot_catchup(peer_host, peer_port)
        # Pull: bounded batches of what the peer has beyond our vector.
        for _ in range(self.sync_rounds):
            if not self._behind(peer_vec):
                break
            page = yield self._client.call(
                peer_host, peer_port, "rc.sync_pull",
                timeout=TIMEOUTS["rc.sync"], lane=BULK,
                who=self.store.server_id, vector=self.store.digest(),
            )
            self._observe_lag(page["records"])
            self.store.apply_remote(page["records"])
            peer_vec = page["vector"]
            self.peer_vectors[peer_id] = (dict(peer_vec), self.sim.now)
            if not page.get("more"):
                break
            yield self.sim.timeout(SYNC_SPACING)
        # Push: bounded batches of what we have beyond the peer's vector.
        for _ in range(self.sync_rounds):
            missing = self.store.missing_for(peer_vec)
            if not missing:
                break
            batch = missing[: self.max_sync_records]
            self._m_batch.observe(len(batch))
            reply = yield self._client.call(
                peer_host, peer_port, "rc.sync_push",
                timeout=TIMEOUTS["rc.sync"], lane=BULK,
                who=self.store.server_id,
                vector=self.store.digest(), records=batch,
            )
            peer_vec = reply["vector"]
            self.peer_vectors[peer_id] = (dict(peer_vec), self.sim.now)
            if len(missing) <= self.max_sync_records:
                break
            yield self.sim.timeout(SYNC_SPACING)

    def _behind(self, peer_vec: Dict[str, int]) -> bool:
        return any(seq > self.store.vector.get(origin, 0)
                   for origin, seq in peer_vec.items())

    def _snapshot_catchup(self, peer_host: str, peer_port: int):
        """Page the peer's full register state across and adopt its
        vector — the catch-up path for a replica whose vector predates
        the peer's compaction horizon."""
        cursor = 0
        for _ in range(_MAX_SNAPSHOT_PAGES):
            page = yield self._client.call(
                peer_host, peer_port, "rc.snapshot",
                timeout=TIMEOUTS["rc.sync"], lane=BULK,
                who=self.store.server_id, cursor=cursor,
            )
            self.store.install_entries(page["entries"])
            cursor = page["cursor"]
            if not page.get("more"):
                self.store.adopt_vector(page.get("vector", {}))
                self.snapshot_catchups += 1
                # Registers adopted from a snapshot never pass through
                # the journal; persist them before the next crash.
                self._fold()
                return
            yield self.sim.timeout(SYNC_SPACING)

    # -- compaction / tombstone GC ------------------------------------------
    def _maintenance(self):
        rng = self.sim.rng.stream(f"rc.compact.{self.store.server_id}")
        try:
            while True:
                yield self.sim.timeout(
                    self.compact_interval * (0.75 + 0.5 * rng.random()))
                if not self.host.up:
                    continue
                stable = self._stability(include_stale=False)
                horizon = {
                    origin: min(seq, self.store.vector.get(origin, 0)
                                - self.log_keep_tail)
                    for origin, seq in stable.items()
                }
                dropped = self.store.compact(
                    {o: s for o, s in horizon.items() if s > 0})
                if dropped:
                    self._m_compactions.inc()
                self.store.gc_tombstones(
                    self._stability(include_stale=True),
                    now=self.sim.now, grace=self.tombstone_grace)
        except Interrupt:
            return

    def _stability(self, include_stale: bool) -> Dict[str, int]:
        """Per-origin min across the replica group's version vectors.

        ``include_stale=False`` (log compaction): peers not heard from
        within ``peer_stale_after`` stop holding the watermark back —
        their logs would otherwise grow without bound through a long
        partition — and will catch up from a snapshot instead.

        ``include_stale=True`` (tombstone GC): every configured peer
        counts, and a peer never heard from pins the watermark at zero.
        Collecting a tombstone an unreached peer still predates is how
        deleted keys come back from the dead.
        """
        now = self.sim.now
        vecs = [self.store.vector]
        for peer_host, peer_port in self.peers:
            pid = f"{peer_host}:{peer_port}"
            if pid == self.store.server_id:
                continue
            known = self.peer_vectors.get(pid)
            if known is None:
                if include_stale:
                    return {}
                continue
            vec, heard = known
            if not include_stale and now - heard > self.peer_stale_after:
                continue
            vecs.append(vec)
        return {origin: min(v.get(origin, 0) for v in vecs)
                for origin in self.store.vector}

    # -- durability ----------------------------------------------------------
    def _journal_record(self, record: Record) -> None:
        """Synchronously journal every record entering the log, digest
        stamped (and scrambled after digesting under a gray storage
        fault, so the restore path has to *catch* the rot). The store
        calls this after applying the record, so a fold cut from here
        covers every record in the journal it retires."""
        if self._restoring:
            return
        rec = record.to_dict()
        self._seal(rec, self.host, scramble_key="entry")
        self._disk["journal"].append(rec)
        if len(self._disk["journal"]) >= self.snapshot_every:
            self._fold()

    def _fold(self) -> None:
        """Fold the journal into the next snapshot generation, keeping
        the previous one (and its journal) so one corrupting write never
        costs the catalog.

        A generation is ``{"header", "entries"}``: ``entries`` maps
        ``(uri, key)`` to ``(entry dict, leaf)``, and the sealed header
        carries the vector, horizon, lamport, entry count and the sum of
        all leaves. Only registers in ``store.dirty`` are re-encoded and
        re-hashed; the rest of the map is a pointer copy of the previous
        generation's. With no base generation (``dirty is None``)
        everything is dirty. A storage fault scrambles the header — the
        one part written whole each time — never the shared entries.
        """
        store, d = self.store, self._disk
        dirty = store.dirty
        if dirty is None:
            entries, total = {}, 0
            dirty = [(uri, key) for uri, bucket in store.data.items()
                     for key in bucket]
        else:
            entries, total = dict(d["snapshot"]["entries"]), self._combined
        for slot in dirty:
            uri, key = slot
            old = entries.pop(slot, None)
            if old is not None:
                total -= old[1]
            entry = store.data.get(uri, {}).get(key)
            if entry is not None:       # else: tombstone GC dropped it
                entry_dict = entry.to_dict()
                leaf = _leaf(uri, key, entry_dict)
                entries[slot] = (entry_dict, leaf)
                total += leaf
        self._combined = total % _LEAF_MOD
        header = {
            "kind": "rcds-snapshot",
            "server_id": store.server_id,
            "vector": dict(store.vector),
            "compacted": dict(store.compacted),
            "lamport": store.lamport,
            "count": len(entries),
            "combined": self._combined,
        }
        self._seal(header, self.host, scramble_key="combined")
        d["snapshot_prev"], d["journal_prev"] = d["snapshot"], d["journal"]
        d["snapshot"], d["journal"] = {"header": header, "entries": entries}, []
        store.dirty = set()
        self.snapshots_written += 1
        self.snapshot_entries_folded += len(dirty)
        self._m_snapshots.inc()
        self._m_folded.inc(len(dirty))

    def _verify_generation(self, gen) -> bool:
        """True iff everything a restore would install checks out: the
        sealed header, every entry's leaf recomputed from the entry as
        stored, their sum and the count."""
        try:
            header, entries = gen["header"], gen["entries"]
            if not self._verify(header) or header["count"] != len(entries):
                return False
            total = 0
            for (uri, key), (entry_dict, leaf) in entries.items():
                if _leaf(uri, key, entry_dict) != leaf:
                    return False
                total += leaf
            return total % _LEAF_MOD == header["combined"]
        except (AttributeError, KeyError, TypeError, ValueError):
            return False    # rot can leave any shape behind

    def _restore_from_disk(self) -> int:
        """Rebuild the store from the durable snapshot + journal.

        Falls back to the previous snapshot generation (replaying both
        journals) when the current one fails verification; journal
        records that fail verification are skipped — the resulting
        vector gap stalls at the contiguous watermark and anti-entropy
        refills it from peers. Dirty tracking resumes only against a
        verified *current* generation; after a fallback the next fold
        starts from scratch.
        """
        d = self._disk
        self._restoring = True
        restored = 0
        try:
            self.store.clear()
            snap = d.get("snapshot")
            if snap is not None and self._verify_generation(snap):
                restored += self._install_snapshot(snap)
                self._combined = snap["header"]["combined"]
                self.store.dirty = set()
                journals = [d.get("journal", [])]
            else:
                if snap is not None:
                    self.snapshots_rejected += 1
                prev = d.get("snapshot_prev")
                if prev is not None and self._verify_generation(prev):
                    restored += self._install_snapshot(prev)
                journals = [d.get("journal_prev", []), d.get("journal", [])]
            for journal in journals:
                for rec in journal:
                    if not self._verify(rec):
                        self.journal_skipped += 1
                        continue
                    restored += self.store.apply_remote([Record.from_dict(rec)])
        finally:
            self._restoring = False
        return restored

    def _install_snapshot(self, gen: Dict) -> int:
        header = gen["header"]
        # Sorted: a fold visits its dirty set in hash order, and bucket
        # insertion order must not depend on the process's hash seed.
        n = self.store.install_entries(
            (uri, key, Entry.from_dict(entry_dict))
            for (uri, key), (entry_dict, _) in sorted(gen["entries"].items()))
        self.store.adopt_vector(header["vector"])
        for origin, horizon in header["compacted"].items():
            if horizon > self.store.compacted.get(origin, 0):
                self.store.compacted[origin] = horizon
        if header["lamport"] > self.store.lamport:
            self.store.lamport = header["lamport"]
        return n

    def _on_host_crash(self, host) -> None:
        # Memory is gone; the disk dict survives. Hooks stay attached so
        # oracles and the journal keep observing the rebuilt store. The
        # probe tells shadowing oracles to wipe their reference models
        # too — the rebuilt store starts from the snapshot, not from the
        # full apply history the mirror accumulated.
        self.store.clear()
        if self.sim.probes is not None:
            self.sim.probes.emit("rcds.wipe", server=self.store.server_id)

    def _on_host_recover(self, host) -> None:
        self.restores += 1
        self._restore_from_disk()
