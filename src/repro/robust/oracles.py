"""Reference-model oracles, checked continuously through the probe bus.

Instrumented components (contexts, guardians, catalog stores) emit
semantic events on ``sim.probes``; each oracle folds those events into a
small reference model and records a :class:`Violation` the moment the
implementation disagrees with the model — *at the step it happens*, not
at quiescence, so a shrunk trace points at the divergent event rather
than at its downstream wreckage.

Probe vocabulary (emitted only when ``sim.probes`` is set):

=========================  ===================================================
``ctx.start``              a :class:`~repro.core.process.SnipeContext` came up
                           (``urn, inc, host, info``)
``ctx.send``               an envelope was assigned its stream sequence number
                           (``src, inc, dst, seq, tag``)
``ctx.deliver``            an envelope was admitted to the application
                           (``dst, dst_inc, src, src_inc, seq, tag``)
``daemon.fence``           a spawning daemon's ``fenced-below`` quorum write
                           succeeded (``urn, fence``)
``guardian.death``         a Guardian declared a task dead
                           (``urn, host, guardian, reason``)
``bulk.map``               a chunk map was sealed at the seeding host
                           (``name, size, chunk_size, digests, hash``)
``bulk.chunk``             a fetched chunk was committed to a chunk store
                           (``host, name, seq, digest, source``)
``bulk.evict``             a corrupt chunk was evicted for refetch
                           (``host, name, seq``)
``bulk.complete``          a host reassembled and verified a whole object
                           (``host, name, hash``)
``srudp.corrupt_deliver``  a corrupted message reached an application
                           (``src, dst, msg``)
``rcds.wipe``              a durable catalog replica lost its store in a crash
                           (``server``)
``shard.config``           a shard replica adopted a shard map
                           (``sid, server, epoch, prefixes``)
=========================  ===================================================

plus the per-replica :attr:`repro.rcds.records.RCStore.on_apply` hook,
which the convergence oracle uses instead of a probe (it needs the
replica identity and the store itself).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.daemon.tasks import TaskState
from repro.rcds.records import MOVED
# Both live with the run spine (their lowest user); every oracle here
# files the one and subscribes to the other.
from repro.robust.spine import ProbeBus, Violation  # noqa: F401


# ---------------------------------------------------------------------------
# LWW reference model (shared with the property tests)
# ---------------------------------------------------------------------------

def lww_merge(a, b):
    """Winner of two catalog entries under last-writer-wins.

    Entries are anything with a ``stamp()`` ordering key (see
    :meth:`repro.rcds.records.Entry.stamp`). This two-line function *is*
    the specification the replicas must agree with: it is commutative
    (up to stamp ties, which unequal origins make impossible),
    associative, and idempotent — the property tests in
    ``tests/rcds/test_lww_properties.py`` verify exactly that, so the
    oracle below rests on a checked foundation.
    """
    return a if a.stamp() >= b.stamp() else b


#: Keys modelled as max registers rather than LWW: the incarnation fence.
MAX_REGISTERS = frozenset({"fenced-below"})


def max_merge(a, b):
    """Winner of two entries of a max register: a shard handoff's moved
    marker, else the higher value, any value over a deletion, the stamp
    only to break a tie — a join like :func:`lww_merge`."""
    def rank(e):
        if e.deleted:
            return (2 if e.value == MOVED else 0, 0, e.stamp())
        return (1, e.value, e.stamp())
    return a if rank(a) >= rank(b) else b


class LwwMap:
    """Reference model of a replica: (uri, key) -> winning entry, by
    :func:`lww_merge` (:func:`max_merge` for :data:`MAX_REGISTERS`).

    Folding any permutation of the same entry set through ``apply``
    yields the same map — that is the convergence argument, and the
    property the real :class:`~repro.rcds.records.RCStore` must match.
    """

    def __init__(self) -> None:
        self.regs: Dict[Tuple[str, str], Any] = {}

    def apply(self, uri: str, key: str, entry) -> Any:
        """Fold one entry in; returns the register's winning entry."""
        cur = self.regs.get((uri, key))
        merge = max_merge if key in MAX_REGISTERS else lww_merge
        win = entry if cur is None else merge(cur, entry)
        self.regs[(uri, key)] = win
        return win

    def get(self, uri: str, key: str) -> Optional[Any]:
        return self.regs.get((uri, key))


class ConvergenceOracle:
    """Each catalog replica must equal the LWW fold of what it applied.

    A :class:`LwwMap` mirror shadows every replica through the store's
    ``on_apply`` hook; after each applied record the replica's register
    must hold the same winner as the mirror (O(1) per apply). Any
    apply-order dependence — e.g. the seeded ``no-lww`` bug, where a
    replica blindly overwrites — diverges at the exact record that
    exposes it.

    :meth:`check_quiescent` adds the cross-replica half at the end of a
    run: once anti-entropy has settled, every replica must report the
    same (terminal) state for every workload task.

    Subscribe :meth:`on_probe` when the scenario crashes hosts carrying
    replicas: a durable server wipes its store on crash and rebuilds it
    from snapshot + journal on recovery (``rcds.wipe`` probe), so the
    mirror must forget its pre-crash history along with the store or
    every replayed record looks like a LWW regression.
    """

    name = "lww-convergence"

    def __init__(self, sim) -> None:
        self.sim = sim
        self.violations: List[Violation] = []
        self.mirrors: Dict[str, LwwMap] = {}
        self._stores: Dict[str, Any] = {}

    def attach(self, env) -> None:
        """Hook every RC replica in *env* (call before the workload).

        Uses ``env.all_rc_servers()`` when available, so on a sharded
        site every shard group's replicas are mirrored too, not just the
        root directory group. Hooks are *chained* onto ``on_apply``
        rather than set — a shard replica already watches its own slot
        to flag misplaced names for the handoff janitor."""
        servers = (env.all_rc_servers() if hasattr(env, "all_rc_servers")
                   else dict(env.rc_servers))
        for name, server in servers.items():
            self._stores[name] = server.store
            mirror = self.mirrors[name] = LwwMap()
            chain_on_apply(server.store, self._hook(name, server.store, mirror))

    def on_probe(self, kind: str, f: Dict[str, Any]) -> None:
        if kind != "rcds.wipe":
            return
        mirror = self.mirrors.get(f["server"])
        if mirror is not None:
            mirror.regs.clear()  # in place: the apply hooks close over it

    def _hook(self, replica: str, store, mirror: LwwMap):
        def on_apply(uri: str, key: str, entry) -> None:
            model = mirror.apply(uri, key, entry)
            actual = store.data.get(uri, {}).get(key)
            if actual is None or actual.stamp() != model.stamp():
                self.violations.append(Violation(
                    self.name, self.sim.now,
                    f"replica {replica} holds stamp "
                    f"{None if actual is None else actual.stamp()} for "
                    f"({uri!r}, {key!r}) but the LWW fold of its applied "
                    f"entries wins with {model.stamp()}",
                ))

        return on_apply

    def check_quiescent(self, urns: List[str]) -> None:
        """After settle: replicas agree on a terminal state per task."""
        for urn in urns:
            states = {
                replica: store.get(urn, "state")
                for replica, store in self._stores.items()
            }
            values = set(states.values())
            if len(values) != 1:
                self.violations.append(Violation(
                    self.name, self.sim.now,
                    f"replicas disagree on {urn} state at quiescence: {states}",
                ))
            elif not values <= TaskState.TERMINAL:
                self.violations.append(Violation(
                    self.name, self.sim.now,
                    f"{urn} not terminal at quiescence: {states}",
                ))


# ---------------------------------------------------------------------------
# Replication-state oracles (tombstone GC / log compaction)
# ---------------------------------------------------------------------------

def chain_on_apply(store, fn: Callable[[str, str, Any], None]) -> None:
    """Add *fn* to a store's ``on_apply`` without displacing an oracle
    already hooked there (the hook is a single slot, not a list)."""
    prev = store.on_apply
    if prev is None:
        store.on_apply = fn
    else:
        def chained(uri: str, key: str, entry) -> None:
            prev(uri, key, entry)
            fn(uri, key, entry)

        store.on_apply = chained


def chain_on_record(store, fn: Callable[[Any], None]) -> None:
    """Same as :func:`chain_on_apply` for the ``on_record`` log hook."""
    prev = store.on_record
    if prev is None:
        store.on_record = fn
    else:
        def chained(record) -> None:
            prev(record)
            fn(record)

        store.on_record = chained


class ResurrectionOracle:
    """A deleted key must never come back older than its tombstone.

    Per replica, the oracle remembers the newest tombstone stamp it has
    seen applied for each (uri, key). From then on, that replica's
    visible register for the key may only be a *live* entry if its stamp
    beats the tombstone — an older live entry winning means the
    tombstone was garbage-collected before every peer acked past it
    (the seeded ``early-gc`` bug), letting a partitioned peer's stale
    pre-delete write resurrect the key on heal.

    Subscribe :meth:`on_probe` when replicas can crash: a rebuilt store
    replays its journal, so a key's old write lands before its
    tombstone again — the oracle forgets the replica's tombstones at the
    ``rcds.wipe`` and relearns them from the replay.
    """

    name = "no-resurrection"

    def __init__(self, sim) -> None:
        self.sim = sim
        self.violations: List[Violation] = []
        self._stores: Dict[str, Any] = {}
        #: (replica, uri, key) -> newest applied tombstone stamp.
        self._tombs: Dict[Tuple[str, str, str], Tuple] = {}

    def attach(self, env) -> None:
        for host_name, server in env.rc_servers.items():
            self._stores[host_name] = server.store
            chain_on_apply(server.store, self._hook(host_name, server.store))

    def on_probe(self, kind: str, f: Dict[str, Any]) -> None:
        if kind != "rcds.wipe":
            return
        wiped = {r for r, store in self._stores.items()
                 if store.server_id == f["server"]}
        self._tombs = {slot: t for slot, t in self._tombs.items()
                       if slot[0] not in wiped}

    def _hook(self, replica: str, store):
        def on_apply(uri: str, key: str, entry) -> None:
            slot = (replica, uri, key)
            if entry.deleted:
                tomb = self._tombs.get(slot)
                if tomb is None or entry.stamp() > tomb:
                    self._tombs[slot] = entry.stamp()
                return
            tomb = self._tombs.get(slot)
            if tomb is None:
                return
            current = store.data.get(uri, {}).get(key)
            if (current is not None and not current.deleted
                    and current.stamp() < tomb):
                self.violations.append(Violation(
                    self.name, self.sim.now,
                    f"replica {replica} resurrected ({uri!r}, {key!r}): "
                    f"live entry stamp {current.stamp()} predates its "
                    f"applied tombstone {tomb} — the tombstone was "
                    f"collected before every peer acked past it",
                ))

        return on_apply

    def check_quiescent(self) -> None:
        """Re-verify every remembered tombstone against the final state."""
        for (replica, uri, key), tomb in self._tombs.items():
            store = self._stores.get(replica)
            if store is None:
                continue
            current = store.data.get(uri, {}).get(key)
            if (current is not None and not current.deleted
                    and current.stamp() < tomb):
                self.violations.append(Violation(
                    self.name, self.sim.now,
                    f"at quiescence replica {replica} shows ({uri!r}, "
                    f"{key!r}) live at stamp {current.stamp()}, older than "
                    f"its tombstone {tomb}",
                ))


class CompactionOracle:
    """The version vector must never outrun contiguous knowledge.

    ``vector[origin] == n`` is a promise that records ``1..n`` from that
    origin were all applied here (directly, or summarized by a snapshot
    whose compaction horizon covers them). The oracle replays that
    definition: it tracks every record entering each replica's log via
    ``on_record``, maintains the contiguous watermark over
    ``max(compacted horizon, seen seqs)``, and flags the first record
    that leaves the vector past the watermark — the seeded
    ``vector-gap`` bug, where a gapped anti-entropy batch silently
    advances the vector so the skipped records are never requested.

    :meth:`check_quiescent` adds the cross-replica half: once the run
    settles, every replica must hold the identical visible state for the
    checked prefix — compaction and snapshot catch-up must be invisible
    to convergence.
    """

    name = "compaction-convergence"

    def __init__(self, sim) -> None:
        self.sim = sim
        self.violations: List[Violation] = []
        self._stores: Dict[str, Any] = {}
        self._pending: Dict[Tuple[str, str], Set[int]] = {}
        self._water: Dict[Tuple[str, str], int] = {}

    def attach(self, env) -> None:
        for host_name, server in env.rc_servers.items():
            self._stores[host_name] = server.store
            chain_on_record(server.store, self._on_record(host_name, server.store))

    def _advance(self, slot: Tuple[str, str], base: int) -> int:
        water = max(self._water.get(slot, 0), base)
        pending = self._pending.get(slot, ())
        while water + 1 in pending:
            water += 1
        self._water[slot] = water
        return water

    def _on_record(self, replica: str, store):
        def on_record(record) -> None:
            origin = record.origin
            slot = (replica, origin)
            self._pending.setdefault(slot, set()).add(record.seq)
            water = self._advance(slot, store.compacted.get(origin, 0))
            vec = store.vector.get(origin, 0)
            if vec > water:
                self.violations.append(Violation(
                    self.name, self.sim.now,
                    f"replica {replica} advanced vector[{origin!r}] to "
                    f"{vec} but its contiguous knowledge ends at {water} "
                    f"— a gapped batch bumped the vector past records it "
                    f"never applied",
                ))

        return on_record

    def check_quiescent(self, prefix: str = "") -> None:
        """After settle: identical visible registers on every replica."""
        snaps = {}
        for replica, store in self._stores.items():
            snaps[replica] = {
                (uri, key): entry.stamp()
                for uri, bucket in store.data.items() if uri.startswith(prefix)
                for key, entry in bucket.items() if not entry.deleted
            }
        if len(set(map(frozenset, (s.items() for s in snaps.values())))) > 1:
            keys = set()
            for s in snaps.values():
                keys |= set(s)
            diffs = [
                f"{k}: " + ", ".join(
                    f"{r}={s.get(k)}" for r, s in sorted(snaps.items()))
                for k in sorted(keys)
                if len({s.get(k) for s in snaps.values()}) > 1
            ]
            self.violations.append(Violation(
                self.name, self.sim.now,
                "replicas diverge at quiescence despite compaction-safe "
                f"anti-entropy: {'; '.join(diffs[:5])}"
                + (f" (+{len(diffs) - 5} more)" if len(diffs) > 5 else ""),
            ))


# ---------------------------------------------------------------------------
# Message-delivery oracle
# ---------------------------------------------------------------------------

class DeliveryOracle:
    """Exactly-once, per-stream FIFO, no ghost messages, no zombie talk.

    A *stream* is (src urn, src incarnation, dst urn, dst incarnation):
    sender restarts start a new sequence space, and a receiver restarted
    from a checkpoint legitimately re-syncs onto live streams, so both
    incarnations are part of the stream identity. Within one stream,
    deliveries must be contiguous ascending after the first (the sync
    point); across streams, a receiver incarnation must never accept
    from a source incarnation older than one it already heard
    (incarnation regression = a fenced zombie's straggler got through).

    Group fan-out envelopes carry ``seq == 0`` and are outside the
    point-to-point guarantee; they are ignored.
    """

    name = "delivery"

    def __init__(self, sim) -> None:
        self.sim = sim
        self.violations: List[Violation] = []
        #: (src, src_inc, dst) -> sequence numbers actually sent.
        self.sent: Dict[Tuple[str, int, str], Set[int]] = {}
        #: stream -> last delivered sequence number.
        self.cursor: Dict[Tuple[str, int, str, int], int] = {}
        #: (dst, dst_inc, src) -> highest src incarnation delivered.
        self.max_src_inc: Dict[Tuple[str, int, str], int] = {}
        self.delivered = 0

    def on_probe(self, kind: str, f: Dict[str, Any]) -> None:
        if kind == "ctx.send":
            self.sent.setdefault((f["src"], f["inc"], f["dst"]), set()).add(f["seq"])
        elif kind == "ctx.deliver":
            self._on_deliver(f)

    def _on_deliver(self, f: Dict[str, Any]) -> None:
        src, src_inc = f["src"], f["src_inc"]
        dst, dst_inc, seq = f["dst"], f["dst_inc"], f["seq"]
        if seq == 0:
            return  # group fan-out: not a point-to-point stream
        self.delivered += 1
        if seq not in self.sent.get((src, src_inc, dst), ()):
            self.violations.append(Violation(
                self.name, self.sim.now,
                f"{dst} (inc {dst_inc}) delivered seq {seq} from {src} "
                f"(inc {src_inc}) which that incarnation never sent",
            ))
            return
        ik = (dst, dst_inc, src)
        high = self.max_src_inc.get(ik, 0)
        if src_inc < high:
            self.violations.append(Violation(
                self.name, self.sim.now,
                f"incarnation regression at {dst} (inc {dst_inc}): accepted "
                f"{src} inc {src_inc} after already hearing inc {high} — "
                f"a fenced zombie's message was admitted",
            ))
            return
        self.max_src_inc[ik] = src_inc
        stream = (src, src_inc, dst, dst_inc)
        last = self.cursor.get(stream)
        if last is not None and seq != last + 1:
            what = "duplicate of" if seq <= last else "gap before"
            self.violations.append(Violation(
                self.name, self.sim.now,
                f"stream {src}#{src_inc} -> {dst}#{dst_inc}: delivered seq "
                f"{seq} after {last} ({what} the FIFO cursor)",
            ))
        self.cursor[stream] = seq if last is None else max(last, seq)


# ---------------------------------------------------------------------------
# Single-owner (Guardian restart) oracle
# ---------------------------------------------------------------------------

class SingleOwnerOracle:
    """Never two live incarnations of one URN with the lower unfenced.

    Whenever a context starts as incarnation *N* of a URN, it and each
    other running incarnation are judged by one symmetric rule: the lower
    of the two must already be fence-covered — a successful
    ``fenced-below`` quorum write with fence > it (that instance will
    then terminate itself and receivers will drop its stragglers — that
    *is* single ownership in an asynchronous system). The newcomer may be
    the lower one: a successor launches as the incarnation its fence
    reserved, so one that drew earlier can start after one that drew
    later. An *equal* incarnation is a live-migration handoff (the URN
    and incarnation move together). An instance on the *same host* as
    the newcomer is also covered: the daemon fences it during spawn.

    This is the oracle that catches the seeded ``no-fence-write`` bug:
    a Guardian that respawns without fencing leaves a merely-partitioned
    original running unfenced next to its successor.
    """

    name = "single-owner"

    def __init__(self, sim) -> None:
        self.sim = sim
        self.violations: List[Violation] = []
        #: urn -> [(incarnation, TaskInfo)] for every context ever started.
        self.instances: Dict[str, List[Tuple[int, Any]]] = {}
        #: urn -> highest fence successfully quorum-written.
        self.fences: Dict[str, int] = {}

    def on_probe(self, kind: str, f: Dict[str, Any]) -> None:
        if kind == "daemon.fence":
            urn = f["urn"]
            self.fences[urn] = max(self.fences.get(urn, 0), f["fence"])
        elif kind == "ctx.start":
            self._on_start(f)

    def _on_start(self, f: Dict[str, Any]) -> None:
        urn, inc, info = f["urn"], f["inc"], f["info"]
        fence = self.fences.get(urn, 0)
        for old_inc, old_info in self.instances.get(urn, []):
            if old_inc == inc:
                continue  # migration handoff
            # The TaskInfo reference is live: the owning daemon mutates
            # its state in place, so this reads the zombie's state *now*.
            if old_info.state in TaskState.TERMINAL or old_info.fenced:
                continue
            if fence > min(old_inc, inc):
                continue  # covered: the lower incarnation is fenced below
            if old_info.host == f["host"]:
                # Same daemon: spawn() fences a stale non-terminal task of
                # the same URN synchronously in _launch(), with no yield
                # between this probe and the fence (see
                # SnipeDaemon._launch). A duplicate spawn landing on the
                # host that still runs the other incarnation is therefore
                # resolved locally, without a quorum fence write.
                continue
            self.violations.append(Violation(
                self.name, self.sim.now,
                f"{urn} started incarnation {inc} on {f['host']} while "
                f"incarnation {old_inc} is still {old_info.state} on "
                f"{old_info.host} and incarnation {min(old_inc, inc)} is "
                f"unfenced (fence={fence}) — two live owners of one URN",
            ))
        self.instances.setdefault(urn, []).append((inc, info))

# ---------------------------------------------------------------------------
# Bulk chunk-integrity oracle
# ---------------------------------------------------------------------------

class ChunkOracle:
    """Every committed chunk matches the signed chunk map, exactly once.

    Folds the ``bulk.map`` / ``bulk.chunk`` / ``bulk.complete`` probes
    from the bulk data plane into a reference model of what each host's
    chunk store may legally contain:

    * a chunk commit must reference a published map, an in-range
      sequence number, and carry that sequence's digest from the map —
      a disagreement means corrupt bytes were committed;
    * ``(host, object, seq)`` commits at most once — the chunk store
      deduplicates, so a second commit is a double-apply;
    * a completion claim requires every chunk committed at that host
      and a reassembled hash equal to the map's whole-object hash.

    This is the oracle that catches the seeded ``no-chunk-verify``
    bug: with per-chunk digest verification disabled, a poisoned
    source's bytes are committed and the commit's digest disagrees
    with the chunk map at the moment it happens.
    """

    name = "chunk-integrity"

    def __init__(self, sim) -> None:
        self.sim = sim
        self.violations: List[Violation] = []
        #: object name -> (digests tuple, whole-object hash).
        self.maps: Dict[str, Tuple[tuple, str]] = {}
        #: (host, object name) -> committed sequence numbers.
        self.commits: Dict[Tuple[str, str], Set[int]] = {}
        self.committed = 0
        self.completions = 0

    def on_probe(self, kind: str, f: Dict[str, Any]) -> None:
        if kind == "bulk.map":
            self._on_map(f)
        elif kind == "bulk.chunk":
            self._on_chunk(f)
        elif kind == "bulk.evict":
            # Corruption recovery legitimately re-commits an evicted
            # chunk; only a commit with no intervening evict is a dup.
            self.commits.get((f["host"], f["name"]), set()).discard(f["seq"])
        elif kind == "bulk.complete":
            self._on_complete(f)

    def _on_map(self, f: Dict[str, Any]) -> None:
        name = f["name"]
        entry = (tuple(f["digests"]), f["hash"])
        if name in self.maps and self.maps[name] != entry:
            self.violations.append(Violation(
                self.name, self.sim.now,
                f"chunk map for {name!r} re-published with different "
                f"content — immutable-map invariant broken",
            ))
            return
        self.maps[name] = entry

    def _on_chunk(self, f: Dict[str, Any]) -> None:
        host, name, seq = f["host"], f["name"], f["seq"]
        self.committed += 1
        entry = self.maps.get(name)
        if entry is None:
            self.violations.append(Violation(
                self.name, self.sim.now,
                f"{host} committed chunk {seq} of {name!r} with no "
                f"published chunk map",
            ))
            return
        digests, _ = entry
        if not 0 <= seq < len(digests):
            self.violations.append(Violation(
                self.name, self.sim.now,
                f"{host} committed out-of-range chunk {seq} of {name!r} "
                f"(map has {len(digests)} chunks)",
            ))
            return
        if f["digest"] != digests[seq]:
            self.violations.append(Violation(
                self.name, self.sim.now,
                f"{host} committed chunk {seq} of {name!r} from "
                f"{f['source']} whose digest disagrees with the chunk "
                f"map — corrupt bytes committed",
            ))
            return
        seen = self.commits.setdefault((host, name), set())
        if seq in seen:
            self.violations.append(Violation(
                self.name, self.sim.now,
                f"{host} committed chunk {seq} of {name!r} twice — "
                f"exactly-once-per-chunk broken",
            ))
            return
        seen.add(seq)

    def _on_complete(self, f: Dict[str, Any]) -> None:
        host, name = f["host"], f["name"]
        self.completions += 1
        entry = self.maps.get(name)
        if entry is None:
            self.violations.append(Violation(
                self.name, self.sim.now,
                f"{host} claims completion of {name!r} with no "
                f"published chunk map",
            ))
            return
        digests, whole = entry
        got = self.commits.get((host, name), set())
        missing = set(range(len(digests))) - got
        if missing:
            self.violations.append(Violation(
                self.name, self.sim.now,
                f"{host} claims completion of {name!r} with "
                f"{len(missing)} chunk(s) never committed "
                f"(e.g. seq {min(missing)})",
            ))
            return
        if f["hash"] != whole:
            self.violations.append(Violation(
                self.name, self.sim.now,
                f"{host} completed {name!r} but the reassembled hash "
                f"disagrees with the chunk map's whole-object hash",
            ))


# ---------------------------------------------------------------------------
# Gray-failure oracles
# ---------------------------------------------------------------------------

class CorruptionOracle:
    """No corrupted payload is ever delivered to an application.

    The injector flips bits on the wire (``Frame.corrupt``); a digest-
    verifying receiver detects the mismatch, drops the fragment and lets
    the sender retransmit. If a corrupted message nonetheless reassembles
    and is handed up, the transport emits ``srudp.corrupt_deliver`` —
    ground truth straight from the frame's taint bit, independent of any
    digest check. Every such probe is a violation.

    This is the oracle that catches the seeded ``no-digest`` bug: with
    digest stamping disabled, corrupt fragments reassemble silently and
    applications consume garbage.
    """

    name = "no-corrupt-delivery"

    def __init__(self, sim) -> None:
        self.sim = sim
        self.violations: List[Violation] = []
        self.delivered = 0

    def on_probe(self, kind: str, f: Dict[str, Any]) -> None:
        if kind != "srudp.corrupt_deliver":
            return
        self.delivered += 1
        self.violations.append(Violation(
            self.name, self.sim.now,
            f"corrupted message {f['msg']} from {f['src']} delivered "
            f"to the application on {f['dst']} — payload integrity lost",
        ))


class ShardOracle:
    """Epoch-fenced ownership for the federated catalog.

    Continuous half: a shard replica must never *locally originate* a
    live register for a name its own adopted map routes elsewhere — that
    acceptance is exactly what the ownership fence refuses with a
    ``shard-redirect``, so seeing one means a client's stale pre-split
    map landed a write after the epoch advanced (the seeded
    ``stale-epoch-write`` bug). The oracle watches each replica's log
    through ``on_record`` and judges every locally-originated record
    against the map the replica itself believes *at that moment*
    (``shard.config`` probes mark adoptions, and accepts within a short
    grace of an adoption are excused: the fence decision legitimately
    predates a map that arrived mid-handler). Tombstones are exempt —
    moved markers are locally-originated deletions for names the map
    routes elsewhere *by design*.

    Quiescent half (:meth:`check_quiescent`): under the final map, every
    shard replica group internally agrees on its visible registers
    (per-shard LWW convergence), every live name is visible only in the
    group that owns it, and — the split boundary invariant — no name is
    visible in both a parent and its child.
    """

    name = "shard-ownership"

    #: Accepts this soon after the replica adopted a newer map are not
    #: violations: the handler fenced against the map that was current
    #: when the request was admitted, then yielded through the apply
    #: delay while the adoption happened.
    ADOPT_GRACE = 0.25

    #: A locally-originated record is a *fresh* accept only if its wall
    #: stamp is about now — a fresh accept stamps the host clock at
    #: accept time. Durability recovery replays the journal through the
    #: same log hook with the original (old) stamps preserved; those
    #: records were fenced when they were first accepted, under the map
    #: of their day, and must not be re-judged against today's.
    FRESH_WINDOW = 1.0

    def __init__(self, sim) -> None:
        self.sim = sim
        self.violations: List[Violation] = []
        self._servers: Dict[str, Any] = {}
        self._adopted_at: Dict[str, float] = {}
        self.local_accepts = 0

    def on_probe(self, kind: str, f: Dict[str, Any]) -> None:
        if kind == "shard.config":
            self._adopted_at[f["server"]] = self.sim.now

    def attach(self, env) -> None:
        """Hook every shard-aware replica (root and shard groups)."""
        from repro.rcds.shard.server import ShardRCServer

        for server in env.all_rc_servers().values():
            if not isinstance(server, ShardRCServer):
                continue
            self._servers[server.store.server_id] = server
            chain_on_record(server.store, self._hook(server))

    def _hook(self, server):
        from repro.rcds.shard.map import MAP_URI

        store = server.store

        def on_record(record) -> None:
            if record.origin != store.server_id:
                return  # replicated/merged, not locally accepted
            entry = record.entry
            if entry.deleted or record.uri == MAP_URI:
                return
            if self.sim.now - entry.wall > self.FRESH_WINDOW:
                return  # journal replay on recovery, not a fresh accept
            if server.map is None or server.owns(record.uri):
                self.local_accepts += 1
                return
            adopted = self._adopted_at.get(store.server_id)
            if adopted is not None and self.sim.now - adopted < self.ADOPT_GRACE:
                return
            self.violations.append(Violation(
                self.name, self.sim.now,
                f"replica {store.server_id} (shard {server.sid}, epoch "
                f"{server.epoch}) locally accepted a live write for "
                f"{record.uri!r}, which its own map routes to "
                f"{server.map.route(record.uri)} — a stale-epoch write "
                f"got past the ownership fence",
            ))

        return on_record

    def check_quiescent(self, manager) -> None:
        """Final-map placement: per-group convergence, single-group
        visibility, and no parent+child dual visibility."""
        from repro.rcds.shard.map import MAP_URI

        final_map = manager.map
        visible_in: Dict[str, List[str]] = {}
        for sid, grp in sorted(manager.servers.items()):
            snaps = {
                server_id: {
                    (uri, key): entry.stamp()
                    for uri, bucket in server.store.data.items()
                    if uri != MAP_URI
                    for key, entry in bucket.items() if not entry.deleted
                }
                for server_id, server in grp.items()
            }
            if len(set(map(frozenset, (s.items() for s in snaps.values())))) > 1:
                keys = set()
                for s in snaps.values():
                    keys |= set(s)
                diffs = [k for k in sorted(keys)
                         if len({s.get(k) for s in snaps.values()}) > 1]
                self.violations.append(Violation(
                    self.name, self.sim.now,
                    f"shard {sid} replicas diverge at quiescence on "
                    f"{len(diffs)} register(s), e.g. {diffs[:3]}",
                ))
            for uri in {uri for s in snaps.values() for (uri, _k) in s}:
                visible_in.setdefault(uri, []).append(sid)
                if final_map.route(uri) != sid:
                    self.violations.append(Violation(
                        self.name, self.sim.now,
                        f"{uri!r} still live in shard {sid} at quiescence "
                        f"but the final map (epoch {final_map.epoch}) "
                        f"routes it to {final_map.route(uri)}",
                    ))
        for uri, sids in sorted(visible_in.items()):
            if len(sids) > 1:
                self.violations.append(Violation(
                    self.name, self.sim.now,
                    f"{uri!r} visible in {len(sids)} shard groups at "
                    f"quiescence ({', '.join(sorted(sids))}) — a split "
                    f"left the name live on both sides of the boundary",
                ))


class FalseDeathOracle:
    """No lease-inferred death of a host that never actually crashed.

    ``guardian.death`` probes carry a *reason*. Reported deaths
    (``task-failed``, ``host-crash-report``) come from a live daemon and
    are trusted. ``host-lease`` deaths are the Guardian's own inference
    from a lapsed lease — under gray faults (clock skew on the lease
    writer, a one-way cut on the lease path) that inference can be wrong
    about a perfectly live host, and acting on it respawns tasks out
    from under their running originals. The fault plan tells the oracle
    which hosts really crashed (and when); a host-lease death of any
    other host is a violation.

    This is the oracle that catches the seeded ``naive-health`` bug: with
    differential confirmation disabled the Guardian declares a skewed but
    live host dead without ever probing it over a second channel.
    """

    name = "no-false-death"

    def __init__(self, sim, crashed: Optional[Callable[[str, float], bool]] = None) -> None:
        self.sim = sim
        self.violations: List[Violation] = []
        #: (host, sim-time) -> True if the host was genuinely down around
        #: then. Defaults to "nothing ever crashed".
        self.crashed = crashed or (lambda host, t: False)

    def on_probe(self, kind: str, f: Dict[str, Any]) -> None:
        if kind != "guardian.death" or f.get("reason") != "host-lease":
            return
        host = f.get("host") or ""
        if host and not self.crashed(host, self.sim.now):
            self.violations.append(Violation(
                self.name, self.sim.now,
                f"guardian {f.get('guardian', '?')} declared live host "
                f"{host} dead from a lapsed lease ({f['urn']}) — "
                f"false death of a running host",
            ))
