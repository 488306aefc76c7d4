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

plus the per-replica :attr:`~repro.rcds.records.RCStore.on_apply` and
:attr:`~repro.rcds.records.RCStore.on_record` hooks, which the catalog
judge uses instead of probes (it needs the replica identity and the
store itself).

One oracle per subject: :class:`CatalogOracle` judges every catalog
replica against one LWW model and files four claims
(``lww-convergence``, ``no-resurrection``, ``compaction-convergence``,
``shard-ownership``); the others judge message delivery, single
ownership, chunk integrity, corrupt delivery and false deaths.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.daemon.tasks import TaskState
from repro.rcds.records import MOVED
from repro.rcds.shard.map import MAP_URI
from repro.rcds.shard.server import ShardRCServer
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


#: The four claims the catalog judge files (the ``oracle`` field of a
#: :class:`Violation`).
LWW = "lww-convergence"
RESURRECTION = "no-resurrection"
COMPACTION = "compaction-convergence"
OWNERSHIP = "shard-ownership"


class CatalogOracle:
    """One LWW model of every catalog replica, filing four claims.

    Per replica, a :class:`LwwMap` mirror folds every entry the store
    applies (``on_apply``), and every record entering its log
    (``on_record``) is judged as it lands:

    * ``lww-convergence`` — after each apply the store's register holds
      the mirror's winner (O(1) per apply). Any apply-order dependence —
      the seeded ``no-lww`` bug's blind overwrite — diverges at the
      record that exposes it.
    * ``no-resurrection`` — the same divergence where the mirror's
      winner is a tombstone and the store shows an older live entry: the
      tombstone was collected before every peer acked past it (the
      seeded ``early-gc`` bug), so a stale pre-delete write came back.
      Filed right after the ``lww-convergence`` violation of that apply.
    * ``compaction-convergence`` — ``vector[origin] == n`` promises
      records ``1..n`` from that origin were applied here (directly or
      under a snapshot's compaction horizon). The contiguous watermark
      over ``max(compacted horizon, seen seqs)`` must keep up with the
      vector; the seeded ``vector-gap`` bug lets a gapped batch bump it
      past records that are then never requested.
    * ``shard-ownership`` — a shard replica never *locally originates*
      a live register for a name its own adopted map routes elsewhere:
      that is what the epoch fence refuses, so seeing one means a stale
      map's write got through (the seeded ``stale-epoch-write`` bug).
      Accepts within :data:`ADOPT_GRACE` of a map adoption are excused
      (the fence decision predates a map that arrived mid-handler), and
      so are tombstones (moved markers route elsewhere by design) and
      journal replays (:data:`FRESH_WINDOW`).

    :meth:`on_probe` takes ``rcds.wipe`` (a durable replica lost its
    store in a crash and rebuilds it from snapshot + journal, so the
    mirror forgets along with it) and ``shard.config`` (a map
    adoption). :meth:`check_quiescent` is the cross-replica half, one
    pass over replica groups once the run has settled.
    """

    #: Accepts this soon after the replica adopted a newer map are not
    #: violations: the handler fenced against the map that was current
    #: when the request was admitted, then yielded through the apply
    #: delay while the adoption happened.
    ADOPT_GRACE = 0.25

    #: A locally-originated record is a *fresh* accept only if its wall
    #: stamp is about now. Durability recovery replays the journal
    #: through the same log hook with the original stamps; those records
    #: were fenced under the map of their day.
    FRESH_WINDOW = 1.0

    def __init__(self, sim) -> None:
        self.sim = sim
        self.violations: List[Violation] = []
        #: replica (server id) -> its RC server / its mirror.
        self.servers: Dict[str, Any] = {}
        self.mirrors: Dict[str, LwwMap] = {}
        #: (replica, origin) -> seqs seen in the log / contiguous watermark.
        self._seen: Dict[Tuple[str, str], Set[int]] = {}
        self._water: Dict[Tuple[str, str], int] = {}
        #: replica -> virtual time it last adopted a shard map.
        self._adopted_at: Dict[str, float] = {}

    def _file(self, claim: str, detail: str) -> None:
        self.violations.append(Violation(claim, self.sim.now, detail))

    def attach(self, env) -> None:
        """Mirror every replica of ``env.all_rc_servers()`` (the root
        group and, on a sharded site, every shard group); call before
        the workload. Each store's two hooks are chained once, behind
        the one it already carries — a shard replica's own apply watch,
        the durable server's journal."""
        for name, server in env.all_rc_servers().items():
            store = server.store
            self.servers[name] = server
            mirror = self.mirrors[name] = LwwMap()
            store.on_apply = self._on_apply(name, store, mirror, store.on_apply)
            store.on_record = self._on_record(
                name, server, store.on_record, isinstance(server, ShardRCServer))

    def on_probe(self, kind: str, f: Dict[str, Any]) -> None:
        if kind == "rcds.wipe":
            mirror = self.mirrors.get(f["server"])
            if mirror is not None:
                mirror.regs.clear()  # in place: the apply hook closes over it
        elif kind == "shard.config":
            self._adopted_at[f["server"]] = self.sim.now

    def _on_apply(self, replica: str, store, mirror: LwwMap, prev):
        def on_apply(uri: str, key: str, entry) -> None:
            if prev is not None:
                prev(uri, key, entry)
            model = mirror.apply(uri, key, entry)
            actual = store.data.get(uri, {}).get(key)
            if actual is not None and actual.stamp() == model.stamp():
                return
            held = None if actual is None else actual.stamp()
            self._file(LWW, f"replica {replica} holds stamp {held} for "
                            f"({uri!r}, {key!r}) but the LWW fold of its "
                            f"applied entries wins with {model.stamp()}")
            if (model.deleted and actual is not None and not actual.deleted
                    and held < model.stamp()):
                self._file(RESURRECTION, f"replica {replica} resurrected "
                                         f"({uri!r}, {key!r}): live entry stamp "
                                         f"{held} predates its applied tombstone "
                                         f"{model.stamp()} — the tombstone was "
                                         f"collected before every peer acked past it")

        return on_apply

    def _on_record(self, replica: str, server, prev, sharded: bool):
        store = server.store

        def on_record(record) -> None:
            if prev is not None:
                prev(record)
            origin = record.origin
            slot = (replica, origin)
            seen = self._seen.setdefault(slot, set())
            seen.add(record.seq)
            water = max(self._water.get(slot, 0), store.compacted.get(origin, 0))
            while water + 1 in seen:
                water += 1
            self._water[slot] = water
            vec = store.vector.get(origin, 0)
            if vec > water:
                self._file(COMPACTION, f"replica {replica} advanced "
                                       f"vector[{origin!r}] to {vec} but its "
                                       f"contiguous knowledge ends at {water} — "
                                       f"a gapped batch bumped the vector past "
                                       f"records it never applied")
            if sharded and origin == store.server_id and self._stray(replica, server, record):
                self._file(OWNERSHIP, f"replica {replica} (shard {server.sid}, epoch "
                                      f"{server.epoch}) locally accepted a live write "
                                      f"for {record.uri!r}, which its own map routes "
                                      f"to {server.map.route(record.uri)} — a "
                                      f"stale-epoch write got past the ownership fence")

        return on_record

    def _stray(self, replica: str, server, record) -> bool:
        """Is this local accept a fresh live write for a name the
        replica's own map routes elsewhere, with no map adopted just
        now to excuse it?"""
        entry, now = record.entry, self.sim.now
        if entry.deleted or record.uri == MAP_URI or now - entry.wall > self.FRESH_WINDOW:
            return False  # a moved marker, the map itself, a journal replay
        if server.map is None or server.owns(record.uri):
            return False
        return now - self._adopted_at.get(replica, -1e18) >= self.ADOPT_GRACE

    def check_quiescent(self, claim: str, keep: Callable[[str, str], bool],
                        groups: Optional[Dict[str, Dict[str, Any]]] = None,
                        route: Optional[Callable[[str], str]] = None) -> bool:
        """After settle: within each replica group (*groups*, else every
        attached replica as one), every replica shows the same live
        registers among those *keep* selects — else *claim* is filed.
        With *route* (the final shard map's), a live name must also be
        visible only in the group that *route* names. True iff every
        group agreed."""
        agreed = True
        visible_in: Dict[str, List[str]] = {}
        for gid, group in sorted((groups or {"catalog": self.servers}).items()):
            views = {
                replica: {(uri, key): entry.stamp()
                          for uri, bucket in server.store.data.items()
                          for key, entry in bucket.items()
                          if not entry.deleted and keep(uri, key)}
                for replica, server in sorted(group.items())
            }
            regs = sorted(set().union(*views.values()))
            diffs = [f"{reg}: " + ", ".join(f"{r}={v.get(reg)}" for r, v in views.items())
                     for reg in regs if len({v.get(reg) for v in views.values()}) > 1]
            if diffs:
                agreed = False
                self._file(claim, f"replicas of {gid} disagree at quiescence on "
                                  f"{len(diffs)} register(s): {'; '.join(diffs[:5])}")
            if route is None:
                continue
            for uri in sorted({uri for uri, _key in regs}):
                visible_in.setdefault(uri, []).append(gid)
                if route(uri) != gid:
                    self._file(claim, f"{uri!r} still live in shard {gid} at "
                                      f"quiescence but the final map routes it "
                                      f"to {route(uri)}")
        for uri, gids in sorted(visible_in.items()):
            if len(gids) > 1:
                self._file(claim, f"{uri!r} visible in {len(gids)} shard groups at "
                                  f"quiescence ({', '.join(gids)}) — a split left "
                                  f"the name live on both sides of the boundary")
        return agreed

    def check_tasks(self, urns: List[str]) -> None:
        """After settle (the star workload): the replicas agree on each
        task's state, and it is terminal — ``lww-convergence``."""
        done = set(urns)
        if not self.check_quiescent(LWW, lambda uri, key: key == "state" and uri in done):
            return
        store = next(iter(self.servers.values())).store
        for urn in urns:
            state = store.get(urn, "state")
            if state not in TaskState.TERMINAL:
                self._file(LWW, f"{urn} not terminal at quiescence: {state}")


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
