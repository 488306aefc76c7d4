"""One shard's catalog replica: an RCServer that knows its ownership.

A :class:`ShardRCServer` is a normal RC replica — journals, anti-
entropy, compaction, snapshot catch-up all inherited — plus three
shard-aware behaviours:

* **Epoch fencing.** Writes (and lookups) for names the current shard
  map assigns elsewhere are refused with a ``shard-redirect`` error
  instead of being accepted. The refusing reply still proves the server
  alive, so breakers and health boards don't punish it; the client
  facade reacts by refreshing the map and re-routing. This fence is the
  safety property the ``--bug stale-epoch-write`` switch disables: with
  :attr:`epoch_fencing_enabled` False, a client holding a pre-split map
  silently lands writes in the parent shard after the map advanced.

* **Config adoption.** The server adopts any newer map the director
  pushes (``rc.shard_config``) or that its periodic refresh reads from
  the root group, updating its owned prefixes, its epoch, and its
  anti-entropy peer set. Adoption emits a
  ``shard.config`` probe, which is how the check oracle knows exactly
  what each server believed when it accepted a write.

* **Handoff.** After a split (or any stray merge), a janitor loop scans
  for names the map routes elsewhere and moves them to the owning
  group: live registers and real tombstones ship via ``rc.install``
  with their LWW stamps preserved, then the local copy is overwritten
  with a *moved* tombstone. The moved marker is never forwarded — and
  replicates to group peers, so each name migrates once per replica at
  most — while a racing client write with a newer stamp still beats the
  migrated value at the destination.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.rcds.records import MOVED, Entry
from repro.rcds.server import SYNC_SPACING, RCServer
from repro.rcds.shard.map import MAP_KEY, MAP_URI, ShardMap
from repro.robust import TIMEOUTS
from repro.robust.overload import BULK, CONTROL
from repro.rpc import RpcError
from repro.sim.errors import Interrupt

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.host import Host

#: Mean period of the janitor loop (jittered by ±25 %).
HANDOFF_INTERVAL = 0.5
#: Least time between two reads of the published map from the root group.
MAP_REFRESH_INTERVAL = 2.0
#: Registers per ``rc.install`` batch; one janitor pass scans for at most
#: ``HANDOFF_ROUNDS`` batches' worth.
HANDOFF_BATCH = 64
HANDOFF_ROUNDS = 8


class ShardRedirect(Exception):
    """Raised by handlers for names this shard does not own; becomes an
    error reply carrying the owner and the server's epoch."""


class ShardRCServer(RCServer):
    """One replica of one shard, aware of the epoch-numbered map."""

    #: Model-checker bug switch (``--bug stale-epoch-write``): set False
    #: to drop the ownership fence in the write/lookup handlers, so a
    #: client routing on a stale pre-split map lands its writes in the
    #: parent shard after the epoch advanced. The shard oracle catches
    #: the acceptance at the moment it happens.
    epoch_fencing_enabled = True

    def __init__(
        self,
        host: "Host",
        sid: str,
        prefixes: Sequence[str],
        root_replicas: Optional[Sequence[Tuple[str, int]]] = None,
        **kw,
    ) -> None:
        self.sid = sid
        self.prefixes: Tuple[str, ...] = tuple(prefixes)
        self.epoch = 0
        self.map: Optional[ShardMap] = None
        # gc_grace discipline: a shard replica receives cross-group
        # imports (handoff), so its tombstones must outlive the longest
        # plausible janitor delay — a source replica can sit through a
        # whole crash/partition window before forwarding. The group's
        # vector-based GC guard cannot see foreign janitors at all.
        kw.setdefault("tombstone_grace", 30.0)
        super().__init__(host, **kw)
        self.root_replicas = [tuple(r) for r in (root_replicas or [])]
        self.redirects = 0
        self.handoffs = 0
        self._m_redirects = self.sim.obs.metrics.counter("rcds.redirects")
        self.rpc.register("rc.shard_config", self._h_shard_config)
        self.rpc.register("rc.install", self._h_install)
        #: Anything misplaced to look for? Set on config changes and on
        #: applies of foreign-owned names; cleared by a clean scan, so
        #: the steady state pays one flag check per janitor tick.
        self._handoff_dirty = True
        self._map_refreshed = -1e18
        prev_on_apply = self.store.on_apply

        def _watch_apply(uri: str, key: str, entry: Entry) -> None:
            if prev_on_apply is not None:
                prev_on_apply(uri, key, entry)
            # A due scan will find this name anyway: route nothing.
            if (not self._handoff_dirty and self.map is not None
                    and not self.owns(uri)):
                self._handoff_dirty = True

        self.store.on_apply = _watch_apply
        self.sim.process(self._shard_loop(), name=f"rc-shard:{self.store.server_id}")

    # -- ownership ----------------------------------------------------------
    def owns(self, uri: str) -> bool:
        """Does the *current* map route this name here? Before any map is
        adopted, the static prefixes given at construction decide."""
        if self.map is not None:
            return self.map.route(uri) == self.sid
        return any(uri.startswith(p) for p in self.prefixes)

    def _fence(self, uri: str, read: bool = False) -> None:
        if uri == MAP_URI or self.owns(uri):
            return
        if not self.epoch_fencing_enabled:
            return  # --bug stale-epoch-write: silently accept
        if read and self._holds_live(uri):
            # Serve-from-source-until-cutover: a read of a record this
            # replica still physically holds is just an eventually-
            # consistent read — LWW gives ONE-consistency reads no
            # freshness promise anyway, and the alternative (redirect to
            # a child whose install hasn't landed) reads empty. Once the
            # register ships, its moved marker flips this to a redirect,
            # and by then the child can serve it. Writes never pass: a
            # stale-routed write must bounce (the fence invariant the
            # shard-ownership oracle checks).
            return
        self.redirects += 1
        self._m_redirects.inc()
        owner = self.map.route(uri) if self.map is not None else "?"
        if self.sim.probes is not None:
            self.sim.probes.emit("shard.redirect", sid=self.sid,
                                 server=self.store.server_id, uri=uri,
                                 owner=owner, epoch=self.epoch)
        raise ShardRedirect(
            f"shard-redirect: {uri} owned by {owner} at epoch {self.epoch}")

    def _holds_live(self, uri: str) -> bool:
        bucket = self.store.data.get(uri)
        if not bucket:
            return False
        return any(not e.deleted for e in bucket.values())

    # -- fenced handlers ----------------------------------------------------
    def _h_lookup(self, args: Dict) -> Dict:
        self._fence(args["uri"], read=True)
        return super()._h_lookup(args)

    def _h_lookup_many(self, args: Dict) -> Dict:
        # One name this shard may not serve redirects the whole batch;
        # the client regroups it on the refreshed map.
        for uri in args["uris"]:
            self._fence(uri, read=True)
        return super()._h_lookup_many(args)

    def _h_update(self, args: Dict) -> Dict:
        self._fence(args["uri"])
        return super()._h_update(args)

    def _h_delete(self, args: Dict) -> Dict:
        self._fence(args["uri"])
        return super()._h_delete(args)

    # -- config -------------------------------------------------------------
    def _h_shard_config(self, args: Dict) -> Dict:
        self.adopt_map(ShardMap.from_dict(args["map"]))
        return {"sid": self.sid, "epoch": self.epoch}

    def adopt_map(self, new_map: ShardMap) -> bool:
        """Adopt a newer map: epoch, owned prefixes, and the anti-entropy
        peer set. Older maps are ignored (config pushes and periodic
        refreshes race freely)."""
        if self.map is not None and new_map.epoch <= self.epoch:
            return False
        self.map = new_map
        self.epoch = new_map.epoch
        info = new_map.shards.get(self.sid)
        if info is not None:
            self.prefixes = info.prefixes
            self.peers = [tuple(r) for r in info.replicas]
        self._handoff_dirty = True
        if self.sim.probes is not None:
            self.sim.probes.emit("shard.config", sid=self.sid,
                                 server=self.store.server_id,
                                 epoch=self.epoch,
                                 prefixes=list(self.prefixes))
        return True

    # -- migration receive --------------------------------------------------
    def _h_install(self, args: Dict):
        """Install registers migrated from another shard's replica group,
        preserving their LWW stamps (see ``RCStore.import_entry``)."""
        entries = args["entries"]
        yield from self._apply_delay(len(entries))
        n = 0
        for uri, key, entry in entries:
            if self.store.import_entry(uri, key, entry) is not None:
                n += 1
        return {"installed": n, "sid": self.sid, "epoch": self.epoch}

    # -- janitor ------------------------------------------------------------
    def _shard_loop(self):
        rng = self.sim.rng.stream(f"rc.shard.{self.store.server_id}")
        owner = f"rc-shard:{self.host.name}"
        try:
            while True:
                yield self.sim.timer_event(
                    HANDOFF_INTERVAL * (0.75 + 0.5 * rng.random()),
                    owner=owner)
                if not self.host.up:
                    continue
                if (self.root_replicas
                        and self.sim.now - self._map_refreshed
                        >= MAP_REFRESH_INTERVAL):
                    yield from self._refresh_map(rng)
                if self._handoff_dirty and self.map is not None:
                    yield from self._handoff_pass()
        except Interrupt:
            return

    def _refresh_map(self, rng) -> None:
        """Read the latest published map — locally when this server's own
        store holds it (root replicas), else from a root replica."""
        self._map_refreshed = self.sim.now
        value = self.store.get(MAP_URI, MAP_KEY)
        if value is None:
            order = list(self.root_replicas)
            rng.shuffle(order)
            for rhost, rport in order:
                if (rhost, rport) == (self.host.name, self.port):
                    continue
                try:
                    assertions = yield self._client.call(
                        rhost, rport, "rc.lookup", timeout=TIMEOUTS["rc.call"],
                        lane=CONTROL, uri=MAP_URI)
                except RpcError:
                    continue
                info = assertions.get(MAP_KEY)
                value = info["value"] if info else None
                break
        if isinstance(value, dict):
            self.adopt_map(ShardMap.from_dict(value))

    def _misplaced(self) -> Dict[str, List[Tuple[str, str, Entry]]]:
        """Registers the current map routes to another shard, grouped by
        owning sid. Moved markers are excluded — they are the record
        that migration already happened."""
        out: Dict[str, List[Tuple[str, str, Entry]]] = {}
        budget = HANDOFF_BATCH * HANDOFF_ROUNDS
        for uri in self.store.iter_uris():
            owner = self.map.route(uri)
            if owner == self.sid:
                continue
            for key, entry in self.store.data.get(uri, {}).items():
                if entry.deleted and entry.value == MOVED:
                    continue
                out.setdefault(owner, []).append((uri, key, entry))
                budget -= 1
            if budget <= 0:
                break
        return out

    def _handoff_pass(self):
        """Move one bounded slice of misplaced registers to their owning
        groups. Live entries and real tombstones ship stamp-preserved;
        each successfully shipped register is then overwritten locally
        with a moved marker (which replicates to group peers, so they
        don't re-forward the same migration)."""
        misplaced = self._misplaced()
        if not misplaced:
            self._handoff_dirty = False
            return
        for owner_sid, entries in sorted(misplaced.items()):
            info = self.map.shards.get(owner_sid)
            if info is None:
                continue
            for start in range(0, len(entries), HANDOFF_BATCH):
                batch = entries[start:start + HANDOFF_BATCH]
                if not (yield from self._install_on(info.replicas, batch)):
                    break  # owning group unreachable; retry next pass
                wall = self.host.clock()
                moved = 0
                for uri, key, entry in batch:
                    # Compare-and-mark: the install yielded, so a newer
                    # write or delete may have landed on this register in
                    # the meantime. Overwriting it with a moved marker
                    # would destroy a record that was never forwarded —
                    # leave it for the next pass instead.
                    cur = self.store.data.get(uri, {}).get(key)
                    if cur is None or (cur.wall, cur.lamport, cur.origin) != (
                            entry.wall, entry.lamport, entry.origin):
                        self._handoff_dirty = True
                        continue
                    self.store.mark_moved(uri, key, wall)
                    moved += 1
                self.handoffs += moved
                if self.sim.probes is not None:
                    self.sim.probes.emit(
                        "shard.handoff", src=self.sid, dst=owner_sid,
                        server=self.store.server_id, count=len(batch))
                yield self.sim.timeout(SYNC_SPACING)

    def _install_on(self, replicas, batch) -> bool:
        """Install *batch* on one reachable replica of the owning group;
        its own anti-entropy spreads the entries from there."""
        for rhost, rport in replicas:
            try:
                yield self._client.call(
                    rhost, rport, "rc.install", timeout=TIMEOUTS["rc.sync"],
                    lane=BULK, entries=batch)
                return True
            except RpcError:
                continue
        return False
