"""Replication daemons (§3.2).

    "Replication daemons on these servers communicate with one another,
    creating and deleting replicas of files according to local policy,
    redundancy requirements, and demand. Name-to-location binding for
    these files is maintained by metadata servers, which are informed as
    replicas are created and deleted."

Policy implemented: every local file is pushed to peers until it has at
least ``redundancy`` registered locations; files whose read rate exceeds
``HOT_THRESHOLD`` gets/second earn extra replicas up to ``MAX_REPLICAS``.
Over-replicated cold files are trimmed (never below the target, and a
server only deletes its *own* replica).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.files.server import FileServer
from repro.rcds import uri as uri_mod
from repro.robust.replicas import discover
from repro.rpc import RpcClient, RpcError
from repro.sim.errors import Interrupt

#: Read rate (gets/second) above which a file is hot...
HOT_THRESHOLD = 10.0
#: ...and the replica count a hot file is expanded to.
MAX_REPLICAS = 5


class ReplicationDaemon:
    """One per file server; wakes periodically and enforces the policy."""

    def __init__(
        self,
        server: FileServer,
        redundancy: int = 2,
        interval: float = 2.0,
        secret: Optional[bytes] = None,
    ) -> None:
        self.server = server
        self.sim = server.sim
        self.redundancy = redundancy
        self.interval = interval
        self._rpc = RpcClient(server.host, secret=secret)
        self._last_gets: Dict[str, int] = {}
        self.replicas_created = 0
        self.replicas_deleted = 0
        self.sim.process(self._run(), name=f"repl:{server.host.name}")

    def _run(self):
        rng = self.sim.rng.stream(f"replication.{self.server.host.name}")
        try:
            while True:
                yield self.sim.timeout(self.interval * (0.5 + rng.random()))
                if not self.server.host.up:
                    continue
                yield from self._pass(rng)
        except Interrupt:
            return

    def _pass(self, rng):
        """One wakeup: read every local file's locations and the peer set
        in two catalog requests, whatever the file count, then apply the
        policy file by file. A failed read skips the whole pass."""
        names = list(self.server.files)
        if not names:
            return
        try:
            locations = yield self.server.lifns.locations_many(names)
            servers = yield from discover(self.server.rc, "fileserver")
        except Exception:
            return
        for name in names:
            yield from self._consider(name, rng, locations[name], servers)

    def _consider(self, name: str, rng, locations, servers):
        vf = self.server.files.get(name)
        if vf is None:
            return
        # Demand estimate: gets since the last wakeup, per second.
        prev = self._last_gets.get(name, 0)
        rate = (vf.gets - prev) / max(self.interval, 1e-9)
        self._last_gets[name] = vf.gets
        target = self.redundancy
        if rate > HOT_THRESHOLD:
            target = MAX_REPLICAS  # demand-driven expansion
        if len(locations) < target:
            # Push to a peer that lacks a replica.
            holders = {uri_mod.host_of(u) for u in locations}
            candidates = [s for s in servers if s[0] not in holders and s[0] != self.server.host.name]
            if candidates:
                peer = candidates[rng.randrange(len(candidates))]
                try:
                    yield self._rpc.call(
                        peer[0], peer[1], "file.put",
                        timeout=5.0, _size=vf.size,
                        name=name, payload=vf.payload, size=vf.size,
                    )
                    self.replicas_created += 1
                except RpcError:
                    pass
        elif len(locations) > max(target, self.redundancy) and rate == 0.0:
            # Trim our own cold excess replica (never drop below target).
            our_url = self.server.location_url(name)
            if our_url in locations and len(locations) - 1 >= self.redundancy:
                del self.server.files[name]
                self.replicas_deleted += 1
                try:
                    yield self.server.lifns.unbind(name, our_url)
                except Exception:
                    pass
