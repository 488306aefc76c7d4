"""Client-side file access: write anywhere, read the closest replica.

Reads verify the payload against the LIFN's registered content hash —
the end-to-end integrity guarantee RCDS promises (§2.1) — and fail over
to the next-closest replica when a server is dead or a copy corrupt.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

from repro.files.server import FILE_PORT
from repro.rcds import uri as uri_mod
from repro.rcds.client import RCClient
from repro.rcds.lifn import LifnRegistry
from repro.robust import TIMEOUTS
from repro.robust.replicas import ReplicaClient, discover
from repro.robust.retry import RetryPolicy
from repro.security.hashes import content_hash

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.host import Host


class FileError(Exception):
    """No replica reachable, or all reachable replicas failed integrity."""


class FileClient(ReplicaClient):
    """File operations from one host against the replicated file service."""

    def __init__(
        self,
        host: "Host",
        rc: RCClient,
        secret: Optional[bytes] = None,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        # *retry* governs rounds over the replica set: a round where
        # every replica fails (FileError) is retried under it.
        super().__init__(host, "file", secret, retry)
        self.rc = rc
        self.lifns = LifnRegistry(rc)
        self.integrity_failures = 0

    # -- server discovery ---------------------------------------------------
    def file_servers(self):
        """Registered file servers as (host, port) pairs (a process)."""
        return self.sim.process(discover(self.rc, "fileserver"), name="fs-discover")

    # -- write ------------------------------------------------------------------
    def write(self, lifn: str, payload: Any, size: int, server: Optional[tuple] = None):
        """Store *payload* as *lifn* on a file server (local one preferred)."""
        return self.sim.process(self._write(lifn, payload, size, server), name=f"fwrite:{lifn}")

    def _write(self, lifn: str, payload: Any, size: int, server: Optional[tuple]):
        args = {"timeout": TIMEOUTS["file.put"], "_size": size,
                "name": lifn, "payload": payload, "size": size}

        def one_round(_attempt: int):
            target = server
            if target is None:
                servers = yield from discover(self.rc, "fileserver")
                if not servers:
                    raise FileError("no file servers registered")
                local = [s for s in servers if s[0] == self.host.name]
                target = local[0] if local else servers[0]
            # One chosen server, no failover: a write lands where asked.
            done, errors = yield from self.walk([target], "file.put", args)
            if not done:
                raise FileError(f"write {lifn!r} to {target}: {errors[0][1]}")
            return done[0][1]

        return self.rounds(one_round, (FileError,), op="file.put")

    # -- read ---------------------------------------------------------------------
    def read(self, lifn: str, verify: bool = True):
        """Fetch *lifn* from the closest replica, verifying integrity."""
        return self.sim.process(self._read(lifn, verify), name=f"fread:{lifn}")

    def _distance(self, server_host: str) -> int:
        """Closest-first (§6): this host, then a shared segment, then the rest."""
        if server_host == self.host.name:
            return 0
        topo = self.host.topology
        if server_host in topo.hosts and topo.shared_segments(self.host.name, server_host):
            return 1
        return 2

    def _read(self, lifn: str, verify: bool):
        def one_round(_attempt: int):
            locations = yield self.lifns.locations(lifn)
            if not locations:
                raise FileError(f"no replicas registered for {lifn!r}")
            expected_hash = yield self.lifns.content_hash(lifn)

            def intact(_replica, result) -> Optional[str]:
                if verify and expected_hash is not None:
                    if content_hash(result["payload"]) != expected_hash:
                        self.integrity_failures += 1
                        return "integrity check failed"
                return None

            # Sick replicas sort after every healthy one at any distance:
            # quarantine first, topology second, URL as the tie-break.
            located = [(uri_mod.host_of(url), url) for url in locations]
            nearest = sorted((self._distance(h), url, h) for h, url in located if h is not None)
            replicas = self.sick_last([(h, FILE_PORT, url) for _, url, h in nearest])
            done, errors = yield from self.walk(
                replicas, "file.get", {"timeout": TIMEOUTS["file.get"], "name": lifn},
                accept=intact,
            )
            if not done:
                errors = [f"{replica[2]}: {why}" for replica, why in errors]
                raise FileError(f"all replicas of {lifn!r} failed: {errors}")
            (replica, result), = done
            result["location"] = replica[2]
            return result

        return self.rounds(one_round, (FileError,), op="file.get")
