"""Client-side file access: write anywhere, read the closest replica.

Reads verify the payload against the LIFN's registered content hash —
the end-to-end integrity guarantee RCDS promises (§2.1) — and fail over
to the next-closest replica when a server is dead or a copy corrupt.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, List, Optional

from repro.files.server import FILE_PORT
from repro.rcds import uri as uri_mod
from repro.rcds.client import RCClient
from repro.rcds.lifn import LifnRegistry
from repro.robust import TIMEOUTS
from repro.robust.retry import RetryPolicy
from repro.rpc import RpcClient, RpcError
from repro.security.hashes import content_hash

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.host import Host


class FileError(Exception):
    """No replica reachable, or all reachable replicas failed integrity."""


class FileClient:
    """File operations from one host against the replicated file service."""

    def __init__(
        self,
        host: "Host",
        rc: RCClient,
        secret: Optional[bytes] = None,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        self.sim = host.sim
        self.host = host
        self.rc = rc
        self.lifns = LifnRegistry(rc)
        self._rpc = RpcClient(host, secret=secret)
        self.integrity_failures = 0
        #: Rounds over the replica set; a round where every replica fails
        #: (FileError) is retried under this policy.
        self.retry = retry or RetryPolicy.single()
        self._rng = host.sim.rng.stream(f"file-client.{host.name}")

    # -- server discovery ---------------------------------------------------
    def file_servers(self):
        """Registered file servers as (host, port) pairs (a process)."""
        return self.sim.process(self._file_servers(), name="fs-discover")

    def _file_servers(self) -> List:
        assertions = yield self.rc.lookup(uri_mod.service_urn("fileserver"))
        return uri_mod.locations_of(assertions)

    # -- write ------------------------------------------------------------------
    def write(self, lifn: str, payload: Any, size: int, server: Optional[tuple] = None):
        """Store *payload* as *lifn* on a file server (local one preferred)."""
        return self.sim.process(self._write(lifn, payload, size, server), name=f"fwrite:{lifn}")

    def _write(self, lifn: str, payload: Any, size: int, server: Optional[tuple]):
        def one_round(_attempt: int):
            target = server
            if target is None:
                servers = yield from self._file_servers()
                if not servers:
                    raise FileError("no file servers registered")
                local = [s for s in servers if s[0] == self.host.name]
                target = local[0] if local else servers[0]
            try:
                result = yield self._rpc.call(
                    target[0], target[1], "file.put",
                    timeout=TIMEOUTS["file.put"], _size=size,
                    name=lifn, payload=payload, size=size,
                )
            except RpcError as exc:
                raise FileError(f"write {lifn!r} to {target}: {exc}") from None
            return result

        return (
            yield from self.retry.run(
                self.sim, one_round, retry_on=(FileError,), rng=self._rng, op="file.put"
            )
        )

    # -- read ---------------------------------------------------------------------
    def read(self, lifn: str, verify: bool = True):
        """Fetch *lifn* from the closest replica, verifying integrity."""
        return self.sim.process(self._read(lifn, verify), name=f"fread:{lifn}")

    def _read(self, lifn: str, verify: bool):
        def one_round(_attempt: int):
            locations = yield self.lifns.locations(lifn)
            if not locations:
                raise FileError(f"no replicas registered for {lifn!r}")
            expected_hash = yield self.lifns.content_hash(lifn)
            # Closest-first ordering (§6).
            topo = self.host.topology

            def rank(url: str) -> tuple:
                h = uri_mod.host_of(url)
                # A replica behind an open circuit breaker or a health
                # quarantine sorts after every healthy one at any
                # distance: quarantine first, topology second.
                sick = bool(h) and (
                    self._rpc.breaker_open(h, FILE_PORT)
                    or self.host.health.is_quarantined(h)
                )
                if h == self.host.name:
                    return (sick, 0)
                if h in topo.hosts and topo.shared_segments(self.host.name, h):
                    return (sick, 1)
                return (sick, 2)

            errors = []
            for url in sorted(locations, key=lambda u: (rank(u), u)):
                server_host = uri_mod.host_of(url)
                if server_host is None:
                    continue
                try:
                    result = yield self._rpc.call(
                        server_host, FILE_PORT, "file.get",
                        timeout=TIMEOUTS["file.get"], name=lifn
                    )
                except RpcError as exc:
                    errors.append(f"{url}: {exc}")
                    continue
                if verify and expected_hash is not None:
                    if content_hash(result["payload"]) != expected_hash:
                        self.integrity_failures += 1
                        errors.append(f"{url}: integrity check failed")
                        continue
                result["location"] = url
                return result
            raise FileError(f"all replicas of {lifn!r} failed: {errors}")

        return (
            yield from self.retry.run(
                self.sim, one_round, retry_on=(FileError,), rng=self._rng, op="file.get"
            )
        )

    # -- sink/source conveniences (§5.9) ------------------------------------------
    def open_write(self, lifn: str, server_host: str, file_server) -> tuple:
        """Spawn a sink on *file_server*; returns (host, port, done_event).

        "Opening a file for writing thus consists of spawning a file sink
        process" — the caller then sends ordinary SNIPE messages to
        (host, port) and an EOF to close.
        """
        port, done = file_server.spawn_sink(lifn)
        return server_host, port, done
