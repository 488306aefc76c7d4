"""The file server process: storage, RPC access, sinks and sources."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Optional

from repro.bulk.chunks import DEFAULT_CHUNK_SIZE
from repro.rcds import uri as uri_mod
from repro.rcds.client import ONE, RCClient
from repro.rcds.lifn import LifnRegistry
from repro.rpc import RpcServer, Sized, payload_size
from repro.security.hashes import content_hash
from repro.sim.errors import Interrupt
from repro.transport.srudp import SrudpEndpoint

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.host import Host

#: Well-known file server port.
FILE_PORT = 2100

_sink_ids = itertools.count(1)

#: Sentinel payload closing a sink's stream.
_EOF = "__snipe_file_eof__"


@dataclass
class VirtualFile:
    """A stored file: opaque payload plus byte accounting and a hash."""

    name: str
    payload: Any
    size: int
    hash: str
    gets: int = 0
    #: Chunked payloads (from sinks) keep their message list.
    chunks: Optional[list] = None


class FileServer:
    """One replica server. Registers itself as a fileserver service in RC
    metadata so clients and replication daemons can find it."""

    def __init__(
        self,
        host: "Host",
        rc: RCClient,
        port: int = FILE_PORT,
        secret: Optional[bytes] = None,
        protocols: tuple = ("snipe", "http", "ftp"),
    ) -> None:
        self.sim = host.sim
        self.host = host
        self.rc = rc
        self.port = port
        self.protocols = protocols
        self.files: Dict[str, VirtualFile] = {}
        self.lifns = LifnRegistry(rc)
        self.rpc = RpcServer(host, port, secret=secret)
        self.rpc.register("file.put", self._h_put)
        self.rpc.register("file.get", self._h_get)
        self.sim.process(self._register(), name=f"fs-reg:{host.name}")

    def _register(self):
        try:
            yield self.rc.update(
                uri_mod.service_urn("fileserver"),
                {f"location:{self.host.name}:{self.port}": True},
            )
            yield self.rc.update(
                f"snipe://{self.host.name}/fileserver",
                {"accepts": list(self.protocols), "provides": list(self.protocols)},
            )
        except Exception:
            pass

    # -- direct storage API ------------------------------------------------
    def store(self, name: str, payload: Any, size: int, chunks: Optional[list] = None) -> VirtualFile:
        vf = VirtualFile(
            name=name,
            payload=payload,
            size=size,
            hash=content_hash(payload),
            chunks=chunks,
        )
        self.files[name] = vf
        return vf

    def location_url(self, name: str) -> str:
        return uri_mod.file_url(self.host.name, name)

    def bind_lifn(self, name: str):
        """Advertise our replica of *name* in the LIFN registry (a process).

        Registration prefers a quorum write (bind-then-resolve reads its
        own writes), but degrades to ONE when no quorum answers — a gray
        peer or a one-way link must not turn a durable local write into a
        hard failure. The locally-registered location spreads by
        anti-entropy; a briefly-stale LIFN beats a failed checkpoint.
        """
        vf = self.files[name]
        url = self.location_url(name)
        return self.sim.process(self._bind_lifn(name, url, vf.hash),
                                name=f"fs-bind:{name}")

    def _bind_lifn(self, name: str, url: str, vhash):
        try:
            yield self.lifns.bind(name, url, content_hash=vhash)
        except Exception:
            yield self.lifns.bind(name, url, content_hash=vhash, consistency=ONE)

    # -- sinks and sources (§5.9) ------------------------------------------------
    def spawn_sink(self, name: str):
        """Spawn a file sink; returns (port, done_event).

        The sink reads SNIPE messages sent to its port and stores them
        into file *name* when the EOF sentinel arrives; done_event fires
        with the stored :class:`VirtualFile` after the LIFN is bound.
        """
        port = self.host.ephemeral_port()
        ep = SrudpEndpoint(self.host, port)
        done = self.sim.event()
        self.sim.process(self._sink(name, ep, done), name=f"sink:{name}@{self.host.name}")
        return port, done

    def _sink(self, name: str, ep: SrudpEndpoint, done):
        chunks = []
        total = 0
        try:
            while True:
                msg = yield ep.recv()
                if msg.payload == _EOF:
                    break
                chunks.append(msg.payload)
                total += msg.size
            vf = self.store(name, payload=tuple(chunks), size=total, chunks=chunks)
            yield self.bind_lifn(name)
            done.succeed(vf)
        except Interrupt:
            if not done.triggered:
                done.fail(RuntimeError(f"sink for {name!r} interrupted"))
        finally:
            ep.close()

    def spawn_source(
        self, name: str, dst_host: str, dst_port: int,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
    ):
        """Spawn a file source streaming *name* to a SNIPE address.

        ``chunk_size`` defaults to the system-wide bulk chunk size
        (:data:`repro.bulk.chunks.DEFAULT_CHUNK_SIZE`) so sources, the
        bulk plane, and the MPI pipeliner stream in the same units.
        Returns the source process; its value is the number of messages
        sent (excluding EOF).
        """
        if name not in self.files:
            raise KeyError(f"no file {name!r} on {self.host.name}")
        return self.sim.process(
            self._source(name, dst_host, dst_port, chunk_size),
            name=f"source:{name}@{self.host.name}",
        )

    def _source(self, name: str, dst_host: str, dst_port: int, chunk_size: int):
        vf = self.files[name]
        ep = SrudpEndpoint(self.host, self.host.ephemeral_port())
        try:
            sent = 0
            if vf.chunks is not None:
                for chunk in vf.chunks:
                    yield ep.send(dst_host, dst_port, chunk, payload_size(chunk))
                    sent += 1
            else:
                remaining = vf.size
                while remaining > 0 or sent == 0:
                    n = min(chunk_size, remaining) if remaining else 1
                    yield ep.send(dst_host, dst_port, (name, sent), n)
                    remaining -= n
                    sent += 1
            yield ep.send(dst_host, dst_port, _EOF, 16)
            return sent
        finally:
            ep.close()

    # -- RPC handlers -----------------------------------------------------------
    def _h_put(self, args: Dict) -> Dict:
        vf = self.store(args["name"], args["payload"], args["size"], args.get("chunks"))

        def finish():
            yield self.bind_lifn(args["name"])
            return {"hash": vf.hash, "location": self.location_url(args["name"])}

        return finish()

    def _h_get(self, args: Dict):
        vf = self.files.get(args["name"])
        if vf is None:
            raise KeyError(f"no file {args['name']!r}")
        vf.gets += 1
        # The response carries the file body: charge its declared size.
        return Sized(
            {"payload": vf.payload, "size": vf.size, "hash": vf.hash}, size=vf.size + 128
        )
