"""SnipeEnvironment: one-stop construction of a complete SNIPE site.

The examples and benchmarks all start here: declare segments and hosts,
say which hosts carry RC replicas / file servers / resource managers,
register programs, spawn, run. Hosts booted into SNIPE get a daemon whose
``context_factory`` is the full :class:`SnipeContext`, so every spawned
program speaks the complete client API.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.bulk.distribute import Distributor
from repro.bulk.service import BulkService
from repro.core.process import SnipeContext
from repro.daemon.daemon import SnipeDaemon
from repro.daemon.mcast import McastService
from repro.daemon.tasks import ProgramRegistry, TaskInfo, TaskSpec
from repro.files.client import FileClient
from repro.files.replicate import ReplicationDaemon
from repro.files.server import FileServer
from repro.guardian.guardian import GUARDIAN_PORT, Guardian
from repro.net.failures import FailureInjector
from repro.net.media import ETHERNET_100, Medium
from repro.net.segment import Segment
from repro.net.topology import Topology
from repro.rcds.client import RCClient
from repro.rcds.server import RCServer
from repro.rcds.shard import ROOT_SID, ShardedRCClient, ShardManager, ShardRCServer
from repro.rm.client import RmClient
from repro.rm.manager import ResourceManager
from repro.sim.kernel import Simulator


class SnipeEnvironment:
    """Builder + registry for a simulated SNIPE deployment."""

    def __init__(self, seed: int = 0, secret: Optional[bytes] = None) -> None:
        self.sim = Simulator(seed=seed)
        self.topology = Topology(self.sim)
        self.programs = ProgramRegistry()
        self.failures = FailureInjector(self.sim, self.topology)
        self.secret = secret
        self.rc_replicas: List[Tuple[str, int]] = []
        self.rc_servers: Dict[str, RCServer] = {}
        self.daemons: Dict[str, SnipeDaemon] = {}
        self.file_servers: Dict[str, FileServer] = {}
        self.replication_daemons: Dict[str, ReplicationDaemon] = {}
        self.bulk_services: Dict[str, BulkService] = {}
        self.rms: Dict[str, ResourceManager] = {}
        self.guardians: Dict[str, Guardian] = {}
        self.shard_manager: Optional[ShardManager] = None
        self._clients: Dict[str, RCClient] = {}

    # -- topology ---------------------------------------------------------
    def add_segment(self, name: str, medium: Medium = ETHERNET_100) -> Segment:
        return self.topology.add_segment(name, medium)

    def add_host(self, name: str, segments: Sequence[str] = (), **host_kw):
        host = self.topology.add_host(name, **host_kw)
        for seg_name in segments:
            self.topology.connect(host, self.topology.segments[seg_name])
        return host

    # -- services -----------------------------------------------------------
    def add_rc_servers(self, host_names: Sequence[str], sharded: bool = False,
                       **server_kw) -> List[RCServer]:
        """Place RC replicas on the named hosts (they peer with each other).

        With ``sharded=True`` the group is built from shard-aware
        servers (the future *root directory* group) so
        :meth:`enable_sharding` can adopt it."""
        self.rc_replicas = [(name, 385) for name in host_names]
        servers = []
        for name in host_names:
            peers = [r for r in self.rc_replicas if r[0] != name]
            if sharded:
                server: RCServer = ShardRCServer(
                    self.topology.hosts[name], ROOT_SID, ("",),
                    root_replicas=self.rc_replicas, peers=peers,
                    secret=self.secret, **server_kw)
            else:
                server = RCServer(
                    self.topology.hosts[name], peers=peers, secret=self.secret,
                    **server_kw)
            self.rc_servers[name] = server
            servers.append(server)
        return servers

    def enable_sharding(self, **manager_kw) -> ShardManager:
        """Federate the catalog: the replicas from ``add_rc_servers(...,
        sharded=True)`` become the root directory group and every
        subsequent :meth:`rc_client` (daemons, guardians, RMs, programs)
        routes through a :class:`ShardedRCClient`. Call before any
        client exists; carve initial shards with
        ``shard_manager.add_shard`` before traffic starts."""
        if self.shard_manager is not None:
            return self.shard_manager
        if not self.rc_servers:
            raise RuntimeError("add_rc_servers(sharded=True) must run first")
        if not all(isinstance(s, ShardRCServer) for s in self.rc_servers.values()):
            raise RuntimeError("root replicas are not shard-aware: "
                               "use add_rc_servers(..., sharded=True)")
        if self._clients:
            raise RuntimeError("enable_sharding() must run before rc_client()")
        self.shard_manager = ShardManager(
            self.sim, self.topology.hosts, self.rc_replicas,
            secret=self.secret, **manager_kw)
        self.shard_manager.register_root(
            {s.store.server_id: s for s in self.rc_servers.values()})
        return self.shard_manager

    def all_rc_servers(self) -> Dict[str, RCServer]:
        """Every catalog replica on the site keyed by server id — the
        root/full-replication group plus, when sharding is enabled,
        every shard group (the check oracles' attach surface)."""
        out: Dict[str, RCServer] = {
            s.store.server_id: s for s in self.rc_servers.values()
        }
        if self.shard_manager is not None:
            out.update(self.shard_manager.all_servers())
        return out

    def rc_client(self, host_name: str) -> RCClient:
        """An RC client bound to *host* (cached per host). On a sharded
        site this is the facade — same API, map-routed underneath."""
        client = self._clients.get(host_name)
        if client is None:
            if not self.rc_replicas:
                raise RuntimeError("add_rc_servers() must run before clients")
            if self.shard_manager is not None:
                client = ShardedRCClient(
                    self.topology.hosts[host_name], self.rc_replicas,
                    secret=self.secret)
            else:
                client = RCClient(
                    self.topology.hosts[host_name], self.rc_replicas,
                    secret=self.secret)
            self._clients[host_name] = client
        return client

    def boot_daemon(self, host_name: str, mcast: bool = True, **daemon_kw) -> SnipeDaemon:
        """Start the SNIPE daemon (with the full client context) on a host."""
        daemon = SnipeDaemon(
            self.topology.hosts[host_name],
            self.rc_client(host_name),
            self.programs,
            secret=self.secret,
            context_factory=SnipeContext,
            **daemon_kw,
        )
        if mcast:
            McastService(daemon)
        self.daemons[host_name] = daemon
        return daemon

    def add_file_server(self, host_name: str) -> FileServer:
        """A file server on *host_name* with its replication daemon."""
        server = FileServer(
            self.topology.hosts[host_name], self.rc_client(host_name), secret=self.secret
        )
        self.file_servers[host_name] = server
        self.replication_daemons[host_name] = ReplicationDaemon(server, secret=self.secret)
        return server

    def add_bulk_service(self, host_name: str, **bulk_kw) -> BulkService:
        """Put a bulk-plane endpoint on a host."""
        service = BulkService(
            self.topology.hosts[host_name], self.rc_client(host_name),
            secret=self.secret, **bulk_kw,
        )
        self.bulk_services[host_name] = service
        return service

    def bulk_distributor(self, root: str, fanout: int = 2) -> Distributor:
        """A distributor rooted at *root* over every bulk service."""
        return Distributor(self.topology, self.bulk_services, root, fanout=fanout)

    def add_rm(self, host_name: str, port: int = 3600, **rm_kw) -> ResourceManager:
        rm = ResourceManager(
            self.topology.hosts[host_name],
            self.rc_client(host_name),
            port=port,
            secret=self.secret,
            **rm_kw,
        )
        self.rms[host_name] = rm
        return rm

    def add_guardian(self, host_name: str, port: int = GUARDIAN_PORT, **kw) -> Guardian:
        """Place a guardian on a host (boot its daemon first so notify
        delivery works); run at least two for a self-healing site."""
        guardian = Guardian(
            self.topology.hosts[host_name],
            self.rc_client(host_name),
            daemon=self.daemons.get(host_name),
            port=port,
            secret=self.secret,
            **kw,
        )
        self.guardians[host_name] = guardian
        return guardian

    # -- clients for hosts/programs ------------------------------------------
    def file_client(self, host_name: str) -> FileClient:
        return FileClient(
            self.topology.hosts[host_name], self.rc_client(host_name), secret=self.secret
        )

    def rm_client(self, host_name: str) -> RmClient:
        return RmClient(
            self.topology.hosts[host_name], self.rc_client(host_name), secret=self.secret
        )

    # -- programs & spawning ------------------------------------------------------
    def register_program(self, name: str, fn) -> None:
        self.programs.register(name, fn)

    def program(self, name: str):
        """Decorator form: ``@env.program("worker")``."""

        def deco(fn):
            self.programs.register(name, fn)
            return fn

        return deco

    def spawn(self, spec_or_program, on: str, **params) -> TaskInfo:
        """Spawn directly on a host's daemon (bypassing the RMs)."""
        if isinstance(spec_or_program, TaskSpec):
            spec = spec_or_program
        else:
            spec = TaskSpec(program=spec_or_program, params=params)
        return self.daemons[on].spawn(spec)

    # -- execution -------------------------------------------------------------
    def run(self, until=None):
        return self.sim.run(until=until)

    def settle(self, seconds: float = 2.0) -> None:
        """Run briefly so daemons/servers register their metadata."""
        self.sim.run(until=self.sim.now + seconds)

    # -- canned sites ---------------------------------------------------------------
    @classmethod
    def lan_site(
        cls,
        n_hosts: int,
        n_rc: int = 3,
        n_rm: int = 1,
        n_fs: int = 0,
        medium: Medium = ETHERNET_100,
        seed: int = 0,
        mcast: bool = True,
        settle: float = 2.0,
        **host_kw,
    ) -> "SnipeEnvironment":
        """A single-LAN site with services spread over the first hosts."""
        env = cls(seed=seed)
        env.add_segment("lan", medium)
        for i in range(n_hosts):
            env.add_host(f"h{i}", segments=["lan"], **host_kw)
        env.add_rc_servers([f"h{i}" for i in range(min(n_rc, n_hosts))])
        for i in range(n_hosts):
            env.boot_daemon(f"h{i}", mcast=mcast)
        for i in range(min(n_rm, n_hosts)):
            env.add_rm(f"h{i}", port=3600 + i)
        for i in range(min(n_fs, n_hosts)):
            env.add_file_server(f"h{i}")
        if settle > 0:
            env.settle(settle)
        return env
