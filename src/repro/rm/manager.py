"""The resource manager service (§3.5, §4).

Selection is metadata-driven: the RM queries host metadata (including the
daemons' published load gauges) from the RC catalog, filters by the
spec's requirements, and picks the least loaded candidate. In *active*
mode it then spawns as the requester's proxy (and may later suspend,
kill, or migrate the task); in *passive* mode it only records a
reservation and leaves the spawn to the requester.

Allocation goals (§3.5 "attempting to adhere to resource allocation
goals") are per-owner concurrency caps enforced before selection. An
owner at its goal first has the allocations whose task has ended
dropped, read from the task records in one ``lookup_many``. A passive
reservation carries no URN, so nothing says its task ended: it stays
held.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Dict, Optional

from repro.daemon.daemon import DAEMON_PORT
from repro.daemon.tasks import TaskSpec, TaskState
from repro.rcds import uri as uri_mod
from repro.rcds.client import RCClient
from repro.rm.selection import rank_hosts
from repro.rpc import RpcClient, RpcError, RpcServer

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.host import Host

#: Well-known resource manager port.
RM_PORT = 3600

PASSIVE = "passive"
ACTIVE = "active"

class AllocationError(Exception):
    """No suitable host, or an allocation goal would be violated."""


class ResourceManager:
    """One RM instance. Run several (on different hosts) for redundancy —
    they share no private state, so any of them can serve any request."""

    def __init__(
        self,
        host: "Host",
        rc: RCClient,
        port: int = RM_PORT,
        mode: str = ACTIVE,
        goals: Optional[Dict[str, int]] = None,
        secret: Optional[bytes] = None,
        service_time: float = 0.0,
    ) -> None:
        if mode not in (ACTIVE, PASSIVE):
            raise ValueError(f"unknown RM mode {mode!r}")
        self.sim = host.sim
        self.host = host
        self.rc = rc
        self.port = port
        self.mode = mode
        self.goals = goals or {}
        #: token -> {"owner", "host", "urn" (active mode)}
        self.allocations: Dict[int, Dict] = {}
        self.requests = 0
        self.rejects = 0
        metrics = self.sim.obs.metrics
        self._m_requests = metrics.counter("rm.requests")
        self._m_rejects = metrics.counter("rm.rejects")
        #: Request arrival to successful allocation (catalog queries,
        #: candidate ranking, and — in active mode — the daemon spawn RPC).
        self._m_spawn_latency = metrics.histogram("rm.spawn_latency")
        self._rng = self.sim.rng.stream(f"rm.{host.name}:{port}")
        self.rpc = RpcServer(host, port, secret=secret, service_time=service_time)
        self.rpc.register("rm.request", self._h_request)
        self.rpc.register("rm.kill", self._h_kill)
        self.rpc.register("rm.migrate", self._h_migrate)
        self._client = RpcClient(host, secret=secret)
        self.sim.process(self._register(), name=f"rm-reg:{host.name}")

    def _register(self):
        try:
            yield self.rc.update(
                uri_mod.service_urn("rm"),
                {f"location:{self.host.name}:{self.port}": True},
            )
        except Exception:
            pass

    # -- selection ------------------------------------------------------------
    def _owner_allocations(self, owner: str) -> int:
        return sum(1 for a in self.allocations.values() if a["owner"] == owner)

    def _release_ended(self, owner: str):
        """Drop *owner*'s active-mode allocations whose task record shows
        a terminal state (one ``lookup_many``; a failed read fails the
        request)."""
        urns = {token: a["urn"] for token, a in self.allocations.items()
                if a["owner"] == owner and a["urn"]}
        if not urns:
            return
        records = yield self.rc.lookup_many(list(urns.values()))
        for token, urn in urns.items():
            if (records[urn].get("state") or {}).get("value") in TaskState.TERMINAL:
                del self.allocations[token]

    def _collect_host_metadata(self):
        """Pull candidate host metadata from the catalog: one ``query``
        and one ``lookup_many``. A failed read fails the request, which
        the requester's RM client then retries on another RM."""
        urls = yield self.rc.query("snipe://")
        hosts = uri_mod.host_records(urls)
        records = yield self.rc.lookup_many(list(hosts))
        return {host: records[url] for url, host in hosts.items()
                if "daemon" in records[url]}

    def _select(self, spec: TaskSpec):
        metadata = yield from self._collect_host_metadata()
        return rank_hosts(spec, metadata, rng=self._rng, now=self.sim.now,
                          health=self.host.health)

    # -- RPC handlers -----------------------------------------------------------
    def _h_request(self, args: Dict):
        return self._request(args["spec"], args.get("owner", "anonymous"))

    def _request(self, spec: TaskSpec, owner: str):
        self.requests += 1
        self._m_requests.inc()
        t0 = self.sim.now
        goal = self.goals.get(owner)
        if goal is not None and self._owner_allocations(owner) >= goal:
            yield from self._release_ended(owner)
            if self._owner_allocations(owner) >= goal:
                self.rejects += 1
                self._m_rejects.inc()
                raise AllocationError(
                    f"allocation goal: {owner} already holds {goal} allocations"
                )
        ranked = yield from self._select(spec)
        if not ranked:
            self.rejects += 1
            self._m_rejects.inc()
            raise AllocationError(f"no host satisfies {spec.program!r} requirements")
        # Per-simulation, like every identity counter: the token's digits
        # are payload bytes, so a process-global one would make a run's
        # timing depend on how many simulations came before it.
        token = self.sim.sequence("rm.token")
        if self.mode == PASSIVE:
            # Reserve only; the requester performs the spawn itself (§3.5).
            chosen = ranked[0]
            self.allocations[token] = {"owner": owner, "host": chosen, "urn": None}
            self._m_spawn_latency.observe(self.sim.now - t0)
            return {"token": token, "host": chosen, "mode": PASSIVE}
        errors = []
        for candidate in ranked:
            try:
                result = yield self._client.call(
                    candidate, DAEMON_PORT, "daemon.spawn",
                    timeout=2.0, spec=spec, direct=True,
                )
                self.allocations[token] = {
                    "owner": owner, "host": candidate, "urn": result["urn"],
                }
                self._m_spawn_latency.observe(self.sim.now - t0)
                return {
                    "token": token, "host": candidate,
                    "urn": result["urn"], "mode": ACTIVE,
                    # A fenced respawn's incarnation, which is its fence.
                    "incarnation": result.get("incarnation"),
                }
            except RpcError as exc:
                errors.append(f"{candidate}: {exc}")
                continue
        self.rejects += 1
        self._m_rejects.inc()
        raise AllocationError(f"all candidates failed: {errors}")

    def _task_call(self, urn: str, method: str):
        """Forward a control action to the daemon supervising *urn*."""
        meta = yield self.rc.lookup(urn)
        host = (meta.get("host") or {}).get("value")
        if host is None:
            raise KeyError(f"unknown task {urn!r}")
        result = yield self._client.call(host, DAEMON_PORT, method, timeout=2.0, urn=urn)
        return result

    def _h_kill(self, args: Dict):
        return self._task_call(args["urn"], "daemon.kill")

    def _h_migrate(self, args: Dict):
        """RM-initiated migration (§3.5: 'or (if the code is mobile) migrate
        processes between hosts'): checkpoint out, respawn elsewhere."""
        return self._migrate(args["urn"], args.get("to"))

    def _migrate(self, urn: str, to: Optional[str]):
        meta = yield self.rc.lookup(urn)
        old_host = (meta.get("host") or {}).get("value")
        if old_host is None:
            raise KeyError(f"unknown task {urn!r}")
        shipment = yield self._client.call(
            old_host, DAEMON_PORT, "daemon.migrate_out", timeout=2.0, urn=urn
        )
        spec: TaskSpec = shipment["spec"]
        # The process keeps its URN (and incarnation) when it moves.
        new_spec = dataclasses.replace(spec, initial_state=shipment["state"],
                                       urn_override=urn, fence_predecessors=False)
        if to is None:
            ranked = yield from self._select(new_spec)
            ranked = [h for h in ranked if h != old_host]
            if not ranked:
                raise AllocationError(f"nowhere to migrate {urn!r}")
            to = ranked[0]
        result = yield self._client.call(
            to, DAEMON_PORT, "daemon.spawn", timeout=2.0, spec=new_spec, direct=True
        )
        return {"urn": result["urn"], "from": old_host, "to": to}
