"""The per-host SNIPE daemon (§3.3).

Responsibilities implemented here, mapped to the paper's list:

* *authenticating requests* — the RPC server's shared-secret HMAC, plus
  optional public-key spawn authorization hooks (see
  :mod:`repro.security.authz`).
* *management of local tasks* — spawn (with requirement matching),
  suspend/resume, kill, exit supervision.
* *delivery of signals to local tasks* — ``daemon.signal`` into the
  task's signal queue.
* *monitoring machine load* — a periodic load gauge published into the
  host's RC metadata for the resource managers.
* *name-to-address lookup of local tasks* — ``daemon.lookup``.
* *informing interested parties of changes to the status of those tasks*
  — per-process notify lists (§5.2.3) resolved through RC metadata.

The daemon registers its host's metadata (§5.2.1) at boot: CPUs, data
formats, interfaces with per-medium characteristics, the daemon's own
URL, and supported protocols.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional

from repro.daemon.tasks import (
    ProgramRegistry,
    QuotaExceeded,
    TaskContext,
    TaskInfo,
    TaskSpec,
    TaskState,
    new_task_urn,
)
from repro.rcds import uri as uri_mod
from repro.rcds.client import RCClient
from repro.robust import TIMEOUTS
from repro.robust.overload import CONTROL
from repro.rpc import RpcClient, RpcError, RpcServer
from repro.sim.errors import Interrupt
from repro.sim.events import defuse

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.host import Host

#: Well-known SNIPE daemon port.
DAEMON_PORT = 3500

#: Period of the load loop: each tick publishes the host's load and
#: renews its lease.
LOAD_INTERVAL = 1.0


class SpawnError(Exception):
    """The host cannot run this spec (requirements, resources, unknown program)."""


class SnipeDaemon:
    """One host's daemon; every SNIPE host runs exactly one."""

    #: Test hook for the model checker (:mod:`repro.check`): when False,
    #: a fenced respawn skips its ``fenced-below`` quorum write — the
    #: deliberately seeded bug that the single-owner oracle must catch
    #: (a respawned task's zombie original is never superseded).
    fence_writes_enabled = True

    def __init__(
        self,
        host: "Host",
        rc: Optional[RCClient],
        programs: ProgramRegistry,
        secret: Optional[bytes] = None,
        lease_ttl: float = 3.0,
        context_factory: Optional[Callable[["SnipeDaemon", TaskInfo], TaskContext]] = None,
    ) -> None:
        self.sim = host.sim
        self.host = host
        self.rc = rc
        self.programs = programs
        #: Heartbeat lease horizon: each load-loop tick re-asserts
        #: ``lease-expires = now + lease_ttl`` in the host's metadata. A
        #: host whose lease has lapsed is presumed dead by the Guardian
        #: (and skipped by RM placement) — the paper's failure-detection
        #: window made explicit.
        self.lease_ttl = lease_ttl
        self.context_factory = context_factory or TaskContext
        self.url = uri_mod.daemon_url(host.name)
        self.tasks: Dict[str, TaskInfo] = {}
        self.contexts: Dict[str, TaskContext] = {}
        self._procs: Dict[str, Any] = {}  # urn -> sim Process
        self.violations: List[tuple] = []
        #: Optional playground (attached by repro.playground) for mobile code.
        self.playground = None
        #: Brokers managing this host's resources (§5.2.1, §5.5): when
        #: set, spawn requests arriving at the daemon are referred to a
        #: broker unless they come from one (``direct=True``).
        self.brokers: List = []
        #: Optional multicast service (attached by repro.daemon.mcast).
        self.mcast = None

        metrics = self.sim.obs.metrics
        self._m_spawns = metrics.counter("daemon.spawns")
        self._m_load = metrics.gauge("daemon.load", host=host.name)
        #: Lease heartbeat outcomes: a failed heartbeat is a dropped
        #: control-plane message, the direct precursor of a false death.
        self.heartbeats_ok = 0
        self.heartbeats_failed = 0
        self._m_hb_ok = metrics.counter("daemon.heartbeats_ok")
        self._m_hb_failed = metrics.counter("daemon.heartbeats_failed")

        self.rpc = RpcServer(host, DAEMON_PORT, secret=secret)
        self.rpc.register("daemon.spawn", self._h_spawn)
        self.rpc.register("daemon.kill", self._h_kill)
        self.rpc.register("daemon.signal", self._h_signal)
        self.rpc.register("daemon.status", self._h_status)
        self.rpc.register("daemon.ping", self._h_ping)
        self.rpc.register("daemon.list", self._h_list)
        self.rpc.register("daemon.load", self._h_load)
        self.rpc.register("daemon.notify", self._h_notify)
        self.rpc.register("daemon.migrate_out", self._h_migrate_out)
        self._client = RpcClient(host, secret=secret)

        #: Deaths we could not publish because the host itself was down;
        #: reconciled (carefully — a successor may exist) on recovery,
        #: retried until the catalog is reachable again.
        self._unpublished: set = set()
        self.reconcile_retry = 2.0
        self._reconciling = False
        host.on_crash.append(self._on_host_crash)
        host.on_recover.append(self._on_host_recover)
        if rc is not None:
            self.sim.process(self._register_host(), name=f"daemon-reg:{host.name}")
            self.sim.process(self._load_loop(), name=f"daemon-load:{host.name}")

    # -- host metadata (§5.2.1) ------------------------------------------------
    def _host_assertions(self) -> Dict[str, Any]:
        interfaces = {}
        for nic in self.host.nics.values():
            medium = nic.segment.medium
            interfaces[nic.iface] = {
                "ip": nic.address.ip,
                "net-name": nic.segment.name,
                "protocol": medium.name,
                "bandwidth": medium.bandwidth,
                "latency": medium.latency,
            }
        return {
            "url": uri_mod.host_url(self.host.name),
            "daemon": self.url,
            "arch": self.host.arch,
            "os": self.host.os,
            "cpus": self.host.cpu_count,
            "cpu-speed": self.host.cpu_speed,
            "memory": self.host.memory,
            "data-formats": ["xdr"],
            "protocols": ["srudp", "tcp", "udp"],
            "interfaces": interfaces,
            # Lease expiry is computed on the daemon's *wall clock*: a
            # host with injected clock skew publishes skewed leases, the
            # gray failure the Guardian's probe-before-death absorbs.
            "lease-expires": self.host.clock() + self.lease_ttl,
        }

    def _register_host(self):
        try:
            yield self.rc.update(
                uri_mod.host_url(self.host.name), self._host_assertions(),
                lane=CONTROL,
            )
        except Exception:
            pass  # RC unreachable at boot; load loop keeps retrying

    def _load_loop(self):
        owner = f"daemon:{self.host.name}"
        while True:
            # A kernel timer, not a Timeout: the two resume the loop at
            # different queue positions, so swapping them would reorder
            # same-timestamp ties.
            yield self.sim.timer_event(LOAD_INTERVAL, owner=owner)
            if not self.host.up:
                continue
            self._m_load.set(self.load())
            try:
                # The lease re-assertion is the daemon's heartbeat: it
                # rides the control lane so bulk saturation can never
                # lapse a live host's lease.
                yield self.rc.update(
                    uri_mod.host_url(self.host.name),
                    {
                        "load": self.load(),
                        "tasks": len(self.running_tasks()),
                        "lease-expires": self.host.clock() + self.lease_ttl,
                    },
                    lane=CONTROL,
                )
                self.heartbeats_ok += 1
                self._m_hb_ok.inc()
            except Exception:
                self.heartbeats_failed += 1
                self._m_hb_failed.inc()
                continue

    def load(self) -> float:
        """Run-queue style load: running tasks per CPU."""
        return len(self.running_tasks()) / max(1, self.host.cpu_count)

    def running_tasks(self) -> List[str]:
        return [u for u, t in self.tasks.items() if t.state == TaskState.RUNNING]

    # -- spawning (§5.5) ---------------------------------------------------------
    def check_requirements(self, spec: TaskSpec) -> Optional[str]:
        """None if the host satisfies the spec, else the reason it doesn't."""
        if spec.arch is not None and spec.arch != self.host.arch:
            return f"arch {spec.arch} != {self.host.arch}"
        if spec.os is not None and spec.os != self.host.os:
            return f"os {spec.os} != {self.host.os}"
        if spec.min_memory > self.host.memory:
            return f"memory {spec.min_memory} > {self.host.memory}"
        if spec.mobile_code is None and spec.program not in self.programs:
            return f"unknown program {spec.program!r}"
        return None

    def spawn(self, spec: TaskSpec, incarnation: Optional[int] = None) -> TaskInfo:
        """Start a task on this host (direct API; RPC wraps this).

        Raises :class:`SpawnError` if requirements fail. The returned
        TaskInfo is live — its ``state`` field tracks the task.
        *incarnation*, when given, is the one a fence reserved for it.
        """
        reason = self.check_requirements(spec)
        if reason is not None:
            raise SpawnError(f"{self.host.name}: {reason}")
        if spec.mobile_code is not None:
            if self.playground is None:
                raise SpawnError(f"{self.host.name}: no playground for mobile code")
            return self.playground.spawn_mobile(spec)
        info = TaskInfo(urn=new_task_urn(spec, self.host.name, sim=self.sim), spec=spec,
                        host=self.host.name, started_at=self.sim.now,
                        incarnation=incarnation)
        ctx = self.context_factory(self, info)
        fn = self.programs.get(spec.program)
        self._launch(info, ctx, fn(ctx, **spec.params))
        return info

    def _launch(self, info: TaskInfo, ctx: TaskContext, gen) -> None:
        stale = self.tasks.get(info.urn)
        if stale is not None and stale.state not in TaskState.TERMINAL:
            # Respawn of an URN we still host: whatever runs here is a
            # superseded incarnation (e.g. a partition zombie that the
            # Guardian replaced). Fence it before it loses its map entry,
            # or it could never be stopped through the daemon again.
            self.fence(info.urn, "superseded")
        self._m_spawns.inc()
        if self.sim.obs.tracer.enabled:
            self.sim.obs.tracer.event(
                "daemon.spawn", host=self.host.name, urn=info.urn,
                program=info.spec.program,
            )
        info.state = TaskState.RUNNING
        self.tasks[info.urn] = info
        self.contexts[info.urn] = ctx
        proc = self.sim.process(gen, name=f"task:{info.urn}")
        self._procs[info.urn] = proc
        proc.add_callback(lambda ev: self._on_task_end(info, ev))
        self._publish_process(info)

    def _on_task_end(self, info: TaskInfo, ev) -> None:
        if info.state in TaskState.TERMINAL:
            return  # already killed/migrated; exit raced the interrupt
        if ev.ok:
            info.state = TaskState.EXITED
            info.exit_value = ev._value
        else:
            try:
                ev.value
            except QuotaExceeded as exc:
                info.state = TaskState.KILLED
                info.error = str(exc)
            except Interrupt as exc:
                info.state = TaskState.KILLED
                info.error = f"interrupted: {exc.cause}"
            except Exception as exc:
                info.state = TaskState.FAILED
                info.error = str(exc)
        info.ended_at = self.sim.now
        self._publish_process(info)
        self._fire_notifications(info)

    # -- task control -------------------------------------------------------------
    def kill(self, urn: str, reason: str = "killed") -> bool:
        info = self.tasks.get(urn)
        proc = self._procs.get(urn)
        if info is None or info.state in TaskState.TERMINAL:
            return False
        info.state = TaskState.KILLED
        info.error = reason
        info.ended_at = self.sim.now
        if proc is not None and proc.is_alive:
            proc.interrupt(reason)
        self._publish_process(info)
        self._fire_notifications(info)
        return True

    def fence(self, urn: str, reason: str = "fenced", ctx=None) -> bool:
        """Quietly terminate a superseded incarnation (§5.6 fencing).

        Unlike :meth:`kill` this publishes *nothing*: the Guardian has
        already respawned the task elsewhere and rewritten its RC record,
        so any write from this corpse would win the last-writer-wins race
        and advertise a dead location. Watchers likewise hear from the
        successor, not the corpse.

        *ctx*, when given, is the calling context fencing itself: if the
        daemon's registration for *urn* no longer points at it (a newer
        incarnation respawned here and displaced it), the call is a no-op
        so a zombie can never fence its own successor through the maps.
        """
        if ctx is not None and self.contexts.get(urn) is not ctx:
            return False
        info = self.tasks.get(urn)
        proc = self._procs.get(urn)
        if info is None or info.state in TaskState.TERMINAL:
            return False
        info.fenced = True
        info.state = TaskState.KILLED
        info.error = reason
        info.ended_at = self.sim.now
        if proc is not None and proc.is_alive:
            proc.interrupt(reason)
        if self.sim.obs.tracer.enabled:
            self.sim.obs.tracer.event(
                "daemon.fence", host=self.host.name, urn=urn, reason=reason
            )
        return True

    def suspend(self, urn: str) -> bool:
        info = self.tasks.get(urn)
        ctx = self.contexts.get(urn)
        if info is None or ctx is None or info.state != TaskState.RUNNING:
            return False
        info.state = TaskState.SUSPENDED
        ctx._suspend()
        self._publish_process(info)
        self._fire_notifications(info)
        return True

    def resume(self, urn: str) -> bool:
        info = self.tasks.get(urn)
        ctx = self.contexts.get(urn)
        if info is None or ctx is None or info.state != TaskState.SUSPENDED:
            return False
        info.state = TaskState.RUNNING
        ctx._resume()
        self._publish_process(info)
        return True

    def signal(self, urn: str, signal: Any) -> bool:
        """Asynchronous signal delivery to a local task (§3.3)."""
        ctx = self.contexts.get(urn)
        info = self.tasks.get(urn)
        if ctx is None or info is None or info.state in TaskState.TERMINAL:
            return False
        ctx.signals.try_put(signal)
        return True

    def log_violation(self, urn: str, kind: str) -> None:
        """Record a quota/access violation (§3.6: logging access violations)."""
        self.violations.append((self.sim.now, urn, kind))

    # -- RC publication & notifications -----------------------------------------
    def _publish_process(self, info: TaskInfo) -> None:
        if self.rc is None or not self.host.up or info.fenced:
            return
        assertions = {
            "state": info.state,
            "host": self.host.name,
            "supervisor": self.url,
            "program": info.spec.program,
        }
        if info.ended_at is not None:
            assertions["exit-error"] = info.error
        defuse(self.rc.update(info.urn, assertions))

    def _fire_notifications(self, info: TaskInfo) -> None:
        if self.rc is None or not self.host.up or info.fenced:
            return
        defuse(
            self.sim.process(
                self._notify_watchers(info), name=f"notify:{info.urn}"
            )
        )

    def _notify_watchers(self, info: TaskInfo):
        """Resolve the task's notify list via RC and inform each watcher."""
        try:
            assertions = yield self.rc.lookup(info.urn)
        except Exception:
            return
        watchers = (assertions.get("notify-list") or {}).get("value") or []
        event = {
            "kind": "state-change",
            "urn": info.urn,
            "state": info.state,
            "error": info.error,
            "at": self.sim.now,
        }
        for watcher_urn in watchers:
            try:
                w_meta = yield self.rc.lookup(watcher_urn)
                w_host = (w_meta.get("host") or {}).get("value")
                if w_host is None:
                    continue
                yield self._client.call(
                    w_host, DAEMON_PORT, "daemon.notify",
                    timeout=TIMEOUTS["daemon.notify"], lane=CONTROL,
                    urn=watcher_urn, event=event,
                )
            except (RpcError, Exception):
                continue

    # -- host crash (fail-stop) ---------------------------------------------------
    def _on_host_crash(self, host) -> None:
        for urn, info in list(self.tasks.items()):
            if info.state in TaskState.TERMINAL:
                continue
            info.state = TaskState.KILLED
            info.error = "host-crash"
            info.ended_at = self.sim.now
            self._unpublished.add(urn)
            proc = self._procs.get(urn)
            if proc is not None and proc.is_alive:
                proc.interrupt("host-crash")
        # No RC update, no notifications: the host is dead. Watchers learn
        # from timeouts, lapsed leases, and stale metadata — exactly the
        # paper's model. If the host later recovers, _on_host_recover
        # reconciles these deaths against the catalog.

    def _on_host_recover(self, host) -> None:
        if self.rc is None or not self._unpublished or self._reconciling:
            return
        self._reconciling = True
        defuse(self.sim.process(self._reconcile_loop(),
                                name=f"daemon-reconcile:{self.host.name}"))

    def _reconcile_loop(self):
        """Keep reconciling until every locally-known death is either
        published or disowned. A recovery that lands while the catalog is
        unreachable (the host came back inside a partition) must not
        leave ghost RUNNING records: nobody else knows the task died, the
        host's lease looks healthy again, and a Guardian confirming
        against a quorum would conclude the task is fine forever.
        """
        try:
            while self._unpublished and self.host.up:
                yield from self._reconcile()
                if self._unpublished:
                    yield self.sim.timeout(self.reconcile_retry)
        finally:
            self._reconciling = False

    def _reconcile(self):
        """After a crash+recovery, report locally-known deaths — but only
        for tasks the catalog still attributes to *this* host and this
        instance. If a Guardian already respawned the task elsewhere (or a
        newer incarnation exists anywhere), a write from us would clobber
        the successor's record under last-writer-wins, so we stay silent.
        """
        pending, self._unpublished = self._unpublished, set()
        for urn in sorted(pending):
            info = self.tasks.get(urn)
            if info is None or info.fenced:
                continue
            try:
                meta = yield self.rc.lookup(urn, consistency="quorum")
            except Exception:
                self._unpublished.add(urn)  # catalog unreachable; retried by the loop
                continue

            def val(key):
                entry = meta.get(key)
                return entry["value"] if entry else None

            if val("host") != self.host.name or val("state") != TaskState.RUNNING:
                continue  # a successor (or someone else) owns the record now
            inc = val("incarnation")
            ctx = self.contexts.get(urn)
            local_inc = getattr(ctx, "incarnation", None)
            if inc is not None and local_inc is not None and inc > local_inc:
                continue  # record belongs to a newer incarnation
            fence = val("fenced-below")
            if fence is not None and local_inc is not None and local_inc < fence:
                continue  # a Guardian is already respawning this task
            self._publish_process(info)
            self._fire_notifications(info)

    # -- RPC handlers -----------------------------------------------------------
    def set_brokers(self, brokers) -> None:
        """Install the broker list and advertise it in host metadata."""
        self.brokers = list(brokers)
        if self.rc is not None:
            defuse(
                self.rc.update(
                    uri_mod.host_url(self.host.name),
                    {"brokers": [f"{h}:{p}" for h, p in self.brokers]},
                )
            )

    def _h_spawn(self, args: Dict):
        if self.brokers and not args.get("direct"):
            # §5.5: "The host daemon may handle the request itself, or
            # refer the request to a broker." Referred requests come back
            # with direct=True set by the broker.
            return self._refer_to_broker(args)
        spec = args["spec"]
        if spec.fence_predecessors and spec.urn_override is not None and self.rc is not None:
            return self._spawn_fenced(spec)
        info = self.spawn(spec)
        return {"urn": info.urn, "state": info.state}

    def _spawn_fenced(self, spec: TaskSpec):
        """Guardian respawn, the one writer of ``fenced-below`` (a max
        register): draw N, quorum-write it as the URN's fence, and launch
        the successor *as incarnation N* unless a quorum read-back finds
        a higher fence — a sibling a retried request started, which the
        record's last writer must be; the reply carries the incarnation
        the URN runs on. No quorum, no spawn: an unprovably-fenced
        duplicate inside a partition is a future zombie."""
        urn = spec.urn_override
        fence = highest = self.sim.sequence("incarnation")
        if self.fence_writes_enabled:
            yield self.rc.update(urn, {"fenced-below": fence}, consistency="quorum")
            if self.sim.probes is not None:
                self.sim.probes.emit("daemon.fence", urn=urn, fence=fence)
            highest = (yield self.rc.get(urn, "fenced-below",
                                         consistency="quorum")) or fence
        sibling = self.tasks.get(urn)
        if sibling and sibling.state not in TaskState.TERMINAL:
            # A later-drawn successor runs here: launching ours would fence
            # it locally, and ours would then stop itself, leaving no owner.
            highest = max(highest, sibling.incarnation or 0)
        if highest > fence:
            # The URN runs on as the higher incarnation, here or elsewhere.
            return {"urn": urn, "state": TaskState.RUNNING, "incarnation": highest}
        info = self.spawn(spec, incarnation=fence)
        return {"urn": info.urn, "state": info.state, "incarnation": fence}

    def _refer_to_broker(self, args: Dict):
        spec = args["spec"]
        errors = []
        for b_host, b_port in self.brokers:
            try:
                result = yield self._client.call(
                    b_host, b_port, "rm.request",
                    timeout=TIMEOUTS["broker.refer"], spec=spec,
                    owner=spec.owner or "anonymous",
                )
                return {"urn": result.get("urn"), "state": "running",
                        "via_broker": f"{b_host}:{b_port}"}
            except RpcError as exc:
                errors.append(str(exc))
        raise RpcError(f"all brokers unreachable/refused: {errors}")

    def _h_kill(self, args: Dict) -> bool:
        return self.kill(args["urn"], args.get("reason", "killed"))

    def _h_signal(self, args: Dict) -> bool:
        return self.signal(args["urn"], args["signal"])

    def _h_ping(self, args: Dict) -> Dict:
        """Liveness probe (Guardian second-path check before declaring a
        death): proves the daemon answers RPCs, and reports its wall
        clock so a probe can distinguish "dead" from "skewed"."""
        return {
            "host": self.host.name,
            "clock": self.host.clock(),
            "tasks": len(self.running_tasks()),
        }

    def _h_status(self, args: Dict) -> Dict:
        info = self.tasks.get(args["urn"])
        if info is None:
            raise KeyError(f"no such task {args['urn']!r}")
        return {
            "state": info.state,
            "cpu": info.cpu_used,
            "memory": info.memory_used,
            "error": info.error,
            "exit_value": info.exit_value,
        }

    def _h_list(self, args: Dict) -> List[str]:
        return sorted(self.tasks)

    def _h_load(self, args: Dict) -> Dict:
        return {
            "load": self.load(),
            "tasks": len(self.running_tasks()),
            "cpus": self.host.cpu_count,
            "memory": self.host.memory,
        }

    def _h_notify(self, args: Dict) -> bool:
        """Deliver a state-change notification to a local task."""
        ctx = self.contexts.get(args["urn"])
        if ctx is None:
            return False
        ctx.notifications.try_put(args["event"])
        return True

    def migrate_out(self, urn: str) -> Dict:
        """Checkpoint and stop a task so it can restart elsewhere (§5.6:
        \"the details of process migration may be arranged by the host
        daemon rather than the process itself\")."""
        info = self.tasks.get(urn)
        ctx = self.contexts.get(urn)
        if info is None or ctx is None or info.state in TaskState.TERMINAL:
            raise KeyError(f"task {urn!r} not running here")
        state = dict(ctx.checkpoint_state)
        info.state = TaskState.MIGRATED
        info.ended_at = self.sim.now
        proc = self._procs.get(urn)
        if proc is not None and proc.is_alive:
            proc.interrupt("migrated")
        self._publish_process(info)
        self._fire_notifications(info)
        return {"spec": info.spec, "state": state}

    def _h_migrate_out(self, args: Dict) -> Dict:
        return self.migrate_out(args["urn"])
