"""The PVM daemon and task context.

Task ids pack (host index, per-host sequence); the master's host table
maps indices to host names and every pvmd keeps a copy, refreshed by
master broadcasts. All the §2.2 failure modes fall out of this structure
naturally — no artificial failure switches.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, Generator, List, Optional, Tuple

from repro.rpc import RpcClient, RpcError, RpcServer, payload_size
from repro.sim.events import defuse

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.host import Host

#: Well-known pvmd port.
PVMD_PORT = 3700

_HOST_SHIFT = 18  # tid = host_index << 18 | sequence


class PvmError(Exception):
    """Virtual machine operation failed (master dead, unknown tid, ...)."""


@dataclass
class _TaskEnv:
    src_tid: int
    tag: str
    payload: Any
    size: int


class PvmContext:
    """What a PVM task sees: tid-addressed send/recv inside one VM."""

    def __init__(self, pvmd: "Pvmd", tid: int) -> None:
        self.pvmd = pvmd
        self.sim = pvmd.sim
        self.host = pvmd.host
        self.tid = tid
        self._pending: List[_TaskEnv] = []
        self._waiters: List[Tuple[Optional[str], Any]] = []

    def send(self, dst_tid: int, payload: Any, tag: str = "", size: Optional[int] = None):
        """Send to another task in this VM (a process; yield it)."""
        if size is None:
            size = payload_size(payload)
        env = _TaskEnv(self.tid, tag, payload, size)
        return self.pvmd.route(dst_tid, env)

    def recv(self, tag: Optional[str] = None):
        """Event yielding the next matching :class:`_TaskEnv`."""
        from repro.sim.events import Event

        ev = Event(self.sim)
        for i, env in enumerate(self._pending):
            if tag is None or env.tag == tag:
                del self._pending[i]
                ev.succeed(env)
                return ev
        self._waiters.append((tag, ev))
        return ev

    def _deliver(self, env: _TaskEnv) -> None:
        for i, (tag, ev) in enumerate(self._waiters):
            if tag is None or env.tag == tag:
                del self._waiters[i]
                ev.succeed(env)
                return
        self._pending.append(env)

    def sleep(self, seconds: float):
        return self.sim.timeout(seconds)

    def compute(self, cpu_seconds: float):
        return self.sim.timeout(cpu_seconds / self.host.cpu_speed)


class Pvmd:
    """One PVM daemon. The first one (no ``master_host``) is the master."""

    def __init__(
        self,
        host: "Host",
        programs: Dict[str, Callable[..., Generator]],
        master_host: Optional[str] = None,
        service_time: float = 0.0005,
    ) -> None:
        self.sim = host.sim
        self.host = host
        self.programs = programs
        self.is_master = master_host is None
        self.master_host = host.name if master_host is None else master_host
        #: host table: index -> host name. Index 0 is always the master.
        self.host_table: Dict[int, str] = {0: self.master_host} if self.is_master else {}
        self._next_host_index = 1
        self._next_task_seq = itertools.count(1)
        self.my_host_index: Optional[int] = 0 if self.is_master else None
        self.tasks: Dict[int, PvmContext] = {}
        self.task_procs: Dict[int, Any] = {}
        self.vm_corrupt = False  # host-table update hit a failure mid-broadcast
        self.spawns_served = 0
        # Master spawn handling is serialized with a fixed cost: the
        # centralized-RM bottleneck of §2.2 (measured in E4).
        self.rpc = RpcServer(
            host, PVMD_PORT, service_time=service_time if self.is_master else 0.0
        )
        self.rpc.register("pvm.addhost", self._h_addhost)
        self.rpc.register("pvm.table", self._h_table)
        self.rpc.register("pvm.spawn", self._h_spawn)
        self.rpc.register("pvm.spawn_local", self._h_spawn_local)
        self.rpc.register("pvm.route", self._h_route)
        self.rpc.register("pvm.putinfo", self._h_putinfo)
        self.rpc.register("pvm.getinfo", self._h_getinfo)
        #: Master-held global service registry ("simple facility for
        #: global registration of well-known services") — what PVMPI used
        #: to rendezvous MPI applications.
        self.info_registry: Dict[str, Any] = {}
        self._client = RpcClient(host)
        host.on_crash.append(self._on_crash)

    # -- joining the virtual machine ---------------------------------------------
    def join(self):
        """Slave: register with the master; returns a process (yield it)."""
        if self.is_master:
            raise PvmError("master does not join itself")
        return self.sim.process(self._join(), name=f"pvm-join:{self.host.name}")

    def _join(self):
        try:
            result = yield self._client.call(
                self.master_host, PVMD_PORT, "pvm.addhost",
                timeout=2.0, host=self.host.name,
            )
        except RpcError as exc:
            raise PvmError(f"cannot join VM: {exc}") from None
        self.my_host_index = result["index"]
        self.host_table = dict(result["table"])
        return self.my_host_index

    def _h_addhost(self, args: Dict):
        """Master: extend the host table, then broadcast it to every slave.

        A slave that cannot be reached mid-broadcast leaves the VM with
        inconsistent tables — the §2.2 link-failure fragility.
        """
        if not self.is_master:
            raise PvmError("addhost must go to the master")
        return self._addhost(args["host"])

    def _addhost(self, new_host: str):
        index = self._next_host_index
        self._next_host_index += 1
        self.host_table[index] = new_host
        # Sequential broadcast of the new table to all other slaves.
        for idx, name in sorted(self.host_table.items()):
            if name in (self.master_host, new_host):
                continue
            try:
                yield self._client.call(
                    name, PVMD_PORT, "pvm.table", timeout=1.0, table=self.host_table
                )
            except RpcError:
                self.vm_corrupt = True  # tables now disagree across the VM
        return {"index": index, "table": dict(self.host_table)}

    def _h_table(self, args: Dict):
        self.host_table = dict(args["table"])
        return True

    # -- spawning (centralized through the master) ----------------------------------
    def spawn(self, program: str, n: int = 1, **params):
        """Ask the master to place and start *n* tasks (a process)."""
        return self.sim.process(self._spawn_via_master(program, n, params),
                                name=f"pvm-spawn:{program}")

    def _spawn_via_master(self, program: str, n: int, params: Dict):
        try:
            result = yield self._client.call(
                self.master_host, PVMD_PORT, "pvm.spawn",
                timeout=5.0, program=program, n=n, params=params,
            )
        except RpcError as exc:
            raise PvmError(f"spawn failed (master unreachable?): {exc}") from None
        return result["tids"]

    def _h_spawn(self, args: Dict):
        if not self.is_master:
            raise PvmError("spawn requests must go to the master")
        return self._master_spawn(args["program"], args["n"], args.get("params", {}))

    def _master_spawn(self, program: str, n: int, params: Dict):
        """Round-robin placement over the host table (the built-in RM)."""
        self.spawns_served += 1
        tids = []
        indices = sorted(self.host_table)
        for i in range(n):
            idx = indices[i % len(indices)]
            target = self.host_table[idx]
            if target == self.host.name:
                tids.append(self.spawn_local(program, params))
                continue
            try:
                result = yield self._client.call(
                    target, PVMD_PORT, "pvm.spawn_local",
                    timeout=2.0, program=program, params=params,
                )
                tids.append(result["tid"])
            except RpcError:
                continue  # slave failure tolerated: fewer tasks come back
        return {"tids": tids}

    def _h_spawn_local(self, args: Dict):
        return {"tid": self.spawn_local(args["program"], args.get("params", {}))}

    def spawn_local(self, program: str, params: Dict) -> int:
        fn = self.programs.get(program)
        if fn is None:
            raise PvmError(f"unknown program {program!r}")
        if self.my_host_index is None:
            raise PvmError(f"{self.host.name} has not joined the VM")
        tid = (self.my_host_index << _HOST_SHIFT) | next(self._next_task_seq)
        ctx = PvmContext(self, tid)
        self.tasks[tid] = ctx
        proc = self.sim.process(fn(ctx, **params), name=f"pvm-task:{tid}")
        self.task_procs[tid] = proc
        defuse(proc)
        return tid

    # -- message routing (task -> pvmd -> pvmd -> task) -------------------------------
    def route(self, dst_tid: int, env: _TaskEnv):
        """The default PVM route: always through the daemons."""
        return self.sim.process(self._route(dst_tid, env), name=f"pvm-route:{dst_tid}")

    def _route(self, dst_tid: int, env: _TaskEnv):
        from repro.net.media import LOOPBACK

        # Task -> local pvmd: a real copy over the host's loopback.
        if env is not None:
            yield self.sim.timeout(LOOPBACK.latency + env.size / LOOPBACK.bandwidth)
        host_index = dst_tid >> _HOST_SHIFT
        if host_index == self.my_host_index:
            self._deliver_local(dst_tid, env)
            return True
        target = self.host_table.get(host_index)
        if target is None:
            raise PvmError(f"tid {dst_tid}: host index {host_index} not in my table")
        try:
            # pvmd -> pvmd crossing pays the message's declared size.
            yield self._client.call(
                target, PVMD_PORT, "pvm.route",
                timeout=5.0, _size=env.size, dst_tid=dst_tid, env=env,
            )
        except RpcError as exc:
            raise PvmError(f"route to {dst_tid} failed: {exc}") from None
        return True

    def _h_route(self, args: Dict):
        return self._route_in(args["dst_tid"], args["env"])

    def _route_in(self, dst_tid: int, env: _TaskEnv):
        from repro.net.media import LOOPBACK

        # Remote pvmd -> destination task: the second loopback copy.
        yield self.sim.timeout(LOOPBACK.latency + env.size / LOOPBACK.bandwidth)
        self._deliver_local(dst_tid, env)
        return True

    def _deliver_local(self, tid: int, env: _TaskEnv) -> None:
        ctx = self.tasks.get(tid)
        if ctx is None:
            raise PvmError(f"no task {tid} on {self.host.name}")
        ctx._deliver(env)

    def _h_putinfo(self, args: Dict):
        if not self.is_master:
            raise PvmError("putinfo must go to the master")
        self.info_registry[args["key"]] = args["value"]
        return True

    def _h_getinfo(self, args: Dict):
        if not self.is_master:
            raise PvmError("getinfo must go to the master")
        if args["key"] not in self.info_registry:
            raise PvmError(f"no info for {args['key']!r}")
        return self.info_registry[args["key"]]

    def putinfo(self, key: str, value: Any):
        """Register a value in the VM-wide registry (a process)."""
        return self._client.call(
            self.master_host, PVMD_PORT, "pvm.putinfo", timeout=2.0, key=key, value=value
        )

    def getinfo(self, key: str):
        """Fetch a registered value from the master (a process)."""
        return self._client.call(
            self.master_host, PVMD_PORT, "pvm.getinfo", timeout=2.0, key=key
        )

    def enroll(self) -> Tuple[int, PvmContext]:
        """Enroll an external process (e.g. an MPI rank) as a PVM task.

        This is PVMPI's trick: each MPI process also becomes addressable
        inside the PVM virtual machine.
        """
        if self.my_host_index is None:
            raise PvmError(f"{self.host.name} has not joined the VM")
        tid = (self.my_host_index << _HOST_SHIFT) | next(self._next_task_seq)
        ctx = PvmContext(self, tid)
        self.tasks[tid] = ctx
        return tid, ctx

    # -- failure ----------------------------------------------------------------
    def _on_crash(self, host) -> None:
        for tid, proc in list(self.task_procs.items()):
            if proc.is_alive:
                proc.interrupt("host-crash")
        self.tasks.clear()
        self.task_procs.clear()
