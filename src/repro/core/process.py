"""SnipeContext: what a SNIPE process sees (§3.4, §5.3, §5.6, §5.7).

Messaging is URN-addressed: the destination is a *name*, resolved through
RC metadata to the task's current (host, port). Three paper guarantees
are implemented here:

* **System buffering** (§6): a send to a temporarily unreachable or
  migrating task is held and retried (with re-resolution) until a
  deadline, so "migrating or temporarily unavailable tasks did not
  result in lost messages".
* **Zero-loss migration** (§5.6): a migrating process checkpoints its
  communication state (undelivered envelopes, duplicate filters,
  sequence counters) along with its application state; the old instance
  "act[s] as a relay or redirect for a short period", and per-source
  sequence numbers deduplicate anything delivered twice.
* **Replicated pseudo-processes** (§5.7): a destination whose metadata
  names a multicast group fans out to every member.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.core.messages import xdr_size
from repro.daemon.daemon import DAEMON_PORT, SnipeDaemon
from repro.daemon.tasks import TaskContext, TaskInfo, TaskSpec, TaskState
from repro.rcds import uri as uri_mod
from repro.robust import TIMEOUTS
from repro.robust.overload import CONTROL
from repro.rpc import RpcError, payload_size
from repro.sim.errors import Interrupt
from repro.sim.events import Event, defuse
from repro.transport.base import SendError
from repro.transport.srudp import SrudpEndpoint

if TYPE_CHECKING:  # pragma: no cover
    pass

#: Envelope framing overhead charged on the wire.
ENVELOPE_OVERHEAD = 64


@dataclass
class Envelope:
    """One URN-addressed application message.

    ``src_inc`` is the sender's *incarnation*: a context restarted from a
    checkpoint is a new incarnation of the same URN, so receivers scope
    their exactly-once/FIFO filters to (urn, incarnation) streams rather
    than treating all history as one sequence space.
    """

    src_urn: str
    dst_urn: str
    seq: int
    tag: str
    payload: Any
    size: int
    src_inc: int = 0


class SnipeContext(TaskContext):
    """The full client-library context (daemon's ``context_factory``)."""

    #: Test hook for the model checker (:mod:`repro.check`): when False,
    #: the receiver accepts envelopes from superseded incarnations instead
    #: of fencing them — a deliberately seeded bug that the delivery
    #: oracle's no-incarnation-regression check must catch.
    rx_fencing_enabled = True
    #: How long sends are buffered/retried before giving up.
    buffer_timeout = 30.0
    #: Retry cadence while a destination is unresolvable/unreachable.
    retry_interval = 0.25
    #: Resolution cache TTL (so migrations are noticed promptly).
    resolve_ttl = 1.0
    #: How long a migrated instance keeps relaying (§5.6 "short period").
    redirect_grace = 10.0

    def __init__(self, daemon: SnipeDaemon, info: TaskInfo) -> None:
        super().__init__(daemon, info)
        self.rc = daemon.rc
        self.port = self.host.ephemeral_port()
        self.endpoint = SrudpEndpoint(self.host, self.port)
        self._pending: List[Envelope] = []
        self._waiters: List[Tuple[Optional[str], Event]] = []
        self._send_seq: Dict[str, int] = {}
        #: Per-destination send locks: messages to one destination are
        #: serialized so a receiver syncing onto a stream mid-way (after
        #: a restart) can never skip an in-flight earlier message.
        self._send_locks: Dict[str, Any] = {}
        #: Per-(source, incarnation) delivery cursor.
        self._next_seq: Dict[Tuple[str, int], int] = {}
        #: Out-of-order arrivals held until their predecessors land.
        self._ooo: Dict[Tuple[str, int], Dict[int, Envelope]] = {}
        #: Highest incarnation seen per source URN. Envelopes from an
        #: older incarnation are *fenced* (dropped): once the Guardian has
        #: restarted a task, the zombie original's late messages must not
        #: interleave with the successor's stream.
        self._max_inc: Dict[str, int] = {}
        #: This context's incarnation (carried across live migration, the
        #: daemon's fence after a checkpoint restart, else fresh). Drawn
        #: per simulation so identical runs assign identical ones.
        self.incarnation = info.incarnation or self.sim.sequence("incarnation")
        self._resolve_cache: Dict[str, Tuple[float, Any]] = {}
        self._redirect: Optional[Tuple[str, int]] = None
        #: Set while a migration is capturing state: arrivals in this
        #: window are held and forwarded once the new location is known.
        self._frozen = False
        self._freeze_backlog: List[Envelope] = []
        self.msgs_sent = 0
        self.msgs_received = 0
        self.msgs_deduped = 0
        self.msgs_fenced = 0
        self._fence_watch_proc = None
        # Restore communication state shipped by a migration.
        comm = self.checkpoint_state.pop("__comm__", None)
        if comm is not None:
            self._pending = list(comm["pending"])
            self._send_seq = dict(comm["send_seq"])
            self._next_seq = dict(comm["next_seq"])
            self._ooo = {k: dict(v) for k, v in comm["ooo"].items()}
            self._max_inc = dict(comm.get("max_inc", {}))
            self.incarnation = comm["incarnation"]
        self._rx_proc = self.sim.process(self._rx_loop(), name=f"ctx-rx:{self.urn}")
        if self.sim.probes is not None:
            self.sim.probes.emit(
                "ctx.start", urn=self.urn, inc=self.incarnation,
                host=self.host.name, info=self.info,
            )
        if self.rc is not None:
            defuse(self.sim.process(self._register_comm(), name=f"ctx-reg:{self.urn}"))

    # -- registration (§5.2.3 process metadata) ----------------------------------
    def _register_comm(self):
        yield self.rc.update(
            self.urn,
            {
                "comm-host": self.host.name,
                "comm-port": self.port,
                "comm-addresses": [str(a) for a in self.host.addresses],
                "incarnation": self.incarnation,
            },
        )

    # -- supervision (Guardian fencing, §5.6) -------------------------------------
    #: Cadence of the fenced-below check while supervised.
    fence_watch_interval = 1.0

    def enable_supervision(self) -> None:
        """Start watching our own RC record for a Guardian fence.

        Called when the task first checkpoints (that is the moment it
        becomes recoverable, hence the moment a successor could exist).
        When a Guardian writes ``fenced-below: N`` with N > our
        incarnation, this instance has been superseded and terminates
        itself quietly via :meth:`SnipeDaemon.fence` — covering the
        zombie case where the "dead" host was merely partitioned.
        """
        if self._fence_watch_proc is not None or self.rc is None:
            return
        self._fence_watch_proc = self.sim.process(
            self._fence_watch(), name=f"fence-watch:{self.urn}"
        )

    def _fence_watch(self):
        try:
            owner = f"fence-watch:{self.urn}"
            while self.info.state not in TaskState.TERMINAL:
                yield self.sim.timer_event(self.fence_watch_interval, owner=owner)
                if self.info.state in TaskState.TERMINAL:
                    return
                try:
                    # Control lane: a saturated catalog must not delay
                    # the zombie's self-termination check.
                    fence = yield self.rc.get(self.urn, "fenced-below", lane=CONTROL)
                except Exception:
                    continue  # catalog unreachable (e.g. partitioned); keep trying
                if fence is not None and self.incarnation < fence:
                    # Pass ourselves so a displaced zombie cannot fence a
                    # successor that reused its URN on this daemon.
                    self.daemon.fence(self.urn, "superseded", ctx=self)
                    return
        except Interrupt:
            return

    # -- resolution -------------------------------------------------------------
    def _resolve(self, dst_urn: str):
        """(kind, location) for a destination URN; None if unknown yet.

        kind is "direct" with (host, port), or "group" with the group name
        for replicated pseudo-processes.
        """
        cached = self._resolve_cache.get(dst_urn)
        if cached is not None and self.sim.now - cached[0] < self.resolve_ttl:
            return cached[1]
        try:
            meta = yield self.rc.lookup(dst_urn)
        except Exception:
            return None

        def val(key):
            info = meta.get(key)
            return info["value"] if info else None

        result = None
        if val("kind") == "replicated" and val("group"):
            result = ("group", val("group"))
        else:
            chost, cport = val("comm-host"), val("comm-port")
            if chost is not None and cport is not None:
                result = ("direct", (chost, cport))
        if result is not None:
            self._resolve_cache[dst_urn] = (self.sim.now, result)
        return result

    def _invalidate(self, dst_urn: str) -> None:
        self._resolve_cache.pop(dst_urn, None)

    # -- sending ------------------------------------------------------------------
    def send(self, dst_urn: str, payload: Any, tag: str = "", size: Optional[int] = None):
        """Send a message to a URN; returns a process event (yield it).

        Completion means the destination endpoint acknowledged delivery.
        Raises :class:`SendError` only after ``buffer_timeout`` of retries.
        """
        return self.sim.process(
            self._send(dst_urn, payload, tag, size), name=f"ctx-send:{self.urn}"
        )

    def _send(self, dst_urn: str, payload: Any, tag: str, size: Optional[int]):
        if size is None:
            try:
                size = xdr_size(payload) + ENVELOPE_OVERHEAD
            except Exception:
                size = payload_size(payload) + ENVELOPE_OVERHEAD
        from repro.sim.resources import Resource

        lock = self._send_locks.get(dst_urn)
        if lock is None:
            lock = self._send_locks[dst_urn] = Resource(self.sim, capacity=1)
        yield lock.request()
        try:
            yield from self._send_locked(dst_urn, payload, tag, size)
        finally:
            lock.release()
        return True

    def _send_locked(self, dst_urn: str, payload: Any, tag: str, size: int):
        seq = self._send_seq.get(dst_urn, 0) + 1
        self._send_seq[dst_urn] = seq
        env = Envelope(self.urn, dst_urn, seq, tag, payload, size, self.incarnation)
        if self.sim.probes is not None:
            self.sim.probes.emit(
                "ctx.send", src=self.urn, inc=self.incarnation,
                dst=dst_urn, seq=seq, tag=tag,
            )
        deadline = self.sim.now + self.buffer_timeout
        while True:
            loc = yield from self._resolve(dst_urn)
            if loc is not None:
                kind, where = loc
                if kind == "group":
                    if self.daemon.mcast is None:
                        raise SendError(f"{self.host.name}: no multicast service")
                    n = yield self.daemon.mcast.send(where, env, self.urn)
                    if n > 0:
                        self.msgs_sent += 1
                        return True
                else:
                    try:
                        yield self.endpoint.send(where[0], where[1], env, env.size)
                        self.msgs_sent += 1
                        return True
                    except SendError:
                        pass  # buffered: retry after re-resolution
                self._invalidate(dst_urn)
            if self.sim.now >= deadline:
                raise SendError(
                    f"{self.urn}: message to {dst_urn} undeliverable after "
                    f"{self.buffer_timeout}s of buffering"
                )
            yield self.sim.timeout(self.retry_interval)

    # -- receiving ------------------------------------------------------------------
    def recv(self, tag: Optional[str] = None):
        """Event yielding the next :class:`Envelope` (optionally by tag)."""
        ev = Event(self.sim)
        for i, env in enumerate(self._pending):
            if tag is None or env.tag == tag:
                del self._pending[i]
                ev.succeed(env)
                return ev
        self._waiters.append((tag, ev))
        return ev

    def _accept(self, env: Envelope) -> None:
        """Exactly-once, per-stream-FIFO admission.

        A stream is (source URN, source incarnation). SRUDP
        retransmissions and the migration relay can duplicate and reorder
        envelopes; the sequence numbers deliver each stream exactly once,
        in order. First contact with an unknown stream syncs the cursor
        to the arriving sequence number — that is how a receiver
        restarted from a checkpoint (a new incarnation with no memory of
        consumed prefixes) resumes conversations; the sender-side
        per-destination serialization guarantees the sync cannot skip an
        in-flight earlier message.
        """
        max_inc = self._max_inc.get(env.src_urn, 0)
        if env.src_inc < max_inc and self.rx_fencing_enabled:
            # A newer incarnation of this source has already spoken: the
            # sender is a fenced zombie and its stragglers are dropped.
            self.msgs_fenced += 1
            self.sim.obs.metrics.counter("ctx.msgs_fenced").inc()
            return
        if env.src_inc > max_inc:
            self._max_inc[env.src_urn] = env.src_inc
        key = (env.src_urn, env.src_inc)
        expected = self._next_seq.get(key)
        if expected is None:
            expected = env.seq  # sync onto the stream at first contact
        if env.seq < expected:
            self.msgs_deduped += 1
            return
        hold = self._ooo.setdefault(key, {})
        if env.seq > expected:
            if env.seq not in hold:
                hold[env.seq] = env
            else:
                self.msgs_deduped += 1
            return
        # In-order: deliver it, then drain any consecutive held arrivals.
        self._deliver(env)
        expected += 1
        while expected in hold:
            self._deliver(hold.pop(expected))
            expected += 1
        self._next_seq[key] = expected

    def _deliver(self, env: Envelope) -> None:
        self.msgs_received += 1
        if self.sim.probes is not None:
            self.sim.probes.emit(
                "ctx.deliver", dst=self.urn, dst_inc=self.incarnation,
                src=env.src_urn, src_inc=env.src_inc, seq=env.seq, tag=env.tag,
            )
        for i, (tag, ev) in enumerate(self._waiters):
            if tag is None or env.tag == tag:
                del self._waiters[i]
                ev.succeed(env)
                return
        self._pending.append(env)

    def _rx_loop(self):
        try:
            while True:
                msg = yield self.endpoint.recv()
                env = msg.payload
                if not isinstance(env, Envelope):
                    continue
                if self._redirect is not None:
                    # §5.6: the original acts as a relay after migrating.
                    host, port = self._redirect
                    defuse(self.endpoint.send(host, port, env, env.size))
                    continue
                if self._frozen:
                    # Between checkpoint capture and redirect activation:
                    # holding these (instead of accepting them into the
                    # already-captured pending list) is what makes
                    # migration lossless.
                    self._freeze_backlog.append(env)
                    continue
                self._accept(env)
        except Interrupt:
            return

    # -- group communication (§5.4, via the daemon's multicast service) ----------
    def join_group(self, group: str, mode: str = "majority"):
        if self.daemon.mcast is None:
            raise RuntimeError(f"{self.host.name}: no multicast service attached")
        return self.daemon.mcast.join(group, self.urn, mode)

    def send_group(self, group: str, payload: Any, tag: str = "", mode: str = "majority"):
        if self.daemon.mcast is None:
            raise RuntimeError(f"{self.host.name}: no multicast service attached")
        env = Envelope(self.urn, uri_mod.mcast_urn(group), 0, tag, payload, 0)
        return self.daemon.mcast.send(group, env, self.urn, mode)

    def recv_group(self, group: str):
        """Event yielding the next group message's :class:`Envelope`."""
        ev = Event(self.sim)
        inner = self.daemon.mcast.recv(group, self.urn)

        def unwrap(e):
            if e._exc is not None:
                ev.fail(e._exc)
                return
            item = e._value
            env = item["payload"] if isinstance(item, dict) else item
            ev.succeed(env)

        inner.add_callback(unwrap)
        return ev

    def leave_group(self, group: str):
        return self.daemon.mcast.leave(group, self.urn)

    # -- metadata access ------------------------------------------------------------
    def lookup(self, uri: str):
        return self.rc.lookup(uri)

    def publish(self, assertions: Dict[str, Any], uri: Optional[str] = None):
        """Publish assertions about self (or another URI) to the catalog."""
        return self.rc.update(uri or self.urn, assertions)

    def watch(self, target_urn: str):
        """Add self to *target*'s notify list (a process; yield it)."""
        return self.sim.process(self._watch(target_urn), name=f"watch:{target_urn}")

    def _watch(self, target_urn: str):
        meta = yield self.rc.lookup(target_urn)
        current = (meta.get("notify-list") or {}).get("value") or []
        if self.urn not in current:
            current = current + [self.urn]
        yield self.rc.update(target_urn, {"notify-list": current})
        return True

    # -- spawning ----------------------------------------------------------------
    def spawn(self, spec: TaskSpec, on_host: Optional[str] = None):
        """Spawn a task (on a named host, or locally); yields the URN."""
        return self.sim.process(self._spawn(spec, on_host), name=f"ctx-spawn:{self.urn}")

    def _spawn(self, spec: TaskSpec, on_host: Optional[str]):
        if on_host is None or on_host == self.host.name:
            info = self.daemon.spawn(spec)
            return info.urn
        result = yield self.daemon._client.call(
            on_host, DAEMON_PORT, "daemon.spawn", timeout=TIMEOUTS["ctx.spawn"],
            spec=spec, direct=True
        )
        return result["urn"]

    def spawn_via_rm(self, spec: TaskSpec, owner: str = "anonymous"):
        """Spawn through the resource managers (§3.4: "either directly or
        via a resource manager"); yields the RM's allocation result."""
        if getattr(self, "_rm_client", None) is None:
            from repro.rm.client import RmClient

            self._rm_client = RmClient(self.host, self.rc)
        return self._rm_client.request(spec, owner=owner)

    # -- migration (§5.6: self-initiated) ----------------------------------------
    def migrate(self, to_host: str):
        """Move this process to *to_host*; returns a process event.

        Contract: the program calls ``moved = yield ctx.migrate(h)`` and
        returns immediately when ``moved`` is True — execution continues
        on the new host from ``ctx.checkpoint_state``.
        """
        return self.sim.process(self._migrate(to_host), name=f"migrate:{self.urn}")

    def _migrate(self, to_host: str):
        # 1. Freeze: capture application + communication state. Anything
        #    already received but not yet consumed travels with us;
        #    anything arriving from here on is backlogged for the relay.
        self._frozen = True
        comm = {
            "pending": list(self._pending),
            "send_seq": dict(self._send_seq),
            "next_seq": dict(self._next_seq),
            "ooo": {k: dict(v) for k, v in self._ooo.items()},
            "max_inc": dict(self._max_inc),
            "incarnation": self.incarnation,
        }
        state = dict(self.checkpoint_state)
        state["__comm__"] = comm
        self._pending.clear()
        spec = self.info.spec
        new_spec = TaskSpec(
            program=spec.program,
            params=spec.params,
            arch=spec.arch,
            os=spec.os,
            min_memory=spec.min_memory,
            cpu_quota=spec.cpu_quota,
            memory_quota=spec.memory_quota,
            name=spec.name,
            initial_state=state,
            mobile_code=spec.mobile_code,
            owner=spec.owner,
            urn_override=self.urn,
        )
        # 2. Start the new instance (it re-registers its comm address).
        try:
            yield self.daemon._client.call(
                to_host, DAEMON_PORT, "daemon.spawn",
                timeout=TIMEOUTS["ctx.spawn"], spec=new_spec, direct=True,
            )
        except RpcError:
            # Migration failed: keep running here, tell the caller.
            self.checkpoint_state.pop("__comm__", None)
            self._pending = comm["pending"]
            self._frozen = False
            backlog, self._freeze_backlog = self._freeze_backlog, []
            for env in backlog:
                self._accept(env)
            return False
        # 3. Find the new instance's comm address and become a relay.
        new_loc = None
        for _ in range(50):
            self._invalidate(self.urn)
            loc = yield from self._resolve(self.urn)
            if loc is not None and loc[0] == "direct" and loc[1][0] == to_host:
                new_loc = loc[1]
                break
            yield self.sim.timeout(0.1)
        if new_loc is not None:
            self._redirect = new_loc
            # Flush everything that arrived during the freeze window.
            backlog, self._freeze_backlog = self._freeze_backlog, []
            for env in backlog:
                defuse(self.endpoint.send(new_loc[0], new_loc[1], env, env.size))
        # 4. Mark ourselves migrated locally and notify watchers. The RC
        #    *state* record is deliberately NOT republished from here: the
        #    new instance already wrote state=running with its new host,
        #    and a later write from the old instance would win the
        #    last-writer-wins race and advertise a dead location.
        self.info.state = TaskState.MIGRATED
        self.info.ended_at = self.sim.now
        self.daemon._fire_notifications(self.info)
        defuse(self.sim.process(self._relay_then_close(), name=f"relay:{self.urn}"))
        return True

    def _relay_then_close(self):
        yield self.sim.timeout(self.redirect_grace)
        self.endpoint.close()
        if self._rx_proc.is_alive:
            self._rx_proc.interrupt("migrated")
