"""The Guardian: lease-based failure detection and checkpoint restart.

The paper's daemons "inform interested parties of changes to the status
of tasks" (§5.2.3) and its checkpoints survive "even the death of the
original host" (§5.6) — but the seed repo left the *recovery* loop to
whoever was watching. The Guardian closes that loop as a SNIPE service:

* **Detection** — every daemon re-asserts ``lease-expires`` in its host
  metadata on each load-loop tick; the Guardian scans the catalog and
  suspects any host with a lapsed lease, then confirms the death in one
  probe round: every interface of every suspect is pinged at once, and
  a suspect is dead only if every path fails. Host death is therefore
  detected within ``lease_ttl + scan_interval + grace + PROBE_TIMEOUT``
  of the crash, regardless of who was talking to the host. Task-level
  failures on live hosts arrive faster, through the ordinary notify-list
  machinery — the Guardian subscribes itself to every checkpointed task
  it owns.
* **Recovery** — the dead task's latest checkpoint LIFN is read from the
  replicated file service, and the task is respawned through a resource
  manager (whose lease-aware placement avoids dead hosts) with a spec
  that asks for fencing.
* **Fencing** — the Guardian writes no fence itself. The daemon that
  spawns the successor draws N from the monotonic incarnation sequence,
  quorum-writes ``fenced-below: N`` into the task's record (a max
  register: it only ever rises), and launches the successor *as
  incarnation N* unless it reads a higher fence back
  (``SnipeDaemon._spawn_fenced``); the RM relays the reply's
  incarnation. Receivers drop envelopes from incarnations below the
  highest they have seen, and a supervised zombie that was merely
  partitioned polls its own record and terminates itself (quietly — no
  RC write) when it finds itself below the fence. A restarted task
  therefore executes its role exactly once even when the "dead"
  original is still running.

Guardians are replicable exactly like RMs: they register under
``urn:snipe:svc:guardian``, share no private state, and shard recovery
ownership by hashing the task URN over the *live* guardian set — so a
dead guardian's share is picked up by the survivors on the next scan.
"""

from __future__ import annotations

import zlib
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.core.checkpoint import spec_from_record, verify_checkpoint_record
from repro.daemon.daemon import DAEMON_PORT
from repro.daemon.tasks import TaskState
from repro.files.client import FileClient
from repro.rcds import uri as uri_mod
from repro.rcds.client import QUORUM, RCClient
from repro.rm.client import RmClient
from repro.robust.health import HealthBoard
from repro.robust.overload import CONTROL
from repro.robust.replicas import discover
from repro.robust.retry import RetryPolicy
from repro.rpc import RpcClient, RpcServer
from repro.sim.events import defuse
from repro.sim.resources import Store

if TYPE_CHECKING:  # pragma: no cover
    from repro.daemon.daemon import SnipeDaemon
    from repro.net.host import Host

#: Well-known guardian port.
GUARDIAN_PORT = 3700
#: How long one confirmation round waits for a suspect's pings: the
#: static timeout of each per-interface ``daemon.ping``, never backed off.
PROBE_TIMEOUT = 0.5


def _values(record: Dict) -> Dict:
    """A looked-up record's assertions as ``{key: value}``."""
    return {key: info["value"] for key, info in record.items()}


class Guardian:
    """One guardian instance; run several (on different hosts) for redundancy."""

    def __init__(
        self,
        host: "Host",
        rc: RCClient,
        daemon: Optional["SnipeDaemon"] = None,
        port: int = GUARDIAN_PORT,
        secret: Optional[bytes] = None,
        scan_interval: float = 1.0,
        grace: float = 0.5,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        self.sim = host.sim
        self.host = host
        self.rc = rc
        self.port = port
        self.scan_interval = scan_interval
        #: Slack added to the lease horizon before declaring death, so a
        #: heartbeat delayed by queueing/retransmission is not a "crash".
        self.grace = grace
        retry = retry or RetryPolicy(attempts=3, base_delay=0.2, max_delay=2.0)
        self.files = FileClient(host, rc, secret=secret, retry=retry)
        self.rm = RmClient(host, rc, secret=secret, retry=retry)
        #: Direct line to suspect daemons: before declaring a host dead
        #: on lease evidence alone, ping it. A one-way partition or a
        #: skewed clock makes a live host *look* lease-lapsed; killing it
        #: (fence + respawn) on that evidence is a false death. Disabled
        #: with the heartbeat-only detector (``--bug naive-health``).
        self._probe = RpcClient(host, secret=secret)
        #: The last scan's verdict, ``{host: lease-expiry}`` of confirmed
        #: deaths. The notify and recovery paths read it; only a scan
        #: probes, so a suspect costs one round per scan.
        self._dead: Dict[str, float] = {}
        self.false_deaths_averted = 0
        self.ckpt_rejected = 0
        #: The guardian's own pseudo-process URN: being in the local
        #: daemon's context table under this URN is what lets the
        #: ordinary ``daemon.notify`` path deliver task-death events here.
        self.urn = uri_mod.process_urn(f"guardian.{host.name}")
        self.notifications: Store = Store(self.sim)
        if daemon is not None:
            daemon.contexts[self.urn] = self  # type: ignore[assignment]

        #: Completed recoveries: dicts with urn, from/to hosts, old/new
        #: incarnation, detected_at, recovered_at.
        self.recoveries: List[Dict] = []
        #: urn -> host for dead tasks that had no checkpoint to restart.
        self.unrecoverable: Dict[str, str] = {}
        self._recovering: set = set()
        self._watched: set = set()
        #: urn -> time its host was first seen dead (detect latency anchor).
        self._detected: Dict[str, float] = {}

        metrics = self.sim.obs.metrics
        self._m_recoveries = metrics.counter("guardian.recoveries")
        self._m_failed = metrics.counter("guardian.recovery_failures")
        self._m_unrecoverable = metrics.counter("guardian.unrecoverable")
        self._m_detect = metrics.histogram("guardian.detect_latency")
        self._m_recover = metrics.histogram("guardian.recovery_latency")
        self._m_deaths = metrics.counter("guardian.deaths_declared")
        self._m_probe_saved = metrics.counter("guardian.probe_saved")
        self._m_ckpt_rejected = metrics.counter("guardian.ckpt_rejected")
        #: Count of first-time death declarations (E12's false-death
        #: metric: under pure overload this must stay at zero).
        self.deaths_declared = 0

        self.rpc = RpcServer(host, port, secret=secret)
        self.rpc.register("guardian.status", self._h_status)
        self.sim.process(self._register(), name=f"guardian-reg:{host.name}")
        self.sim.process(self._scan_loop(), name=f"guardian-scan:{host.name}")
        self.sim.process(self._notify_loop(), name=f"guardian-notify:{host.name}")

    # -- registration ----------------------------------------------------------
    def _register(self):
        try:
            yield self.rc.update(
                uri_mod.service_urn("guardian"),
                {f"location:{self.host.name}:{self.port}": True},
            )
            yield self.rc.update(
                self.urn,
                {"host": self.host.name, "state": TaskState.RUNNING, "kind": "guardian"},
            )
        except Exception:
            pass  # RC unreachable at boot; the scan loop re-registers

    def _h_status(self, args: Dict) -> Dict:
        return {
            "recoveries": len(self.recoveries),
            "recovering": sorted(self._recovering),
            "unrecoverable": dict(self.unrecoverable),
        }

    # -- failure detection -----------------------------------------------------
    def _scan_loop(self):
        registered = False
        owner = f"guardian:{self.host.name}"
        while True:
            # Lease scans are long periodic sleeps: park them in the
            # timer wheel instead of the event heap.
            yield self.sim.timer_event(self.scan_interval, owner=owner)
            if not self.host.up:
                registered = False
                continue
            if not registered:
                # First tick after boot or after our own host recovered:
                # make sure our service registration is in the catalog.
                defuse(self.sim.process(self._register(), name=f"guardian-rereg:{self.host.name}"))
                registered = True
            try:
                yield from self._scan()
            except Exception:
                continue  # catalog flaky this tick; next scan retries

    def _dead_hosts(self):
        """Hosts whose lease has lapsed *and* that failed the scan's
        probe round, as ``{host: lease-expiry}``; kept as the verdict
        the notify and recovery paths read until the next scan.

        Lease comparison uses this guardian's own (possibly skewed) wall
        clock — exactly the evidence a real detector would have. The
        probe is what keeps that honest: a lapsed lease only says the
        daemon's heartbeat didn't reach the catalog, which a one-way
        partition or clock skew produces without anybody dying.

        Every host record is read in one ``lookup_many``; if that batch
        fails, so does the scan (the next tick retries it), exactly as
        when the ``query`` before it fails.
        """
        urls = yield self.rc.query("snipe://", lane=CONTROL)
        hosts = uri_mod.host_records(urls)
        records = yield self.rc.lookup_many(list(hosts), lane=CONTROL)
        suspects = {}
        now = self.host.clock()
        for url, host_name in hosts.items():
            val = _values(records[url]).get
            lease = val("lease-expires")
            if lease is not None and lease + self.grace < now:
                suspects[host_name] = (lease, val("interfaces") or {})
        alive = yield from self._probe_round(suspects)
        self._dead = {h: lease for h, (lease, _ifs) in suspects.items()
                      if h not in alive}
        return self._dead

    def _probe_round(self, suspects: Dict):
        """Second opinion on lease-lapsed hosts: the set that answered.

        One bounded round: every interface a suspect's host record
        lists (§5.2.1) gets its own ``daemon.ping`` at once, pinned to
        that address and answered over the same path, each waiting the
        static :data:`PROBE_TIMEOUT`. A suspect is alive if any path
        answers — a one-way cut of its primary segment is not a death —
        and the whole round takes at most one timeout however many
        suspects and paths there are. Gated on the differential
        detector: the ``naive-health`` baseline trusts leases alone,
        which is the bug E15 demonstrates.
        """
        if not HealthBoard.differential_enabled:
            return set()
        verdicts = {host_name: self._ping_paths(host_name, interfaces)
                    for host_name, (_lease, interfaces) in suspects.items()}
        yield self.sim.all_of(list(verdicts.values()))
        alive = set()
        for host_name, verdict in verdicts.items():
            if not verdict.value:
                continue
            alive.add(host_name)
            self.false_deaths_averted += 1
            self._m_probe_saved.inc()
            tracer = self.sim.obs.tracer
            if tracer.enabled:
                tracer.event("guardian.probe_alive", guardian=self.host.name,
                             host=host_name)
        return alive

    def _ping_paths(self, host_name: str, interfaces: Dict):
        """Ping every interface of *host_name* at once; the returned
        event succeeds with True at the first answer, or with False
        once every path has failed."""
        verdict = self.sim.event()
        calls = [self._probe.call(host_name, DAEMON_PORT, "daemon.ping",
                                  timeout=PROBE_TIMEOUT, lane=CONTROL,
                                  via=info["ip"])
                 for _iface, info in sorted(interfaces.items())]
        pending = len(calls)

        def settle(call):
            nonlocal pending
            pending -= 1
            if not verdict.triggered and (call.ok or not pending):
                verdict.succeed(call.ok)

        for call in calls:
            call.add_callback(settle)
        if not calls:
            verdict.succeed(False)
        return verdict

    def _live_guardians(self, dead):
        """Guardian hosts registered in the catalog, minus dead ones."""
        try:
            guardians = yield from discover(self.rc, "guardian", CONTROL)
        except Exception:
            return [self.host.name]
        return sorted({h for h, _port in guardians if h not in dead}) or [self.host.name]

    def _owns(self, urn: str, live_guardians: List[str]) -> bool:
        idx = zlib.crc32(urn.encode()) % len(live_guardians)
        return live_guardians[idx] == self.host.name

    @staticmethod
    def _is_dead(state, error, task_host, dead) -> bool:
        """Is this task dead in a way the Guardian should repair?

        Three shapes of death: (a) the record says *running* but the
        host's lease lapsed — fail-stop crash or partition, nobody could
        report it; (b) the record says *killed* with a host-crash error —
        the host died and came back fast enough to reconcile its own
        catalog entries; (c) the record says *failed* — the program
        itself crashed on a live host. Deliberate kills (state killed,
        other error) are respected and never resurrected.
        """
        if state == TaskState.RUNNING:
            return task_host in dead
        if state == TaskState.KILLED:
            return error == "host-crash"
        return state == TaskState.FAILED

    @staticmethod
    def _death_reason(state) -> str:
        """Why the Guardian is declaring this death (for probes/oracles).

        ``host-lease`` deaths are the only inferred kind — the host never
        reported anything, the Guardian concluded death from a lapsed
        lease — so they are the only kind a false-death oracle audits.
        """
        if state == TaskState.RUNNING:
            return "host-lease"
        if state == TaskState.KILLED:
            return "host-crash-report"
        return "task-failed"

    def _scan(self):
        dead = yield from self._dead_hosts()
        live_guardians = yield from self._live_guardians(dead)
        urns = yield self.rc.query("urn:snipe:proc:", lane=CONTROL)
        records = yield self.rc.lookup_many(urns, lane=CONTROL)
        for urn in urns:
            # Checked after the batch: the notify path may have started
            # a recovery while it was out.
            if urn in self._recovering:
                continue
            val = _values(records[urn]).get
            if val("kind") == "guardian":
                continue
            lifn = val("checkpoint-lifn")
            state, task_host = val("state"), val("host")
            if lifn is not None and state == TaskState.RUNNING and self._owns(urn, live_guardians):
                # Subscribe to the task's notify list so a daemon-reported
                # death (task failure on a live host) reaches us without
                # waiting for a lease to lapse.
                if urn not in self._watched:
                    self._watched.add(urn)
                    current = val("notify-list") or []
                    if self.urn not in current:
                        defuse(self.rc.update(urn, {"notify-list": current + [self.urn]}))
            if not self._is_dead(state, val("exit-error"), task_host, dead):
                self._detected.pop(urn, None)
                continue
            if self._declare(urn, task_host, state) and task_host in dead \
                    and state == TaskState.RUNNING:
                # Detect latency relative to the lease lapsing — the
                # bound the harness checks is lease_ttl + scan + grace.
                self._m_detect.observe(self.sim.now - dead[task_host])
            if lifn is None:
                if urn not in self.unrecoverable:
                    self.unrecoverable[urn] = task_host
                    self._m_unrecoverable.inc()
                continue
            if not self._owns(urn, live_guardians):
                continue
            self._start_recovery(urn, lifn, task_host, val("incarnation"))

    def _notify_loop(self):
        """Fast path: daemon-reported task deaths on still-live hosts."""
        while True:
            event = yield self.notifications.get()
            if not isinstance(event, dict) or event.get("kind") != "state-change":
                continue
            state = event.get("state")
            if state != TaskState.FAILED and not (
                state == TaskState.KILLED and event.get("error") == "host-crash"
            ):
                continue
            defuse(
                self.sim.process(
                    self._consider(event["urn"]), name=f"guardian-consider:{event['urn']}"
                )
            )

    def _consider(self, urn: str):
        if urn in self._recovering:
            return
        try:
            # QUORUM: a replica that has not yet applied the daemon's
            # death report would send the recovery to the next scan.
            meta = yield self.rc.lookup(urn, consistency=QUORUM, lane=CONTROL)
        except Exception:
            return
        val = _values(meta).get
        if val("kind") == "guardian":
            return
        lifn = val("checkpoint-lifn")
        if lifn is None:
            return
        dead = self._dead
        if not self._is_dead(val("state"), val("exit-error"), val("host"), dead):
            return
        live_guardians = yield from self._live_guardians(dead)
        if not self._owns(urn, live_guardians):
            return
        self._declare(urn, val("host"), val("state"))
        self._start_recovery(urn, lifn, val("host"), val("incarnation"))

    def _declare(self, urn: str, host: Optional[str], state) -> bool:
        """Count *urn*'s first death verdict (the detect anchor); True if new."""
        if urn in self._detected:
            return False
        self._detected[urn] = self.sim.now
        self.deaths_declared += 1
        self._m_deaths.inc()
        if self.sim.probes is not None:
            self.sim.probes.emit("guardian.death", urn=urn, host=host or "",
                                 guardian=self.host.name,
                                 reason=self._death_reason(state))
        return True

    # -- recovery --------------------------------------------------------------
    def _start_recovery(self, urn, lifn, from_host, old_inc) -> None:
        self._recovering.add(urn)
        defuse(
            self.sim.process(
                self._recover(urn, lifn, from_host, old_inc),
                name=f"guardian-recover:{urn}",
            )
        )

    def _recover(self, urn: str, lifn: str, from_host: str, old_inc: Optional[int]):
        detected_at = self._detected.get(urn, self.sim.now)
        prev_lifn: Optional[str] = None
        try:
            # 0. Confirm against a quorum read: the scan may have seen a
            #    stale replica (e.g. a record predating a recovery we just
            #    completed). If the freshest record is no longer dead, a
            #    successor is already in place — do nothing. If the quorum
            #    is unreachable, proceed on the scan's evidence: fencing
            #    makes a redundant recovery safe, just wasteful.
            try:
                meta = yield self.rc.lookup(urn, consistency=QUORUM, lane=CONTROL)
            except Exception:
                meta = None
            if meta is not None:
                val = _values(meta).get
                if not self._is_dead(val("state"), val("exit-error"),
                                     val("host"), self._dead):
                    self._detected.pop(urn, None)
                    return
                inc = val("incarnation")
                if inc is not None and (old_inc is None or inc > old_inc):
                    old_inc = inc
                from_host = val("host") or from_host
                lifn = val("checkpoint-lifn") or lifn
                prev_lifn = val("checkpoint-prev-lifn")
            # 1. Latest durable state — digest-verified. A checkpoint
            #    corrupted on its way to disk is rejected here, and the
            #    previous good version (kept by the writer's LIFN
            #    rotation) is respawned instead: stale state beats
            #    garbage state.
            got = yield self.files.read(lifn)
            record = got["payload"]
            if not verify_checkpoint_record(record):
                self.ckpt_rejected += 1
                self._m_ckpt_rejected.inc()
                if self.sim.probes is not None:
                    self.sim.probes.emit("guardian.ckpt_rejected", urn=urn, lifn=lifn)
                if prev_lifn is None:
                    try:
                        prev_lifn = yield self.rc.get(urn, "checkpoint-prev-lifn")
                    except Exception:
                        prev_lifn = None
                if prev_lifn is None:
                    raise RuntimeError(
                        f"checkpoint {lifn!r} corrupt, no previous good version"
                    )
                got = yield self.files.read(prev_lifn)
                record = got["payload"]
                if not verify_checkpoint_record(record):
                    self.ckpt_rejected += 1
                    self._m_ckpt_rejected.inc()
                    raise RuntimeError(
                        f"checkpoints {lifn!r} and {prev_lifn!r} both corrupt"
                    )
            spec = spec_from_record(record)
            spec.fence_predecessors = True
            # 2. Respawn through an RM; lease-aware placement steers the
            #    task away from dead (and merely-partitioned) hosts. The
            #    spawning daemon fences every earlier incarnation and
            #    replies with the incarnation the task runs on.
            result = yield self.rm.request(spec, owner="guardian")
            new_host, new_inc = result.get("host"), result.get("incarnation")
            recovered_at = self.sim.now
            self._m_recoveries.inc()
            self._m_recover.observe(recovered_at - detected_at)
            if self.sim.obs.tracer.enabled:
                self.sim.obs.tracer.event(
                    "guardian.recover", urn=urn, from_host=from_host,
                    to_host=new_host, old_inc=old_inc, new_inc=new_inc,
                )
            self.recoveries.append({
                "urn": urn,
                "from": from_host,
                "to": new_host,
                "old_inc": old_inc,
                "new_inc": new_inc,
                "detected_at": detected_at,
                "recovered_at": recovered_at,
            })
            self._detected.pop(urn, None)
        except Exception:
            # RM unreachable / checkpoint unreadable this round: drop the
            # guard so the next scan retries from scratch.
            self._m_failed.inc()
        finally:
            self._recovering.discard(urn)
