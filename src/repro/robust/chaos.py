"""Seeded chaos harness: faults + self-healing + invariant checking.

Builds a star site (a stable service core, plus workers that are each
alone on a private segment behind a gateway), runs a checkpointing
workload across the workers, and drives a seeded schedule of host
crashes and partitions against them while the Guardians repair the
damage. After quiescence it checks the system-wide invariants that
self-healing must preserve:

* **completed-exactly-once** — every submitted task reports exactly one
  effective completion (duplicate reports are deduplicated and counted,
  and must agree on the result);
* **no-incarnation-regression** — the incarnations a receiver accepts
  per task never decrease, and every Guardian recovery strictly raised
  the incarnation;
* **catalogs-converged** — after anti-entropy settles, every RC replica
  independently reports the same terminal state for every task;
* **no-silent-loss** — every unit of work was reported (restart suffix
  re-reports are fine, gaps are not), no envelope is still parked in a
  reorder buffer, and everything the workers got an ack for was either
  delivered, deduplicated, or deliberately fenced at the receiver.

Worker segments go down *without* the worker host crashing — that is the
zombie scenario: the Guardian (correctly, per its lease evidence)
declares the worker dead and respawns it, and the fencing machinery must
then keep the surviving original from double-executing. Host crashes use
the refcounted injector one-shots, so overlapping fault windows compose.

Every ``run_*`` here is one scenario's chaos mode: a generator body
handed to :func:`repro.robust.spine.run_spine`, which owns the phases
the scenarios share (instrumentation, probe bus, flight recorder, the
run itself, the verdict/flight tail). They are looked up by name through
:data:`repro.check.scenarios.SCENARIOS`; each returns its report dict,
and ``run_*.run(...)`` the whole :class:`~repro.robust.spine.Run`.

Entry points: :func:`run_chaos` (one seed -> report dict), used by
``python -m repro chaos run --seed N`` and the parametrized pytest
suite in ``tests/robust/test_chaos.py``; and :func:`run_overload`
(``--scenario overload``), which saturates the same site with bulk
traffic instead of killing hosts and checks that the control plane —
lease heartbeats, Guardian probes — stays live and that no false
death is declared (experiment E12); and :func:`run_bulk_chaos`
(``--scenario bulk``), which kills a relay head mid-distribution and
checks the bulk plane completes everywhere, verified, exactly once
per chunk (experiment E13's crash case).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.bulk.testbed import build_bulk_site, make_payload
from repro.core.checkpoint import checkpoint_to_files
from repro.core.environment import SnipeEnvironment
from repro.daemon.tasks import TaskSpec, TaskState
from repro.obs.slo import _metric_value
from repro.rcds import uri as uri_mod
from repro.rcds.client import QUORUM, ConsistencyError, RCClient
from repro.rcds.records import MOVED
from repro.rcds.server import RC_PORT
from repro.robust import TIMEOUTS
from repro.robust.health import HealthBoard
from repro.robust.overload import CONTROL
from repro.robust.spine import Run, Verdict, run_spine, scenario_runner
from repro.rpc import RpcClient, RpcError

#: Seeds the CI smoke and the pytest suite pin.
DEFAULT_SEEDS = (1, 2, 3, 4, 5)


def _star_site(
    seed: int,
    n_workers: int,
    configure: Optional[Callable] = None,
    backup_core: bool = False,
) -> Tuple[SnipeEnvironment, List[str]]:
    """Hosts and wires of the star site, nothing running on them yet:
    c0-c2 and a forwarding gateway on the core LAN(s), each worker alone
    on its own segment behind the gateway so it can be isolated."""
    env = SnipeEnvironment(seed=seed)
    if configure is not None:
        configure(env.sim)
    env.add_segment("core-lan")
    core_segments = ["core-lan"]
    if backup_core:
        env.add_segment("core-lan2")
        core_segments.append("core-lan2")
    for name in ("c0", "c1", "c2"):
        env.add_host(name, segments=core_segments)
    gw = env.add_host("gw", segments=core_segments, forwarding=True)
    workers = []
    for i in range(n_workers):
        seg = env.add_segment(f"s-w{i}")
        env.topology.connect(gw, seg)
        env.add_host(f"w{i}", segments=[f"s-w{i}"], arch="worker")
        workers.append(f"w{i}")
    return env, workers


def build_chaos_env(
    seed: int,
    n_workers: int = 4,
    rc_service_time: Optional[float] = None,
    configure: Optional[Callable] = None,
    backup_core: bool = False,
    rc_server_kw: Optional[Dict] = None,
) -> Tuple[SnipeEnvironment, List[str]]:
    """The chaos site: stable core (RC x3, RM, files, guardians) behind a
    gateway, each worker alone on its own segment so it can be isolated.

    ``rc_service_time`` makes the RC replicas single-threaded bottleneck
    servers (the overload scenario saturates them); ``configure(sim)``
    runs before any endpoint exists, so it can set
    :class:`repro.robust.overload.OverloadConfig` fields that are read at
    queue-construction time. ``backup_core`` adds a second core segment
    (every core host dual-homed), so a one-way fault on one core link has
    a healthy alternate path — the gray scenario's per-interface health
    scoring steers around the sick link instead of timing out forever.
    """
    env, workers = _star_site(seed, n_workers, configure, backup_core)
    server_kw = dict(rc_server_kw or {})
    if rc_service_time is not None:
        server_kw["service_time"] = rc_service_time
    env.add_rc_servers(["c0", "c1", "c2"], **server_kw)
    for name in ("c0", "c1", "c2", "gw", *workers):
        env.boot_daemon(name)
    env.add_rm("c0")
    env.add_file_server("c0")
    env.add_file_server("c1")
    env.add_guardian("c1")
    env.add_guardian("c2")
    return env, workers


def new_coll_state() -> Dict:
    """Fresh collector-side bookkeeping for :func:`install_chaos_programs`."""
    return {"done": {}, "dup_done": {}, "progress": {}, "incs": {}, "mismatch": []}


def install_chaos_programs(env: SnipeEnvironment, acked: Dict[str, int], coll_state: Dict):
    """Register the chaos-worker / chaos-collector programs on *env*.

    Shared by the chaos harness and the model-checking scenarios in
    :mod:`repro.check`, which run the same workload under explored
    schedules.
    """
    @env.program("chaos-worker")
    def chaos_worker(ctx, total, ckpt_every, collector_urn, step):
        def take_checkpoint():
            # Checkpointing is durability, not progress: when every file
            # server is briefly unreachable (gray quorum loss, one-way
            # cuts) the task keeps computing and retries at the next
            # boundary — dying here would turn a storage degradation
            # into the very failure checkpoints exist to survive. The
            # cost is bounded: recovery resumes from the last checkpoint
            # that *did* land, and the output-commit discipline below
            # makes the redone steps duplicates the collector dedups.
            try:
                yield checkpoint_to_files(ctx)
            except Exception:
                coll_state["ckpt_skipped"] = coll_state.get("ckpt_skipped", 0) + 1
                ctx.sim.obs.metrics.counter("ckpt.skipped").inc()

        i = ctx.checkpoint_state.get("i", 0)
        # Checkpoint immediately: from the first instant there is a
        # durable state for the Guardian to restart from.
        yield from take_checkpoint()
        while i < total:
            yield ctx.compute(step)
            i += 1
            ctx.checkpoint_state["i"] = i
            yield ctx.send(collector_urn,
                           {"urn": ctx.urn, "i": i, "inc": ctx.incarnation},
                           tag="progress")
            acked[ctx.urn] = acked.get(ctx.urn, 0) + 1
            # Output-commit discipline: checkpoint only after the report
            # for this step was acknowledged. A checkpoint that ran ahead
            # of unacknowledged output would let a crash lose the report
            # for work the successor (resuming past it) never redoes.
            if i % ckpt_every == 0:
                yield from take_checkpoint()
        # App-level fence check before claiming completion: a superseded
        # incarnation leaves the completion report to its successor.
        try:
            fence = yield ctx.rc.get(ctx.urn, "fenced-below")
        except Exception:
            fence = None
        if fence is not None and ctx.incarnation < fence:
            return i
        yield ctx.send(collector_urn,
                       {"urn": ctx.urn, "result": i, "inc": ctx.incarnation},
                       tag="done")
        acked[ctx.urn] = acked.get(ctx.urn, 0) + 1
        return i

    @env.program("chaos-collector")
    def chaos_collector(ctx):
        while True:
            msg = yield ctx.recv()
            p = msg.payload
            urn = p["urn"]
            coll_state["incs"].setdefault(urn, []).append(msg.src_inc)
            if msg.tag == "done":
                if urn in coll_state["done"]:
                    coll_state["dup_done"][urn] = coll_state["dup_done"].get(urn, 0) + 1
                    if coll_state["done"][urn] != p["result"]:
                        coll_state["mismatch"].append(urn)
                else:
                    coll_state["done"][urn] = p["result"]
            else:
                coll_state["progress"].setdefault(urn, set()).add(p["i"])


class CheckpointWorkload:
    """The chaos-collector on c0 plus one checkpointing *program* task per
    worker host, started on a settled site — the workload the faults,
    overload and gray scenarios and their model-checking twins share.
    Task names (``<prefix>-coll``, ``<prefix>-w<i>``) are part of the
    replay contract."""

    def __init__(self, env: SnipeEnvironment, workers: List[str], prefix: str,
                 total: int, ckpt_every: int, step: float,
                 program: str = "chaos-worker") -> None:
        self.total = total
        self.acked: Dict[str, int] = {}
        self.state = new_coll_state()
        install_chaos_programs(env, self.acked, self.state)
        env.settle(2.0)
        self.coll = env.spawn(
            TaskSpec(program="chaos-collector", name=f"{prefix}-coll"), on="c0")
        self.urns: List[str] = []
        for i, w in enumerate(workers):
            spec = TaskSpec(
                program=program,
                arch="worker",  # keep (re)placement on the worker fleet
                name=f"{prefix}-w{i}",
                params={"total": total, "ckpt_every": ckpt_every,
                        "collector_urn": self.coll.urn, "step": step},
            )
            self.urns.append(env.spawn(spec, on=w).urn)

    def all_reported(self) -> bool:
        return len(self.state["done"]) == len(self.urns)

    def completed(self) -> List[str]:
        return [u for u in self.urns if self.state["done"].get(u) == self.total]


def _schedule_faults(
    env: SnipeEnvironment,
    workers: List[str],
    fault_stop: float,
    churn: bool,
    partitions: bool,
) -> List[str]:
    """Seeded fault plan. All faults start after t=3 (first checkpoints
    are durable by then) and end by *fault_stop* so the system can
    quiesce; every window has a recovery."""
    rng = env.sim.rng.stream("chaos.schedule")
    events: List[str] = []
    if churn:
        # Scheduled crash/repair windows (refcount-safe when overlapping).
        n_crashes = max(2, len(workers))
        for _ in range(n_crashes):
            w = workers[rng.randrange(len(workers))]
            t = rng.uniform(3.0, fault_stop * 0.8)
            d = rng.uniform(1.5, 6.0)
            env.failures.host_down_at(t, w, duration=d)
            events.append(f"t={t:5.1f}s crash {w} for {d:.1f}s")
        # Plus Poisson churn on half the fleet for good measure.
        victims = workers[::2]

        def start_churn():
            yield env.sim.timeout(3.0)
            env.failures.churn_hosts(victims, mtbf=15.0, mttr=2.0,
                                     stop_at=fault_stop)

        env.sim.process(start_churn(), name="chaos:churn-start")
        events.append(f"t=  3.0s churn mtbf=15s mttr=2s on {victims} until t={fault_stop:.0f}s")
    if partitions:
        for _ in range(max(1, len(workers) // 2)):
            w = workers[rng.randrange(len(workers))]
            t = rng.uniform(4.0, fault_stop * 0.8)
            d = rng.uniform(5.0, 10.0)
            env.failures.segment_down_at(t, f"s-{w}", duration=d)
            events.append(f"t={t:5.1f}s partition {w} for {d:.1f}s (host stays up: zombie)")
    events.sort()
    return events


def _check_catalogs(env: SnipeEnvironment, urns: List[str]):
    """Direct per-replica reads (no failover): do the replicas agree?"""
    client = RpcClient(env.topology.hosts["gw"])
    disagreements = []
    for urn in urns:
        states = {}
        for replica, _port in env.rc_replicas:
            try:
                assertions = yield client.call(replica, RC_PORT, "rc.lookup", uri=urn)
            except Exception:
                states[replica] = "<unreachable>"
                continue
            info = assertions.get("state")
            states[replica] = info["value"] if info else None
        if len(set(states.values())) != 1 or set(states.values()) != {TaskState.EXITED}:
            disagreements.append((urn, states))
    client.close()
    return disagreements


@scenario_runner
def run_chaos(
    seed: int,
    n_workers: int = 4,
    total: int = 60,
    ckpt_every: int = 4,
    duration: float = 120.0,
    churn: bool = True,
    partitions: bool = True,
    step: float = 0.3,
    instrument: Optional[Callable] = None,
    obs_sample: Optional[float] = None,
    flight: bool = True,
) -> Run:
    """One seeded chaos run; returns a report dict (``report["ok"]``)."""
    def scenario(run: Run, workers: List[str]):
        env = run.env
        work = CheckpointWorkload(env, workers, "chaos", total, ckpt_every, step)
        acked, coll_state, urns = work.acked, work.state, work.urns
        fault_stop = min(duration * 0.45, 45.0)
        events = _schedule_faults(env, workers, fault_stop, churn, partitions)

        # Run to quiescence: everyone done, or the duration budget spent.
        deadline = env.sim.now + duration
        while env.sim.now < deadline:
            env.run(until=min(env.sim.now + 5.0, deadline))
            if work.all_reported() and env.sim.now > fault_stop + 12.0:
                break
        yield None  # driven above; the spine only settles

        recoveries = [r for g in env.guardians.values() for r in g.recoveries]
        unrecoverable: Dict[str, str] = {}
        for g in env.guardians.values():
            unrecoverable.update(g.unrecoverable)
        coll_ctx = env.daemons["c0"].contexts[work.coll.urn]

        invariants: List[Verdict] = []
        # 1. Every task completed exactly once.
        completed = work.completed()
        dups = sum(coll_state["dup_done"].values())
        invariants.append((
            "completed-exactly-once",
            len(completed) == len(urns) and not coll_state["mismatch"],
            f"{len(completed)}/{len(urns)} completed once; "
            f"{dups} duplicate reports deduplicated; "
            f"{len(coll_state['mismatch'])} result mismatches",
        ))
        # 2. Incarnations never regress.
        regressed = [
            u for u, incs in coll_state["incs"].items()
            if any(b < a for a, b in zip(incs, incs[1:]))
        ]
        bad_recs = [r for r in recoveries if (r["new_inc"] or 0) <= (r["old_inc"] or 0)]
        invariants.append((
            "no-incarnation-regression",
            not regressed and not bad_recs,
            f"{len(recoveries)} recoveries, all raised incarnation; "
            f"{len(regressed)} receivers saw a regression",
        ))
        # 3. Catalog replicas agree on terminal state.
        disagreements = env.run(until=env.sim.process(_check_catalogs(env, urns)))
        invariants.append((
            "catalogs-converged",
            not disagreements,
            "all replicas report state=exited for every task"
            if not disagreements else f"disagreeing records: {disagreements}",
        ))
        # 4. Nothing silently lost.
        missing = {
            u: sorted(set(range(1, total + 1)) - coll_state["progress"].get(u, set()))
            for u in urns
            if set(range(1, total + 1)) - coll_state["progress"].get(u, set())
        }
        held = sum(len(v) for v in coll_ctx._ooo.values())
        recv_events = coll_ctx.msgs_received + coll_ctx.msgs_deduped + coll_ctx.msgs_fenced
        acked_total = sum(acked.values())
        invariants.append((
            "no-silent-loss",
            not missing and held == 0 and recv_events >= acked_total,
            f"{acked_total} acked sends vs {coll_ctx.msgs_received} delivered + "
            f"{coll_ctx.msgs_deduped} deduped + {coll_ctx.msgs_fenced} fenced; "
            f"{held} parked out-of-order; missing work: {missing or 'none'}",
        ))

        latencies = [r["recovered_at"] - r["detected_at"] for r in recoveries]
        return {
            "workers": n_workers,
            "total": total,
            "events": events,
            "fault_log": list(env.failures.log),
            "recoveries": recoveries,
            "unrecoverable": unrecoverable,
            "msgs_fenced": coll_ctx.msgs_fenced,
            "invariants": run.verdicts("invariant", invariants),
            "recovery_latency": {
                "count": len(latencies),
                "mean": sum(latencies) / len(latencies) if latencies else 0.0,
                "max": max(latencies) if latencies else 0.0,
            },
        }

    return run_spine(
        seed, lambda: build_chaos_env(seed, n_workers), scenario,
        settle=3.0,  # let anti-entropy converge the catalogs
        instrument=instrument, obs_sample=obs_sample, flight=flight)


def verdicts_of(report: Dict) -> Tuple[str, List[Verdict]]:
    """A chaos report's quiescent verdicts and the key they sit under
    (safety scenarios report ``invariants``, measured ones ``criteria``)."""
    kind = "invariants" if "invariants" in report else "criteria"
    return kind, report[kind]


def _verdict_table(report: Dict, lines: List[str]) -> str:
    """Close a scenario report: the verdict table and the RESULT line."""
    kind, verdicts = verdicts_of(report)
    lines += ["", f"{kind}:"]
    lines += [f"  [{'PASS' if ok else 'FAIL'}] {name}: {detail}"
              for name, ok, detail in verdicts]
    lines += ["", f"RESULT: {'OK' if report['ok'] else 'FAILED'} "
                  f"(simulated {report['finished_at']:.1f}s)"]
    return "\n".join(lines)


def _fault_schedule(report: Dict) -> List[str]:
    return ["", "fault schedule:",
            *([f"  {e}" for e in report["events"]] or ["  (none)"]), ""]


def format_report(report: Dict) -> str:
    """Human-readable chaos report for the CLI."""
    lines = [
        f"chaos run: seed={report['seed']} workers={report['workers']} "
        f"x {report['total']} steps",
        *_fault_schedule(report),
        f"recoveries: {len(report['recoveries'])}",
    ]
    for r in report["recoveries"]:
        lines.append(
            f"  {r['urn']}: {r['from']} -> {r['to']} "
            f"inc {r['old_inc']}->{r['new_inc']} "
            f"(detected t={r['detected_at']:.1f}s, recovered t={r['recovered_at']:.1f}s)"
        )
    if report["unrecoverable"]:
        lines.append(f"unrecoverable (no checkpoint): {report['unrecoverable']}")
    rl = report["recovery_latency"]
    if rl["count"]:
        lines.append(f"recovery latency: mean {rl['mean']:.2f}s, max {rl['max']:.2f}s")
    lines.append(f"fenced messages dropped at collector: {report['msgs_fenced']}")
    return _verdict_table(report, lines)


def sweep_faults(report: Dict) -> str:
    return (f"recoveries={len(report['recoveries'])} "
            f"fenced={report['msgs_fenced']}")


# ---------------------------------------------------------------------------
# Overload scenario (experiment E12)
# ---------------------------------------------------------------------------

def install_overload_worker(env: SnipeEnvironment, wstats: Dict):
    """Register the overload-hardened worker program on *env*.

    The chaos-worker, hardened for overload: progress reports and
    checkpoints are best-effort, because bulk-plane failures are
    *expected* under saturation and a program crash would read as a
    (true) death, drowning the false-death signal the scenario measures.
    """

    @env.program("overload-worker")
    def overload_worker(ctx, total, ckpt_every, collector_urn, step):
        i = 0
        while i < total:
            yield ctx.compute(step)
            i += 1
            wstats["steps"] += 1
            try:
                yield ctx.send(collector_urn,
                               {"urn": ctx.urn, "i": i, "inc": ctx.incarnation},
                               tag="progress")
            except Exception:
                wstats["send_failures"] += 1
            if i % ckpt_every == 0:
                try:
                    yield checkpoint_to_files(ctx)
                except Exception:
                    wstats["ckpt_failures"] += 1
        return i


def start_load_generators(
    env: SnipeEnvironment,
    workers: List[str],
    offered_rate: float,
    t_load0: float,
    t_load1: float,
    max_outstanding: int = 48,
) -> Dict:
    """Open-loop Poisson ``rc.lookup`` generators on the worker hosts.

    Offers *offered_rate* lookups/s site-wide between ``t_load0`` and
    ``t_load1`` (outstanding calls capped per host, so the sim stays
    bounded). Returns the shared load-counters dict.
    """
    replicas = list(env.rc_replicas)
    load = {"offered": 0, "issued": 0, "ok": 0, "failed": 0, "ok_in_window": 0}

    def _load_gen(host_name: str):
        client = RpcClient(env.topology.hosts[host_name])
        rng = env.sim.rng.stream(f"overload.load.{host_name}")
        state = {"outstanding": 0, "rr": 0}

        def one_call(rhost: str, rport: int):
            try:
                yield client.call(rhost, rport, "rc.lookup",
                                  timeout=TIMEOUTS["rc.call"],
                                  uri=f"snipe://host/{rhost}")
                load["ok"] += 1
                if t_load0 <= env.sim.now <= t_load1:
                    load["ok_in_window"] += 1
            except RpcError:
                load["failed"] += 1
            finally:
                state["outstanding"] -= 1

        def gen():
            yield env.sim.timeout(max(0.0, t_load0 - env.sim.now))
            rate = offered_rate / len(workers)
            while env.sim.now < t_load1:
                yield env.sim.timeout(rng.expovariate(rate))
                load["offered"] += 1
                if state["outstanding"] >= max_outstanding:
                    load["failed"] += 1  # client-side shed: site hopeless
                    continue
                state["outstanding"] += 1
                load["issued"] += 1
                rhost, rport = replicas[state["rr"] % len(replicas)]
                state["rr"] += 1
                env.sim.process(one_call(rhost, rport),
                                name=f"ovl-call:{host_name}")

        env.sim.process(gen(), name=f"ovl-load:{host_name}")

    for w in workers:
        _load_gen(w)
    return load


@scenario_runner
def run_overload(
    seed: int,
    saturation: float = 5.0,
    adaptive: bool = True,
    n_workers: int = 4,
    duration: float = 32.0,
    service_time: float = 0.1,
    congest_factor: float = 3.0,
    slow_factor: float = 4.0,
    control_p99_bound: float = 0.5,
    instrument: Optional[Callable] = None,
    obs_sample: Optional[float] = None,
    flight: bool = True,
) -> Run:
    """One seeded overload run; returns a report dict (``report["ok"]``).

    The chaos site is rebuilt with the RC replicas as single-threaded
    bottleneck servers (``service_time`` per request, so the site's bulk
    capacity is ``n_replicas / service_time`` lookups per second), then:

    * long-running checkpointing workers keep leases and progress
      reports flowing — the control plane that must survive;
    * open-loop Poisson generators on the worker hosts offer
      ``saturation`` times the site's capacity in bulk ``rc.lookup``
      calls (capped outstanding per host, so the sim stays bounded);
    * mid-run, the core LAN is congested and half the workers are
      CPU-starved — overload *plus* degradation, the regime where fixed
      timeouts misfire.

    No host ever crashes, so **any** Guardian death declaration is a
    false positive. ``adaptive=False`` is the static baseline: fixed
    timeouts, no circuit breakers, no priority lanes (the bounded queues
    themselves stay — they are the environment, not the treatment).
    """

    def configure(sim):
        cfg = sim.overload
        cfg.adaptive = adaptive
        cfg.breakers = adaptive
        cfg.lanes = adaptive
        # Small enough that a full bulk queue (capacity x service_time of
        # backlog) far exceeds the lease TTL: without lanes, heartbeats
        # queue behind that backlog or get shed with it.
        cfg.server_bulk_capacity = 128

    wstats = {"steps": 0, "send_failures": 0, "ckpt_failures": 0}
    t_load0, t_load1 = 4.0, duration - 8.0

    def scenario(run: Run, workers: List[str]):
        env = run.env
        install_overload_worker(env, wstats)
        # Enough steps that every worker is still mid-run (lease live,
        # reports flowing) for the whole overload window.
        CheckpointWorkload(env, workers, "ovl", total=400, ckpt_every=8,
                           step=0.25, program="overload-worker")

        # -- bulk load: open-loop Poisson rc.lookup generators ---------------
        capacity = len(env.rc_replicas) / service_time
        load = start_load_generators(env, workers, saturation * capacity,
                                     t_load0, t_load1)

        # -- degradation window inside the load window -----------------------
        env.failures.congest_segment_at(8.0, "core-lan", congest_factor, duration=12.0)
        for w in workers[: max(1, len(workers) // 2)]:
            env.failures.slow_host_at(10.0, w, slow_factor, duration=8.0)
        yield duration

        metrics = env.sim.obs.metrics
        snap = metrics.snapshot()
        hist = metrics.histogram("overload.control_latency")
        control_p99 = hist.percentile(99)
        deaths = sum(g.deaths_declared for g in env.guardians.values())
        recoveries = sum(len(g.recoveries) for g in env.guardians.values())
        hb_ok = sum(d.heartbeats_ok for d in env.daemons.values())
        hb_failed = sum(d.heartbeats_failed for d in env.daemons.values())
        window = t_load1 - t_load0
        criteria: List[Verdict] = [
            ("no-false-deaths",
             deaths == 0 and recoveries == 0,
             f"{deaths} deaths declared, {recoveries} recoveries "
             f"(every host stayed up: any death is false)"),
            ("no-lost-heartbeats",
             hb_failed == 0,
             f"{hb_ok} lease heartbeats delivered, {hb_failed} failed"),
            ("control-p99-bounded",
             hist.n > 0 and control_p99 <= control_p99_bound,
             f"control-plane p99 {control_p99 * 1000:.1f}ms over {hist.n} calls "
             f"(bound {control_p99_bound * 1000:.0f}ms)"),
        ]
        return {
            "saturation": saturation,
            "adaptive": adaptive,
            "workers": n_workers,
            "service_time": service_time,
            "capacity_ops_s": capacity,
            "offered_rate_ops_s": saturation * capacity,
            "load": dict(load),
            "goodput_ops_s": load["ok_in_window"] / window if window > 0 else 0.0,
            "control_p99_s": control_p99,
            "control_calls": hist.n,
            "deaths_declared": deaths,
            "recoveries": recoveries,
            "heartbeats_ok": hb_ok,
            "heartbeats_failed": hb_failed,
            "requests_shed": int(metrics.counter("rpc.requests_shed").value),
            "rx_drops": int(sum(v for k, v in snap.items()
                                if k.startswith("transport.rx_drops"))),
            "breaker_opens": int(sum(v for k, v in snap.items()
                                     if k.startswith("robust.breaker_opened"))),
            "worker_stats": dict(wstats),
            "criteria": run.verdicts("criterion", criteria),
        }

    return run_spine(
        seed,
        lambda: build_chaos_env(seed, n_workers, rc_service_time=service_time,
                                configure=configure),
        scenario,
        settle=4.0,  # drain queues; late false deaths would show up here
        instrument=instrument, obs_sample=obs_sample, flight=flight)


@scenario_runner
def run_bulk_chaos(
    seed: int,
    racks: int = 3,
    per_rack: int = 3,
    object_kb: int = 2048,
    chunk_size: int = 32768,
    duration: float = 60.0,
    instrument: Optional[Callable] = None,
    obs_sample: Optional[float] = None,
    flight: bool = True,
) -> Run:
    """One seeded bulk-distribution chaos run; returns a report dict.

    Builds the rack site, starts a relay-tree distribution of a
    ``object_kb`` object to every member host, and kills one rack's
    relay head (plus one leaf) while the object is in flight. The
    durable chunk stores and swarm failover must absorb both:

    * **all-hosts-complete** — every destination holds the full object
      by the deadline, crashes notwithstanding;
    * **digests-verified** — every completed host verified each chunk
      digest and the whole-object hash against the signed chunk map;
    * **exactly-once-per-chunk** — no host committed the same chunk
      twice (modulo explicit corruption evictions, of which a clean run
      has none);
    * **failover-exercised** — the kills actually landed mid-transfer
      (at least one destination's fetch was interrupted and resumed),
      so the run proves recovery rather than a quiet fair-weather pass.
    """
    commits: Dict[Tuple[str, int], int] = {}
    evicts: Dict[Tuple[str, int], int] = {}
    commits_by_host: Dict[str, int] = {}
    events: List[str] = []
    killed: Dict[str, float] = {}

    def counter(kind: str, fields: Dict) -> None:
        if kind == "bulk.chunk":
            key = (fields["host"], fields["seq"])
            commits[key] = commits.get(key, 0) + 1
            commits_by_host[fields["host"]] = (
                commits_by_host.get(fields["host"], 0) + 1
            )
        elif kind == "bulk.evict":
            key = (fields["host"], fields["seq"])
            evicts[key] = evicts.get(key, 0) + 1

    def scenario(run: Run, root: str, dests: List[str]):
        env, sim = run.env, run.sim
        run.bus.subscribe(counter)

        # Seeded kills, triggered by *progress* rather than wall time: a
        # pipelined tree finishes everywhere almost simultaneously, so a
        # timer race would often fire after the victim is already done. The
        # assassin watches the commit stream and crashes each victim the
        # moment it has committed its target fraction of the object —
        # guaranteed mid-transfer, every seed.
        rng = sim.rng.stream("bulk-chaos.schedule")
        heads = [f"m{r}-0" for r in range(racks)]
        head = heads[rng.randrange(len(heads))]
        leaves = [m for m in dests if m not in heads]
        leaf = leaves[rng.randrange(len(leaves))]
        nchunks = (object_kb * 1024 + chunk_size - 1) // chunk_size
        outage = {
            head: rng.uniform(0.5, 1.5),
            leaf: rng.uniform(0.3, 1.0),
        }
        kill_at = {head: max(1, nchunks // 4), leaf: max(2, nchunks // 2)}
        events.append(f"kill relay head {head} at {kill_at[head]}/{nchunks} "
                      f"chunks for {outage[head]:.1f}s")
        events.append(f"kill leaf {leaf} at {kill_at[leaf]}/{nchunks} "
                      f"chunks for {outage[leaf]:.1f}s")

        def assassin(kind: str, fields: Dict) -> None:
            if kind != "bulk.chunk":
                return
            h = fields["host"]
            target = kill_at.get(h)
            if target is None or h in killed:
                return
            if commits_by_host.get(h, 0) >= target:
                killed[h] = sim.now
                env.failures.host_down_at(sim.now, h, duration=outage[h])

        run.bus.subscribe(assassin)

        payload = make_payload(object_kb * 1024, chunk_size)
        dist = env.bulk_distributor(root, fanout=2)
        proc = dist.distribute("chaos-obj", payload, dests,
                               chunk_size=chunk_size, strategy="tree",
                               deadline=duration)
        yield proc

        report = proc.value
        crashes = sum(r.get("crashes", 0) for r in report["per_dest"].values())
        dups = sorted(
            f"{host}#{seq}"
            for (host, seq), n in commits.items()
            if n > 1 + evicts.get((host, seq), 0)
        )
        invariants: List[Verdict] = [
            ("all-hosts-complete",
             report["completed"] == len(dests),
             f"{report['completed']}/{len(dests)} hosts hold the object; "
             f"failed: {report['failed'] or 'none'}"),
            ("digests-verified",
             report["all_verified"],
             "every chunk digest and whole-object hash checked out"
             if report["all_verified"] else "a completed host skipped verification"),
            ("exactly-once-per-chunk",
             not dups,
             f"{sum(commits.values())} chunk commits across the site, no "
             f"duplicates" if not dups else f"duplicate commits: {dups}"),
            ("failover-exercised",
             crashes >= 1 and len(killed) >= 2,
             f"{len(killed)} hosts killed mid-object "
             f"({', '.join(f'{h} at t={t:.2f}s' for h, t in sorted(killed.items()))}); "
             f"{crashes} fetches interrupted and resumed"),
        ]
        return {
            "racks": racks,
            "per_rack": per_rack,
            "bytes": report["bytes"],
            "nchunks": report["nchunks"],
            "events": events,
            "killed": {h: round(t, 3) for h, t in killed.items()},
            "fault_log": list(env.failures.log),
            "completed": report["completed"],
            "hosts": len(dests),
            "elapsed": report["elapsed"],
            "aggregate_goodput": report["aggregate_goodput"],
            "chunk_commits": sum(commits.values()),
            "chunk_retries": report["chunk_retries"],
            "crashes": crashes,
            "invariants": run.verdicts("invariant", invariants),
        }

    return run_spine(
        seed, lambda: build_bulk_site(seed=seed, racks=racks, per_rack=per_rack),
        scenario, settle=1.0,
        instrument=instrument, obs_sample=obs_sample, flight=flight)


def format_bulk_report(report: Dict) -> str:
    """Human-readable bulk-chaos report for the CLI."""
    lines = [
        f"bulk chaos run: seed={report['seed']} "
        f"{report['racks']} racks x {report['per_rack']} hosts, "
        f"{report['bytes'] / 1024:.0f} KiB in {report['nchunks']} chunks",
        *_fault_schedule(report),
        f"distribution : {report['completed']}/{report['hosts']} hosts in "
        f"{report['elapsed']:.2f}s "
        f"({report['aggregate_goodput'] / 1e6:.2f} MB/s aggregate)",
        f"chunk traffic: {report['chunk_commits']} commits, "
        f"{report['chunk_retries']} retries, "
        f"{report['crashes']} fetches crashed mid-object",
    ]
    return _verdict_table(report, lines)


def sweep_bulk(report: Dict) -> str:
    return (f"completed={report['completed']}/{report['hosts']} "
            f"crashes={report['crashes']} "
            f"retries={report['chunk_retries']} "
            f"goodput={report['aggregate_goodput'] / 1e6:.1f}MB/s")


def format_overload_report(report: Dict) -> str:
    """Human-readable overload report for the CLI."""
    mode = "adaptive" if report["adaptive"] else "static baseline"
    lines = [
        f"overload run: seed={report['seed']} "
        f"saturation={report['saturation']:.1f}x ({mode})",
        "",
        f"site capacity : {report['capacity_ops_s']:.0f} lookups/s "
        f"(3 RC replicas, {report['service_time'] * 1000:.0f}ms service time)",
        f"offered load  : {report['offered_rate_ops_s']:.0f} lookups/s "
        f"({report['load']['offered']} offered, {report['load']['issued']} issued)",
        f"bulk goodput  : {report['goodput_ops_s']:.1f} lookups/s "
        f"({report['load']['ok']} ok / {report['load']['failed']} failed)",
        f"shedding      : {report['requests_shed']} server-shed, "
        f"{report['rx_drops']} transport backpressure drops, "
        f"{report['breaker_opens']} breaker opens",
        f"control plane : p99 {report['control_p99_s'] * 1000:.1f}ms "
        f"over {report['control_calls']} calls; "
        f"heartbeats {report['heartbeats_ok']} ok / "
        f"{report['heartbeats_failed']} failed",
        f"guardian      : {report['deaths_declared']} deaths declared, "
        f"{report['recoveries']} recoveries (expected: 0 — no host crashed)",
        f"workload      : {report['worker_stats']['steps']} steps, "
        f"{report['worker_stats']['send_failures']} report failures, "
        f"{report['worker_stats']['ckpt_failures']} checkpoint failures "
        f"(best-effort bulk)",
    ]
    return _verdict_table(report, lines)


def sweep_overload(report: Dict) -> str:
    return (f"goodput={report['goodput_ops_s']:.1f}/s "
            f"control_p99={report['control_p99_s'] * 1000:.0f}ms "
            f"deaths={report['deaths_declared']} "
            f"hb_failed={report['heartbeats_failed']}")


# ---------------------------------------------------------------------------
# Gray-failure scenario (experiment E15)
# ---------------------------------------------------------------------------

def start_gray_sessions(
    env: SnipeEnvironment,
    workers: List[str],
    t0: float,
    t1: float,
    ops_per_session: int = 8,
    think: float = 0.05,
) -> Dict:
    """Closed-loop, short-lived catalog sessions on the worker hosts.

    Each session is a *fresh* :class:`RCClient` (fresh circuit breakers,
    fresh RTT estimates — the state a short-lived task starts with) doing
    ``ops_per_session`` sequential lookups, then closing. Closed-loop on
    purpose: a zombie replica's timeouts stall the session, so goodput
    reflects detection quality instead of hiding it the way open-loop
    fire-and-forget would. What persists across sessions is only the
    *host's* health board — exactly the differential-detector state the
    gray scenario measures.
    """
    stats = {"sessions": 0, "ops_ok": 0, "ops_failed": 0,
             "window": (t0, t1), "in_window": {}}

    def _driver(host_name: str):
        host = env.topology.hosts[host_name]
        rng = env.sim.rng.stream(f"gray.load.{host_name}")

        def session():
            client = RCClient(host, list(env.rc_replicas), secret=env.secret)
            try:
                for _ in range(ops_per_session):
                    target = env.rc_replicas[rng.randrange(len(env.rc_replicas))][0]
                    try:
                        yield client.lookup(f"snipe://host/{target}")
                        stats["ops_ok"] += 1
                        key = int(env.sim.now)
                        stats["in_window"][key] = stats["in_window"].get(key, 0) + 1
                    except Exception:
                        stats["ops_failed"] += 1
                    yield env.sim.timeout(think)
            finally:
                client.close()

        def gen():
            yield env.sim.timeout(max(0.0, t0 - env.sim.now))
            while env.sim.now < t1:
                stats["sessions"] += 1
                yield env.sim.process(session(), name=f"gray-sess:{host_name}")
                yield env.sim.timeout(think)

        env.sim.process(gen(), name=f"gray-load:{host_name}")

    for w in workers:
        _driver(w)
    return stats


@scenario_runner
def run_gray(
    seed: int,
    n_workers: int = 4,
    total: int = 60,
    step: float = 0.2,
    duration: float = 40.0,
    zombie: str = "c2",
    zombie_at: float = 8.0,
    zombie_for: float = 22.0,
    zombie_factor: float = 100.0,
    rc_service_time: float = 0.02,
    differential: bool = True,
    instrument: Optional[Callable] = None,
    obs_sample: Optional[float] = None,
    flight: bool = True,
) -> Run:
    """One seeded gray-failure run; returns a report dict (``report["ok"]``).

    The chaos site gets a second core segment (dual-homed core) and four
    gray faults, none of which crashes a host or bumps the topology
    version — every one is invisible to fail-stop detection:

    * a **zombie RC replica**: *zombie*'s CPU is divided by
      ``zombie_factor``, so its single-threaded RC server (service time
      ``rc_service_time``) slows past every caller's timeout while its
      daemon (a threaded server) keeps heartbeating — alive to the lease
      detector, dead to actual work;
    * **clock skew** on the last worker: its lease stamps land ~30s in
      the past, permanently "lapsed" — only the differential
      probe-before-death keeps the Guardian from a false kill;
    * a **bit-flip window** on the first worker's segment — digests must
      drop the corruption and srudp must retransmit around it;
    * a **one-way core link failure** (frames c1→c0 on the primary core
      segment eaten) — per-interface health steers c1's traffic onto the
      backup segment.

    Meanwhile checkpointing chaos-workers run to completion and
    closed-loop catalog sessions (:func:`start_gray_sessions`) measure
    goodput. ``differential=False`` is the heartbeat-only baseline of
    experiment E15: health boards inert, Guardian trusts lapsed leases.
    """
    gray_probes = {"corrupt_deliver": 0, "deaths": []}

    def scenario(run: Run, workers: List[str]):
        env = run.env

        def watch(kind, f):
            if kind == "srudp.corrupt_deliver":
                gray_probes["corrupt_deliver"] += 1
            elif kind == "guardian.death":
                gray_probes["deaths"].append(
                    (round(env.sim.now, 2), f.get("host"), f.get("reason")))

        run.bus.subscribe(watch)
        work = CheckpointWorkload(env, workers, "gray", total, 4, step)
        load = start_gray_sessions(env, workers, 4.0, duration - 2.0)

        # -- the gray fault schedule ----------------------------------------
        env.failures.slow_host_at(zombie_at, zombie, zombie_factor,
                                  duration=zombie_for)
        skewed = workers[-1]
        env.failures.skew_clock_at(6.0, skewed, offset=-30.0, duration=duration - 10.0)
        env.failures.impair_link_at(10.0, f"s-{workers[0]}", corrupt=0.15,
                                    symmetric=True, duration=8.0)
        env.failures.impair_link_at(12.0, "core-lan", src="c1", dst="c0",
                                    loss=1.0, duration=6.0)
        yield duration

        z_end = zombie_at + zombie_for
        in_zombie = sum(n for t, n in load["in_window"].items()
                        if zombie_at <= t < z_end)
        detections = [
            h.health.first_quarantine_of(zombie)
            for h in env.topology.hosts.values()
            if h.health.first_quarantine_of(zombie) is not None
        ]
        detection_s = (min(detections) - zombie_at) if detections else None
        deaths = sum(g.deaths_declared for g in env.guardians.values())
        probe_saved = sum(g.false_deaths_averted for g in env.guardians.values())
        false_deaths = [d for d in gray_probes["deaths"] if d[2] == "host-lease"]
        snap = env.sim.obs.metrics.snapshot()
        rx_corrupt = int(sum(v for k, v in snap.items()
                             if k.startswith("transport.rx_corrupt")))
        completed, urns, coll_state = work.completed(), work.urns, work.state

        criteria: List[Verdict] = [
            ("zombie-quarantined",
             (detection_s is not None) if differential else True,
             (f"{zombie} quarantined {detection_s:.2f}s after slowdown "
              f"by {len(detections)} host(s)") if detection_s is not None
             else f"{zombie} never quarantined"
                  + ("" if differential else " (baseline: detector off)")),
            ("no-false-deaths",
             deaths == 0,
             f"{deaths} deaths declared ({len(false_deaths)} from leases), "
             f"{probe_saved} averted by probe-before-death "
             f"(no host ever crashed: any death is false)"),
            ("no-corrupt-delivery",
             gray_probes["corrupt_deliver"] == 0,
             f"{gray_probes['corrupt_deliver']} corrupted deliveries; "
             f"{rx_corrupt} corrupt frames detected and dropped at receivers"),
            ("completed-exactly-once",
             len(completed) == len(urns) and not coll_state["mismatch"],
             f"{len(completed)}/{len(urns)} workers completed once; "
             f"{len(coll_state['mismatch'])} result mismatches"),
        ]
        return {
            "differential": differential,
            "workers": n_workers,
            "zombie": zombie,
            "zombie_window": (zombie_at, z_end),
            "goodput_ops_s": in_zombie / zombie_for,
            "ops_ok": load["ops_ok"],
            "ops_failed": load["ops_failed"],
            "sessions": load["sessions"],
            "detection_s": detection_s,
            "deaths_declared": deaths,
            "false_lease_deaths": len(false_deaths),
            "death_log": gray_probes["deaths"],
            "probe_saved": probe_saved,
            "ckpt_rejected": sum(g.ckpt_rejected for g in env.guardians.values()),
            "rx_corrupt_dropped": rx_corrupt,
            "corrupt_delivered": gray_probes["corrupt_deliver"],
            "criteria": run.verdicts("criterion", criteria),
        }

    saved = HealthBoard.differential_enabled
    HealthBoard.differential_enabled = differential
    try:
        return run_spine(
            seed,
            lambda: build_chaos_env(seed, n_workers, rc_service_time=rc_service_time,
                                    backup_core=True),
            scenario, settle=4.0,
            instrument=instrument, obs_sample=obs_sample, flight=flight)
    finally:
        HealthBoard.differential_enabled = saved


def format_gray_report(report: Dict) -> str:
    """Human-readable gray-failure report for the CLI."""
    det = report["detection_s"]
    lines = [
        f"gray run: seed={report['seed']} workers={report['workers']} "
        f"differential={'on' if report['differential'] else 'off (baseline)'}",
        "",
        f"zombie {report['zombie']} (heartbeat-alive, work-dead) "
        f"t={report['zombie_window'][0]:.0f}..{report['zombie_window'][1]:.0f}s:",
        f"  detection latency: "
        + (f"{det:.2f}s" if det is not None else "never detected"),
        f"  goodput in zombie window: {report['goodput_ops_s']:.1f} ops/s "
        f"({report['ops_ok']} ok / {report['ops_failed']} failed over "
        f"{report['sessions']} sessions)",
        "",
        f"false deaths: {report['false_lease_deaths']} declared, "
        f"{report['probe_saved']} averted by probe-before-death",
        f"corruption: {report['corrupt_delivered']} delivered, "
        f"{report['rx_corrupt_dropped']} dropped at receivers",
        f"checkpoints rejected on digest: {report['ckpt_rejected']}",
    ]
    return _verdict_table(report, lines)


def sweep_gray(report: Dict) -> str:
    det = report["detection_s"]
    return (f"goodput={report['goodput_ops_s']:.1f}/s "
            f"detect={'%.2fs' % det if det is not None else 'never'} "
            f"false_deaths={report['false_lease_deaths']} "
            f"saved={report['probe_saved']}")


# ---------------------------------------------------------------------------
# Partition-heal scenario (experiment E16)
# ---------------------------------------------------------------------------

def _start_keyed_load(env: SnipeEnvironment, workers: List[str], t0: float,
                      t1: float, n_keys: int, interval: float,
                      retire_frac: float, retire_window: Tuple[float, float],
                      stream: str, uri_of: Callable[[int], str],
                      ops_of: Callable, failure: type,
                      delete_delay: float = 0.0) -> Dict:
    """Per-key write, then retire, then delete load — what both the heal
    and the shard sessions are.

    Key *i* (``uri_of(i)``) gets a writer process on worker ``i mod n``
    writing a monotonic sequence number every ~*interval* (jitter from
    ``<stream>.k<i>``) from *t0* to *t1*. The first ``retire_frac`` of
    the keys instead stop at a time drawn from *stream* inside
    *retire_window*, wait *delete_delay*, and are deleted (up to five
    tries). ``ops_of(i, worker)`` binds a key's ``(write(uri, n),
    delete(uri))``; each returns the event to wait on and fails with
    *failure*. ``tracked["acked"][uri]`` is the last acknowledged
    ``(n, time)``; a deleted key moves to ``tracked["retired"]``.
    """
    rng = env.sim.rng.stream(stream)
    n_retire = int(n_keys * retire_frac)
    tracked: Dict = {
        "writes_ok": 0, "writes_failed": 0,
        "deletes_ok": 0, "deletes_failed": 0,
        "acked": {}, "retired": {}, "keys": [],
    }

    def _driver(i: int) -> None:
        uri = uri_of(i)
        tracked["keys"].append(uri)
        write, delete = ops_of(i, workers[i % len(workers)])
        jitter = env.sim.rng.stream(f"{stream}.k{i}")
        retire_t = rng.uniform(*retire_window) if i < n_retire else None

        def writer():
            yield env.sim.timeout(max(0.0, t0 - env.sim.now))
            n = 0
            stop = retire_t if retire_t is not None else t1
            while env.sim.now < stop:
                n += 1
                try:
                    yield write(uri, n)
                    tracked["writes_ok"] += 1
                    tracked["acked"][uri] = (n, env.sim.now)
                except failure:
                    tracked["writes_failed"] += 1
                yield env.sim.timeout(interval * (0.75 + 0.5 * jitter.random()))
            if retire_t is None:
                return
            if delete_delay:
                yield env.sim.timeout(delete_delay)
            for _ in range(5):
                try:
                    yield delete(uri)
                    tracked["deletes_ok"] += 1
                    tracked["retired"][uri] = env.sim.now
                    tracked["acked"].pop(uri, None)
                    return
                except failure:
                    yield env.sim.timeout(0.5)
            tracked["deletes_failed"] += 1

        env.sim.process(writer(), name=f"{stream.replace('.', '-')}:k{i}")

    for i in range(n_keys):
        _driver(i)
    return tracked


def start_heal_sessions(
    env: SnipeEnvironment,
    workers: List[str],
    t0: float,
    t1: float,
    n_keys: int = 24,
    interval: float = 0.4,
    value_pad: int = 1024,
    retire_frac: float = 0.25,
    retire_window: Tuple[float, float] = (0.0, 0.0),
) -> Dict:
    """Sustained per-key write/delete load against *pinned* replicas.

    Each key is written by one worker to one fixed replica (a direct
    :class:`RpcClient`, deliberately *without* failover) so that during
    a partition both sides keep accepting divergent writes — the worst
    case anti-entropy has to heal. The first ``retire_frac`` of the keys
    stop being written at a seeded time inside *retire_window* and are
    then deleted through the *next* replica in the ring, which during
    the partition usually sits on the other side of the cut: exactly the
    write-here/delete-there pair that tombstone resurrection bugs need.

    Values carry ``value_pad`` bytes of padding and a monotonic sequence
    prefix (``"<n>:xxx..."``), so the report can check that what the
    replicas converge on is at least as new as the last acknowledged
    write per key.
    """
    replicas = list(env.rc_replicas)
    clients: Dict[str, RpcClient] = {}

    def ops_of(i: int, wname: str):
        pin = replicas[i % len(replicas)]
        deleter = replicas[(i + 1) % len(replicas)]
        rpc = clients.setdefault(
            wname, RpcClient(env.topology.hosts[wname], secret=env.secret))
        return (
            lambda uri, n: rpc.call(
                pin[0], pin[1], "rc.update", timeout=TIMEOUTS["rc.call"],
                uri=uri, assertions={"v": f"{n}:" + "x" * value_pad}),
            lambda uri: rpc.call(
                deleter[0], deleter[1], "rc.delete", timeout=TIMEOUTS["rc.call"],
                uri=uri, keys=None),
        )

    return _start_keyed_load(
        env, workers, t0, t1, n_keys, interval, retire_frac, retire_window,
        "heal.load", lambda i: f"snipe://heal/k{i}", ops_of, RpcError,
        delete_delay=0.5)


def _visible_state(store, uri: str) -> Dict[str, Tuple]:
    """One replica's visible (non-deleted) assertions for *uri*, keyed by
    assertion name, as comparable ``(stamp, value)`` tuples."""
    out: Dict[str, Tuple] = {}
    for key, entry in store.data.get(uri, {}).items():
        if not entry.deleted:
            out[key] = (entry.wall, entry.lamport, entry.origin, entry.value)
    return out


@scenario_runner
def run_partition_heal(
    seed: int,
    n_workers: int = 4,
    duration: Optional[float] = None,
    part_at: float = 8.0,
    part_for: float = 60.0,
    n_keys: int = 24,
    interval: float = 0.4,
    value_pad: int = 1024,
    bounded: bool = True,
    max_sync_records: int = 64,
    blackout: bool = False,
    blackout_at: float = 10.0,
    blackout_for: float = 6.0,
    instrument: Optional[Callable] = None,
    obs_sample: Optional[float] = None,
    flight: bool = True,
) -> Run:
    """One seeded partition-heal run; returns a report dict (``report["ok"]``).

    Two fault shapes against the replicated catalog under the sustained
    write/delete load of :func:`start_heal_sessions`:

    * **partition** (default): the core LAN is split ``{c2} | {c0, c1}``
      for *part_for* seconds — long past the replicas' peer-staleness
      horizon, so the majority side compacts its logs while the minority
      diverges — then healed. The run measures how long the three
      replicas take to reconverge on every tracked key, the largest
      anti-entropy payload used to get there, control-plane p99 during
      the storm, and whether any lease heartbeat was lost to sync
      traffic.
    * **blackout** (``blackout=True``): every replica crashes at once
      (memory gone, per-host disk dicts survive) and recovers
      *blackout_for* seconds later. With no surviving replica to copy
      from, the catalog — including tombstones for keys deleted before
      the crash — must come back from the durable snapshot + journal.

    ``bounded=False`` is the experiment-E16 baseline: compaction off and
    the legacy single-blob ``rc.sync`` exchange, whose payload grows
    with the whole divergence and ships on the control lane.
    """
    if duration is None:
        duration = 40.0 if blackout else 100.0
    if bounded:
        rc_server_kw = dict(
            max_sync_records=max_sync_records, compact_interval=1.0,
            peer_stale_after=8.0, log_keep_tail=16, snapshot_every=128,
        )
    else:
        rc_server_kw = dict(max_sync_records=None)

    heal_t = (blackout_at + blackout_for) if blackout else (part_at + part_for)
    # After a blackout the writers keep going for a while: the post-crash
    # writes prove the restored store still accepts and replicates work.
    monitor_from = heal_t + (6.0 if blackout else 0.0)
    if blackout:
        retire_window = (max(4.0, blackout_at - 6.0), blackout_at - 2.0)
    else:
        retire_window = (part_at + 0.3 * part_for, part_at + 0.6 * part_for)

    measures: Dict = {"reconverged_at": None, "diverged_at_heal": None}
    # Control-plane experience *during the heal window*, measured
    # directly: small CONTROL-lane lookups against every replica while
    # anti-entropy drains the partition backlog. This is the traffic an
    # unbounded sync blob head-of-line blocks on a single-threaded
    # replica — the cumulative histograms can't isolate the window.
    probe: Dict = {"lat": [], "failed": 0}

    def scenario(run: Run, workers: List[str]):
        env = run.env
        env.settle(2.0)
        load = start_heal_sessions(
            env, workers, 3.0, monitor_from, n_keys=n_keys, interval=interval,
            value_pad=value_pad, retire_window=retire_window,
        )
        sessions = start_gray_sessions(env, workers, 4.0, duration - 2.0)

        if blackout:
            for h in ("c0", "c1", "c2"):
                env.failures.host_down_at(blackout_at, h, duration=blackout_for)
        else:
            env.failures.partition_at(part_at, ["c2"], ["c0", "c1"],
                                      duration=part_for)

        stores = {name: srv.store for name, srv in env.rc_servers.items()}

        def _probe_control():
            gw_host = env.topology.hosts["gw"]
            rpc = RpcClient(gw_host, secret=env.secret)
            yield env.sim.timeout(max(0.0, heal_t - env.sim.now))
            while env.sim.now < min(heal_t + 15.0, duration):
                for rhost, rport in env.rc_replicas:
                    t_op = env.sim.now
                    try:
                        yield rpc.call(rhost, rport, "rc.lookup",
                                       timeout=TIMEOUTS["rc.sync"], lane=CONTROL,
                                       uri=uri_mod.host_url(rhost))
                        probe["lat"].append(env.sim.now - t_op)
                    except RpcError:
                        probe["failed"] += 1
                yield env.sim.timeout(0.2)

        env.sim.process(_probe_control(), name="heal-control-probe")

        def _agreement() -> int:
            """Number of tracked keys the three replicas disagree on."""
            bad = 0
            for uri in load["keys"]:
                views = [_visible_state(s, uri) for s in stores.values()]
                want_empty = uri in load["retired"]
                if want_empty:
                    if any(views):
                        bad += 1
                elif any(v != views[0] for v in views[1:]):
                    bad += 1
            return bad

        def monitor():
            yield env.sim.timeout(max(0.0, monitor_from - env.sim.now))
            measures["diverged_at_heal"] = _agreement()
            while True:
                if _agreement() == 0:
                    measures["reconverged_at"] = env.sim.now
                    return
                yield env.sim.timeout(0.25)

        env.sim.process(monitor(), name="heal-monitor")
        yield duration

        export = env.sim.obs.metrics.export()
        snap = env.sim.obs.metrics.snapshot()
        max_batch = _metric_value(export, "rcds.sync_batch_records", "max")
        lat = sorted(probe["lat"])
        control_p99 = lat[int(0.99 * (len(lat) - 1))] if lat else None
        control_max = lat[-1] if lat else None
        hb_failed = int(sum(d.heartbeats_failed for d in env.daemons.values()))
        hb_failovers = int(sum(d.rc.failovers for d in env.daemons.values()))
        sync_failures = {k: int(v) for k, v in snap.items()
                         if k.startswith("rcds.sync_failures")}
        replica_stats = {name: srv.stats() for name, srv in env.rc_servers.items()}
        reconverge_s = (measures["reconverged_at"] - monitor_from
                        if measures["reconverged_at"] is not None else None)

        resurrected = []
        for uri in load["retired"]:
            for name, store in stores.items():
                if _visible_state(store, uri):
                    resurrected.append((uri, name))
        stale = []
        for uri, (n_acked, _t) in load["acked"].items():
            for name, store in stores.items():
                view = _visible_state(store, uri)
                got = view.get("v")
                n_got = int(got[3].split(":")[0]) if got else None
                if n_got is None or n_got < n_acked:
                    stale.append((uri, name, n_got, n_acked))

        criteria: List[Verdict] = [
            ("replicas-reconverged",
             reconverge_s is not None,
             (f"all {len(load['keys'])} tracked keys agree on every replica "
              f"{reconverge_s:.2f}s after heal "
              f"({measures['diverged_at_heal']} keys diverged at heal)")
             if reconverge_s is not None
             else f"still diverged at t={env.sim.now:.0f}s "
                  f"({_agreement()} keys disagree)"),
            ("no-resurrection",
             not resurrected,
             f"{len(load['retired'])} keys deleted"
             + (f"; resurrected: {sorted(set(resurrected))[:4]}" if resurrected
                else ", none came back")),
            ("writes-survive",
             not stale,
             f"{len(load['acked'])} live keys at or past their last acked write"
             + (f"; stale/missing: {stale[:4]}" if stale else "")),
        ]
        if bounded:
            criteria.append((
                "payload-bounded",
                max_batch <= max_sync_records,
                f"largest sync payload {max_batch:.0f} records "
                f"(bound {max_sync_records})",
            ))
            criteria.append((
                "control-responsive-during-heal",
                control_p99 is not None and control_p99 <= 0.5
                and probe["failed"] == 0,
                f"heal-window control p99 "
                + (f"{control_p99 * 1000:.0f}ms" if control_p99 is not None
                   else "n/a")
                + f", {probe['failed']} probe failures",
            ))
            if not blackout:
                criteria.append((
                    "zero-lost-heartbeats",
                    hb_failed == 0 and hb_failovers == 0,
                    f"{hb_failed} lease heartbeats failed, "
                    f"{hb_failovers} had to fail over",
                ))
        if blackout:
            restores = {name: srv.restores for name, srv in env.rc_servers.items()}
            criteria.append((
                "durable-restore",
                all(r >= 1 for r in restores.values())
                and all(s.record_count() > 0 for s in stores.values()),
                f"restores per replica {restores}, "
                f"records {[s.record_count() for s in stores.values()]}",
            ))

        return {
            "mode": "blackout" if blackout else "partition",
            "bounded": bounded,
            "bound": max_sync_records if bounded else None,
            "workers": n_workers,
            "n_keys": n_keys,
            "value_pad": value_pad,
            "fault_window": ((blackout_at, heal_t) if blackout
                             else (part_at, heal_t)),
            "heal_t": heal_t,
            "reconverge_s": reconverge_s,
            "diverged_at_heal": measures["diverged_at_heal"],
            "max_sync_batch": max_batch,
            "control_p99": control_p99,
            "control_max": control_max,
            "control_probe_failed": probe["failed"],
            "heartbeats_failed": hb_failed,
            "heartbeat_failovers": hb_failovers,
            "writes_ok": load["writes_ok"],
            "writes_failed": load["writes_failed"],
            "deletes_ok": load["deletes_ok"],
            "deletes_failed": load["deletes_failed"],
            "retired": len(load["retired"]),
            "resurrected": sorted(set(resurrected)),
            "stale_keys": stale,
            "sync_failures": sync_failures,
            "snapshot_catchups": sum(s["snapshot_catchups"]
                                     for s in replica_stats.values()),
            "replica_stats": replica_stats,
            "lookup_ops_ok": sessions["ops_ok"],
            "lookup_ops_failed": sessions["ops_failed"],
            "criteria": run.verdicts("criterion", criteria),
        }

    return run_spine(
        seed, lambda: build_chaos_env(seed, n_workers, rc_server_kw=rc_server_kw),
        scenario, settle=4.0,
        instrument=instrument, obs_sample=obs_sample, flight=flight)


# ---------------------------------------------------------------------------
# Sharded-catalog scenario (experiment E18's fault case)
# ---------------------------------------------------------------------------

def build_shard_env(
    seed: int,
    n_workers: int = 3,
    split_threshold: int = 24,
    replicas_per_shard: int = 3,
    rc_server_kw: Optional[Dict] = None,
    manager_kw: Optional[Dict] = None,
) -> Tuple[SnipeEnvironment, List[str]]:
    """The shard chaos site: a sharded catalog on the core hosts, workers
    each alone behind the gateway so they can be isolated.

    The root directory group sits at the usual RC port on c0/c1/c2; one
    initial ``app`` shard owns ``snipe://app/`` with its replica group on
    the same core hosts (different port). The director runs on the
    gateway — deliberately off the core hosts, so a core crash stresses
    the shard groups without also beheading map publication."""
    env, workers = _star_site(seed, n_workers)
    env.add_rc_servers(["c0", "c1", "c2"], sharded=True,
                       **dict(rc_server_kw or {}))
    mgr = env.enable_sharding(
        split_threshold=split_threshold,
        replicas_per_shard=replicas_per_shard,
        director_host="gw",
        **dict(manager_kw or {}))
    mgr.add_shard("app", ("snipe://app/",))
    mgr.start()
    mgr.seed_map()
    return env, workers


def start_shard_sessions(
    env: SnipeEnvironment,
    workers: List[str],
    t0: float,
    t1: float,
    n_keys: int = 48,
    interval: float = 0.25,
    retire_frac: float = 0.2,
    retire_window: Tuple[float, float] = (0.0, 0.0),
) -> Dict:
    """Closed-loop write/delete load through the sharded facade.

    Every key is written at QUORUM through a :class:`ShardedRCClient`
    (each worker host gets one), with a monotonic sequence number as the
    value — an ack means a majority of the *owning* group at that epoch
    accepted it, which is exactly the durability the quiescent checks
    hold the federation to while splits move the ownership under the
    writers. The first ``retire_frac`` keys stop at a seeded time inside
    *retire_window* and are deleted; a retired key reappearing after
    migration with a stamp *older* than its delete is a resurrection
    across the split boundary. (A strictly newer stamp is not: an
    abandoned write kept alive by transport retransmission can land
    after the delete and win LWW — base-catalog semantics the shard
    layer must preserve, not mask.)"""

    def ops_of(_i: int, wname: str):
        client = env.rc_client(wname)
        return (lambda uri, n: client.update(uri, {"v": n}, consistency=QUORUM),
                lambda uri: client.delete(uri, consistency=QUORUM))

    return _start_keyed_load(
        env, workers, t0, t1, n_keys, interval, retire_frac, retire_window,
        # Structured names so splits have a radix to bite on.
        "shard.load", lambda i: f"snipe://app/g{i % 4}/k{i:03d}", ops_of,
        ConsistencyError)


@scenario_runner
def run_shard_chaos(
    seed: int,
    n_workers: int = 3,
    n_keys: int = 48,
    duration: float = 90.0,
    interval: float = 0.25,
    split_threshold: int = 24,
    instrument: Optional[Callable] = None,
    obs_sample: Optional[float] = None,
    flight: bool = True,
) -> Run:
    """One seeded sharded-catalog chaos run; returns a report dict.

    Write/delete load through the facade drives the ``app`` shard past
    its split threshold while seeded faults land mid-migration: a core
    host (carrying shard replicas) crashes and recovers, and one worker
    is partitioned away and heals. At quiescence the federation must
    show:

    * **splits-exercised** — the load actually forced at least one
      split, so the faults raced a migration rather than a quiet map;
    * **groups-converged** — within every shard replica group, the
      replicas agree on the visible state of every tracked name
      (per-shard LWW convergence);
    * **placement-clean** — every live tracked name is visible *only*
      in the group that owns it under the final map: in particular no
      name is visible in both a split parent and its child;
    * **writes-survive** — each live key's converged value is at least
      its last acknowledged write, and no retired key resurrected;
    * **queries-complete** — a scatter-gather prefix query through the
      facade returns exactly the live tracked keys.
    """
    fault_stop = duration * 0.5
    t0, t1 = 3.0, fault_stop + 10.0

    def scenario(run: Run, workers: List[str]):
        env = run.env
        events: List[str] = []
        env.settle(2.0)
        load = start_shard_sessions(
            env, workers, t0, t1, n_keys=n_keys, interval=interval,
            retire_window=(fault_stop * 0.5, fault_stop * 0.9))

        rng = env.sim.rng.stream("shard-chaos.schedule")
        core = ["c1", "c2"]  # c0 carries the director's RC client: keep it up
        victim = core[rng.randrange(len(core))]
        t_crash = rng.uniform(8.0, fault_stop * 0.6)
        d_crash = rng.uniform(4.0, 8.0)
        env.failures.host_down_at(t_crash, victim, duration=d_crash)
        events.append(f"t={t_crash:5.1f}s crash {victim} (shard replicas) "
                      f"for {d_crash:.1f}s")
        w = workers[rng.randrange(len(workers))]
        t_part = rng.uniform(8.0, fault_stop * 0.7)
        d_part = rng.uniform(4.0, 8.0)
        env.failures.segment_down_at(t_part, f"s-{w}", duration=d_part)
        events.append(f"t={t_part:5.1f}s partition {w} for {d_part:.1f}s")
        events.sort()
        yield duration

        # -- quiescent checks -----------------------------------------------
        mgr = env.shard_manager
        final_map = mgr.map
        groups = {sid: grp for sid, grp in mgr.servers.items()}
        tracked_set = set(load["keys"])

        diverged: List[Tuple[str, str]] = []
        misplaced: List[Tuple[str, str]] = []
        dual: List[str] = []
        for uri in sorted(tracked_set):
            owner_sid = final_map.route(uri)
            visible_in: List[str] = []
            for sid, grp in groups.items():
                views = [_visible_state(s.store, uri) for s in grp.values()]
                if any(v != views[0] for v in views[1:]):
                    diverged.append((uri, sid))
                if any(views):
                    visible_in.append(sid)
                    if sid != owner_sid:
                        misplaced.append((uri, sid))
            if len(visible_in) > 1:
                dual.append(uri)

        # LWW-honest survival checks: an entry stamped at/after the last ack
        # (or the delete) is a *later* write that legitimately won — e.g. an
        # abandoned RPC replayed by the transport after a partition healed.
        # What the shard layer must never produce is an *older* stamp
        # resurfacing: that is a record lost or replayed across a migration.
        _EPS = 1.0
        stale: List[Tuple[str, str, Optional[int], int]] = []
        for uri, (n_acked, t_acked) in load["acked"].items():
            grp = groups[final_map.route(uri)]
            views = [_visible_state(s.store, uri) for s in grp.values()]
            got = views[0].get("v") if views and views[0] else None
            if got is None:
                stale.append((uri, final_map.route(uri), None, n_acked))
            elif got[3] < n_acked and got[0] < t_acked - _EPS:
                stale.append((uri, final_map.route(uri), got[3], n_acked))
        resurrected = []
        zombie_revived = 0
        for uri, t_deleted in load["retired"].items():
            for sid, grp in groups.items():
                views = [v for v in (_visible_state(s.store, uri)
                                     for s in grp.values()) if v]
                if not views:
                    continue
                got = views[0].get("v")
                if got is not None and got[0] >= t_deleted - _EPS:
                    zombie_revived += 1  # newer stamp: a legitimate LWW winner
                else:
                    resurrected.append((uri, sid))

        # Ground truth for the federation query: what the owning groups
        # actually hold live at quiescence (acked state modulo zombies).
        truth = sorted(
            uri for uri in tracked_set
            if any(_visible_state(s.store, uri)
                   for s in groups[final_map.route(uri)].values()))
        client = env.rc_client(workers[0])
        queried = [u for u in env.run(until=client.query("snipe://app/"))
                   if u in tracked_set]
        query_missing = sorted(set(truth) - set(queried))
        query_extra = sorted(set(queried) - set(truth))

        redirects = sum(s.redirects for g in groups.values() for s in g.values())
        handoffs = sum(s.handoffs for g in groups.values() for s in g.values())
        moved_markers = sum(
            1 for g in groups.values() for s in g.values()
            for bucket in s.store.data.values()
            for e in bucket.values() if e.deleted and e.value == MOVED)

        invariants: List[Verdict] = [
            ("splits-exercised",
             mgr.splits >= 1,
             f"{mgr.splits} splits, map at epoch {final_map.epoch} with "
             f"{len(final_map.shards)} shards; {handoffs} records handed off"),
            ("groups-converged",
             not diverged,
             "every shard replica group agrees on every tracked name"
             if not diverged else f"diverged (uri, shard): {diverged[:4]}"),
            ("placement-clean",
             not misplaced and not dual,
             f"every live name only in its owning group "
             f"({moved_markers} migration tombstones left behind)"
             if not (misplaced or dual)
             else f"misplaced: {misplaced[:4]}; parent+child visible: {dual[:4]}"),
            ("writes-survive",
             not stale and not resurrected,
             f"{len(load['acked'])} live keys at/past last acked write, "
             f"{len(load['retired'])} retired keys stayed deleted "
             f"({zombie_revived} revived by later-stamped in-flight writes)"
             if not (stale or resurrected)
             else f"stale: {stale[:4]}; resurrected: {resurrected[:4]}"),
            ("queries-complete",
             not query_missing and not query_extra,
             f"facade query returned all {len(truth)} live keys"
             if not (query_missing or query_extra)
             else f"missing: {query_missing[:4]}; extra: {query_extra[:4]}"),
        ]
        return {
            "workers": n_workers,
            "n_keys": n_keys,
            "split_threshold": split_threshold,
            "events": events,
            "fault_log": list(env.failures.log),
            "splits": mgr.splits,
            "epoch": final_map.epoch,
            "shards": sorted(final_map.shards),
            "redirects": redirects,
            "redirect_retries": sum(
                c.redirect_retries for c in env._clients.values()
                if hasattr(c, "redirect_retries")),
            "handoffs": handoffs,
            "writes_ok": load["writes_ok"],
            "writes_failed": load["writes_failed"],
            "deletes_ok": load["deletes_ok"],
            "retired": len(load["retired"]),
            "invariants": run.verdicts("invariant", invariants),
        }

    return run_spine(
        seed,
        lambda: build_shard_env(seed, n_workers, split_threshold=split_threshold),
        scenario,
        settle=12.0,  # anti-entropy + handoff janitors drain
        instrument=instrument, obs_sample=obs_sample, flight=flight)


def format_shard_report(report: Dict) -> str:
    """Human-readable sharded-catalog chaos report for the CLI."""
    lines = [
        f"shard chaos run: seed={report['seed']} workers={report['workers']} "
        f"keys={report['n_keys']} split_threshold={report['split_threshold']}",
        *_fault_schedule(report),
        f"federation  : {len(report['shards'])} shards at epoch "
        f"{report['epoch']} after {report['splits']} splits: "
        f"{', '.join(report['shards'])}",
        f"migration   : {report['handoffs']} records handed off, "
        f"{report['redirects']} stale-epoch redirects fenced, "
        f"{report['redirect_retries']} client re-routes",
        f"load        : {report['writes_ok']} writes ok / "
        f"{report['writes_failed']} failed, {report['deletes_ok']} deletes "
        f"({report['retired']} keys retired)",
    ]
    return _verdict_table(report, lines)


def sweep_shard(report: Dict) -> str:
    return (f"splits={report['splits']} epoch={report['epoch']} "
            f"redirects={report['redirects']} "
            f"handoffs={report['handoffs']}")


def format_heal_report(report: Dict) -> str:
    """Human-readable partition-heal report for the CLI."""
    rc = report["reconverge_s"]
    lines = [
        f"heal run: seed={report['seed']} mode={report['mode']} "
        f"sync={'bounded<=' + str(report['bound']) if report['bounded'] else 'unbounded (baseline)'}",
        "",
        f"fault window t={report['fault_window'][0]:.0f}.."
        f"{report['fault_window'][1]:.0f}s, {report['n_keys']} keys, "
        f"{report['writes_ok']} writes ok / {report['writes_failed']} failed, "
        f"{report['deletes_ok']} deletes ({report['retired']} keys retired)",
        f"  reconvergence: "
        + (f"{rc:.2f}s after heal ({report['diverged_at_heal']} keys diverged)"
           if rc is not None else "NEVER"),
        f"  largest sync payload: {report['max_sync_batch']:.0f} records"
        + (f" (bound {report['bound']})" if report["bounded"] else ""),
        f"  heal-window control p99 "
        + (f"{report['control_p99'] * 1000:.0f}ms" if report["control_p99"]
           is not None else "n/a")
        + (f" (max {report['control_max'] * 1000:.0f}ms, "
           f"{report['control_probe_failed']} probe failures)"
           if report["control_max"] is not None else "")
        + f", heartbeats lost {report['heartbeats_failed']} "
        f"(failovers {report['heartbeat_failovers']}), "
        f"snapshot catch-ups {report['snapshot_catchups']}",
        f"  sync failures by cause: {report['sync_failures'] or '{}'}",
    ]
    return _verdict_table(report, lines)


def sweep_heal(report: Dict) -> str:
    rc = report["reconverge_s"]
    p99 = report["control_p99"]
    return (f"reconverge={'%.2fs' % rc if rc is not None else 'never'} "
            f"max_batch={report['max_sync_batch']:.0f} "
            f"ctl_p99={'%.0fms' % (p99 * 1000) if p99 is not None else 'n/a'} "
            f"hb_fo={report['heartbeat_failovers']} "
            f"resurrected={len(report['resurrected'])}")
