"""Scenario runners: each fault scenario as one body, run chaos or checked.

Every ``run_*`` here is one scenario's single runner — star or rack
site, workload, fault plan, watching oracles, quiescent checks — as a
generator body handed to :func:`repro.robust.spine.run_spine`, which
owns the phases all scenarios share. A *chaos* run is the body plus the
scenario's seeded chaos plan (drawn by its ``*_chaos_plan`` below, or
built from its kwargs); the oracles watch without stopping it. A
*check* run (:func:`repro.check.scenarios.run_check`) is the same body
under the runner kwargs of the entry's check profile, with a sampled,
shrunk or replayed plan, the exploration scheduler and the supervised
loop passed in. Either way every fault is a
:class:`~repro.net.failures.FaultEvent` of the report's ``plan``, and
the report's ``violations`` is the one verdict list: what the oracles
found while watching, their quiescent checks, and the safety checks a
body files itself (:meth:`~repro.robust.spine.Run.fail`) — the same
code in both kinds of run. What a run *measures* (recovery latency,
control-plane p99, detection time, ...) is a report column, and the
experiment that owns a bound asserts it.

The runners are looked up by name through
:data:`repro.check.scenarios.SCENARIOS`: :func:`run_chaos` (``faults``),
:func:`run_overload` (E12), :func:`run_bulk_chaos` (E13's crash case),
:func:`run_gray` (E15), :func:`run_partition_heal` (E16) and
:func:`run_shard_chaos` (E18's fault case). Each returns its report
dict and ``run_*.run(...)`` the whole :class:`~repro.robust.spine.Run`;
``**spine`` passes the spine's harness kwargs through (``plan``,
``supervise``, ``scheduler``, ``instrument``, ``obs_sample``,
``flight``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.bulk.testbed import build_bulk_site, make_payload
from repro.core.environment import SnipeEnvironment
from repro.net.failures import FaultEvent
from repro.rcds import uri as uri_mod
from repro.rcds.shard.map import MAP_URI
from repro.robust import TIMEOUTS
from repro.robust.health import HealthBoard
from repro.robust.oracles import (
    COMPACTION,
    OWNERSHIP,
    CatalogOracle,
    ChunkOracle,
    CorruptionOracle,
    DeliveryOracle,
    FalseDeathOracle,
    SingleOwnerOracle,
)
from repro.robust.overload import CONTROL
from repro.robust.spine import Run, run_spine, scenario_runner
from repro.robust.workloads import (
    SHARD_KEYS,
    SHARD_SPLIT_THRESHOLD,
    CheckpointWorkload,
    build_chaos_env,
    build_shard_env,
    start_gray_sessions,
    start_heal_sessions,
    start_load_generators,
    start_shard_sessions,
    visible_state,
)
from repro.rpc import RpcClient, RpcError

#: Seeds the CI smoke and the pytest suite pin.
DEFAULT_SEEDS = (1, 2, 3, 4, 5)

#: The gray scenario's zombie: the RC replica whose CPU is divided by
#: ``ZOMBIE_FACTOR`` from ``ZOMBIE_AT`` for ``ZOMBIE_FOR`` seconds.
ZOMBIE, ZOMBIE_AT, ZOMBIE_FOR, ZOMBIE_FACTOR = "c2", 8.0, 22.0, 100.0

#: The heal scenario's default fault times: the partition starts at
#: ``PART_AT``; a blackout crashes every replica at ``BLACKOUT_AT`` for
#: ``BLACKOUT_FOR`` seconds.
PART_AT, BLACKOUT_AT, BLACKOUT_FOR = 8.0, 10.0, 6.0


def watch_star(run: Run) -> Tuple[CatalogOracle, DeliveryOracle]:
    """Attach the five oracles every star-site run carries (catalog,
    delivery, single-owner, chunk-integrity, corruption) as
    ``run.oracles``; returns the two a body reads back. Attach before
    any workload."""
    sim = run.sim
    catalog, delivery = CatalogOracle(sim), DeliveryOracle(sim)
    catalog.attach(run.env)
    run.oracles = [catalog, delivery, SingleOwnerOracle(sim),
                   ChunkOracle(sim), CorruptionOracle(sim)]
    for oracle in run.oracles:
        run.bus.subscribe(oracle.on_probe)
    return catalog, delivery


#: Time for anti-entropy to carry a task's exit to every star-site
#: catalog replica (the gray run's settle).
SYNC_MARGIN = 4.0


def judge_star(run: Run, work: CheckpointWorkload, catalog: CatalogOracle,
               duration: float, liveness: bool = True) -> List[str]:
    """The star workload's quiescent checks, unless something was found
    already. First every task completed within the *duration* budget —
    liveness, not judged for a baseline whose documented failure is late
    work (*liveness* False). Then, over the completed tasks:

    * the catalog replicas agree on a terminal state for each (for a
      baseline, each done by :data:`SYNC_MARGIN` ago) — ``lww-convergence``;
    * the collector never got two different results for one task —
      ``exactly-once``;
    * every Guardian recovery raised the task's incarnation —
      ``no-incarnation-regression``;
    * unless this is a baseline (lost work, like late work, is its
      documented failure): every unit of work was reported, nothing is
      parked in the collector's reorder buffer, and every acked send
      was delivered, deduplicated, or deliberately fenced at the
      receiver — ``no-silent-loss``.

    Returns the completed URNs."""
    completed = work.completed()
    if run.violations:
        return completed
    if liveness and len(completed) < len(work.urns):
        run.fail("liveness", f"only {len(completed)}/{len(work.urns)} workers "
                             f"completed within the {duration:.0f}s budget")
        run.sweep()
        return completed
    state, env = work.state, run.env
    synced = run.sim.now - (0.0 if liveness else SYNC_MARGIN)
    catalog.check_tasks([u for u in completed if state["done_at"][u] <= synced])
    if state["mismatch"]:
        run.fail("exactly-once", f"{len(state['mismatch'])} result mismatches: "
                                 f"{state['mismatch'][:4]}")
    recoveries = [r for g in env.guardians.values() for r in g.recoveries]
    bad = [(r["urn"], r["old_inc"], r["new_inc"]) for r in recoveries
           if (r["new_inc"] or 0) <= (r["old_inc"] or 0)]
    if bad:
        run.fail("no-incarnation-regression",
                 f"{len(bad)} of {len(recoveries)} recoveries did not raise the "
                 f"incarnation (urn, old, new): {bad[:4]}")
    if liveness:
        steps = set(range(1, work.total + 1))
        missing = {u: sorted(steps - state["progress"].get(u, set()))
                   for u in completed if steps - state["progress"].get(u, set())}
        coll = env.daemons["c0"].contexts[work.coll.urn]
        held = sum(len(v) for v in coll._ooo.values())
        received = coll.msgs_received + coll.msgs_deduped + coll.msgs_fenced
        acked = sum(work.acked.values())
        if missing or held or received < acked:
            run.fail("no-silent-loss",
                     f"{acked} acked sends vs {coll.msgs_received} delivered + "
                     f"{coll.msgs_deduped} deduped + {coll.msgs_fenced} fenced; "
                     f"{held} parked out-of-order; missing work: {missing or 'none'}")
    run.sweep()
    return completed


def faults_chaos_plan(env: SnipeEnvironment, workers: List[str], fault_stop: float,
                      churn: bool, partitions: bool) -> List[FaultEvent]:
    """The faults scenario's seeded chaos plan. All faults start after
    t=3 (first checkpoints are durable by then) and by *fault_stop*;
    every window has a recovery."""
    rng = env.sim.rng.stream("chaos.schedule")
    plan: List[FaultEvent] = []
    if churn:
        # Scheduled crash/repair windows (refcount-safe when overlapping).
        for _ in range(max(2, len(workers))):
            w = workers[rng.randrange(len(workers))]
            t = rng.uniform(3.0, fault_stop * 0.8)
            d = rng.uniform(1.5, 6.0)
            plan.append(FaultEvent("crash", w, t, d))
        # Plus Poisson churn on half the fleet for good measure.
        victims = workers[::2]
        plan += env.failures.churn_plan(victims, 15.0, 2.0, env.sim.now + 3.0,
                                        fault_stop)
    if partitions:
        for _ in range(max(1, len(workers) // 2)):
            w = workers[rng.randrange(len(workers))]
            t = rng.uniform(4.0, fault_stop * 0.8)
            d = rng.uniform(5.0, 10.0)
            plan.append(FaultEvent("partition", f"s-{w}", t, d))
    return plan


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
    **spine,
) -> Run:
    """One seeded faults run; returns a report dict (``report["ok"]``).

    A checkpointing workload runs across the workers while seeded host
    crashes, Poisson churn and partitions hit them and the Guardians
    repair the damage. Worker segments go down *without* the worker host
    crashing — the zombie case: the Guardian (correctly, per its lease
    evidence) declares the worker dead and respawns it, and the fencing
    machinery must keep the surviving original from double-executing.
    After quiescence :func:`judge_star` checks what self-healing must
    preserve: every task completed, with one result each, and the catalog
    replicas agree it is done; every recovery raised the incarnation (the
    ``delivery`` oracle checks, message by message, that no receiver
    accepted a regressed one); nothing was silently lost.
    """
    fault_stop = min(duration * 0.45, 45.0)

    def scenario(run: Run, workers: List[str]):
        env = run.env
        catalog, delivery = watch_star(run)
        work = CheckpointWorkload(env, workers, "chaos", total, ckpt_every, step)
        given = run.plan is not None
        if run.plan is None:
            run.plan = faults_chaos_plan(env, workers, fault_stop, churn, partitions)
        run.arm()
        # Done once everyone reported and the faults are long over: past
        # the seeded plan's horizon, or a given plan's last heal.
        heals = max((e.t + e.duration for e in run.plan), default=0.0)
        quiet = (heals if given else fault_stop) + 12.0
        run.done = lambda: work.all_reported() and env.sim.now > quiet
        yield env.sim.now + duration

        completed = judge_star(run, work, catalog, duration)
        recoveries = [r for g in env.guardians.values() for r in g.recoveries]
        unrecoverable: Dict[str, str] = {}
        for g in env.guardians.values():
            unrecoverable.update(g.unrecoverable)
        coll_ctx = env.daemons["c0"].contexts[work.coll.urn]
        latencies = [r["recovered_at"] - r["detected_at"] for r in recoveries]
        return {
            "workers": n_workers,
            "completed": len(completed),
            "delivered": delivery.delivered,
            "total": total,
            "recoveries": recoveries,
            "unrecoverable": unrecoverable,
            "msgs_fenced": coll_ctx.msgs_fenced,
            "recovery_latency": {
                "count": len(latencies),
                "mean": sum(latencies) / len(latencies) if latencies else 0.0,
                "max": max(latencies) if latencies else 0.0,
            },
        }

    return run_spine(
        seed, lambda: build_chaos_env(seed, n_workers), scenario,
        settle=3.0,  # let anti-entropy converge the catalogs
        **spine)


@scenario_runner
def run_overload(
    seed: int,
    saturation: float = 5.0,
    adaptive: bool = True,
    n_workers: int = 4,
    duration: float = 32.0,
    service_time: float = 0.1,
    **spine,
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

    No host ever crashes, so **any** host-lease death declaration is a
    false positive: the ``no-false-death`` oracle judges every one. Lost
    lease heartbeats and the control-plane p99 are columns, bounded by
    experiment E12. ``adaptive=False`` is the static baseline: fixed
    timeouts, no circuit breakers, no priority lanes (the bounded queues
    themselves stay — they are the environment, not the treatment). It
    is slow, not unsafe: it loses heartbeats and blows the p99 bound, and
    passes its oracles.
    """

    def configure(sim):
        cfg = sim.overload
        cfg.adaptive = adaptive
        # Small enough that a full bulk queue (capacity x service_time of
        # backlog) far exceeds the lease TTL: without lanes, heartbeats
        # queue behind that backlog or get shed with it.
        cfg.server_bulk_capacity = 128

    t_load0, t_load1 = 4.0, duration - 8.0

    def scenario(run: Run, workers: List[str]):
        env = run.env
        watch_star(run)
        falsedeath = FalseDeathOracle(run.sim)  # no overload plan crashes a host
        run.bus.subscribe(falsedeath.on_probe)
        run.oracles.append(falsedeath)
        # Enough steps that every worker is still mid-run (lease live,
        # reports flowing) for the whole overload window.
        work = CheckpointWorkload(env, workers, "ovl", total=400, ckpt_every=8,
                                  step=0.25, program="overload-worker")

        # -- bulk load: open-loop Poisson rc.lookup generators ---------------
        capacity = len(env.rc_replicas) / service_time
        load = start_load_generators(env, workers, saturation * capacity,
                                     t_load0, t_load1)

        # -- degradation window inside the load window -----------------------
        if run.plan is None:
            run.plan = [FaultEvent("congest", "core-lan", 8.0, 12.0, 3.0)] + [
                FaultEvent("slow", w, 10.0, 8.0, 4.0)
                for w in workers[: max(1, len(workers) // 2)]]
        run.arm()
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
            "worker_stats": dict(work.wstats),
        }

    return run_spine(
        seed,
        lambda: build_chaos_env(seed, n_workers, rc_service_time=service_time,
                                configure=configure),
        scenario,
        settle=4.0,  # drain queues; late false deaths would show up here
        **spine)


def bulk_chaos_plan(sim, racks: int, dests: List[str], nchunks: int
                    ) -> List[FaultEvent]:
    """The bulk scenario's seeded chaos plan: one rack's relay head and
    one leaf each crash once they have committed a quarter and a half of
    the object.

    Triggered by *progress* rather than wall time: a pipelined tree
    finishes everywhere almost simultaneously, so a timer race would
    often fire after the victim is already done. A progress trigger
    lands mid-transfer, every seed."""
    rng = sim.rng.stream("bulk-chaos.schedule")
    heads = [f"m{r}-0" for r in range(racks)]
    head = heads[rng.randrange(len(heads))]
    leaves = [m for m in dests if m not in heads]
    leaf = leaves[rng.randrange(len(leaves))]
    return [FaultEvent("crash", head, 0.0, rng.uniform(0.5, 1.5),
                       extra=(("after_chunks", max(1, nchunks // 4)),)),
            FaultEvent("crash", leaf, 0.0, rng.uniform(0.3, 1.0),
                       extra=(("after_chunks", max(2, nchunks // 2)),))]


@scenario_runner
def run_bulk_chaos(
    seed: int,
    racks: int = 3,
    object_kb: int = 2048,
    chunk_size: int = 32768,
    duration: float = 60.0,
    poison: bool = False,
    **spine,
) -> Run:
    """One seeded bulk-distribution run; returns a report dict.

    Builds the rack site, starts a relay-tree distribution of a
    ``object_kb`` object to every member host, and kills one rack's
    relay head (plus one leaf) while the object is in flight. The
    durable chunk stores and swarm failover must absorb both: every
    destination holds the full object by the deadline, crashes
    notwithstanding (``liveness``), and verified it against the signed
    chunk map, committing each chunk once (``chunk-integrity``). The
    ``killed`` and ``crashes`` columns show whether the kills landed
    mid-transfer — fetches interrupted and resumed: the chaos plan's
    progress-triggered kills always do, a sampled check plan need not.

    With *poison* one chunk is corrupted in the first relay's store the
    instant that relay commits it (synchronously, from the probe, before
    it can serve the chunk onward), so the run exercises per-chunk
    verification: a correct fetcher quarantines the poisoned source and
    re-pulls from a clean one, and the chunk-integrity oracle flags any
    corrupt commit (the seeded ``no-chunk-verify`` bug).
    """
    def scenario(run: Run, root: str, dests: List[str]):
        env, sim = run.env, run.sim
        chunks = ChunkOracle(sim)
        run.bus.subscribe(chunks.on_probe)
        run.oracles = [chunks]
        poisoned: Dict[Tuple[str, int], float] = {}

        def poisoner(kind, f):
            if kind != "bulk.chunk" or poisoned:
                return
            svc = env.bulk_services.get(f["host"])
            if svc is None:
                return
            data = svc.store.get(f["name"], f["seq"])
            svc.store._chunks[f["name"]][f["seq"]] = b"\x00poison\x00" + data[8:]
            poisoned[(f["host"], f["seq"])] = sim.now

        if poison:
            run.bus.subscribe(poisoner)
        nchunks = (object_kb * 1024 + chunk_size - 1) // chunk_size
        if run.plan is None:
            run.plan = bulk_chaos_plan(sim, racks, dests, nchunks)
        run.arm()

        payload = make_payload(object_kb * 1024, chunk_size)
        dist = env.bulk_distributor(root, fanout=2)
        proc = dist.distribute("chaos-obj", payload, dests,
                               chunk_size=chunk_size, strategy="tree",
                               deadline=duration)
        yield proc

        report = proc.value if proc.triggered and proc.ok else {
            "completed": 0, "failed": "unfinished within the budget",
            "all_verified": False, "per_dest": {}, "bytes": len(payload),
            "nchunks": nchunks, "elapsed": None, "aggregate_goodput": 0.0,
            "chunk_retries": 0}
        if not run.violations:
            if report["completed"] != len(dests):
                run.fail("liveness", f"only {report['completed']}/{len(dests)} "
                                     f"hosts completed (failed: {report['failed']})")
            elif not report["all_verified"]:
                run.fail("chunk-integrity",
                         "a completed host's whole-object hash did not verify")
            run.sweep()
        killed: Dict[str, float] = {}
        for t, what, host in env.failures.log:
            if what == "host_down":
                killed.setdefault(host, t)
        crashes = sum(r.get("crashes", 0) for r in report["per_dest"].values())
        return {
            "racks": racks,
            "per_rack": 3,
            "bytes": report["bytes"],
            "nchunks": report["nchunks"],
            "killed": {h: round(t, 3) for h, t in killed.items()},
            "completed": report["completed"],
            "hosts": len(dests),
            "elapsed": report["elapsed"],
            "aggregate_goodput": report["aggregate_goodput"],
            "chunk_commits": chunks.committed,
            "chunk_retries": report["chunk_retries"],
            "crashes": crashes,
            "poisoned": sorted(f"{h}#{q}" for h, q in poisoned),
        }

    return run_spine(
        seed, lambda: build_bulk_site(seed=seed, racks=racks, per_rack=3),
        scenario, settle=1.0, **spine)


@scenario_runner
def run_gray(
    seed: int,
    n_workers: int = 4,
    total: int = 60,
    step: float = 0.2,
    duration: float = 40.0,
    differential: bool = True,
    **spine,
) -> Run:
    """One seeded gray-failure run; returns a report dict (``report["ok"]``).

    The chaos site gets a second core segment (dual-homed core) and four
    gray faults, none of which crashes a host or bumps the topology
    version — every one is invisible to fail-stop detection:

    * a **zombie RC replica**: ``ZOMBIE``'s CPU is divided by
      ``ZOMBIE_FACTOR``, so its single-threaded RC server (service time
      0.02 s) slows past every caller's timeout while its
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
    goodput. Every oracle watches, :func:`judge_star` judges the workload
    at quiescence, and ``detection_s`` measures how soon the zombie was
    quarantined (experiment E15 bounds it). ``differential=False`` is the
    heartbeat-only baseline of E15: health boards inert, Guardian trusts
    lapsed leases. Its false deaths and late or lost work are its
    documented failures, so neither the false-death oracle nor
    :func:`judge_star`'s completion and silent-loss checks judge it;
    every other safety check still does.
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
        if run.plan is None:  # the gray fault schedule
            run.plan = [
                FaultEvent("slow", ZOMBIE, ZOMBIE_AT, ZOMBIE_FOR, ZOMBIE_FACTOR),
                FaultEvent("skew", workers[-1], 6.0, duration - 10.0,
                           extra=(("offset", -30.0),)),
                FaultEvent("impair", f"s-{workers[0]}", 10.0, 8.0,
                           extra=(("corrupt", 0.15),)),
                FaultEvent("impair", "core-lan:c1->c0", 12.0, 6.0,
                           extra=(("loss", 1.0),)),
            ]
        catalog, delivery = watch_star(run)
        if differential:  # false deaths are the baseline's documented failure
            # A host-lease death is false unless the plan crashed that
            # host (recovery included); a full partition would make one
            # legitimate, which is why no gray plan cuts a host off.
            spans = [(e.target, e.t, e.t + e.duration + 20.0)
                     for e in run.plan if e.kind == "crash"]
            falsedeath = FalseDeathOracle(run.sim, crashed=lambda h, t: any(
                h == c and a <= t <= b for c, a, b in spans))
            run.bus.subscribe(falsedeath.on_probe)
            run.oracles.append(falsedeath)
        work = CheckpointWorkload(env, workers, "gray", total, 4, step)
        load = start_gray_sessions(env, workers, 4.0, duration - 2.0)
        run.arm()
        yield duration

        judge_star(run, work, catalog, duration, liveness=differential)

        z_end = ZOMBIE_AT + ZOMBIE_FOR
        in_zombie = sum(n for t, n in load["in_window"].items()
                        if ZOMBIE_AT <= t < z_end)
        detections = [
            h.health.first_quarantine_of(ZOMBIE)
            for h in env.topology.hosts.values()
            if h.health.first_quarantine_of(ZOMBIE) is not None
        ]
        detection_s = (min(detections) - ZOMBIE_AT) if detections else None
        deaths = sum(g.deaths_declared for g in env.guardians.values())
        probe_saved = sum(g.false_deaths_averted for g in env.guardians.values())
        false_deaths = [d for d in gray_probes["deaths"] if d[2] == "host-lease"]
        snap = env.sim.obs.metrics.snapshot()
        rx_corrupt = int(sum(v for k, v in snap.items()
                             if k.startswith("transport.rx_corrupt")))
        return {
            "differential": differential,
            "workers": n_workers,
            "zombie": ZOMBIE,
            "zombie_window": (ZOMBIE_AT, z_end),
            "goodput_ops_s": in_zombie / ZOMBIE_FOR,
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
        }

    saved = HealthBoard.differential_enabled
    # Only ever switched off: a seeded naive-health bug stays in force.
    HealthBoard.differential_enabled = saved and differential
    try:
        return run_spine(
            seed,
            lambda: build_chaos_env(seed, n_workers, rc_service_time=0.02,
                                    backup_core=True),
            scenario, settle=SYNC_MARGIN, **spine)
    finally:
        HealthBoard.differential_enabled = saved


@scenario_runner
def run_partition_heal(
    seed: int,
    n_workers: int = 4,
    duration: Optional[float] = None,
    part_for: float = 60.0,
    n_keys: int = 24,
    interval: float = 0.4,
    value_pad: int = 1024,
    bounded: bool = True,
    blackout: bool = False,
    rc_server_kw: Optional[Dict] = None,
    **spine,
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
      ``BLACKOUT_FOR`` seconds later. With no surviving replica to copy
      from, the catalog — including tombstones for keys deleted before
      the crash — must come back from the durable snapshot + journal
      (``durable-restore``: every replica restored, none empty).

    Either way the catalog judge files ``no-resurrection`` the moment a
    deleted key comes back; at quiescence its ``compaction-convergence``
    pass checks that the replicas agree on every heal key, and
    ``writes-survive`` that every live key holds at least its last
    acked write on every replica. The measurements — ``reconverge_s``,
    ``max_sync_batch``, the heal-window ``control_p99`` and
    ``control_probe_failed``, the heartbeat columns — are bounded by
    experiment E16.

    ``bounded=False`` is the experiment-E16 baseline: compaction off and
    the legacy single-blob ``rc.sync`` exchange, whose payload grows
    with the whole divergence and ships on the control lane.
    *rc_server_kw* replaces the replicas' compaction settings outright
    (the checked run's aggressive ones); ``bounded=False`` still lifts
    their batch bound. The report's ``bound`` is the one the replicas
    ran with. A given plan's first ``split`` is the partition the load,
    the heal probe and the monitor time themselves by.
    """
    if duration is None:
        duration = 40.0 if blackout else 100.0
    if rc_server_kw is None and bounded:
        rc_server_kw = dict(
            max_sync_records=64, compact_interval=1.0,
            peer_stale_after=8.0, log_keep_tail=16, snapshot_every=128,
        )
    elif not bounded:
        rc_server_kw = {**(rc_server_kw or {}), "max_sync_records": None}

    measures: Dict = {"reconverged_at": None, "diverged_at_heal": None}
    # Control-plane experience *during the heal window*, measured
    # directly: small CONTROL-lane lookups against every replica while
    # anti-entropy drains the partition backlog. This is the traffic an
    # unbounded sync blob head-of-line blocks on a single-threaded
    # replica — the cumulative histograms can't isolate the window.
    probe: Dict = {"lat": [], "failed": 0}

    def scenario(run: Run, workers: List[str]):
        env = run.env
        catalog, _ = watch_star(run)
        if run.plan is None:
            run.plan = ([FaultEvent("crash", h, BLACKOUT_AT, BLACKOUT_FOR)
                         for h in ("c0", "c1", "c2")] if blackout
                        else [FaultEvent("split", "c2|c0,c1", PART_AT, part_for)])
        # A split-less plan (shrunk, say) times the load by a notional
        # quarter-budget cut, so the writers still stop well in time.
        cut = next((e for e in run.plan if e.kind == "split"), None)
        cut_at, cut_for = (cut.t, cut.duration) if cut else (PART_AT, duration / 4)
        heal_t = (BLACKOUT_AT + BLACKOUT_FOR) if blackout else (cut_at + cut_for)
        # After a blackout the writers keep going for a while: the
        # post-crash writes prove the restored store still accepts and
        # replicates work.
        monitor_from = heal_t + (6.0 if blackout else 0.0)
        if blackout:
            retire_window = (max(4.0, BLACKOUT_AT - 6.0), BLACKOUT_AT - 2.0)
        else:
            retire_window = (cut_at + 0.3 * cut_for, cut_at + 0.6 * cut_for)
        env.settle(2.0)
        load = start_heal_sessions(
            env, workers, 3.0, monitor_from, n_keys=n_keys, interval=interval,
            value_pad=value_pad, retire_window=retire_window,
        )
        sessions = start_gray_sessions(env, workers, 4.0, duration - 2.0)
        run.arm()

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
                views = [visible_state(s, uri) for s in stores.values()]
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

        stale = []
        for uri, (n_acked, _t) in load["acked"].items():
            for name, store in stores.items():
                view = visible_state(store, uri)
                got = view.get("v")
                n_got = int(got[3].split(":")[0]) if got else None
                if n_got is None or n_got < n_acked:
                    stale.append((uri, name, n_got, n_acked))
        if not run.violations:
            catalog.check_quiescent(
                COMPACTION, lambda uri, key: uri.startswith("snipe://heal/"))
            if stale:
                run.fail("writes-survive",
                         f"{len(stale)} (key, replica) pairs behind their last "
                         f"acked write; stale/missing: {stale[:4]}")
            restores = {name: srv.restores for name, srv in env.rc_servers.items()}
            records = [s.record_count() for s in stores.values()]
            if blackout and not (all(r >= 1 for r in restores.values())
                                 and all(records)):
                run.fail("durable-restore", f"restores per replica {restores}, "
                                            f"records {records}")
            run.sweep()
        snap = env.sim.obs.metrics.snapshot()
        # The largest sync payload any replica assembled; a float, as the
        # digested report has always carried it.
        max_batch = max((float(h["max"]) for h in env.sim.obs.metrics.export()["histograms"]
                         if h["name"] == "rcds.sync_batch_records"), default=0.0)
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

        return {
            "mode": "blackout" if blackout else "partition",
            "bounded": bounded,
            "bound": next(iter(env.rc_servers.values())).max_sync_records,
            "workers": n_workers,
            "n_keys": n_keys,
            "value_pad": value_pad,
            "fault_window": ((BLACKOUT_AT, heal_t) if blackout
                             else (cut_at, heal_t)),
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
            "stale_keys": stale,
            "sync_failures": sync_failures,
            "snapshot_catchups": sum(s["snapshot_catchups"]
                                     for s in replica_stats.values()),
            "replica_stats": replica_stats,
            "lookup_ops_ok": sessions["ops_ok"],
            "lookup_ops_failed": sessions["ops_failed"],
        }

    return run_spine(
        seed, lambda: build_chaos_env(seed, n_workers, rc_server_kw=rc_server_kw),
        scenario, settle=4.0, **spine)


def shard_chaos_plan(env: SnipeEnvironment, workers: List[str], fault_stop: float
                     ) -> List[FaultEvent]:
    """The shard scenario's seeded chaos plan: a core host carrying shard
    replicas crashes, a worker is cut off."""
    rng = env.sim.rng.stream("shard-chaos.schedule")
    core = ["c1", "c2"]  # c0 carries the director's RC client: keep it up
    victim = core[rng.randrange(len(core))]
    t_crash = rng.uniform(8.0, fault_stop * 0.6)
    d_crash = rng.uniform(4.0, 8.0)
    w = workers[rng.randrange(len(workers))]
    t_part = rng.uniform(8.0, fault_stop * 0.7)
    d_part = rng.uniform(4.0, 8.0)
    return [FaultEvent("crash", victim, t_crash, d_crash),
            FaultEvent("partition", f"s-{w}", t_part, d_part)]


@scenario_runner
def run_shard_chaos(
    seed: int,
    n_workers: int = 3,
    duration: float = 90.0,
    **spine,
) -> Run:
    """One seeded sharded-catalog run; returns a report dict.

    Write/delete load through the facade drives the ``app`` shard past
    its split threshold while seeded faults land mid-migration: a core
    host (carrying shard replicas) crashes and recovers, and one worker
    is partitioned away and heals. At quiescence the federation must
    show:

    * the load actually forced at least one split, so the faults raced
      a migration rather than a quiet map (``liveness``);
    * every shard replica group agrees internally, and every live name
      is visible only in the group that owns it under the final map —
      in particular never in both a split parent and its child
      (the catalog judge's ``shard-ownership`` pass);
    * **writes-survive** — each live key's converged value is at least
      its last acknowledged write, and no retired key resurrected;
    * **queries-complete** — a scatter-gather prefix query through the
      facade returns exactly the live tracked keys.
    """
    fault_stop = duration * 0.5
    t0, t1 = 3.0, fault_stop + 10.0

    def scenario(run: Run, workers: List[str]):
        env = run.env
        catalog = CatalogOracle(run.sim)
        catalog.attach(env)
        run.bus.subscribe(catalog.on_probe)
        run.oracles = [catalog]
        env.settle(2.0)
        load = start_shard_sessions(
            env, workers, t0, t1, (fault_stop * 0.5, fault_stop * 0.9))
        if run.plan is None:
            run.plan = shard_chaos_plan(env, workers, fault_stop)
        run.arm()
        yield duration

        mgr = env.shard_manager
        final_map = mgr.map
        groups = dict(mgr.servers)
        tracked_set = set(load["keys"])

        # LWW-honest survival checks: an entry stamped at/after the last ack
        # (or the delete) is a *later* write that legitimately won — e.g. an
        # abandoned RPC replayed by the transport after a partition healed.
        # What the shard layer must never produce is an *older* stamp
        # resurfacing: that is a record lost or replayed across a migration.
        _EPS = 1.0
        stale: List[Tuple[str, str, Optional[int], int]] = []
        for uri, (n_acked, t_acked) in load["acked"].items():
            grp = groups[final_map.route(uri)]
            views = [visible_state(s.store, uri) for s in grp.values()]
            got = views[0].get("v") if views and views[0] else None
            if got is None:
                stale.append((uri, final_map.route(uri), None, n_acked))
            elif got[3] < n_acked and got[0] < t_acked - _EPS:
                stale.append((uri, final_map.route(uri), got[3], n_acked))
        resurrected = []
        for uri, t_deleted in load["retired"].items():
            for sid, grp in groups.items():
                views = [v for v in (visible_state(s.store, uri)
                                     for s in grp.values()) if v]
                if not views:
                    continue
                got = views[0].get("v")
                if got is None or got[0] < t_deleted - _EPS:
                    resurrected.append((uri, sid))
        judged = not run.violations
        if judged:
            if mgr.splits < 1:
                run.fail("liveness", f"the load never forced a split (threshold "
                                     f"{SHARD_SPLIT_THRESHOLD}, {load['writes_ok']} writes "
                                     f"acked) — the scenario exercised no migration")
            catalog.check_quiescent(OWNERSHIP, lambda uri, key: uri != MAP_URI,
                                    groups=groups, route=final_map.route)
            if stale or resurrected:
                run.fail("writes-survive", f"stale: {stale[:4]}; "
                                           f"resurrected: {resurrected[:4]}")
            run.sweep()

        # Ground truth for the federation query: what the owning groups
        # actually hold live at quiescence (acked state modulo zombies).
        truth = sorted(
            uri for uri in tracked_set
            if any(visible_state(s.store, uri)
                   for s in groups[final_map.route(uri)].values()))
        client = env.rc_client(workers[0])
        queried = [u for u in env.run(until=client.query("snipe://app/"))
                   if u in tracked_set]
        query_missing = sorted(set(truth) - set(queried))
        query_extra = sorted(set(queried) - set(truth))
        if judged and (query_missing or query_extra):
            run.fail("queries-complete", f"missing: {query_missing[:4]}; "
                                         f"extra: {query_extra[:4]}")
        redirects = sum(s.redirects for g in groups.values() for s in g.values())
        handoffs = sum(s.handoffs for g in groups.values() for s in g.values())
        return {
            "workers": n_workers,
            "n_keys": SHARD_KEYS,
            "split_threshold": SHARD_SPLIT_THRESHOLD,
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
        }

    return run_spine(
        seed,
        lambda: build_shard_env(seed, n_workers),
        scenario,
        settle=12.0,  # anti-entropy + handoff janitors drain
        **spine)
