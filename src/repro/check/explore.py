"""Schedule exploration: seeded tie-breaking, explicit fault plans, and
the scenarios' check mode — each workload under oracle supervision.

One integer — the seed — fully determines a run: it picks the fault
plan (an explicit, replayable list of :class:`FaultEvent`), seeds every
workload RNG stream, and seeds the :class:`ExplorationScheduler` that
permutes same-timestamp event ties inside the kernel. Replaying the
same (scenario, seed, plan, bug) tuple therefore reproduces the same
execution bit-for-bit, which is what makes shrinking
(:mod:`repro.check.shrink`) possible.

The per-scenario ``check_*`` runners and ``plan_*`` samplers below are
named by the scenario table (:mod:`repro.check.scenarios`), which is
also where the name-keyed ``run_check`` and ``sample_fault_plan`` live.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.bulk.fetch import BulkFetcher
from repro.bulk.testbed import build_bulk_site, make_payload
from repro.check.oracles import (
    ChunkOracle,
    CompactionOracle,
    ConvergenceOracle,
    CorruptionOracle,
    DeliveryOracle,
    FalseDeathOracle,
    ResurrectionOracle,
    ShardOracle,
    SingleOwnerOracle,
    Violation,
)
from repro.core.process import SnipeContext
from repro.guardian.guardian import Guardian
from repro.rcds.records import RCStore
from repro.rcds.shard.server import ShardRCServer
from repro.robust.chaos import (
    CheckpointWorkload,
    build_chaos_env,
    build_shard_env,
    install_overload_worker,
    start_heal_sessions,
    start_load_generators,
    start_shard_sessions,
)
from repro.robust.health import HealthBoard
from repro.robust.spine import Run, run_spine
from repro.transport.srudp import SrudpEndpoint


class ExplorationScheduler:
    """Seeded same-timestamp tie-breaker for the simulation kernel.

    ``pick(now, n)`` chooses uniformly among the *n* runnable events
    sharing the head (timestamp, priority); seed 0 always picks index 0,
    which is the kernel's default FIFO schedule. The pick sequence is a
    pure function of the seed and of the schedule so far, so a seed is a
    complete schedule description.
    """

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._rng = random.Random(0x5EED ^ (seed * 0x9E3779B1)) if seed else None
        self.picks = 0
        self.reordered = 0

    def pick(self, now: float, n: int) -> int:
        self.picks += 1
        if self._rng is None or n <= 1:
            return 0
        choice = self._rng.randrange(n)
        if choice:
            self.reordered += 1
        return choice


# ---------------------------------------------------------------------------
# Explicit fault plans
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault, explicit and serializable (so shrinkable).

    ``kind`` is one of ``crash`` (host down), ``partition`` (segment
    down, host stays up — the zombie scenario), ``split`` (target
    ``"a,b|c,d"``: a full two-sided cut between the host groups on a
    shared segment — the heal scenario's replica-group partition),
    ``congest`` (segment bandwidth/latency degraded by ``factor``),
    ``slow`` (host CPU divided by ``factor``), or one of the gray
    kinds: ``oneway``
    (target ``"a->b"``, frames a→b eaten while b→a flow), ``impair``
    (probabilistic loss/dup/reorder/corrupt on a segment, rates in
    ``extra``), ``skew`` (host wall clock offset/drift in ``extra``)
    and ``ckptrot`` (checkpoints written by the host are corrupted).
    Every window heals after ``duration``. ``extra`` is a sorted tuple
    of ``(key, value)`` pairs — hashable, so the event stays frozen,
    and round-trips through ``to_dict`` for shrinking.
    """

    kind: str
    target: str
    t: float
    duration: float
    factor: float = 1.0
    extra: tuple = ()

    def to_dict(self) -> Dict:
        d = {"kind": self.kind, "target": self.target, "t": self.t,
             "duration": self.duration, "factor": self.factor}
        if self.extra:
            d["extra"] = dict(self.extra)
        return d

    @classmethod
    def from_dict(cls, d: Dict) -> "FaultEvent":
        return cls(kind=d["kind"], target=d["target"], t=d["t"],
                   duration=d["duration"], factor=d.get("factor", 1.0),
                   extra=tuple(sorted(d.get("extra", {}).items())))

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        extra = f" x{self.factor:g}" if self.kind in ("congest", "slow") else ""
        if self.extra:
            extra += " " + ",".join(f"{k}={v:g}" for k, v in self.extra)
        return f"t={self.t:5.1f}s {self.kind} {self.target} for {self.duration:.1f}s{extra}"


def apply_fault_plan(env, plan: List[FaultEvent]) -> None:
    """Arm every event of *plan* on the environment's failure injector."""
    for ev in plan:
        if ev.kind == "crash":
            env.failures.host_down_at(ev.t, ev.target, duration=ev.duration)
        elif ev.kind == "partition":
            env.failures.segment_down_at(ev.t, ev.target, duration=ev.duration)
        elif ev.kind == "split":
            a, b = ev.target.split("|", 1)
            env.failures.partition_at(ev.t, a.split(","), b.split(","),
                                      duration=ev.duration)
        elif ev.kind == "congest":
            env.failures.congest_segment_at(ev.t, ev.target, ev.factor,
                                            duration=ev.duration)
        elif ev.kind == "slow":
            env.failures.slow_host_at(ev.t, ev.target, ev.factor,
                                      duration=ev.duration)
        elif ev.kind == "oneway":
            a, b = ev.target.split("->", 1)
            env.failures.partition_oneway_at(ev.t, [a], [b],
                                             duration=ev.duration)
        elif ev.kind == "impair":
            env.failures.impair_link_at(ev.t, ev.target, symmetric=True,
                                        duration=ev.duration,
                                        **dict(ev.extra))
        elif ev.kind == "skew":
            env.failures.skew_clock_at(ev.t, ev.target, duration=ev.duration,
                                       **dict(ev.extra))
        elif ev.kind == "ckptrot":
            env.failures.corrupt_checkpoints_at(ev.t, ev.target,
                                                duration=ev.duration)
        else:
            raise ValueError(f"unknown fault kind {ev.kind!r}")


def _r2(x: float) -> float:
    return round(x, 2)


def sample_plan(sampler: Callable, seed: int, hosts: List[str],
                horizon: float) -> List[FaultEvent]:
    """Seeded explicit fault plan: *sampler* is one scenario's
    ``plan_*(rng, hosts, horizon)`` below. All times are rounded so
    plans serialize cleanly."""
    rng = random.Random(0xFA017 ^ (seed * 0x61C88647))
    return sorted(sampler(rng, hosts, horizon),
                  key=lambda e: (e.t, e.kind, e.target))


def plan_faults(rng: random.Random, workers: List[str],
                horizon: float) -> List[FaultEvent]:
    """At least one worker *partition* (the host survives — only a
    correct fencing chain keeps the zombie from double-owning its URN)
    plus a seeded mix of crashes and further partitions."""
    # The mandatory partition must outlast the Guardian's detection
    # horizon (lease lapse + grace + probe-confirmed death), or no
    # recovery ever starts while the victim is still alive and the
    # zombie/fencing chain goes untested. Probe confirmation added
    # several seconds to that horizon; durations shorter than ~12s
    # heal before a death is ever declared.
    w = workers[rng.randrange(len(workers))]
    plan = [FaultEvent("partition", f"s-{w}",
                       _r2(rng.uniform(3.0, horizon * 0.4)),
                       _r2(rng.uniform(14.0, 20.0)))]
    for _ in range(rng.randrange(1, 4)):
        w = workers[rng.randrange(len(workers))]
        kind = rng.choice(("crash", "partition"))
        target = w if kind == "crash" else f"s-{w}"
        plan.append(FaultEvent(kind, target,
                               _r2(rng.uniform(3.0, horizon * 0.6)),
                               _r2(rng.uniform(2.0, 8.0))))
    return plan


def plan_overload(rng: random.Random, workers: List[str],
                  horizon: float) -> List[FaultEvent]:
    """Degradation windows — congestion on the core LAN and CPU-starved
    workers — on top of the bulk load."""
    plan = [FaultEvent("congest", "core-lan",
                       _r2(rng.uniform(4.0, 7.0)),
                       _r2(rng.uniform(6.0, 10.0)),
                       factor=round(rng.uniform(2.0, 4.0), 1))]
    for w in workers[: max(1, len(workers) // 2)]:
        plan.append(FaultEvent("slow", w,
                               _r2(rng.uniform(5.0, 9.0)),
                               _r2(rng.uniform(4.0, 8.0)),
                               factor=round(rng.uniform(2.0, 5.0), 1)))
    return plan


def plan_bulk(rng: random.Random, dests: List[str],
              horizon: float) -> List[FaultEvent]:
    """Crash fetching hosts while the object is in flight (transfers
    are sub-second to a-few-seconds, so faults land early)."""
    plan = []
    for _ in range(1 + rng.randrange(2)):
        w = dests[rng.randrange(len(dests))]
        plan.append(FaultEvent("crash", w,
                               _r2(rng.uniform(0.1, min(3.0, horizon))),
                               _r2(rng.uniform(0.5, 2.0))))
    return plan


def plan_heal(rng: random.Random, workers: List[str],
              horizon: float) -> List[FaultEvent]:
    """One catalog replica isolated from the other two for longer than
    the stability window (peer_stale_after + compact_interval), so log
    compaction provably runs *while the cut is up* and the heal has to
    cross the compaction horizon — gapped batches, snapshot catch-up,
    and tombstone GC discipline are all on the path."""
    iso = ("c0", "c1", "c2")[rng.randrange(3)]
    rest = ",".join(r for r in ("c0", "c1", "c2") if r != iso)
    return [FaultEvent("split", f"{iso}|{rest}",
                       _r2(rng.uniform(4.0, 10.0)),
                       _r2(rng.uniform(12.0, 18.0)))]


def plan_shard(rng: random.Random, workers: List[str],
               horizon: float) -> List[FaultEvent]:
    """A core host carrying shard replicas crashes mid-migration (c0
    stays up: it serves the director's own RC client), and one worker
    segment is cut so its facade re-routes on a stale map after the
    heal. Faults land while the write load is forcing splits, so every
    run races handoff against them."""
    core = ("c1", "c2")[rng.randrange(2)]
    w_crash = FaultEvent("crash", core,
                         _r2(rng.uniform(8.0, horizon * 0.6)),
                         _r2(rng.uniform(4.0, 8.0)))
    w = workers[rng.randrange(len(workers))]
    return [w_crash,
            FaultEvent("partition", f"s-{w}",
                       _r2(rng.uniform(8.0, horizon * 0.7)),
                       _r2(rng.uniform(4.0, 8.0)))]


def plan_gray(rng: random.Random, workers: List[str],
              horizon: float) -> List[FaultEvent]:
    """Gray faults: nothing here bumps the topology version or fully cuts
    a host off — every fault is the kind a lease-based detector misreads.

    The roles are kept on *disjoint* workers deliberately: a clock-skewed
    worker whose lease always looks lapsed must stay probe-reachable
    (overlaying a lossy window on the same host would turn an honest
    probe failure into an unavoidable "false" death and make clean seeds
    flaky). One-way cuts run core→worker only: the worker's lease
    renewals still arrive, so the Guardian never needs to probe through
    the cut direction — its replies are simply eaten, which is exactly
    the retransmission/dup stress srudp must absorb.
    """
    ws = list(workers)
    rng.shuffle(ws)
    skew_w, oneway_w = ws[0], ws[1 % len(ws)]
    rest = ws[2:] or ws[1:]
    plan: List[FaultEvent] = []
    # Lossy/duplicating/reordering windows on the remaining segments.
    for w in rest:
        plan.append(FaultEvent(
            "impair", f"s-{w}",
            _r2(rng.uniform(3.0, horizon * 0.5)), _r2(rng.uniform(4.0, 8.0)),
            extra=(("dup", round(rng.uniform(0.05, 0.15), 2)),
                   ("loss", round(rng.uniform(0.05, 0.2), 2)),
                   ("reorder", round(rng.uniform(0.05, 0.2), 2))),
        ))
    # One bit-flip window: every gray run exercises digest verification.
    cw = rest[rng.randrange(len(rest))]
    plan.append(FaultEvent(
        "impair", f"s-{cw}",
        _r2(rng.uniform(4.0, horizon * 0.5)), _r2(rng.uniform(3.0, 6.0)),
        extra=(("corrupt", round(rng.uniform(0.1, 0.25), 2)),),
    ))
    # Clock skew: the worker's lease stamps land far in the past, so its
    # lease looks permanently lapsed — only a probe-before-death keeps
    # the Guardian from killing a live host.
    # Early and long: the window must overlap the running workload, or
    # there is no RUNNING task whose death the naive detector could
    # wrongly declare.
    plan.append(FaultEvent(
        "skew", skew_w,
        _r2(rng.uniform(2.5, 5.0)), _r2(rng.uniform(15.0, 25.0)),
        extra=(("offset", -round(rng.uniform(15.0, 40.0), 1)),),
    ))
    # Asymmetric cut, replies-only direction (leases keep flowing).
    plan.append(FaultEvent(
        "oneway", f"gw->{oneway_w}",
        _r2(rng.uniform(3.0, horizon * 0.5)), _r2(rng.uniform(3.0, 6.0)),
    ))
    # Sometimes: a short checkpoint-bitrot window followed by a genuine
    # crash of the same worker — recovery must reject the torn record
    # and fall back to the previous good version.
    if rng.random() < 0.6:
        cv = rest[rng.randrange(len(rest))]
        t0 = _r2(rng.uniform(6.0, horizon * 0.6))
        plan.append(FaultEvent("ckptrot", cv, t0, 0.4))
        plan.append(FaultEvent("crash", cv, _r2(t0 + 0.45),
                               _r2(rng.uniform(2.0, 5.0))))
    return plan


# ---------------------------------------------------------------------------
# Deliberately seeded bugs
# ---------------------------------------------------------------------------

#: name -> (what it breaks, which oracle must catch it).
BUGS: Dict[str, str] = {
    "no-fence-write": "Guardian skips the fenced-below quorum writes during "
                      "recovery (caught by the single-owner oracle)",
    "no-rx-fencing": "receivers accept envelopes from superseded incarnations "
                     "(caught by the delivery oracle)",
    "no-lww": "catalog replicas apply entries without the last-writer-wins "
              "comparison (caught by the convergence oracle)",
    "no-chunk-verify": "bulk fetchers commit chunks without checking their "
                       "digest against the chunk map (caught by the "
                       "chunk-integrity oracle; bulk scenario)",
    "no-digest": "transports skip payload digest stamping, so bit-flipped "
                 "fragments reassemble silently (caught by the "
                 "no-corrupt-delivery oracle; gray scenario)",
    "naive-health": "the Guardian trusts lapsed leases without the "
                    "differential probe-before-death, so a clock-skewed "
                    "live host is declared dead (caught by the "
                    "no-false-death oracle; gray scenario)",
    "early-gc": "replicas collect tombstones before every peer has acked "
                "past them, so a partitioned peer's stale pre-delete "
                "write resurrects the key on heal (caught by the "
                "no-resurrection oracle; heal scenario)",
    "vector-gap": "a gapped anti-entropy batch bumps the version vector "
                  "past records that were never applied, so the skipped "
                  "records are never requested again (caught by the "
                  "compaction-convergence oracle; heal scenario)",
    "stale-epoch-write": "shard replicas drop the epoch ownership fence, so "
                         "a client routing on a stale pre-split map lands "
                         "writes in the parent shard after the epoch "
                         "advanced (caught by the shard-ownership oracle; "
                         "shard scenario)",
}

_BUG_HOOKS = {
    "no-fence-write": (Guardian, "fence_writes_enabled"),
    "no-rx-fencing": (SnipeContext, "rx_fencing_enabled"),
    "no-lww": (RCStore, "lww_enabled"),
    "no-chunk-verify": (BulkFetcher, "verify_enabled"),
    "no-digest": (SrudpEndpoint, "digest_enabled"),
    "naive-health": (HealthBoard, "differential_enabled"),
    "early-gc": (RCStore, "safe_gc_enabled"),
    "vector-gap": (RCStore, "contiguous_vector_enabled"),
    "stale-epoch-write": (ShardRCServer, "epoch_fencing_enabled"),
}


@contextmanager
def seeded_bug(name: Optional[str]):
    """Disable one safety mechanism for the duration of the block."""
    if name is None:
        yield
        return
    if name not in _BUG_HOOKS:
        raise ValueError(f"unknown bug {name!r} (known: {sorted(_BUG_HOOKS)})")
    cls, attr = _BUG_HOOKS[name]
    saved = getattr(cls, attr)
    setattr(cls, attr, False)
    try:
        yield
    finally:
        setattr(cls, attr, saved)


# ---------------------------------------------------------------------------
# The check harness
# ---------------------------------------------------------------------------

def _check(scenario: str, seed: int, plan_for: Callable, explore: bool,
           p: Dict, build: Callable, body: Callable, settle: float = 0.0) -> Run:
    """One model-checking run of a scenario through the spine.

    *plan_for(hosts)* yields the explicit fault plan (the caller's, or
    one sampled from the seed) once the site exists; *body* — the
    scenario generator, see :func:`repro.robust.spine.run_spine` — sets
    ``run.oracles`` and arms ``run.plan``. With *explore* the seed also
    permutes same-timestamp ties. The run stops at the first violation —
    everything after it is noise for shrinking purposes.

    Violations are *recorded*, never raised: several components
    legitimately wrap their loops in broad ``except`` clauses, so an
    oracle exception could be swallowed at the point of detection. A
    process crash escaping the kernel (strict mode) is itself recorded
    as a ``process-crash`` violation.
    """
    scheduler = ExplorationScheduler(seed) if explore else None

    def planned(run: Run, *site):
        # The hosts faults may hit: the last thing every site builder returns.
        run.plan = plan_for(site[-1])
        return (yield from body(run, *site))

    run = run_spine(seed, build, planned, settle=settle,
                    supervise=p["duration"], scheduler=scheduler,
                    obs_sample=p["obs_sample"])
    run.report.update(
        scenario=scenario,
        explore=explore,
        plan=[e.to_dict() for e in run.plan],
        violations=[v.to_dict() for v in run.violations],
        schedule_picks=scheduler.picks if scheduler else 0,
        schedule_reordered=scheduler.reordered if scheduler else 0,
    )
    return run


def _check_star(scenario: str, seed: int, plan_for: Callable, explore: bool,
                p: Dict, build: Optional[Callable] = None,
                program: str = "chaos-worker", liveness: bool = True,
                oracles: Optional[Callable] = None,
                load: Optional[Callable] = None,
                quiesce: Optional[Callable] = None) -> Run:
    """Model-check the checkpointing workload on the chaos star site —
    the run the faults, overload, gray and heal scenarios share.

    Five oracles always watch (convergence, delivery, single-owner,
    chunk-integrity, corruption); a scenario adds its own through
    *oracles(run)*, extra load through *load(run, workers)* (may return
    the time its load ends, which the early stop then waits out), and
    quiescent checks through *quiesce(run)*. With *liveness* every
    worker must complete within the budget, and the run may stop early
    once all have and the faults are over.
    """
    def body(run: Run, workers: List[str]):
        sim, env, bus = run.sim, run.env, run.bus
        convergence = ConvergenceOracle(sim)
        convergence.attach(env)
        bus.subscribe(convergence.on_probe)
        delivery = DeliveryOracle(sim)
        owner = SingleOwnerOracle(sim)
        chunks = ChunkOracle(sim)  # inert unless something moves bulk data
        corruption = CorruptionOracle(sim)
        bus.subscribe(delivery.on_probe)
        bus.subscribe(owner.on_probe)
        bus.subscribe(chunks.on_probe)
        bus.subscribe(corruption.on_probe)
        # Attach order matters: ConvergenceOracle.attach *sets* the
        # stores' on_apply slot; a scenario's oracles chain onto it.
        run.oracles = [convergence, delivery, owner, chunks, corruption] + (
            oracles(run) if oracles is not None else [])

        work = CheckpointWorkload(env, workers, "check", p["total"], 3,
                                  p["step"], program=program)
        quiet_after = (load(run, workers) if load is not None else 0.0) or 0.0
        apply_fault_plan(env, run.plan)
        quiet_after = max(quiet_after, max(
            (e.t + e.duration for e in run.plan), default=0.0))
        yield lambda: (liveness and work.all_reported()
                       and sim.now > quiet_after + 6.0)

        urns, completed = work.urns, len(work.completed())
        if liveness and not run.violations:
            if completed == len(urns):
                convergence.check_quiescent(urns)
            else:
                run.violations.append(Violation(
                    "liveness", sim.now,
                    f"only {completed}/{len(urns)} workers completed within "
                    f"the {p['duration']:.0f}s budget",
                ))
            run.sweep()
        if quiesce is not None and not run.violations:
            quiesce(run)
            run.sweep()
        return {
            "completed": completed,
            "workers": len(urns),
            "recoveries": sum(len(g.recoveries) for g in env.guardians.values()),
            "delivered": delivery.delivered,
            "heal": None,
        }

    return _check(scenario, seed, plan_for, explore, p,
                  build or (lambda: build_chaos_env(seed, p["n_workers"])),
                  body, settle=4.0)  # drain queues, let anti-entropy converge


def check_faults(seed: int, plan_for: Callable, explore: bool, p: Dict) -> Dict:
    """Crash/partition plans over the checkpointing workload."""
    return _check_star("faults", seed, plan_for, explore, p).report


def check_overload(seed: int, plan_for: Callable, explore: bool, p: Dict) -> Dict:
    """Saturating lookup load plus degradation windows; nothing crashes,
    and nothing has to finish — the oracles check safety, not the
    overload treatment."""
    def configure(sim):
        # Bounded server queues small enough that overload actually
        # bites (cf. run_overload); the adaptive controls stay on.
        sim.overload.server_bulk_capacity = 128

    def build():
        env, workers = build_chaos_env(
            seed, p["n_workers"], rc_service_time=p["service_time"],
            configure=configure)
        install_overload_worker(
            env, {"steps": 0, "send_failures": 0, "ckpt_failures": 0})
        return env, workers

    def load(run: Run, workers: List[str]) -> None:
        capacity = len(run.env.rc_replicas) / p["service_time"]
        start_load_generators(run.env, workers, p["saturation"] * capacity,
                              4.0, p["duration"] - 6.0)

    return _check_star("overload", seed, plan_for, explore, p, build=build,
                       program="overload-worker", liveness=False,
                       load=load).report


def check_gray(seed: int, plan_for: Callable, explore: bool, p: Dict) -> Dict:
    """Gray plans, plus the no-false-death oracle."""
    def oracles(run: Run) -> List:
        # Only gray plans promise every non-crashed host stays reachable
        # over *some* path; a full partition (faults scenario) makes a
        # lease-inferred death legitimate, so the oracle stays out there.
        spans = [(e.target, e.t, e.t + e.duration + 20.0)
                 for e in run.plan if e.kind == "crash"]
        falsedeath = FalseDeathOracle(
            run.sim, crashed=lambda h, t: any(
                h == c and a <= t <= b for c, a, b in spans),
        )
        run.bus.subscribe(falsedeath.on_probe)
        return [falsedeath]

    return _check_star("gray", seed, plan_for, explore, p,
                       oracles=oracles).report


def check_heal(seed: int, plan_for: Callable, explore: bool, p: Dict) -> Dict:
    """A replica group split past the compaction horizon under pinned
    write/delete load, with the resurrection and compaction oracles."""
    duration = p["duration"]
    resurrection = compaction = None
    tracked: Dict = {}

    def oracles(run: Run) -> List:
        nonlocal resurrection, compaction
        resurrection = ResurrectionOracle(run.sim)
        resurrection.attach(run.env)
        compaction = CompactionOracle(run.sim)
        compaction.attach(run.env)
        return [resurrection, compaction]

    def load(run: Run, workers: List[str]) -> float:
        nonlocal tracked
        # Per-key write/delete load pinned to fixed replicas, with the
        # retirements (write-here/delete-there pairs) seeded *inside*
        # the split window so the tombstone and the stale live write
        # land on opposite sides of the cut.
        splits = [e for e in run.plan if e.kind == "split"]
        if splits:
            retire_window = (splits[0].t + 0.35 * splits[0].duration,
                             splits[0].t + 0.65 * splits[0].duration)
        else:  # a shrunk plan may have dropped the split entirely
            retire_window = (duration * 0.2, duration * 0.3)
        heal_end = duration * 0.55
        tracked = start_heal_sessions(
            run.env, workers, 3.0, heal_end, n_keys=18, interval=0.35,
            value_pad=256, retire_frac=0.3, retire_window=retire_window)
        return heal_end

    def quiesce(run: Run) -> None:
        resurrection.check_quiescent()
        compaction.check_quiescent(prefix="snipe://heal/")
        for uri in sorted(tracked["retired"]):
            holders = sorted(r for r, srv in run.env.rc_servers.items()
                             if srv.store.lookup(uri))
            if holders:
                run.violations.append(Violation(
                    "no-resurrection", run.sim.now,
                    f"retired key {uri} still visible on "
                    f"{', '.join(holders)} after its delete was "
                    f"acknowledged",
                ))

    # Aggressive compaction, so the horizon provably moves while one
    # replica is cut off and anti-entropy must heal across it (via
    # gap-refusing batches and snapshot catch-up) rather than replay
    # a complete log.
    run = _check_star(
        "heal", seed, plan_for, explore, p,
        build=lambda: build_chaos_env(seed, p["n_workers"], rc_server_kw=dict(
            compact_interval=1.0, peer_stale_after=6.0, max_sync_records=32,
            snapshot_every=64, log_keep_tail=8)),
        oracles=oracles, load=load, quiesce=quiesce)
    servers = run.env.rc_servers.values()
    run.report["heal"] = {
        "writes_ok": tracked["writes_ok"],
        "writes_failed": tracked["writes_failed"],
        "deletes_ok": tracked["deletes_ok"],
        "deletes_failed": tracked["deletes_failed"],
        "retired": len(tracked["retired"]),
        "compactions": sum(s.store.compactions for s in servers),
        "tombstones_collected": sum(
            s.store.tombstones_collected for s in servers),
        "snapshot_catchups": sum(s.snapshot_catchups for s in servers),
    }
    return run.report


def check_shard(seed: int, plan_for: Callable, explore: bool, p: Dict) -> Dict:
    """Model-check the sharded catalog: write/delete load through the
    facade forces splits while a core host crashes and a worker segment
    is cut, with the shard-ownership oracle judging every locally
    accepted record against the replica's own adopted map and the
    convergence oracle mirroring every replica (root and shard groups
    alike). At quiescence the final map must place every live name in
    exactly one group — in particular no name on both sides of a split
    boundary — with each group internally converged."""
    fault_stop = p["duration"] * 0.5

    def body(run: Run, workers: List[str]):
        env = run.env
        convergence = ConvergenceOracle(run.sim)
        convergence.attach(env)
        run.bus.subscribe(convergence.on_probe)
        shard = ShardOracle(run.sim)
        shard.attach(env)
        run.bus.subscribe(shard.on_probe)
        run.oracles = [convergence, shard]

        env.settle(2.0)
        load = start_shard_sessions(
            env, workers, 3.0, fault_stop + 10.0, n_keys=48, interval=0.25,
            retire_window=(fault_stop * 0.5, fault_stop * 0.9))
        apply_fault_plan(env, run.plan)
        yield

        mgr = env.shard_manager
        if not run.violations:
            if mgr.splits < 1:
                run.violations.append(Violation(
                    "liveness", run.sim.now,
                    f"the load never forced a split (threshold 24, "
                    f"{load['writes_ok']} writes acked) — the scenario "
                    f"exercised no migration",
                ))
            shard.check_quiescent(mgr)
            run.sweep()
        return {
            "completed": len(load["retired"]),
            "workers": len(workers),
            "recoveries": 0,
            "delivered": load["writes_ok"],
            "splits": mgr.splits,
            "epoch": mgr.map.epoch,
            "shards": sorted(mgr.map.shards),
            "local_accepts": shard.local_accepts,
        }

    return _check(
        "shard", seed, plan_for, explore, p,
        lambda: build_shard_env(seed, n_workers=min(p["n_workers"], 3),
                                split_threshold=24),
        body, settle=12.0,  # anti-entropy + handoff janitors drain
    ).report


def check_bulk(seed: int, plan_for: Callable, explore: bool, p: Dict) -> Dict:
    """Model-check the bulk data plane: a relay-tree distribution under
    crashing fetchers and one poisoned source, with the chunk-integrity
    oracle watching every commit.

    The poisoner corrupts one chunk in the first relay's store the
    instant that relay commits it (synchronously, from the probe), so
    every run exercises the per-chunk verification path: a correct
    fetcher quarantines the poisoned source and re-pulls the chunk from
    a clean one; under the seeded ``no-chunk-verify`` bug the corrupt
    bytes are committed and the oracle flags the commit."""
    chunk_size = 16384
    object_kb = 512
    duration = p["duration"]

    def body(run: Run, root: str, dests: List[str]):
        env, sim = run.env, run.sim
        chunks = ChunkOracle(sim)
        run.bus.subscribe(chunks.on_probe)
        run.oracles = [chunks]

        # Poison the first fetched commit, synchronously at commit time —
        # before the committing host can have served that chunk onward.
        poisoned: Dict = {}

        def poisoner(kind, f):
            if kind != "bulk.chunk" or poisoned:
                return
            svc = env.bulk_services.get(f["host"])
            if svc is None:
                return
            data = svc.store.get(f["name"], f["seq"])
            svc.store._chunks[f["name"]][f["seq"]] = b"\x00poison\x00" + data[8:]
            poisoned[(f["host"], f["seq"])] = sim.now

        run.bus.subscribe(poisoner)

        apply_fault_plan(env, run.plan)
        payload = make_payload(object_kb * 1024, chunk_size)
        proc = env.bulk_distributor(root).distribute(
            "check-obj", payload, dests, chunk_size=chunk_size,
            strategy="tree", deadline=duration)
        yield lambda: proc.triggered

        report = proc.value if proc.triggered and proc.ok else None
        if not run.violations:
            if report is None:
                run.violations.append(Violation(
                    "liveness", sim.now,
                    f"distribution did not finish within the "
                    f"{duration:.0f}s budget",
                ))
            elif report["completed"] != len(dests):
                run.violations.append(Violation(
                    "liveness", sim.now,
                    f"only {report['completed']}/{len(dests)} hosts completed "
                    f"(failed: {report['failed']})",
                ))
            elif not report["all_verified"]:
                run.violations.append(Violation(
                    "chunk-integrity", sim.now,
                    "a completed host's whole-object hash did not verify",
                ))
            run.sweep()
        return {
            "completed": report["completed"] if report else 0,
            "workers": len(dests),
            "recoveries": sum(
                r.get("crashes", 0)
                for r in (report or {}).get("per_dest", {}).values()),
            "delivered": chunks.committed,
            "poisoned": sorted(f"{h}#{s}" for h, s in poisoned),
            "chunk_retries": report["chunk_retries"] if report else 0,
        }

    return _check(
        "bulk", seed, plan_for, explore, p,
        lambda: build_bulk_site(seed=seed, racks=2, per_rack=3), body).report


def describe_check(report: Dict) -> str:
    """One-line summary of a check run (the default ``check_line``)."""
    return (f"completed={report['completed']}/{report['workers']} "
            f"recoveries={report['recoveries']} delivered={report['delivered']}")


def describe_shard_check(report: Dict) -> str:
    return (f"splits={report['splits']} epoch={report['epoch']} "
            f"shards={len(report['shards'])} writes={report['delivered']} "
            f"retired={report['completed']}")
