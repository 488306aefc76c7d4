"""Schedule exploration: seeded tie-breaking, sampled fault plans, and
the seeded bugs the oracles must catch.

One integer — the seed — fully determines a check run: it picks the
fault plan (an explicit, replayable list of
:class:`~repro.robust.spine.FaultEvent`, from the scenario's ``plan_*``
sampler below), seeds every workload RNG stream, and seeds the
:class:`ExplorationScheduler` that permutes same-timestamp event ties
inside the kernel. Replaying the same (scenario, seed, plan, bug) tuple
therefore reproduces the same execution bit-for-bit, which is what
makes shrinking (:mod:`repro.check.shrink`) possible. The run itself is
the scenario's one runner (:mod:`repro.robust.chaos`), reached by name
through :func:`repro.check.scenarios.run_check`.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

from repro.bulk.fetch import BulkFetcher
from repro.core.process import SnipeContext
from repro.daemon.daemon import SnipeDaemon
from repro.rcds.records import RCStore
from repro.rcds.shard.server import ShardRCServer
from repro.robust.health import HealthBoard
from repro.robust.spine import FaultEvent
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
    "no-fence-write": "the daemon spawning a Guardian's respawn skips the "
                      "fenced-below quorum write, so the original is never "
                      "superseded (caught by the single-owner oracle)",
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
    "no-fence-write": (SnipeDaemon, "fence_writes_enabled"),
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
