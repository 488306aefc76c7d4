"""recovery-churn: the control plane under faults.

Daemon heartbeats and leases, Guardian detect / fence / respawn, RM
placement, checkpoints to the file service and the retry / breaker
machinery do the work; timer traffic dominates and data traffic is tiny.
It is the only workload where the failed-op share can move.

Twelve hosts: a stable core (three RC replicas, two RMs, two file
servers, two Guardians) behind a gateway, and eight workers each alone
on a private segment so a worker can be cut off without crashing (the
zombie case). Eight checkpointing tasks report every step to one
collector while a seeded plan crashes worker hosts and partitions worker
segments. The primary op is one task recovery, fault onset to the
successor incarnation running.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from repro.core.checkpoint import checkpoint_to_files
from repro.core.environment import SnipeEnvironment
from repro.daemon.tasks import TaskSpec, TaskState
from repro.sim.events import defuse

from perfbench.harness import Outcome

CORE = ("c0", "c1", "c2")
#: Virtual seconds the measured phase may take before it is cut off.
CAP = 120.0
CKPT_EVERY = 4
STEP_S = 0.5
CRASH_OUTAGE = 2.0
#: Virtual seconds between fault onsets.
SLOT_S = 3.0
PARTITION_OUTAGE = 16.0
JITTER = 0.02

CRASH, PARTITION = "crash", "partition"
Fault = Tuple[str, int, float, float]  # (kind, worker index, at, duration)


@dataclass
class Inputs:
    seed: int
    n_workers: int
    steps: int
    #: Fault times are relative to the start of the measured phase.
    faults: List[Fault]
    #: Virtual seconds the measured phase simulates even if it settles
    #: sooner.
    horizon: float


@dataclass
class Book:
    """What the perfbench programs observed (shared by closure)."""

    #: (urn, incarnation, host, virtual time) of every worker start.
    starts: List[Tuple[str, int, str, float]] = field(default_factory=list)
    progress: Dict[str, Set[int]] = field(default_factory=dict)
    done: Dict[str, int] = field(default_factory=dict)
    done_at: Dict[str, float] = field(default_factory=dict)
    dup_steps: int = 0
    dup_done: int = 0
    mismatched: int = 0
    incs: Dict[str, List[int]] = field(default_factory=dict)
    ckpt_skipped: int = 0


@dataclass
class Site:
    env: SnipeEnvironment
    workers: List[str]
    book: Book
    collector_urn: str

    @property
    def sim(self):
        return self.env.sim


def install_programs(env: SnipeEnvironment, book: Book) -> None:
    """The checkpointing worker and its collector."""

    @env.program("pb-worker")
    def worker(ctx, total, collector_urn):
        book.starts.append((ctx.urn, ctx.incarnation, ctx.host.name, ctx.sim.now))

        def take_checkpoint():
            # Checkpointing is durability, not progress: if no file server
            # answers, keep computing and retry at the next boundary.
            # Defused: a task killed mid-checkpoint orphans the write, and
            # an orphan failing later must not abort the simulation.
            try:
                yield defuse(checkpoint_to_files(ctx))
            except Exception:
                book.ckpt_skipped += 1

        i = ctx.checkpoint_state.get("i", 0)
        yield from take_checkpoint()
        while i < total:
            yield ctx.compute(STEP_S)
            i += 1
            ctx.checkpoint_state["i"] = i
            yield ctx.send(collector_urn, {"urn": ctx.urn, "i": i}, tag="progress")
            # Output commit: checkpoint only after the step's report was
            # acknowledged, so a restart never skips an unreported step.
            if i % CKPT_EVERY == 0:
                yield from take_checkpoint()
        # A superseded incarnation leaves the completion to its successor.
        try:
            fence = yield ctx.rc.get(ctx.urn, "fenced-below")
        except Exception:
            fence = None
        if fence is not None and ctx.incarnation < fence:
            return i
        yield ctx.send(collector_urn, {"urn": ctx.urn, "result": i}, tag="done")
        return i

    @env.program("pb-collector")
    def collector(ctx):
        while True:
            msg = yield ctx.recv()
            p = msg.payload
            urn = p["urn"]
            book.incs.setdefault(urn, []).append(msg.src_inc)
            if msg.tag == "done":
                if urn in book.done:
                    book.dup_done += 1
                    book.mismatched += book.done[urn] != p["result"]
                else:
                    book.done[urn] = p["result"]
                    book.done_at[urn] = ctx.sim.now
            else:
                seen = book.progress.setdefault(urn, set())
                book.dup_steps += p["i"] in seen
                seen.add(p["i"])


class RecoveryChurn:
    name = "recovery-churn"
    primary_op = "one task recovery, fault onset to successor running"
    why = ("control plane under faults: daemon leases, guardian detect/fence/respawn, rm "
           "placement, core checkpoints, files, robust retry; timers dominate, data is tiny")
    #: (workers, steps per worker, host crashes, segment partitions,
    #: virtual seconds every measured phase simulates)
    FULL = (8, 60, 6, 2, 56.0)
    QUICK = (3, 16, 1, 1, 0.0)

    def generate(self, seed: int, quick: bool) -> Inputs:
        n_workers, steps, n_crashes, n_partitions, horizon = self.QUICK if quick else self.FULL
        rng = random.Random(seed)
        # Crashes first, one every SLOT_S, then the partitions; each fault
        # hits a different worker (a shuffle), so it finds that worker's
        # original task still running. Onsets move by at most JITTER, so
        # runs differ without a fault changing its place in the 1 s
        # heartbeat and scan cycles. Outage lengths are constants chosen
        # so each fault takes one recovery mechanism, never a race between
        # two: a crash reboots before its lease lapses (the daemon's
        # reconcile + notify path); a partition outlasts lease expiry,
        # the Guardian's probes and the respawn (the lease path, leaving
        # a zombie to fence).
        kinds = [CRASH] * n_crashes + [PARTITION] * n_partitions
        victims = list(range(n_workers))
        rng.shuffle(victims)
        faults: List[Fault] = []
        for k, kind in enumerate(kinds):
            at = 3.0 + SLOT_S * k + rng.random() * JITTER
            outage = CRASH_OUTAGE if kind == CRASH else PARTITION_OUTAGE
            faults.append((kind, victims[k % n_workers], at, outage))
        if faults[-1][2] > 0.9 * steps * STEP_S:
            raise ValueError("recovery-churn: faults outlast the tasks they are meant to hit")
        return Inputs(seed, n_workers, steps, faults, horizon)

    def setup(self, inputs: Inputs) -> Site:
        env = SnipeEnvironment(seed=inputs.seed)
        env.add_segment("core-lan")
        for name in CORE:
            env.add_host(name, segments=["core-lan"])
        gw = env.add_host("gw", segments=["core-lan"], forwarding=True)
        workers = []
        for i in range(inputs.n_workers):
            seg = env.add_segment(f"s-w{i}")
            env.topology.connect(gw, seg)
            env.add_host(f"w{i}", segments=[f"s-w{i}"], arch="worker")
            workers.append(f"w{i}")
        env.add_rc_servers(list(CORE))
        for name in (*CORE, "gw", *workers):
            env.boot_daemon(name)
        env.add_rm("c0", port=3600)
        env.add_rm("c1", port=3601)
        env.add_file_server("c0")
        env.add_file_server("c1")
        env.add_guardian("c1")
        env.add_guardian("c2")
        book = Book()
        install_programs(env, book)
        env.settle(2.0)
        coll = env.spawn(TaskSpec(program="pb-collector", name="pb-coll"), on="c0")
        site = Site(env, workers, book, coll.urn)
        # Warm-up: one short task placed through an RM, so placement, the
        # file-service write path and the collector's stream are not cold.
        spec = TaskSpec(program="pb-worker", arch="worker", name="pb-warm",
                        params={"total": CKPT_EVERY, "collector_urn": coll.urn})
        placed = env.sim.run(until=env.rm_client("gw").request(spec, owner="perfbench"))
        deadline = env.sim.now + 20.0
        while placed["urn"] not in book.done and env.sim.now < deadline:
            env.run(until=env.sim.now + 0.5)
        if book.done.get(placed["urn"]) != CKPT_EVERY:
            raise RuntimeError("recovery-churn warm-up task did not complete")
        return site

    def measure(self, site: Site, inputs: Inputs) -> Outcome:
        env, sim, book = site.env, site.sim, site.book
        t_start = sim.now
        urns = []
        for i, w in enumerate(site.workers):
            spec = TaskSpec(program="pb-worker", arch="worker", name=f"pb-w{i}",
                            params={"total": inputs.steps, "collector_urn": site.collector_urn})
            urns.append(env.spawn(spec, on=w).urn)
        for kind, w, at, duration in inputs.faults:
            if kind == CRASH:
                env.failures.host_down_at(t_start + at, f"w{w}", duration=duration)
            else:
                env.failures.segment_down_at(t_start + at, f"s-w{w}", duration=duration)
        stores = [s.store for s in env.rc_servers.values()]
        fault_end = t_start + max(at + d for _k, _w, at, d in inputs.faults)

        def settled() -> bool:
            return (all(book.done.get(u) == inputs.steps for u in urns)
                    and sim.now >= fault_end
                    and all(st.digest() == stores[0].digest() for st in stores[1:])
                    and all(st.get(u, "state") == TaskState.EXITED
                            for st in stores for u in urns))

        # Timer traffic (heartbeats, lease scans, anti-entropy) is
        # proportional to virtual time, so every run simulates the same
        # horizon: a seed whose recoveries finish early must not look
        # cheaper on the host clock. The makespan is when it settled.
        settled_at = None
        while sim.now < t_start + CAP and (settled_at is None
                                             or sim.now < t_start + inputs.horizon):
            env.run(until=sim.now + 0.25)
            if settled_at is None and settled():
                settled_at = sim.now
        problems: List[str] = []
        if settled_at is None:
            problems.append(f"not all-done and converged within {CAP} virtual s")
            settled_at = sim.now
        want = set(range(1, inputs.steps + 1))
        missing = sum(len(want - book.progress.get(u, set())) for u in urns)
        if missing:
            problems.append(f"{missing} worker steps never reached the collector")
        if book.mismatched:
            problems.append(f"{book.mismatched} duplicate completions disagree on the result")
        regressed = [u for u, incs in book.incs.items()
                     if any(b < a for a, b in zip(incs, incs[1:]))]
        if regressed:
            problems.append(f"incarnation regressed at the collector for {regressed}")
        return Outcome(
            attempted=len(urns) * inputs.steps,
            failed=missing,
            latencies=self._recoveries(book, inputs.faults, t_start, set(urns)),
            makespan=settled_at - t_start,
            problems=problems,
            facts={"dup_steps": book.dup_steps, "dup_done": book.dup_done,
                   "ckpt_skipped": book.ckpt_skipped, "starts": len(book.starts)},
        )

    @staticmethod
    def _recoveries(book: Book, faults: List[Fault], t_start: float,
                    urns: Set[str]) -> List[float]:
        """Per (fault, task running on the faulted host): virtual seconds
        from the fault's onset to the task's next incarnation starting."""
        out: List[float] = []
        for _kind, w, at, _duration in sorted(faults, key=lambda f: f[2]):
            t_fault = t_start + at
            host = f"w{w}"
            for urn in sorted(urns):
                before = [s for s in book.starts if s[0] == urn and s[3] <= t_fault]
                if not before or before[-1][2] != host:
                    continue
                if book.done_at.get(urn, float("inf")) <= t_fault:
                    continue
                after = [s for s in book.starts
                         if s[0] == urn and s[3] > t_fault and s[1] > before[-1][1]]
                if after:
                    out.append(after[0][3] - t_fault)
        return out
