"""Failure injection: scheduled host/link faults and Poisson churn plans.

This is the stand-in for the paper's unreliable Internet: E11 kills a
host through it at a fixed time, E3 arms a Poisson failure/repair plan
(:meth:`FailureInjector.churn_plan`) for its availability measurements,
and the chaos harness (:mod:`repro.robust.chaos`) arms seeded plans of
every kind.

Every fault a run plans is a :class:`FaultEvent`, armed by
:meth:`FailureInjector.inject`: :data:`KINDS` maps the event's kind to
the ``*_at`` method that arms it. A new fault kind is one ``KINDS``
entry plus its handler. Each handler is one timed window — fail at
``t``, heal ``duration`` later — run as a ``fail:*`` process.

Concurrent windows are safe: each host/segment carries a hold
*refcount*, so two overlapping ``host_down_at`` windows on the same host
neither re-crash an already-down host nor "recover" a host that the
other window still holds down — the overlapping action is skipped and
logged (``*_skipped`` log entries).

Every transition is one record: a ``(time, kind, target)`` entry of
:attr:`FailureInjector.log` (the fault log a chaos report carries) and a
``failure.<kind>`` trace event, so ``obs report`` shows the fault
timeline alongside the latency tables it produced.

Gray faults (none of which bump the topology version — gray failures are
*invisible* to the control plane by design):

* :meth:`partition_oneway_at` — cut A→B while B→A still flows; the
  symmetric :meth:`partition_at` is implemented on the same per-direction
  hold records, so both land identically in the log/FlightRecorder.
* :meth:`impair_link_at` — probabilistic loss/duplication/reorder/
  bit-flip corruption on one segment direction.
* :meth:`skew_clock_at` — offset/drift a host's wall clock, which skews
  its lease and LWW assertion stamps.
* :meth:`corrupt_checkpoints_at` — checkpoint writes from a host are
  silently corrupted after digesting (torn writes / bit rot).
"""

from __future__ import annotations

import dataclasses
import heapq
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional, Tuple

from repro.net.segment import LinkFault

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.topology import Topology
    from repro.sim.kernel import Simulator


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault, explicit and serializable (so shrinkable).

    ``kind`` is one of ``crash`` (host down), ``partition`` (segment
    down, host stays up — the zombie scenario), ``split`` (target
    ``"a,b|c,d"``: a full two-sided cut between the host groups on a
    shared segment — the heal scenario's replica-group partition),
    ``congest`` (segment bandwidth/latency degraded by ``factor``),
    ``slow`` (host CPU divided by ``factor``), or one of the gray
    kinds: ``oneway`` (target ``"a->b"``, frames a→b eaten while b→a
    flow), ``impair`` (probabilistic loss/dup/reorder/corrupt, rates in
    ``extra``, on a whole segment or — target ``"seg:a->b"`` — on one
    direction of it), ``skew`` (host wall clock offset/drift in
    ``extra``) and ``ckptrot`` (checkpoints written by the host are
    corrupted). Every window heals after ``duration``. A crash whose
    ``extra`` holds ``after_chunks=n`` is progress-triggered: it lands
    the instant its host has committed *n* bulk chunks after ``t``.
    ``extra`` is a sorted tuple of ``(key, value)`` pairs — hashable, so
    the event stays frozen, and round-trips through ``to_dict``.
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

    def __str__(self) -> str:
        extra = f" x{self.factor:g}" if self.kind in ("congest", "slow") else ""
        if self.extra:
            extra += " " + ",".join(f"{k}={v:g}" for k, v in self.extra)
        return f"t={self.t:5.1f}s {self.kind} {self.target} for {self.duration:.1f}s{extra}"


def _impair(inj: "FailureInjector", e: FaultEvent) -> None:
    segment, _, link = e.target.partition(":")
    src, _, dst = link.partition("->")
    inj.impair_link_at(e.t, segment, src=src or "*", dst=dst or "*",
                       duration=e.duration, **dict(e.extra))


#: Fault kind -> how :meth:`FailureInjector.inject` arms an event of it:
#: the kind's ``*_at`` method, called with the event's target parsed. A
#: new kind is one entry here plus its handler.
KINDS: Dict[str, Callable[["FailureInjector", FaultEvent], None]] = {
    "crash": lambda inj, e: inj.host_down_at(e.t, e.target, e.duration),
    "partition": lambda inj, e: inj.segment_down_at(e.t, e.target, e.duration),
    "split": lambda inj, e: inj.partition_at(
        e.t, *(side.split(",") for side in e.target.split("|", 1)), e.duration),
    "oneway": lambda inj, e: inj.partition_oneway_at(
        e.t, *([side] for side in e.target.split("->", 1)), e.duration),
    "congest": lambda inj, e: inj.congest_segment_at(e.t, e.target, e.factor, e.duration),
    "slow": lambda inj, e: inj.slow_host_at(e.t, e.target, e.factor, e.duration),
    "impair": _impair,
    "skew": lambda inj, e: inj.skew_clock_at(e.t, e.target, duration=e.duration,
                                             **dict(e.extra)),
    "ckptrot": lambda inj, e: inj.corrupt_checkpoints_at(e.t, e.target, e.duration),
}


class FailureInjector:
    """Drives crash/recover and link down/up events against a topology."""

    def __init__(self, sim: "Simulator", topology: "Topology") -> None:
        self.sim = sim
        self.topology = topology
        self._rng = sim.rng.stream("failures")
        self.log: List[Tuple[float, str, str]] = []
        #: Hold refcounts: how many windows currently want this
        #: host/segment down. Transitions happen only at 0 <-> 1.
        self._host_holds: Dict[str, int] = {}
        self._segment_holds: Dict[str, int] = {}

    def inject(self, ev: FaultEvent) -> None:
        """Arm one plan event through its kind's ``*_at`` method."""
        arm = KINDS.get(ev.kind)
        if arm is None:
            raise ValueError(f"unknown fault kind {ev.kind!r}")
        arm(self, ev)

    def churn_plan(self, hosts: List[str], mtbf: float, mttr: float,
                   start: float, stop_at: float) -> List[FaultEvent]:
        """Poisson host churn as a plan of crash events.

        This models the paper's testbed environment: independent node
        failures with repair. Each host alternates Exp(*mtbf*) up and
        Exp(*mttr*) down phases from *start*; no crash begins at or
        after *stop_at*. The draws come from the injector's seeded
        ``failures`` stream by virtual time, hosts in order at a tie."""
        plan: List[FaultEvent] = []
        wake = [(start, i, True) for i in range(len(hosts))]  # (t, host, up?)
        while wake:
            now, i, up = heapq.heappop(wake)
            if not up:
                down = self._rng.expovariate(1.0 / mttr)
                plan.append(FaultEvent("crash", hosts[i], now, down))
                heapq.heappush(wake, (now + down, i, True))
            elif now < stop_at:
                crash_at = now + self._rng.expovariate(1.0 / mtbf)
                if crash_at < stop_at:
                    heapq.heappush(wake, (crash_at, i, False))
        return plan

    # -- host and segment outages -------------------------------------------
    def host_down_at(self, t: float, host: str, duration: Optional[float] = None) -> None:
        """Crash *host* at time *t*; recover after *duration* if given."""
        self._window(f"fail:host:{host}", t, duration,
                     lambda: self._host_down(host), lambda: self._host_up(host))

    def segment_down_at(self, t: float, segment: str, duration: Optional[float] = None) -> None:
        """Cut *segment* at time *t*; restore after *duration* if given."""
        self._window(f"fail:segment:{segment}", t, duration,
                     lambda: self._segment_down(segment),
                     lambda: self._segment_up(segment))

    def partition_at(
        self, t: float, side_a: Iterable[str], side_b: Iterable[str],
        duration: Optional[float] = None,
    ) -> None:
        """Partition: cut cross-side traffic on every spanning segment.

        Implemented as per-direction hold records (A→B *and* B→A), the
        same primitive :meth:`partition_oneway_at` uses — so symmetric
        and asymmetric partitions share one code path and log shape.
        Same-side traffic on a spanning segment keeps flowing, which is
        what a real partition does.
        """
        self._partition(t, side_a, side_b, duration, both=True)

    def partition_oneway_at(
        self, t: float, side_a: Iterable[str], side_b: Iterable[str],
        duration: Optional[float] = None,
    ) -> None:
        """Asymmetric partition: frames A→B are eaten, B→A still flow.

        This is the classic gray failure: B's replies/heartbeats arrive
        nowhere, while everything B sends looks healthy.
        """
        self._partition(t, side_a, side_b, duration, both=False)

    def _partition(
        self, t: float, side_a: Iterable[str], side_b: Iterable[str],
        duration: Optional[float], both: bool,
    ) -> None:
        side_a, side_b = set(side_a), set(side_b)
        cut: List[Tuple[str, str, str]] = []

        def fail():
            for seg in self.topology.segments.values():
                owners = {nic.host.name for nic in seg.nics.values()}
                on_a, on_b = owners & side_a, owners & side_b
                if not on_a or not on_b:
                    continue
                for a in sorted(on_a):
                    for b in sorted(on_b):
                        for link in ((a, b), (b, a)) if both else ((a, b),):
                            self._link_down(seg.name, *link)
                            cut.append((seg.name, *link))

        def heal():
            for link in cut:
                self._link_up(*link)

        self._window("fail:partition" if both else "fail:partition-oneway",
                     t, duration, fail, heal)

    # -- gray link/host faults ---------------------------------------------
    def impair_link_at(
        self, t: float, segment: str, src: str = "*", dst: str = "*",
        loss: float = 0.0, dup: float = 0.0, reorder: float = 0.0,
        corrupt: float = 0.0, jitter: float = 0.05,
        duration: Optional[float] = None,
    ) -> None:
        """Impair the *src*→*dst* direction of *segment* at time *t*.

        Installs a probabilistic :class:`~repro.net.segment.LinkFault`
        (loss / duplication / reordering / bit-flip corruption) and
        removes it after *duration*. ``"*"`` wildcards either endpoint,
        so the defaults impair the whole segment.
        """
        fault = LinkFault(loss=loss, dup=dup, reorder=reorder,
                          corrupt=corrupt, jitter=jitter)
        link = f"{segment}:{src}->{dst}"

        def fail():
            self.topology.segments[segment].add_fault(src, dst, fault)
            self._record("link_impaired", link)

        def heal():
            self.topology.segments[segment].remove_fault(src, dst, fault)
            self._record("link_unimpaired", link)

        self._window(f"fail:impair:{segment}", t, duration, fail, heal)

    def skew_clock_at(
        self, t: float, host: str, offset: float = 0.0, drift: float = 0.0,
        duration: Optional[float] = None,
    ) -> None:
        """Skew *host*'s wall clock at time *t*; restore after *duration*.

        Everything the host stamps with wall time — daemon lease expiry,
        LWW assertion stamps — is skewed by ``offset + drift * elapsed``.
        """

        def fail():
            self.topology.hosts[host].set_clock_skew(offset=offset, drift=drift)
            self._record("clock_skewed", host)

        def heal():
            self.topology.hosts[host].set_clock_skew()
            self._record("clock_unskewed", host)

        self._window(f"fail:skew:{host}", t, duration, fail, heal)

    def corrupt_checkpoints_at(
        self, t: float, host: str, duration: Optional[float] = None,
    ) -> None:
        """From time *t*, checkpoint records written by processes on
        *host* are silently corrupted after digesting (torn writes)."""

        def fail():
            self.topology.hosts[host].corrupt_ckpt_writes = True
            self._record("ckpt_corruptor_on", host)

        def heal():
            self.topology.hosts[host].corrupt_ckpt_writes = False
            self._record("ckpt_corruptor_off", host)

        self._window(f"fail:ckpt:{host}", t, duration, fail, heal)

    # -- degradation (overload scenarios) -----------------------------------
    def congest_segment_at(
        self, t: float, segment: str, factor: float, duration: Optional[float] = None
    ) -> None:
        """Degrade *segment* at time *t*: divide bandwidth and multiply
        latency by *factor*; restore after *duration* if given.

        Media are frozen and shared between segments, so congestion swaps
        the segment's ``medium`` for a degraded replica rather than
        mutating it. Overlapping congestion windows stack
        multiplicatively and unwind in any order (each window undoes
        exactly its own factor).
        """

        def fail():
            medium = self.topology.segments[segment].medium
            self.topology.set_medium(segment, dataclasses.replace(
                medium, bandwidth=medium.bandwidth / factor,
                latency=medium.latency * factor))
            self._record("segment_congested", segment)

        def heal():
            medium = self.topology.segments[segment].medium
            self.topology.set_medium(segment, dataclasses.replace(
                medium, bandwidth=medium.bandwidth * factor,
                latency=medium.latency / factor))
            self._record("segment_decongested", segment)

        self._window(f"fail:congest:{segment}", t, duration, fail, heal)

    def slow_host_at(
        self, t: float, host: str, factor: float, duration: Optional[float] = None
    ) -> None:
        """Slow *host* at time *t*: divide ``cpu_speed`` by *factor* (all
        compute takes *factor* times longer); restore after *duration*.
        Overlaps stack multiplicatively, like congestion."""

        def fail():
            self.topology.hosts[host].cpu_speed /= factor
            self._record("host_slowed", host)

        def heal():
            self.topology.hosts[host].cpu_speed *= factor
            self._record("host_unslowed", host)

        self._window(f"fail:slow:{host}", t, duration, fail, heal)

    # -- primitives --------------------------------------------------------
    def _window(self, name: str, t: float, duration: Optional[float],
                fail: Callable[[], None], heal: Callable[[], None]) -> None:
        """Run one fault window as process *name*: *fail* at *t* (at once
        if *t* is past), *heal* *duration* later — never if it is None."""

        def script():
            yield self.sim.timeout(max(0.0, t - self.sim.now))
            fail()
            if duration is not None:
                yield self.sim.timeout(duration)
                heal()

        self.sim.process(script(), name=name)

    def _record(self, kind: str, target: str) -> None:
        """One transition: a fault-log entry and a ``failure.<kind>``
        trace event."""
        self.log.append((self.sim.now, kind, target))
        tracer = self.sim.obs.tracer
        if tracer.enabled:
            tracer.event(f"failure.{kind}", target=target)

    def _host_down(self, name: str) -> None:
        holds = self._host_holds.get(name, 0)
        self._host_holds[name] = holds + 1
        if holds:
            # Another window already holds this host down; stacking the
            # hold is enough — crashing a corpse would double-run cleanups.
            self.log.append((self.sim.now, "host_down_skipped", name))
            return
        self.topology.hosts[name].crash()
        self._record("host_down", name)

    def _host_up(self, name: str) -> None:
        holds = self._host_holds.get(name, 0)
        if holds > 1:
            # Someone else still wants it down: release our hold only.
            self._host_holds[name] = holds - 1
            self.log.append((self.sim.now, "host_up_skipped", name))
            return
        self._host_holds[name] = 0
        self.topology.hosts[name].recover()
        self._record("host_up", name)

    def _link_down(self, segment: str, src: str, dst: str) -> None:
        """Hold the *src*→*dst* direction of *segment* down (refcounted).

        Per-direction hold records are the shared primitive beneath both
        symmetric and one-way partitions; the segment's own refcount
        makes overlapping windows safe (each release undoes one hold).
        Deliberately does *not* bump the topology version: a gray cut is
        invisible to routing and path caches.
        """
        self.topology.segments[segment].block_link(src, dst)
        self._record("link_down", f"{segment}:{src}->{dst}")

    def _link_up(self, segment: str, src: str, dst: str) -> None:
        self.topology.segments[segment].unblock_link(src, dst)
        self._record("link_up", f"{segment}:{src}->{dst}")

    def _segment_down(self, name: str) -> None:
        holds = self._segment_holds.get(name, 0)
        self._segment_holds[name] = holds + 1
        if holds:
            self.log.append((self.sim.now, "segment_down_skipped", name))
            return
        self.topology.segments[name].up = False
        self.topology.bump_version()
        self._record("segment_down", name)

    def _segment_up(self, name: str) -> None:
        holds = self._segment_holds.get(name, 0)
        if holds > 1:
            self._segment_holds[name] = holds - 1
            self.log.append((self.sim.now, "segment_up_skipped", name))
            return
        self._segment_holds[name] = 0
        self.topology.segments[name].up = True
        self.topology.bump_version()
        self._record("segment_up", name)
