"""The simulation kernel: virtual clock plus a priority event queue.

Two scheduling stores back the queue:

* a binary heap of ``(time, priority, eid, event)`` entries — the
  classic discrete-event core; and
* a hierarchical timer wheel for *cancellable* timers created through
  :meth:`Simulator.schedule_timer` (retransmission timers, RPC
  deadlines, heartbeat sleeps). Wheel entries carry a heap-compatible
  key assigned at schedule time but stay in coarse calendar buckets
  until the clock approaches; a timer cancelled before its bucket is
  flushed never touches the heap at all. Under a retransmit-heavy
  workload almost every timer is cancelled (the ACK beats the RTO), so
  the wheel turns the dominant heap traffic into list appends.

Determinism: entry keys are assigned when the timer is *scheduled*, and
buckets are flushed into the heap strictly before any entry with an
equal-or-later key can be popped, so the pop order — including
same-timestamp tie sets seen by an exploration scheduler — is
bit-identical to pushing every timer straight onto the heap — the naive
reference ``tests/sim/test_timer_wheel.py`` compares the wheel against.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from repro.sim.errors import SimulationError, StopSimulation
from repro.sim.events import AllOf, AnyOf, Event, Timeout
from repro.sim.process import Process
from repro.sim.rng import RngRegistry

#: Queue priorities: urgent beats normal at equal timestamps. Used by the
#: kernel internally (interrupts are urgent); ties otherwise break on
#: insertion order, which keeps runs deterministic — unless a pluggable
#: tie-breaking scheduler (see :meth:`Simulator.set_scheduler`) permutes
#: them for systematic schedule exploration.
URGENT = 0
NORMAL = 1

#: Finest wheel slot width in virtual seconds. Timers due sooner than one
#: slot go straight onto the heap (bucketing them buys nothing).
WHEEL_GRANULARITY = 0.002
#: Slot-width ratio between adjacent wheel levels.
WHEEL_FANOUT = 32
#: Number of wheel levels. Level ``l`` slots span ``GRANULARITY *
#: FANOUT**l`` seconds; with 4 levels the coarsest slot is ~65 s, wide
#: enough for any lease/retry horizon in the tree.
WHEEL_LEVELS = 4


def _stop_run(ev: Event) -> None:
    """The callback ``run(until=event)`` hangs on its event: ends the run
    with the event's value (or failure)."""
    raise StopSimulation(ev._value if ev._exc is None else ev._exc)


class TimerHandle:
    """A cancellable one-shot kernel timer (see ``schedule_timer``).

    Not an :class:`~repro.sim.events.Event`: it cannot be yielded on or
    given callbacks — it just runs ``fn()`` at its deadline unless
    cancelled first. ``cancel()`` after firing (or a second time) is a
    no-op, so the fired-vs-cancelled race needs no guard at call sites.
    """

    __slots__ = ("deadline", "owner", "cancelled", "fired", "_fn")

    def __init__(self, fn: Callable[[], None], deadline: float, owner: str) -> None:
        self._fn = fn
        self.deadline = deadline
        self.owner = owner
        self.cancelled = False
        self.fired = False

    def cancel(self) -> None:
        if not self.fired:
            self.cancelled = True

    def _process(self) -> None:
        if not self.cancelled:
            self.fired = True
            self._fn()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "cancelled" if self.cancelled else "fired" if self.fired else "armed"
        return f"<TimerHandle {state} t={self.deadline} owner={self.owner!r}>"


class Simulator:
    """Owns virtual time, the event queue, and the random-stream registry.

    Parameters
    ----------
    seed:
        Master seed for all named RNG streams (see :class:`RngRegistry`).
    strict_process_errors:
        When True (default), an uncaught exception in any process aborts
        ``run()`` with that exception; this turns silent background crashes
        into loud test failures.
    """

    def __init__(self, seed: int = 0, strict_process_errors: bool = True) -> None:
        self.now: float = 0.0
        self.rng = RngRegistry(seed)
        self.strict_process_errors = strict_process_errors
        self._queue: List[Tuple[float, int, int, Any]] = []
        self._eid = 0
        self._active_process: Optional[Process] = None
        self._crashed: List[Tuple[Process, BaseException]] = []
        self._obs = None
        self._overload = None
        #: Pluggable same-timestamp tie-breaker (None = FIFO insertion
        #: order). See :meth:`set_scheduler`.
        self._scheduler = None
        #: Optional probe bus (:class:`repro.check.ProbeBus`): when set,
        #: instrumented components emit semantic events (context starts,
        #: envelope sends/deliveries, fence writes, catalog applies) that
        #: the model-checking oracles consume. None costs one attribute
        #: read at each emit site.
        self.probes = None
        #: Optional kernel profiler (:class:`repro.obs.prof.KernelProfiler`):
        #: when attached, every heap push and every popped event is
        #: counted. None costs one attribute test per schedule/step.
        self._prof = None
        #: Optional flight recorder (:class:`repro.obs.flight.FlightRecorder`):
        #: when attached, hosts note delivered frames into its per-host
        #: rings. None costs one attribute read per delivered frame.
        self.flight = None
        #: Per-simulation named sequence counters (see :meth:`sequence`).
        self._seqs: Dict[str, int] = {}
        #: Frames constructed in this simulation (fed by the transports
        #: via :meth:`next_frame_id`; read by the kernel profiler). Like
        #: :meth:`sequence`, frame identity is per-sim state so replays
        #: cannot be perturbed by earlier simulations in the process.
        self.frames_constructed = 0
        # Timer wheel: per-level sparse calendar buckets (slot -> entry
        # list) plus a heap of (slot_start, level, slot) flush deadlines.
        self._wheel: List[Dict[int, List[Tuple[float, int, int, TimerHandle]]]] = [
            {} for _ in range(WHEEL_LEVELS)
        ]
        self._wheel_due: List[Tuple[float, int, int]] = []
        self._wheel_spans = [
            WHEEL_GRANULARITY * WHEEL_FANOUT**level for level in range(WHEEL_LEVELS)
        ]

    def sequence(self, name: str) -> int:
        """Next value (1, 2, ...) of the named per-simulation counter.

        Identity counters (task URNs, context incarnations, transport
        message ids) must come from the simulation, not from
        process-global state: a URN like ``urn:snipe:proc:worker.7``
        feeds the Guardians' consistent-hash sharding, so
        globally-numbered identities would make the same seed behave
        differently depending on how many simulations ran earlier in the
        process — unacceptable for replayable runs.
        """
        n = self._seqs.get(name, 0) + 1
        self._seqs[name] = n
        return n

    def next_frame_id(self) -> int:
        """Next per-simulation frame id (1, 2, ...), counted for the
        profiler. A dedicated counter rather than :meth:`sequence`
        because frames are the hottest allocation on the wire path."""
        n = self.frames_constructed + 1
        self.frames_constructed = n
        return n

    def set_scheduler(self, scheduler) -> None:
        """Install a tie-breaking scheduler, or ``None`` for FIFO order.

        The scheduler sees every point where more than one event is
        runnable at the same (timestamp, priority) and picks which goes
        first: ``scheduler.pick(now, n)`` must return an index in
        ``[0, n)`` into the candidates listed in insertion order (so
        ``pick == 0`` everywhere reproduces the default schedule).
        Priorities are never reordered — urgent still beats normal.
        """
        self._scheduler = scheduler

    @property
    def obs(self):
        """This simulation's observability hub (metrics + tracer), created
        on first touch so bare kernels pay nothing for it."""
        if self._obs is None:
            from repro.obs import Observability

            self._obs = Observability(clock=lambda: self.now)
        return self._obs

    @property
    def overload(self):
        """This simulation's overload-control configuration (adaptive
        timeouts, circuit breakers, lane bounds), created on first touch.
        Flip its fields before building endpoints to change behaviour;
        ``adaptive=False`` is the static-timeout baseline."""
        if self._overload is None:
            from repro.robust.overload import OverloadConfig

            self._overload = OverloadConfig()
        return self._overload

    # -- event factories -------------------------------------------------
    def event(self) -> Event:
        """A fresh pending event; trigger it with ``succeed``/``fail``."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event firing *delay* units of virtual time from now."""
        return Timeout(self, delay, value)

    def process(self, gen: Generator[Event, Any, Any], name: str = "") -> Process:
        """Start a new process from generator *gen*."""
        return Process(self, gen, name=name)

    def all_of(self, events) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events) -> AnyOf:
        return AnyOf(self, events)

    # -- scheduling -------------------------------------------------------
    def _schedule(self, event: Event, delay: float = 0.0, priority: int = NORMAL) -> None:
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        self._eid += 1
        heapq.heappush(self._queue, (self.now + delay, priority, self._eid, event))
        if self._prof is not None:
            self._prof.note_schedule(event, len(self._queue))

    def schedule_timer(
        self, delay: float, fn: Callable[[], None], owner: str = ""
    ) -> TimerHandle:
        """Run ``fn()`` *delay* from now unless the handle is cancelled.

        The cheap path for the retransmit/deadline pattern: unlike a
        :class:`Timeout`, a cancelled timer is skipped without running
        callbacks, without advancing the clock, and without appearing in
        an exploration scheduler's tie sets — and when cancelled before
        its wheel bucket flushes (the common case: the ACK beats the
        RTO) it never reaches the event heap at all. *owner* is a
        process-style name (``srudp-send:h3``) by which a host-time
        profiler can attribute the firing to a layer.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        deadline = self.now + delay
        handle = TimerHandle(fn, deadline, owner)
        self._eid += 1
        entry = (deadline, NORMAL, self._eid, handle)
        prof = self._prof
        if delay < WHEEL_GRANULARITY:
            heapq.heappush(self._queue, entry)
            if prof is not None:
                prof.note_schedule(handle, len(self._queue))
        else:
            level = 0
            spans = self._wheel_spans
            for i in range(WHEEL_LEVELS - 1, 0, -1):
                if delay >= spans[i]:
                    level = i
                    break
            span = spans[level]
            slot = int(deadline / span)
            buckets = self._wheel[level]
            bucket = buckets.get(slot)
            if bucket is None:
                buckets[slot] = [entry]
                heapq.heappush(self._wheel_due, (slot * span, level, slot))
            else:
                bucket.append(entry)
        if prof is not None:
            prof.note_timer(handle)
        return handle

    def timer_event(self, delay: float, value: Any = None, owner: str = "") -> Event:
        """An event fired *delay* from now via the timer wheel.

        The drop-in for periodic sleeps (heartbeats, lease refresh,
        compaction ticks): behaves like :meth:`timeout` to the yielding
        process but keeps long-horizon sleeps out of the event heap
        until they are nearly due.
        """
        ev = Event(self)

        def _fire(ev=ev, value=value):
            ev.succeed(value)

        self.schedule_timer(delay, _fire, owner)
        return ev

    def _settle(self) -> None:
        """Make the heap head authoritative: drop cancelled timer heads
        and flush every wheel bucket whose slot could still precede it.

        The flush invariant that keeps wheel scheduling bit-identical to
        direct heap pushes: a bucket's entries all have ``deadline >=
        slot_start``, so as long as every bucket with ``slot_start <=
        head time`` is flushed before the head is popped, every entry
        reaches the heap before any entry with a later key can run.
        Coarse-level buckets cascade into level-0 slots rather than the
        heap so a 60-second lease sleep occupies one coarse slot, not a
        heap entry, for most of its life.
        """
        q = self._queue
        due = self._wheel_due
        prof = self._prof
        while True:
            while q:
                head = q[0][3]
                if head.__class__ is TimerHandle and head.cancelled:
                    heapq.heappop(q)
                else:
                    break
            if not due or (q and q[0][0] < due[0][0]):
                return
            _start, level, slot = heapq.heappop(due)
            bucket = self._wheel[level].pop(slot, None)
            if not bucket:
                continue
            if level == 0:
                for entry in bucket:
                    if not entry[3].cancelled:
                        heapq.heappush(q, entry)
                        if prof is not None:
                            prof.heap_pushes += 1
            else:
                fine = self._wheel[0]
                g0 = WHEEL_GRANULARITY
                for entry in bucket:
                    if entry[3].cancelled:
                        continue
                    fslot = int(entry[0] / g0)
                    fine_bucket = fine.get(fslot)
                    if fine_bucket is None:
                        fine[fslot] = [entry]
                        heapq.heappush(due, (fslot * g0, 0, fslot))
                    else:
                        fine_bucket.append(entry)

    # -- execution ---------------------------------------------------------
    @property
    def queue_empty(self) -> bool:
        self._settle()
        return not self._queue

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        self._settle()
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Process exactly one event."""
        self._settle()
        if not self._queue:
            raise SimulationError("step() on empty queue")
        if self._scheduler is None:
            t, _prio, _eid, event = heapq.heappop(self._queue)
        else:
            t, _prio, _eid, event = self._pop_scheduled()
        self.now = t
        if self._prof is not None:
            self._prof.note_pop(event)
        event._process()
        if self._crashed and self.strict_process_errors:
            _proc, exc = self._crashed[0]
            self._crashed.clear()
            raise exc

    def _pop_scheduled(self) -> Tuple[float, int, int, Any]:
        """Pop the next event, letting the scheduler break timestamp ties.

        All live events sharing the head's (timestamp, priority) are
        candidates; they are presented in insertion order, so index 0 is
        the FIFO choice. Cancelled timers are discarded while collecting
        — a dead retransmit timer must not widen the tie set the
        exploration scheduler permutes. Unchosen candidates go back on
        the heap — events scheduled *while the chosen one runs* join the
        tie set at the next step.
        """
        q = self._queue
        head = heapq.heappop(q)
        # A cancelled timer at the head must not seed the tie set: it
        # would widen the permutation set and burn a scheduler pick on an
        # event the run loop discards — and since the naive heap reference
        # keeps every cancelled timer on the heap while the wheel drops
        # most in their buckets, that pick-count skew would make the two
        # consume the exploration RNG differently. Hand it straight back
        # (the run loop discards it without advancing the clock); popping
        # onward here would skip past the caller's stop_at check.
        if head[3].__class__ is TimerHandle and head[3].cancelled:
            return head
        if not q or q[0][0] != head[0] or q[0][1] != head[1]:
            return head
        ties = [head]
        while q and q[0][0] == head[0] and q[0][1] == head[1]:
            item = heapq.heappop(q)
            ev = item[3]
            if ev.__class__ is TimerHandle and ev.cancelled:
                continue
            ties.append(item)
        if len(ties) == 1:
            return head
        chosen = ties.pop(self._scheduler.pick(head[0], len(ties)))
        for item in ties:
            heapq.heappush(q, item)
        return chosen

    def run(self, until: Any = None) -> Any:
        """Run the simulation.

        ``until=None`` drains the queue; a number runs up to that virtual
        time; an :class:`Event` runs until that event is processed and
        returns its value.
        """
        stop_at: Optional[float] = None
        if until is None:
            pass
        elif isinstance(until, Event):
            if until.sim is not self:
                raise SimulationError("until-event belongs to another simulator")

            until.add_callback(_stop_run)
        elif isinstance(until, (int, float)):
            stop_at = float(until)
            if stop_at < self.now:
                raise SimulationError(f"until={stop_at} is in the past (now={self.now})")
        else:
            raise SimulationError(f"invalid until argument {until!r}")

        # The hot loop: equivalent to `while not queue_empty: step()` but
        # with the per-event property/method dispatch flattened out —
        # this loop runs once per simulated event, so plain attribute
        # traffic here is a measurable share of every benchmark.
        queue = self._queue
        crashed = self._crashed
        wheel_due = self._wheel_due
        pop = heapq.heappop
        try:
            while True:
                # Flush due wheel buckets only when one could actually
                # precede the heap head; between timer deadlines this
                # is a single truthiness test instead of a _settle()
                # call per event.
                if wheel_due and (not queue or wheel_due[0][0] <= queue[0][0]):
                    self._settle()
                if not queue:
                    break
                if stop_at is not None and queue[0][0] > stop_at:
                    self.now = stop_at
                    return None
                if self._scheduler is None:
                    t, _prio, _eid, event = pop(queue)
                else:
                    t, _prio, _eid, event = self._pop_scheduled()
                if event.__class__ is TimerHandle and event.cancelled:
                    # Dead timers are discarded unseen — one cancelled
                    # after its bucket flushed must not advance the clock
                    # any more than one that died in its bucket.
                    continue
                self.now = t
                if self._prof is not None:
                    self._prof.note_pop(event)
                event._process()
                if crashed and self.strict_process_errors:
                    _proc, exc = crashed[0]
                    crashed.clear()
                    raise exc
        except StopSimulation as stop:
            if isinstance(stop.value, BaseException):
                raise stop.value
            return stop.value
        if stop_at is not None:
            self.now = stop_at
        if isinstance(until, Event) and not until.triggered:
            raise SimulationError("run(until=event): queue drained but event never fired")
        return None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Simulator now={self.now} queued={len(self._queue)}>"
