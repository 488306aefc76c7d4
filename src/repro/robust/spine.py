"""The run spine: the one sequence every scenario run goes through.

The chaos harness, the model checker, the profiler and the benches all
run a scenario by one call of :func:`run_spine`::

    build site -> instrument -> probe bus -> flight recorder
      -> [check: exploration scheduler]
      -> scenario, up to its yield: watchers/oracles, workload, faults
      -> run (check: the supervised loop) -> settle
      -> scenario, after its yield: judge the quiescent state
      -> flight tape on failure -> report

A scenario plugs in a site builder and one generator function; it gets
back the :class:`Run` — the report *and* the simulator it came from, so
no caller has to smuggle the sim out through the ``instrument`` hook.

Every fault a run injects is a :class:`~repro.net.failures.FaultEvent`
of ``run.plan`` — one plan language for the seeded chaos schedules and
the model checker's sampled or shrunk plans alike, and the report's
``plan`` lists it. :meth:`Run.arm` hands each event to the failure
injector, which owns the fault kinds (a new kind is one entry of
:data:`repro.net.failures.KINDS`); the spine adds only the
``after_chunks`` progress trigger. :class:`ProbeBus` and
:class:`Violation` live here because the spine is their lowest user;
:mod:`repro.robust.oracles` sits on top of this module.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple, Union

from repro.net.failures import FaultEvent
from repro.obs.flight import FlightRecorder

#: Virtual seconds between oracle sweeps of the supervised run loop.
CHUNK = 0.5

#: Virtual seconds between ``run.done`` checks of an unsupervised run.
STEP = 5.0


@dataclass
class Violation:
    """One oracle/model disagreement, timestamped in virtual time."""

    oracle: str
    time: float
    detail: str

    def to_dict(self) -> Dict[str, Any]:
        return {"oracle": self.oracle, "time": self.time, "detail": self.detail}

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.oracle}] t={self.time:.3f}s {self.detail}"


#: A run's fault plan as a runner takes it: the events themselves, or a
#: sampler of them over the hosts faults may hit (the last thing a site
#: builder returns); None lets the scenario draw its own chaos plan.
Plan = Union[None, List[FaultEvent], Callable[[List[str]], List[FaultEvent]]]


class ProbeBus:
    """Fan-out for semantic probe events (``sim.probes``).

    Deliberately minimal: subscribers are called synchronously, in
    subscription order, from inside the emitting component. Oracle
    callbacks must therefore be O(1) and must never raise — they record
    violations instead (an exception here would surface inside an
    unrelated component's ``except`` clause and be swallowed or
    misattributed).
    """

    __slots__ = ("_subs",)

    def __init__(self) -> None:
        self._subs: List[Callable[[str, Dict[str, Any]], None]] = []

    def subscribe(self, fn: Callable[[str, Dict[str, Any]], None]) -> None:
        self._subs.append(fn)

    def emit(self, kind: str, **fields: Any) -> None:
        for fn in self._subs:
            fn(kind, fields)


class Run:
    """One scenario run: live while the spine drives it, and afterwards
    the result — ``run.report`` next to the ``run.sim`` it came from."""

    def __init__(self, env, bus: ProbeBus) -> None:
        self.env = env
        self.sim = env.sim
        self.bus = bus
        #: The fault plan (:meth:`arm` injects it), and the oracles swept
        #: into :attr:`violations`. A scenario body draws its own chaos
        #: plan when the caller gave none.
        self.plan: Optional[List[FaultEvent]] = None
        self.oracles: List = []
        #: Optional "the workload is done" predicate a body may set: the
        #: run then stops at the first step boundary where it holds.
        self.done: Optional[Callable[[], bool]] = None
        self.violations: List[Violation] = []
        self.report: Dict = {}

    def arm(self) -> None:
        """Inject every event of the plan into the site's failure
        injector, in plan order (arming order is part of the replay
        contract). An event whose ``extra`` holds ``after_chunks`` waits
        for bulk progress first."""
        for ev in self.plan:
            chunks = dict(ev.extra).get("after_chunks")
            if chunks is None:
                self.env.failures.inject(ev)
            else:
                self._inject_on_progress(ev, chunks)

    def _inject_on_progress(self, ev: FaultEvent, chunks: int) -> None:
        """Inject *ev* the moment ``ev.target`` has committed *chunks*
        bulk chunks since ``ev.t`` — synchronously, from the commit probe
        (only the spine holds the bus), so a kill always lands
        mid-transfer."""
        seen = [0]

        def watch(kind: str, f: Dict[str, Any]) -> None:
            if (kind != "bulk.chunk" or f["host"] != ev.target
                    or seen[0] >= chunks or self.sim.now < ev.t):
                return
            seen[0] += 1
            if seen[0] >= chunks:
                self.env.failures.inject(dataclasses.replace(ev, t=self.sim.now))

        self.bus.subscribe(watch)

    def sweep(self) -> None:
        """Move what the oracles found so far into ``self.violations``."""
        for oracle in self.oracles:
            self.violations.extend(oracle.violations)
            oracle.violations = []

    def guarded(self, step: Callable[[], Any]) -> bool:
        """Run *step*; a process crash escaping the kernel (strict mode)
        is recorded as a ``process-crash`` violation, never raised —
        False tells the caller the run is over."""
        try:
            step()
        except Exception as exc:  # strict mode: a component process died
            self.fail("process-crash", f"{type(exc).__name__}: {exc}")
            return False
        return True

    def fail(self, check: str, detail: str) -> None:
        """File a violation of *check* now: a process crash, or a check
        a body makes itself — judged alike in chaos and check runs."""
        self.violations.append(Violation(check, self.sim.now, detail))


def run_spine(
    seed: int,
    build: Callable[[], Tuple],
    scenario: Callable[..., Generator],
    *,
    settle: float = 0.0,
    plan: Plan = None,
    supervise: Optional[float] = None,
    scheduler=None,
    instrument: Optional[Callable] = None,
    obs_sample: Optional[float] = None,
    flight: bool = True,
) -> Run:
    """Run one scenario through every phase; returns the finished :class:`Run`.

    *build* is a site builder (``() -> (env, *site)``); *scenario* is a
    generator function ``scenario(run, *site)`` that yields exactly
    once. Up to the ``yield`` it arranges the run — oracles, workload,
    the fault plan (*plan*, or its own chaos plan when *plan* is None),
    in the order its replay contract fixes; it yields the virtual time
    or the event the run lasts until. After it, it judges the quiescent
    state and returns its report fields. In between the spine runs the
    simulation, in one of two forms:

    * **chaos** (*supervise* is None): run until what the scenario
      yielded — in :data:`STEP`-sized steps, stopping early once
      ``run.done()`` holds, if the body set it — then *settle* and
      sweep the oracles, which watched without stopping anything. A
      process crash propagates.
    * **check** (*supervise* = the budget): *scheduler* permutes
      same-timestamp ties and the run is the supervised loop —
      :data:`CHUNK`-sized steps up to the yielded time (or the budget,
      for an event), ``run.oracles`` swept after each, over at the
      first violation (what follows one is noise for shrinking) or once
      ``run.done()`` — or the yielded event — says the workload is
      done. The settle is guarded the same way and skipped once
      something was found; the scenario's second half still runs (the
      report needs its fields) and guards its own checks.

    *obs_sample* enables tracing at that sampling rate (None: the
    tracer stays detached, the zero-cost default); *instrument(sim)* is
    an arbitrary hook for what must be in place before the first event —
    the profiler attaches through it.

    The run fails iff ``run.violations`` is non-empty at the end —
    oracle findings, crashes and a body's own quiescent checks
    (:meth:`Run.fail`) alike, judged the same in both forms — and only
    a failed run ships its flight tape.
    """
    env, *site = build()
    sim = env.sim
    # Observability knobs go on before any workload process exists.
    if obs_sample is not None:
        sim.obs.tracer.enabled = True
        sim.obs.tracer.sample_rate = obs_sample
    if instrument is not None:
        instrument(sim)
    bus = ProbeBus()
    sim.probes = bus
    recorder = FlightRecorder(sim).attach(bus) if flight else None
    run = Run(env, bus)
    run.plan = plan(site[-1]) if callable(plan) else plan
    if scheduler is not None:
        sim.set_scheduler(scheduler)
    body = scenario(run, *site)
    until = next(body)

    if supervise is None:
        if run.done is None:
            env.run(until=until)
        else:
            while sim.now < until:
                env.run(until=min(sim.now + STEP, until))
                if run.done():
                    break
        if settle:
            env.settle(settle)
        run.sweep()  # the oracles watched; the run was not theirs to stop
    else:
        done, deadline = run.done, supervise
        if isinstance(until, (int, float)):
            deadline = min(until, supervise)
        else:
            done = lambda: until.triggered
        while sim.now < deadline:
            if not run.guarded(
                    lambda: env.run(until=min(sim.now + CHUNK, deadline))):
                break
            run.sweep()
            if run.violations or (done is not None and done()):
                break
        if settle and not run.violations:
            run.guarded(lambda: env.settle(settle))
            run.sweep()
    try:
        next(body)
    except StopIteration as judged:
        fields = judged.value
    else:
        raise RuntimeError("a scenario body yields exactly once")

    flight_records = None
    if recorder is not None and run.violations:
        for v in run.violations:
            recorder.note_violation(v.oracle, v.time, v.detail)
        flight_records = recorder.snapshot()
    run.report = {
        "seed": seed,
        **fields,
        "plan": [e.to_dict() for e in run.plan or ()],
        "fault_log": list(env.failures.log),
        "violations": [v.to_dict() for v in run.violations],
        "flight": flight_records,
        "ok": not run.violations,
        "finished_at": sim.now,
    }
    return run


def scenario_runner(fn: Callable[..., Run]) -> Callable[..., Dict]:
    """Give a scenario runner its public ``run_*`` form.

    The decorated name keeps the signature and returns ``Run.report`` —
    the contract tests and the experiment builders import by name;
    ``run_*.run`` is the function itself, for the callers (CLI
    ``--export``, the profiler, E14) that also want ``Run.sim``.
    """
    @functools.wraps(fn)
    def report_only(*args, **kwargs) -> Dict:
        return fn(*args, **kwargs).report

    report_only.run = fn
    return report_only
