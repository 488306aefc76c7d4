"""The run spine: the one sequence every scenario run goes through.

The chaos harness, the model checker, the profiler, the SLO monitor and
the benches all run a scenario by one call of :func:`run_spine`::

    build site -> instrument -> probe bus -> flight recorder
      -> [check: exploration scheduler]
      -> scenario, up to its yield: watchers/oracles, workload, faults
      -> run (check: the supervised loop) -> settle
      -> scenario, after its yield: judge the quiescent state
      -> flight tape on failure -> report

A scenario plugs in a site builder and one generator function; it gets
back the :class:`Run` — the report *and* the simulator it came from, so
no caller has to smuggle the sim out through the ``instrument`` hook.

:class:`ProbeBus` and :class:`Violation` live here because the spine is
their lowest user: chaos scenarios emit and watch probes without any
oracle, and :mod:`repro.check.oracles` (which re-exports both) sits
above this module.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from repro.obs.flight import FlightRecorder

#: Virtual seconds between oracle sweeps of the supervised run loop.
CHUNK = 0.5

#: One quiescent verdict: ``(name, ok, detail)``.
Verdict = Tuple[str, bool, str]


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
        #: Check mode: the explicit fault plan, and the oracles the
        #: supervised loop sweeps. The scenario body sets both.
        self.plan: List = []
        self.oracles: List = []
        self.violations: List[Violation] = []
        self.report: Dict = {}

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
            self.violations.append(Violation(
                "process-crash", self.sim.now, f"{type(exc).__name__}: {exc}"))
            return False
        return True

    def verdicts(self, kind: str, verdicts: List[Verdict]) -> List[Verdict]:
        """File every failed quiescent verdict as a ``<kind>:<name>``
        violation (which fails the run and lands on the flight tape);
        returns *verdicts* for the report."""
        for name, ok, detail in verdicts:
            if not ok:
                self.violations.append(
                    Violation(f"{kind}:{name}", self.sim.now, detail))
        return verdicts


def run_spine(
    seed: int,
    build: Callable[[], Tuple],
    scenario: Callable[..., Generator],
    *,
    settle: float = 0.0,
    supervise: Optional[float] = None,
    scheduler=None,
    instrument: Optional[Callable] = None,
    obs_sample: Optional[float] = None,
    flight: bool = True,
) -> Run:
    """Run one scenario through every phase; returns the finished :class:`Run`.

    *build* is a site builder (``() -> (env, *site)``); *scenario* is a
    generator function ``scenario(run, *site)`` that yields exactly
    once. Up to the ``yield`` it arranges the run — watchers or oracles,
    workload, faults, in the order its replay contract fixes; after it,
    it judges the quiescent state and returns its report fields. In
    between the spine runs the simulation, in one of two forms:

    * **chaos** (*supervise* is None): run until what the scenario
      yielded — a virtual time or an event; ``None`` if it already drove
      the simulation itself — then *settle*. A process crash propagates.
    * **check** (*supervise* = the duration): *scheduler* permutes
      same-timestamp ties and the run is the supervised loop —
      :data:`CHUNK`-sized steps, ``run.oracles`` swept after each, over
      at the first violation (what follows one is noise for shrinking)
      or once the predicate the scenario yielded (if any) says the
      workload is done. The settle is guarded the same way and skipped
      once something was found; the scenario's second half still runs
      (the report needs its fields) and guards its own checks.

    *obs_sample* enables tracing at that sampling rate (None: the
    tracer stays detached, the zero-cost default); *instrument(sim)* is
    an arbitrary hook for what must be in place before the first event —
    the profiler and the SLO monitor attach through it.

    The run fails iff ``run.violations`` is non-empty at the end —
    oracle findings, crashes and failed quiescent verdicts
    (:meth:`Run.verdicts`) alike — and only a failed run ships its
    flight tape.
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
    if scheduler is not None:
        sim.set_scheduler(scheduler)
    body = scenario(run, *site)
    until = next(body)

    if supervise is None:
        if until is not None:
            env.run(until=until)
        if settle:
            env.settle(settle)
    else:
        while sim.now < supervise:
            if not run.guarded(
                    lambda: env.run(until=min(sim.now + CHUNK, supervise))):
                break
            run.sweep()
            if run.violations or (until is not None and until()):
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
        "flight": flight_records,
        "ok": not run.violations,
        "finished_at": sim.now,
    }
    return run


def scenario_runner(fn: Callable[..., Run]) -> Callable[..., Dict]:
    """Give a chaos-mode scenario function its public ``run_*`` form.

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
