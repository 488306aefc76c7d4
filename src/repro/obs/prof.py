"""Deterministic kernel profiler: how much work does the simulator do?

The profiler counts the kernel-level work that bounds simulation
speed: events popped and callbacks they dispatch, event-heap pushes
and high-water queue length, timer churn (``Timeout`` events plus kernel
timers from ``Simulator.schedule_timer``, cancelled or not), Frame
constructions (the simulator's per-sim frame-id counter), and bytes
serialized onto wires (charged by the NIC tx paths). Every count is a
pure function of the seed; the profiler never reads the host clock —
where the host time goes is perfbench's traced pass.

Everything is gated on ``sim._prof``: a detached simulator pays one
``is not None`` test per push and per dispatch, nothing else. An
attached profiler only counts; the kernel dispatches every event itself.

``python -m repro obs profile --scenario <s>`` runs a scenario under the
profiler, prints the counts and writes ``BENCH_profile_<s>.json``.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.sim.events import Timeout
from repro.sim.kernel import TimerHandle, _stop_run


class KernelProfiler:
    """Counts kernel work while attached (see :meth:`attach`)."""

    def __init__(self) -> None:
        self.events = 0
        self.callbacks = 0
        self.heap_pushes = 0
        self.queue_max = 0
        self.timers_scheduled = 0
        self.wire_bytes = 0
        self.wire_frames = 0
        self._sim = None
        self._frames0 = self._frames1 = 0

    # -- kernel hooks -------------------------------------------------------
    def attach(self, sim) -> "KernelProfiler":
        sim._prof = self
        self._sim = sim
        self._frames0 = sim.frames_constructed
        return self

    def detach(self, sim) -> "KernelProfiler":
        if sim._prof is self:
            sim._prof = None
        self._sim = None
        self._frames1 = sim.frames_constructed
        return self

    def note_schedule(self, event, queue_len: int) -> None:
        """Called by ``Simulator._schedule`` and ``schedule_timer`` after
        the heap push."""
        self.heap_pushes += 1
        if queue_len > self.queue_max:
            self.queue_max = queue_len
        if event.__class__ is TimerHandle or isinstance(event, Timeout):
            self.timers_scheduled += 1

    def note_pop(self, event) -> None:
        """Called by the kernel just before it dispatches a popped event.

        A timer runs one callback (cancelled timers are discarded before
        dispatch). An event runs its callback list, except that
        ``run(until=...)``'s stop hook ends the run: neither it nor
        anything queued behind it returns. Events that override
        ``_process`` (frame arrivals, NIC drains) carry no list and count
        no callbacks.
        """
        self.events += 1
        if event.__class__ is TimerHandle:
            self.callbacks += 1
            return
        callbacks = event.callbacks
        if callbacks:
            self.callbacks += (callbacks.index(_stop_run) if _stop_run in callbacks
                               else len(callbacks))

    # -- reporting ----------------------------------------------------------
    @property
    def frames_constructed(self) -> int:
        end = self._sim.frames_constructed if self._sim is not None else self._frames1
        return end - self._frames0

    def export(self) -> Dict[str, Any]:
        return {
            "events": self.events,
            "callbacks": self.callbacks,
            "heap": {"pushes": self.heap_pushes, "pops": self.events,
                     "queue_max": self.queue_max},
            "timers_scheduled": self.timers_scheduled,
            "frames_constructed": self.frames_constructed,
            "wire": {"bytes": self.wire_bytes, "frames": self.wire_frames},
        }

    def format_report(self, scenario: str = "") -> str:
        """Human-readable count summary for the CLI."""
        ex = self.export()
        title = f"kernel profile{f': {scenario}' if scenario else ''}"
        return "\n".join([
            f"== {title} ==",
            f"events processed : {ex['events']} "
            f"({ex['callbacks']} callbacks, "
            f"{ex['timers_scheduled']} timers scheduled)",
            f"event heap       : {ex['heap']['pushes']} pushes / "
            f"{ex['heap']['pops']} pops, queue high-water "
            f"{ex['heap']['queue_max']}",
            f"frames           : {ex['frames_constructed']} constructed, "
            f"{ex['wire']['frames']} serialized onto wires "
            f"({ex['wire']['bytes']} bytes)",
        ])


def profile_scenario(scenario: str, seed: int = 1, **kw: Any) -> Dict[str, Any]:
    """Run ``demo`` (the lossy-LAN transport demo) or any scenario-table
    name (chaos mode, its ``profile`` preset under *kw*) under the
    profiler: ``{"scenario", "seed", "ok", "profiler", "profile"}``."""
    # Imported here: obs sits below the harnesses it profiles.
    from repro.check.scenarios import SCENARIOS
    from repro.obs.cli import demo_scenario

    prof = KernelProfiler()
    ok = True
    entry = SCENARIOS.get(scenario)
    if entry is not None:
        run = entry.runner.run(seed, instrument=prof.attach,
                              **{**entry.profile, **kw})
        prof.detach(run.sim)
        ok = run.report["ok"]
    elif scenario != "demo":
        raise ValueError(f"unknown profile scenario {scenario!r} "
                         f"(known: demo, {', '.join(SCENARIOS)})")
    else:
        kw.setdefault("seed", seed)
        prof.detach(demo_scenario(instrument=prof.attach, **kw))
    return {"scenario": scenario, "seed": seed, "ok": ok,
            "profiler": prof, "profile": prof.export()}
