"""Unit tests for the deterministic kernel profiler."""

import pytest

from repro.net.segment import _Arrival
from repro.obs.cli import demo_scenario
from repro.obs.prof import KernelProfiler, profile_scenario
from repro.sim import Simulator
from repro.sim.events import Event


class _StubNic:
    """Just enough NIC for an ``_Arrival`` to hand its frame to."""

    def __init__(self, log):
        self.log = log

    def receive(self, frame):
        self.log.append(frame)


def test_profiler_counts_what_the_kernel_dispatches():
    """An event with two callbacks, a fired timer, a cancelled timer and
    a frame arrival: three events popped, three callbacks run. The
    cancelled timer is never dispatched, and an ``_Arrival`` overrides
    ``_process`` and runs no callback list."""
    sim = Simulator(seed=1)
    prof = KernelProfiler().attach(sim)
    ran = []
    ev = sim.event()
    ev.add_callback(lambda e: ran.append("a"))
    ev.add_callback(lambda e: ran.append("b"))
    ev.succeed(delay=1.0)
    sim.schedule_timer(2.0, lambda: ran.append("timer"))
    sim.schedule_timer(3.0, lambda: ran.append("dead")).cancel()
    _Arrival(sim, _StubNic(ran), "frame", 4.0)
    sim.run()
    assert ran == ["a", "b", "timer", "frame"]
    assert prof.callbacks == 3
    assert prof.events == prof.export()["heap"]["pops"] == 3
    assert prof.heap_pushes == 3 and prof.timers_scheduled == 2
    # run(until=event)'s stop hook ends the run; it is not counted.
    done = sim.event()
    done.add_callback(lambda e: ran.append("done"))
    done.succeed(delay=1.0)
    sim.run(until=done)
    prof.detach(sim)
    assert ran[-1] == "done"
    assert (prof.events, prof.callbacks) == (4, 4)


def test_profiler_counts_are_deterministic_across_runs():
    counts = []
    for _ in range(2):
        prof = KernelProfiler()
        sim = demo_scenario(n_messages=5, msg_bytes=4096, instrument=prof.attach)
        prof.detach(sim)
        counts.append(prof.export())
    assert counts[0] == counts[1]
    assert counts[0]["frames_constructed"] > 0 and counts[0]["wire"]["bytes"] > 0


def test_profiler_detached_kernel_has_no_hooks():
    sim = Simulator(seed=1)
    assert sim._prof is None and sim.flight is None
    prof = KernelProfiler().attach(sim)
    assert sim._prof is prof
    prof.detach(sim)
    assert sim._prof is None


def test_export_holds_exactly_the_counts():
    prof = KernelProfiler()
    sim = demo_scenario(n_messages=5, msg_bytes=4096, instrument=prof.attach)
    prof.detach(sim)
    ex = prof.export()
    assert set(ex) == {"events", "callbacks", "heap", "timers_scheduled",
                       "frames_constructed", "wire"}
    assert set(ex["heap"]) == {"pushes", "pops", "queue_max"}
    assert set(ex["wire"]) == {"bytes", "frames"}
    assert ex["heap"]["pushes"] >= ex["heap"]["pops"] > 0
    assert f"{ex['events']} " in prof.format_report("demo")


def test_subclass_override_runs_once_under_the_profiler():
    """An Event subclass overriding _process is dispatched by the kernel
    exactly as without a profiler — profiling never changes behaviour."""

    class Odd(Event):
        ran = 0

        def _process(self):
            Odd.ran += 1
            super()._process()

    sim = Simulator()
    prof = KernelProfiler().attach(sim)
    ev = Odd(sim)
    seen = []
    ev.callbacks.append(seen.append)
    ev.succeed()
    sim.run(until=1.0)
    prof.detach(sim)
    assert Odd.ran == 1 and seen == [ev]
    assert prof.events == 1


def test_profile_scenario_demo_end_to_end():
    result = profile_scenario("demo", seed=3, n_messages=5, msg_bytes=4096)
    assert result["ok"] and result["scenario"] == "demo"
    assert result["profile"] == result["profiler"].export()
    assert result["profile"]["events"] > 0


def test_profile_scenario_takes_any_table_scenario():
    """Chaos scenarios are looked up in the scenario table (preset merged
    under the caller's overrides); ``chaos`` was the old private spelling
    of ``faults`` and is gone."""
    result = profile_scenario("bulk", seed=1, object_kb=128)
    assert result["ok"] and result["profile"]["events"] > 0
    assert result["profile"]["wire"]["frames"] > 0
    with pytest.raises(ValueError, match="faults"):
        profile_scenario("chaos")
