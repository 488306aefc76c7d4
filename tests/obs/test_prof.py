"""Unit tests for the deterministic kernel profiler."""

import pytest

from repro.obs.cli import demo_scenario
from repro.obs.prof import (
    KernelProfiler,
    _module_subsystem,
    _split_name,
    profile_scenario,
)
from repro.sim import Simulator
from repro.sim.events import Event


def test_split_name_attribution_cases():
    assert _split_name("srudp:h0:5000") == ("srudp", "h0")
    assert _split_name("nic:10.0.0.1(h0.eth0)") == ("nic", "h0")
    assert _split_name("ovl-load:w1") == ("ovl-load", "w1")
    assert _split_name("drain-mcast-b") == ("drain-mcast-b", None)
    assert _split_name(":weird") == ("anon", "weird")


def test_module_subsystem():
    assert _module_subsystem("repro.transport.base") == "transport"
    assert _module_subsystem("repro.sim") == "sim"
    assert _module_subsystem("collections.abc") == "abc"
    assert _module_subsystem(None) == "unknown"


def fixed_clock():
    """A clock advancing 1ms per read — wall figures become deterministic."""
    t = [0.0]

    def clock():
        t[0] += 0.001
        return t[0]

    return clock


def test_profiler_attributes_named_processes():
    sim = Simulator(seed=1)
    prof = KernelProfiler(clock=fixed_clock())
    prof.attach(sim)

    def worker():
        for _ in range(3):
            yield sim.timeout(1.0)

    sim.process(worker(), name="foo:h1:42")
    sim.run(until=10.0)
    prof.detach(sim)

    subs = {sub for sub, _host, _etype in prof.cells}
    assert "foo" in subs
    hosts = {host for sub, host, _ in prof.cells if sub == "foo"}
    assert hosts == {"h1"}
    assert prof.events > 0
    assert prof.heap_pops <= prof.heap_pushes
    assert prof.timers_scheduled >= 3  # the worker's three timeouts


def test_profiler_counts_are_deterministic_across_runs():
    counts = []
    for _ in range(2):
        prof = KernelProfiler()
        sim = demo_scenario(n_messages=5, msg_bytes=4096, instrument=prof.attach)
        prof.detach(sim)
        counts.append((prof.events, prof.callbacks, prof.heap_pushes,
                       prof.heap_pops, prof.timers_scheduled,
                       prof.frames_constructed, prof.wire_bytes,
                       prof.wire_frames))
    assert counts[0] == counts[1]
    assert counts[0][5] > 0 and counts[0][6] > 0  # frames + wire bytes seen


def test_profiler_detached_kernel_has_no_hooks():
    sim = Simulator(seed=1)
    assert sim._prof is None and sim.flight is None
    prof = KernelProfiler().attach(sim)
    assert sim._prof is prof
    prof.detach(sim)
    assert sim._prof is None


def test_flamegraph_levels_sum():
    prof = KernelProfiler()
    sim = demo_scenario(n_messages=5, msg_bytes=4096, instrument=prof.attach)
    prof.detach(sim)
    flame = prof.flamegraph()
    assert flame["name"] == "kernel"
    assert flame["value"] == sum(c["value"] for c in flame["children"])
    for sub in flame["children"]:
        assert sub["value"] == sum(h["value"] for h in sub["children"])
        for host in sub["children"]:
            assert host["value"] == sum(leaf["value"] for leaf in host["children"])


def test_export_shares_sum_to_100():
    prof = KernelProfiler()
    sim = demo_scenario(n_messages=5, msg_bytes=4096, instrument=prof.attach)
    prof.detach(sim)
    ex = prof.export()
    assert abs(sum(r["share_pct"] for r in ex["by_subsystem"]) - 100.0) < 0.5
    assert ex["top"] == [r["subsystem"] for r in ex["by_subsystem"][:3]]
    assert ex["heap"]["pushes"] >= ex["heap"]["pops"]
    assert "top-3 hot spots" in prof.format_report("demo")


def test_subclass_override_guard_times_whole_block():
    """An Event subclass overriding _process is run as one timed block —
    profiling never changes behaviour."""

    class Odd(Event):
        ran = 0

        def _process(self):
            Odd.ran += 1
            super()._process()

    sim = Simulator()
    prof = KernelProfiler(clock=fixed_clock()).attach(sim)
    ev = Odd(sim)
    ev.callbacks.append(lambda e: None)
    ev.succeed()
    sim.run(until=1.0)
    prof.detach(sim)
    assert Odd.ran == 1
    assert ("kernel", None, "Odd") in prof.cells


def test_profile_scenario_demo_end_to_end():
    result = profile_scenario("demo", seed=3, n_messages=5, msg_bytes=4096)
    assert result["ok"] and result["scenario"] == "demo"
    assert result["profile"]["events"] > 0
    assert len(result["profile"]["top"]) == 3
    assert result["flame"]["value"] >= 0


def test_profile_scenario_takes_any_table_scenario():
    """Chaos scenarios are looked up in the scenario table (preset merged
    under the caller's overrides); ``chaos`` was the old private spelling
    of ``faults`` and is gone."""
    result = profile_scenario("bulk", seed=1, object_kb=128)
    assert result["ok"] and result["profile"]["events"] > 0
    assert "bulk-fetch" in [
        r["subsystem"] for r in result["profile"]["by_subsystem"]]
    with pytest.raises(ValueError, match="faults"):
        profile_scenario("chaos")
