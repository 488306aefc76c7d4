"""Kernel equivalence: the optimised kernel is observably identical to
the legacy kernel.

The timer wheel, the direct rx dispatch, the timestamp-clocked NIC and
the lean event classes are *performance* changes; ``SNIPE_LEGACY_KERNEL=1``
(or ``Simulator(legacy_timers=True)``) keeps the original
every-timer-on-the-heap scheduling. This suite is the lock on the
refactor: for the demo scenario, the model checker, and full chaos runs,
a seed must produce the *same simulation* under both kernels — same
virtual end time, same metrics, same probe stream with the same
timestamps, same invariant verdicts. Anything the optimised kernel does
differently from the reference kernel is a bug here, not a speedup.

Mechanically: ``schedule_timer`` assigns the heap sequence id at call
time in both modes and the wheel's settle pass flushes every bucket
whose slot precedes the heap head, so wheel scheduling pops events in
bit-identical order to direct heap pushes. These tests pin that
equivalence end to end rather than per mechanism.
"""

from __future__ import annotations

import pytest

from repro.sim.kernel import Simulator
from tests.replay import fingerprint

#: Seeds the full-run fingerprint comparison sweeps. The ISSUE asks for
#: at least ten distinct seeds across the suite; the demo sweep alone
#: covers ten, and check/chaos add more on top.
DEMO_SEEDS = list(range(1, 11))
CHECK_SEEDS = [1, 2, 3]
CHAOS_SEEDS = [1, 2]


def _with_kernel(monkeypatch, legacy: bool, fn):
    if legacy:
        monkeypatch.setenv("SNIPE_LEGACY_KERNEL", "1")
    else:
        monkeypatch.delenv("SNIPE_LEGACY_KERNEL", raising=False)
    return fn()


# ---------------------------------------------------------------------------
# Demo scenario: transports on a lossy LAN
# ---------------------------------------------------------------------------

def _demo_fingerprint(seed: int) -> str:
    from repro.obs.cli import demo_scenario

    sim = demo_scenario(seed=seed)
    return fingerprint({
        "now": sim.now,
        "eid": sim._eid,
        "metrics": sim.obs.metrics.snapshot(),
    })


@pytest.mark.parametrize("seed", DEMO_SEEDS)
def test_demo_scenario_identical_across_kernels(monkeypatch, seed):
    """Same seed, both kernels: same end time, event count, and metrics."""
    fast = _with_kernel(monkeypatch, False, lambda: _demo_fingerprint(seed))
    legacy = _with_kernel(monkeypatch, True, lambda: _demo_fingerprint(seed))
    assert fast == legacy


# ---------------------------------------------------------------------------
# Model checker: oracle verdicts and probe streams
# ---------------------------------------------------------------------------

def _check_fingerprint(scenario: str, seed: int, records) -> str:
    from repro.check import run_check

    kwargs = {"duration": 30.0}
    if scenario != "bulk":
        kwargs["total"] = 8
    report = run_check(scenario=scenario, seed=seed, **kwargs)
    return fingerprint({"report": report, "probes": list(records)})


@pytest.mark.parametrize("scenario,seed", [
    ("faults", CHECK_SEEDS[0]),
    ("faults", CHECK_SEEDS[1]),
    ("faults", CHECK_SEEDS[2]),
    ("overload", 4),
    ("bulk", 5),
])
def test_run_check_identical_across_kernels(monkeypatch, probe_recorder,
                                            scenario, seed):
    """Model-checking runs agree on the report *and* every probe event,
    including the virtual timestamps the probes fired at."""
    fast = _with_kernel(
        monkeypatch, False,
        lambda: _check_fingerprint(scenario, seed, probe_recorder),
    )
    probe_recorder.clear()
    legacy = _with_kernel(
        monkeypatch, True,
        lambda: _check_fingerprint(scenario, seed, probe_recorder),
    )
    assert fast == legacy


# ---------------------------------------------------------------------------
# Chaos runs: full fault-injection campaign
# ---------------------------------------------------------------------------

def _chaos_fingerprint(seed: int, records) -> str:
    from repro.robust.chaos import run_chaos

    report = run_chaos(seed, n_workers=3, total=24, duration=50.0)
    return fingerprint({"report": report, "probes": list(records)})


@pytest.mark.parametrize("seed", CHAOS_SEEDS)
def test_run_chaos_identical_across_kernels(monkeypatch, probe_recorder, seed):
    """A chaos campaign — churn, partitions, recoveries — replays
    identically under both kernels: same fault log, same recoveries,
    same invariant verdicts, same probe stream."""
    fast = _with_kernel(
        monkeypatch, False, lambda: _chaos_fingerprint(seed, probe_recorder)
    )
    probe_recorder.clear()
    legacy = _with_kernel(
        monkeypatch, True, lambda: _chaos_fingerprint(seed, probe_recorder)
    )
    assert fast == legacy


# ---------------------------------------------------------------------------
# Sanity: the two modes really are different code paths
# ---------------------------------------------------------------------------

def test_legacy_flag_actually_switches_mode(monkeypatch):
    monkeypatch.delenv("SNIPE_LEGACY_KERNEL", raising=False)
    assert Simulator(seed=1)._legacy_timers is False
    monkeypatch.setenv("SNIPE_LEGACY_KERNEL", "1")
    assert Simulator(seed=1)._legacy_timers is True
    assert Simulator(seed=1, legacy_timers=False)._legacy_timers is False


def test_wheel_mode_uses_the_wheel(monkeypatch):
    """In wheel mode a long timer lands in a bucket, not on the heap;
    in legacy mode it goes straight to the heap."""
    monkeypatch.delenv("SNIPE_LEGACY_KERNEL", raising=False)
    sim = Simulator(seed=1)
    sim.schedule_timer(1.0, lambda: None)
    assert any(sim._wheel[lvl] for lvl in range(len(sim._wheel)))
    legacy = Simulator(seed=1, legacy_timers=True)
    baseline = len(legacy._queue)
    legacy.schedule_timer(1.0, lambda: None)
    assert len(legacy._queue) == baseline + 1
