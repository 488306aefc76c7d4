"""Scenario tests: the control plane survives overload (E12 smoke).

The unit tests in test_overload.py cover the primitives; these drive
full sites. The key property throughout: a host that is *slow* — CPU
starved, behind a congested link, or serving a saturated queue — is not
*dead*, and the Guardian must never declare it so.
"""

import pytest

from repro.core.checkpoint import checkpoint_to_files
from repro.core.environment import SnipeEnvironment
from repro.daemon.tasks import TaskSpec
from repro.robust.chaos import run_overload


def test_guardian_does_not_declare_overloaded_host_dead():
    """A worker slowed 10x mid-run keeps its lease; no false death."""
    env = SnipeEnvironment(seed=3)
    env.add_segment("lan")
    for name in ("h0", "h1", "w0"):
        env.add_host(name, segments=["lan"])
    env.add_rc_servers(["h0", "h1"])
    for name in ("h0", "h1", "w0"):
        env.boot_daemon(name)
    env.add_rm("h0")
    env.add_file_server("h0")
    env.add_guardian("h1")

    @env.program("grind")
    def grind(ctx, total):
        yield checkpoint_to_files(ctx)  # recoverable: Guardian watches it
        for _ in range(total):
            yield ctx.compute(0.2)
        return total

    env.settle(2.0)
    env.spawn(TaskSpec(program="grind", params={"total": 100}), on="w0")
    # Starve the worker's CPU for far longer than the lease TTL (3s):
    # compute stretches 10x but the daemon's heartbeat keeps running.
    env.failures.slow_host_at(3.0, "w0", factor=10.0, duration=12.0)
    env.run(until=20.0)

    guardian = env.guardians["h1"]
    assert guardian.deaths_declared == 0
    assert guardian.recoveries == []
    # The slowdown really happened and was undone.
    kinds = [k for _, k, _ in env.failures.log]
    assert kinds == ["host_slowed", "host_unslowed"]
    assert env.topology.hosts["w0"].cpu_speed == pytest.approx(
        env.topology.hosts["h0"].cpu_speed
    )


@pytest.mark.parametrize("seed", [pytest.param(1, marks=pytest.mark.slow), 2,
                                  pytest.param(3, marks=pytest.mark.slow)])
def test_overload_scenario_adaptive_keeps_control_plane_clean(seed):
    """E12 smoke at 5x saturation: zero false deaths, zero lost
    heartbeats, bounded control p99 — on each seed CI's chaos sweep
    runs (seeds 1 and 3 under ``-m slow``)."""
    report = run_overload(seed=seed, saturation=5.0, adaptive=True)
    assert report["deaths_declared"] == 0
    assert report["recoveries"] == 0
    assert report["heartbeats_failed"] == 0
    assert report["control_calls"] > 0
    assert report["control_p99_s"] <= 0.5
    assert report["ok"], report["violations"]
    # Overload control was actually exercised, not idled through: the
    # site saw several times its capacity and shed bulk load somewhere
    # (client fast-fail via breakers, server shed, or backpressure).
    assert report["load"]["offered"] > report["load"]["ok"] * 2
    assert report["breaker_opens"] + report["requests_shed"] > 0


def test_overload_scenario_is_seed_deterministic():
    a = run_overload(seed=4, saturation=3.0, adaptive=True)
    b = run_overload(seed=4, saturation=3.0, adaptive=True)
    for key in ("goodput_ops_s", "control_p99_s", "deaths_declared",
                "heartbeats_ok", "heartbeats_failed", "load"):
        assert a[key] == b[key]


def test_overload_static_baseline_shows_the_failure_mode():
    """Fixed timeouts at 5x saturation lose heartbeats and blow the
    control-plane p99 bound — the regression guard that keeps the E12
    comparison meaningful. The baseline is slow, not unsafe: no host is
    declared dead, so every oracle passes."""
    report = run_overload(seed=1, saturation=5.0, adaptive=False)
    assert report["heartbeats_failed"] > 0
    assert report["control_p99_s"] > 0.5
    assert report["deaths_declared"] == 0
    assert report["ok"], report["violations"]
