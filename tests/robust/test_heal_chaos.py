"""End-to-end partition-heal scenario (E16's engine).

Three full seeded runs: bounded anti-entropy healing a long partition
must pass every heal check, and meet E16's bounds on what it measures,
with real compaction/catch-up activity;
the unbounded baseline must actually exhibit the heal storm (one huge
sync blob, degraded control-lane latency or lost heartbeats during the
heal window); and a blackout of all three replicas must come back from
durable snapshots with zero resurrected deletes. Long multi-fault
simulations, hence the slow marker — CI runs them in the chaos job,
not tier-1.
"""

import pytest

from repro.robust.chaos import run_partition_heal

pytestmark = pytest.mark.slow


def test_heal_bounded_seed1_passes_all_criteria():
    report = run_partition_heal(1, flight=False)
    assert report["ok"], report["violations"]  # no-resurrection included
    assert report["reconverge_s"] is not None
    assert report["max_sync_batch"] <= report["bound"]
    assert report["control_p99"] <= 0.5 and report["control_probe_failed"] == 0
    assert report["heartbeats_failed"] == 0
    assert report["heartbeat_failovers"] == 0
    # The partition outlived the compaction horizon, so the heal really
    # exercised snapshot catch-up and the logs really compacted.
    assert report["snapshot_catchups"] > 0
    stats = report["replica_stats"]
    assert sum(s["compactions"] for s in stats.values()) > 0
    assert sum(s["tombstones_collected"] for s in stats.values()) > 0
    assert report["writes_ok"] > 0 and report["retired"] > 0


def test_heal_unbounded_baseline_exhibits_the_storm():
    report = run_partition_heal(1, bounded=False, flight=False)
    # One giant blob instead of bounded batches...
    assert report["max_sync_batch"] > 1000
    # ...which visibly damages the control lane during the heal window.
    assert (report["control_probe_failed"] > 0
            or report["heartbeat_failovers"] > 0
            or report["control_p99"] > 0.010)


def test_heal_blackout_restores_from_durable_snapshots():
    report = run_partition_heal(1, blackout=True, flight=False)
    assert report["ok"], report["violations"]  # no-resurrection included
    stats = report["replica_stats"]
    assert all(s["restores"] == 1 for s in stats.values())
    assert report["reconverge_s"] is not None
