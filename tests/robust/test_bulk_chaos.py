"""Bulk-distribution chaos: kill relays mid-object, every invariant holds."""

import pytest

from repro.robust.chaos import DEFAULT_SEEDS, run_bulk_chaos
from repro.robust.cli import render


@pytest.mark.parametrize("seed", DEFAULT_SEEDS[:2])
def test_bulk_chaos_invariants_hold(seed):
    report = run_bulk_chaos(seed)
    assert report["ok"], render("bulk", report)
    # The run must actually have exercised failover, not just idled: the
    # assassin kills both victims strictly mid-object (progress-triggered,
    # so this holds on every seed), and their fetches must resume.
    assert len(report["killed"]) == 2
    assert report["crashes"] >= 2
    assert report["completed"] == report["hosts"]


@pytest.mark.slow
@pytest.mark.parametrize("seed", DEFAULT_SEEDS[2:])
def test_bulk_chaos_invariants_hold_slow(seed):
    report = run_bulk_chaos(seed)
    assert report["ok"], render("bulk", report)


def test_bulk_chaos_is_seed_deterministic():
    a = run_bulk_chaos(2)
    b = run_bulk_chaos(2)
    assert a["plan"] == b["plan"]
    assert a["killed"] == b["killed"]
    assert a["chunk_commits"] == b["chunk_commits"]
    assert a["elapsed"] == b["elapsed"]
    assert a["ok"] and b["ok"]
    assert run_bulk_chaos(3)["plan"] != a["plan"]
