"""The seeded chaos suite: every invariant must hold for every seed."""

import pytest

from repro.robust.chaos import DEFAULT_SEEDS, run_chaos
from repro.robust.cli import render


@pytest.mark.parametrize("seed", DEFAULT_SEEDS)
def test_chaos_invariants_hold(seed):
    report = run_chaos(seed)
    assert report["ok"], render("faults", report)
    # The run must actually have exercised self-healing, not just idled.
    assert report["recoveries"], "fault schedule produced no recoveries"
    for rec in report["recoveries"]:
        assert rec["new_inc"] > (rec["old_inc"] or 0)
    assert not report["unrecoverable"]


def test_chaos_is_seed_deterministic():
    a = run_chaos(2)
    b = run_chaos(2)
    # The fault schedule (and hence the injector's event log) is wholly
    # seed-driven, and URN/incarnation counters are per-Simulator, so two
    # same-seed runs agree on *everything*: fault timing, which tasks
    # died, which incarnations replaced them, and when — even within one
    # process.
    assert a["events"] == b["events"]
    assert [(t, k, w) for t, k, w in a["fault_log"]] == [
        (t, k, w) for t, k, w in b["fault_log"]
    ]
    assert a["recoveries"] == b["recoveries"]
    assert a["msgs_fenced"] == b["msgs_fenced"]
    assert a["ok"] and b["ok"]
    assert run_chaos(3)["events"] != a["events"]


def test_chaos_mttr_bounded_by_detection_window():
    """Recovery latency (detection -> respawned) must be bounded by the
    spawn/fetch slack; detection itself is bounded by lease + scan +
    grace. Together: MTTR from crash is bounded, which E11 measures.

    Budget: quorum confirm + fence write + checkpoint fetch (with
    retries) + RM placement + up to 5 s polling for the successor's
    registration — comfortably under 8 s even mid-churn."""
    report = run_chaos(1)
    assert report["ok"], render("faults", report)
    for rec in report["recoveries"]:
        assert rec["recovered_at"] - rec["detected_at"] < 8.0
