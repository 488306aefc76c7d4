"""End-to-end model checking: harness, seeded bugs, shrinking, replay.

The quick tests keep one full check run in tier-1 so a broken harness
fails fast; the ``slow``-marked ones add the multi-run acceptance paths
(shrink + replay for every seeded bug).
"""

import pytest

from repro.check import FaultEvent, minimize, run_check
from repro.check.shrink import load_trace, replay_trace, write_trace

#: Small workload: 2 workers, 8 steps — a run takes well under a second.
#: Runner kwargs over the check profile.
QUICK = {"n_workers": 2, "total": 8, "step": 0.2, "duration": 45.0}

#: Bug hunts need the full 3-worker site: fewer workers leave the
#: Guardian no cross-host respawn target, and the seeded bugs only
#: manifest when a zombie's successor lands elsewhere.
BUGGY = {"n_workers": 3, "total": 16, "step": 0.2, "duration": 60.0}


def test_clean_run_has_no_violations_and_explores():
    report = run_check(scenario="faults", seed=1, **QUICK)
    assert report["ok"], report["violations"]
    assert report["completed"] == report["workers"] == 2
    assert report["schedule_reordered"] > 0  # ties actually permuted
    assert report["plan"], "seeded plan must inject at least one fault"


def test_same_seed_same_run():
    """The whole point: one integer reproduces the execution, including
    every recovery and every delivery the oracles observed."""
    a = run_check(scenario="faults", seed=2, **QUICK)
    b = run_check(scenario="faults", seed=2, **QUICK)
    for key in ("plan", "violations", "completed", "recoveries",
                "delivered", "schedule_picks", "schedule_reordered",
                "finished_at"):
        assert a[key] == b[key], key


def test_fifo_schedule_still_checked():
    report = run_check(scenario="faults", seed=1, explore=False, **QUICK)
    assert report["ok"], report["violations"]
    assert report["schedule_picks"] == 0


@pytest.mark.slow
def test_overload_scenario_runs_clean():
    report = run_check(scenario="overload", seed=1, n_workers=2, duration=45.0)
    assert report["ok"], report["violations"]


def _find_failing_seed(bug, scenario="faults", max_seed=8):
    for seed in range(1, max_seed + 1):
        report = run_check(scenario=scenario, seed=seed, bug=bug, **BUGGY)
        if not report["ok"]:
            return seed, report
    raise AssertionError(f"seeded bug {bug} escaped {max_seed} seeds")


@pytest.mark.slow
def test_seeded_fence_bug_is_caught_shrunk_and_replayable(tmp_path):
    """The acceptance path: disable fence writes, let the single-owner
    oracle catch it, shrink to <= 5 fault events, and re-fail the
    minimized trace deterministically."""
    seed, report = _find_failing_seed("no-fence-write")
    assert report["violations"][0]["oracle"] == "single-owner"
    plan = [FaultEvent.from_dict(d) for d in report["plan"]]
    shrunk = minimize("faults", seed, "no-fence-write", plan,
                      explore=report["explore"], params=BUGGY)
    assert len(shrunk["plan"]) <= 5
    assert not shrunk["report"]["ok"]
    path = tmp_path / "trace.json"
    write_trace(str(path), shrunk["report"])
    replayed = replay_trace(load_trace(str(path)))
    assert not replayed["ok"]
    assert replayed["violations"][0]["oracle"] == "single-owner"


@pytest.mark.slow
def test_seeded_rx_fencing_bug_is_caught():
    _, report = _find_failing_seed("no-rx-fencing")
    assert report["violations"][0]["oracle"] == "delivery"


@pytest.mark.slow
def test_seeded_lww_bug_is_caught():
    _, report = _find_failing_seed("no-lww")
    assert report["violations"][0]["oracle"] == "lww-convergence"


@pytest.mark.slow
def test_minimize_rejects_a_passing_configuration():
    with pytest.raises(ValueError, match="does not fail"):
        minimize("faults", 1, None,
                 [FaultEvent("partition", "s-w0", 5.0, 2.0)],
                 params=QUICK)


def test_bulk_scenario_runs_clean_and_quarantines_the_poison():
    report = run_check(scenario="bulk", seed=1, duration=30.0)
    assert report["ok"], report["violations"]
    assert report["completed"] == report["hosts"] == 6
    assert report["poisoned"], "the scenario must poison one source"
    assert report["plan"], "seeded plan must crash at least one fetcher"


def test_bulk_scenario_same_seed_same_run():
    a = run_check(scenario="bulk", seed=3, duration=30.0)
    b = run_check(scenario="bulk", seed=3, duration=30.0)
    for key in ("plan", "violations", "completed", "chunk_commits", "poisoned",
                "chunk_retries", "schedule_picks", "schedule_reordered",
                "finished_at"):
        assert a[key] == b[key], key


@pytest.mark.slow
def test_seeded_chunk_verify_bug_is_caught():
    report = run_check(scenario="bulk", seed=1, bug="no-chunk-verify",
                       duration=30.0)
    assert not report["ok"], "disabling chunk verification must be caught"
    assert report["violations"][0]["oracle"] == "chunk-integrity"
