"""Heal-scenario model checking: clean runs, seeded bugs, shrink+replay.

The heal scenario partitions one RC replica past the compaction horizon
under a write/delete workload, heals, and asserts (via the resurrection
and compaction oracles plus a retired-key sweep) that deletes stay dead
and every replica reconverges. The seeded ``early-gc`` and
``vector-gap`` bugs must each be caught, shrink to a small plan, and
re-fail when the minimized trace is replayed. Multi-run acceptance
paths — slow-marked; CI runs them in the check job.
"""

import pytest

from repro.check import FaultEvent, minimize, run_check
from repro.check.shrink import load_trace, replay_trace, write_trace

pytestmark = pytest.mark.slow

HEAL = {"n_workers": 3, "duration": 60.0}


def test_heal_clean_run_compacts_and_passes():
    report = run_check(scenario="heal", seed=1, **HEAL)
    assert report["ok"], report["violations"]
    assert report["writes_ok"] > 0 and report["retired"] > 0
    # The scenario is only a real test if logs compacted while a replica
    # was cut off — otherwise the bugs have nothing to bite on.
    assert sum(s["compactions"] for s in report["replica_stats"].values()) > 0
    assert any(e["kind"] == "split" for e in report["plan"])


def _find_failing_seed(bug, max_seed=8):
    for seed in range(1, max_seed + 1):
        report = run_check(scenario="heal", seed=seed, bug=bug, **HEAL)
        if not report["ok"]:
            return seed, report
    raise AssertionError(f"seeded bug {bug} escaped {max_seed} seeds")


def test_early_gc_caught_by_resurrection_oracle(tmp_path):
    seed, report = _find_failing_seed("early-gc")
    assert any(v["oracle"] == "no-resurrection"
               for v in report["violations"]), report["violations"]
    plan = [FaultEvent.from_dict(d) for d in report["plan"]]
    shrunk = minimize("heal", seed, "early-gc", plan,
                      explore=report["explore"], params=HEAL)
    assert len(shrunk["plan"]) <= 3
    assert not shrunk["report"]["ok"]
    path = tmp_path / "trace.json"
    write_trace(str(path), shrunk["report"])
    replayed = replay_trace(load_trace(str(path)))
    assert not replayed["ok"]
    assert any(v["oracle"] == "no-resurrection"
               for v in replayed["violations"])


def test_vector_gap_caught_by_compaction_oracle(tmp_path):
    seed, report = _find_failing_seed("vector-gap")
    assert any(v["oracle"] == "compaction-convergence"
               for v in report["violations"]), report["violations"]
    plan = [FaultEvent.from_dict(d) for d in report["plan"]]
    shrunk = minimize("heal", seed, "vector-gap", plan,
                      explore=report["explore"], params=HEAL)
    assert len(shrunk["plan"]) <= 3
    assert not shrunk["report"]["ok"]
    path = tmp_path / "trace.json"
    write_trace(str(path), shrunk["report"])
    replayed = replay_trace(load_trace(str(path)))
    assert not replayed["ok"]
    assert any(v["oracle"] == "compaction-convergence"
               for v in replayed["violations"])
