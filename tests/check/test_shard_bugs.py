"""Shard-scenario model checking: clean runs, the seeded epoch-fence bug.

The shard scenario runs the sharded catalog through a split under
closed-loop write load with a core-host crash and a worker partition,
then holds the federation to the catalog judge: LWW convergence on
every replica and, under the ``shard-ownership`` claim, the ownership
fence, per-shard convergence, placement and single-group visibility.
The seeded ``stale-epoch-write`` bug — the ownership fence disabled, so
writes routed on a stale pre-split map land in the parent shard — must
be caught under ``shard-ownership``, shrink to a small plan, and re-fail
on replay. Slow-marked; CI runs these in the check job.
"""

import pytest

from repro.check import FaultEvent, minimize, run_check
from repro.check.shrink import load_trace, replay_trace, write_trace

pytestmark = pytest.mark.slow

SHARD = {"n_workers": 3, "duration": 60.0}


def test_shard_clean_run_splits_and_passes():
    report = run_check(scenario="shard", seed=1, **SHARD)
    assert report["ok"], report["violations"]
    # The scenario is only a real test if the namespace actually split
    # (ownership moved under the load) and writes kept landing.
    assert report["splits"] >= 1
    assert report["epoch"] >= 2
    assert report["writes_ok"] > 0 and report["retired"] > 0


def _find_failing_seed(bug, max_seed=6):
    for seed in range(1, max_seed + 1):
        report = run_check(scenario="shard", seed=seed, bug=bug, **SHARD)
        if not report["ok"]:
            return seed, report
    raise AssertionError(f"seeded bug {bug} escaped {max_seed} seeds")


def test_stale_epoch_write_caught_shrunk_and_replayed(tmp_path):
    seed, report = _find_failing_seed("stale-epoch-write")
    assert any(v["oracle"] == "shard-ownership"
               for v in report["violations"]), report["violations"]
    plan = [FaultEvent.from_dict(d) for d in report["plan"]]
    shrunk = minimize("shard", seed, "stale-epoch-write", plan,
                      explore=report["explore"], params=SHARD)
    # The fence bug needs no faults at all — any split plus a client
    # still routing on the previous epoch exposes it, so ddmin should
    # strip the fault plan to (nearly) nothing.
    assert len(shrunk["plan"]) <= 2
    assert not shrunk["report"]["ok"]
    path = tmp_path / "trace.json"
    write_trace(str(path), shrunk["report"])
    replayed = replay_trace(load_trace(str(path)))
    assert not replayed["ok"]
    assert any(v["oracle"] == "shard-ownership"
               for v in replayed["violations"])
