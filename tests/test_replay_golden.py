"""Golden replay digests: every scenario, both harnesses, bit for bit.

``baselines/replay-digests.json`` holds, per ``<harness>/<run>/<seed>``
key, the SHA-256 of the run's fingerprint (whole report + timestamped
probe stream, see ``tests/replay.py``). A harness or product change that
moves any of them either broke determinism or changed behaviour; the
second kind re-goldens deliberately with ``scripts/regolden.py`` and
says why. Seed 1 of each of the twelve harness x scenario pairs and the
ten ``demo/<seed>`` kernel end states (cheap; they took over from the
retired two-kernel comparison) run in tier-1; the full file (ten seeds
each, plus the baseline-flag variants) runs under ``-m slow`` and in
CI's ``check-sweep`` job.
"""

import json

import pytest

from tests.replay import SCENARIOS, all_keys, digest, explain, load_golden, run_key

GOLDEN = load_golden()
TIER1 = [f"{harness}/{name}/1" for harness in ("chaos", "check") for name in SCENARIOS]


def _assert_replays(key, tmp_path):
    fp = run_key(key)
    if digest(fp)["sha256"] == GOLDEN[key]["sha256"]:
        return
    dump = tmp_path / (key.replace("/", "-") + ".json")
    dump.write_text(json.dumps(fp, indent=1, sort_keys=True))
    pytest.fail(
        explain(key, GOLDEN[key], fp)
        + f"\n  this run's un-hashed fingerprint: {dump}"
        + f"\n  the committed side: git stash / checkout the golden commit, "
          f"then `python scripts/regolden.py --dump {key}` and diff the two",
        pytrace=False)


def test_golden_file_holds_exactly_the_expected_keys():
    assert sorted(GOLDEN) == sorted(all_keys())


@pytest.mark.parametrize("key", TIER1)
def test_seed_one_replays_to_the_committed_digest(key, tmp_path):
    _assert_replays(key, tmp_path)


@pytest.mark.parametrize("key", [k for k in all_keys() if k.startswith("demo/")])
def test_demo_replays_to_the_committed_digest(key, tmp_path):
    _assert_replays(key, tmp_path)


@pytest.mark.slow
@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_every_committed_digest_replays(key, tmp_path):
    _assert_replays(key, tmp_path)
