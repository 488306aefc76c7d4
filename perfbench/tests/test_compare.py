"""The comparison rules: exact on the virtual clock, bounded on the host's."""

import copy
import json

from perfbench import compare, harness
from perfbench.workloads import WORKLOADS


def test_verdicts_follow_the_pairing_rule():
    base = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]
    faster = [b * 0.8 for b in base]
    assert compare.verdict(base, faster, 0.1)["verdict"] == "improved"
    assert compare.verdict(base, faster, 0.1)["win_share"] == 1.0
    slower = [b * 1.2 for b in base]
    assert compare.verdict(base, slower, 0.1)["verdict"] == "regressed"
    assert compare.verdict(base, list(base), 0.1)["verdict"] == "unchanged"
    # A base whose own quartiles are wider apart than the bound cannot
    # vouch for "unchanged".
    noisy = [10.0, 13.0, 8.0, 12.5, 7.5, 13.5, 8.5, 12.0, 7.0, 13.0]
    shuffled = noisy[3:] + noisy[:3]
    assert compare.verdict(noisy, shuffled, 0.1)["verdict"] == "unresolved"
    # Virtual metrics: any increase regresses, equality is unchanged.
    assert compare.verdict([1.0] * 10, [1.0] * 10, compare.EXACT)["verdict"] == "unchanged"
    assert compare.verdict([1.0] * 10, [1.0001] * 10, compare.EXACT)["verdict"] == "regressed"


def test_agree_is_exact_on_virtual_and_bounded_on_host(tmp_path, capsys):
    result = harness.run_repeats(WORKLOADS["bulk-tree"], seed=1, seconds=0, quick=True)
    result["per_layer"] = {}
    a, b, c = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "c.json"
    a.write_text(json.dumps(result))
    near = copy.deepcopy(result)
    near["end_to_end"]["wall_s"]["median"] *= 1.02
    b.write_text(json.dumps(near))
    assert compare.agree(str(a), str(b)) == 0
    moved = copy.deepcopy(result)
    moved["end_to_end"]["virt_makespan_s"]["value"] *= 1.0001
    c.write_text(json.dumps(moved))
    assert compare.agree(str(a), str(c)) == 1
    assert "must be exactly equal" in capsys.readouterr().out
