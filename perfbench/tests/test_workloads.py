"""Every workload passes its own checks at ``--quick`` sizes, repeats
exactly, and notices a wrong answer."""

import json

import pytest

from perfbench import harness, run
from perfbench.workloads import WORKLOADS, rpc_echo_wan


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_passes_its_checks(name):
    result = harness.run_repeats(WORKLOADS[name], seed=1, seconds=0, quick=True)
    assert result["problems"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert result["end_to_end"]["wall_s"]["n"] == harness.MIN_REPEATS
    for metric in run.CONTRACT_END_TO_END:
        assert harness.value_of(result["end_to_end"][metric]) > 0, metric


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_same_seed_repeats_exactly_and_another_seed_does_not(name):
    workload = WORKLOADS[name]

    def digest(seed):
        _setup_s, _wall_s, outcome = harness.run_once(workload, workload.generate(seed, True))
        return outcome.digest()

    assert digest(1) == digest(1)
    assert digest(1) != digest(2)


def test_sabotaged_echo_fails_the_run(monkeypatch, capsys):
    # Wrong for one measured call only; the warm-up round (four calls per
    # client) must still pass or set-up itself would refuse to start.
    monkeypatch.setattr(rpc_echo_wan, "echo",
                        lambda args: "wrong" if tuple(args["x"]) == (0, 5) else args["x"])
    status = run.main(["--workload", "rpc-echo-wan", "--quick", "--seconds", "0"])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert status != 0
    assert last["correct"] is False and last["failed"] == 1
    assert set(last["metrics"]) == set(run.CONTRACT_END_TO_END)  # metrics still printed
