"""BENCHMARK.json and the code name the same workloads and metrics, and
a traced run prints every per-layer metric it promises."""

import json
import os

from perfbench import layers, probes, run
from perfbench.workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_benchmark_json_matches_the_code():
    doc = _benchmark()
    assert doc["paths"] == ["perfbench"]
    assert [(w["name"], w["why"]) for w in doc["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()]
    assert [m["name"] for m in doc["end_to_end"]] == list(run.CONTRACT_END_TO_END)
    assert all(0 < m["bound"] <= 0.25 and m["better"] == "lower" for m in doc["end_to_end"])
    promised = {**layers.TRACED_METRICS, **probes.PROBE_METRICS}
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]} == promised
    assert len(doc["per_layer"]) <= 128


def test_trace_run_prints_every_per_layer_metric(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT_DIR", str(tmp_path))
    status = run.main(["--workload", "catalog-write-replicated", "--quick", "--seconds", "0",
                       "--trace", "1"])
    out = capsys.readouterr().out
    last = json.loads(out.strip().splitlines()[-1])
    assert status == 0 and last["correct"] is True
    assert set(last["metrics"]) == {m["name"] for m in _benchmark()["per_layer"]}
    for name in last["metrics"]:
        assert name in out  # printed by name in the table too
    # The layers partition the traced measured phase.
    self_s = sum(v["value"] for k, v in last["metrics"].items() if k.endswith(".self_s"))
    assert self_s > 0 and last["metrics"]["obs.trace_overhead_ratio"]["value"] > 0
    assert os.path.exists(tmp_path / "spans-catalog-write-replicated.json")
