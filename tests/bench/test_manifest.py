"""The experiment manifest is complete, its checks bite, and the
committed ``results/`` are what the source tree produces today."""

import importlib
import inspect
import json
import pathlib
import pkgutil
import re
import runpy

import pytest

import repro.bench
from repro.bench.manifest import EXPERIMENTS, run_experiment, write_result

ROOT = pathlib.Path(__file__).resolve().parents[2]
RESULTS = ROOT / "results"

by_id = pytest.mark.parametrize("exp", EXPERIMENTS, ids=lambda e: e.id)


def test_every_experiment_function_is_in_exactly_one_row():
    public = set()
    for info in pkgutil.iter_modules(repro.bench.__path__):
        if not re.fullmatch(r"fig1|e\d+_\w+", info.name):
            continue
        mod = importlib.import_module(f"repro.bench.{info.name}")
        public |= {fn for name, fn in inspect.getmembers(mod, inspect.isfunction)
                   if fn.__module__ == mod.__name__ and not name.startswith("_")}
    used = [fn for exp in EXPERIMENTS for fn in exp.full]
    assert len(used) == len(set(used)), "a builder appears in two rows"
    assert set(used) == public
    for exp in EXPERIMENTS:
        assert exp.full and list(exp.full) == list(exp.quick), exp.id
        assert callable(exp.check), exp.id
    assert [e.id for e in EXPERIMENTS] == [f"E{i}" for i in range(1, 19)]


@by_id
@pytest.mark.parametrize(
    "profile", ["quick", pytest.param("full", marks=pytest.mark.slow)])
def test_run_passes_its_check_and_regenerates_the_committed_result(
        exp, profile, tmp_path):
    tables = run_experiment(exp, profile)
    exp.check(tables)
    fresh = write_result(exp, profile, tables, str(tmp_path))
    committed = RESULTS / profile / f"{exp.id}.json"
    assert pathlib.Path(fresh).read_bytes() == committed.read_bytes(), (
        f"{committed.relative_to(ROOT)} is stale: regenerate with "
        f"`python -m repro experiments {exp.id}"
        f"{' --quick' if profile == 'quick' else ''}`")


def _swap(rows, column, a, b, *fields, where=lambda r: True):
    """Exchange *fields* between the rows whose *column* is *a* and the
    rows whose *column* is *b* (paired in order)."""
    left = [r for r in rows if r[column] == a and where(r)]
    right = [r for r in rows if r[column] == b and where(r)]
    assert left and len(left) == len(right)
    for x, y in zip(left, right):
        for f in fields:
            x[f], y[f] = y[f], x[f]


def _invert(rows, field):
    for r in rows:
        r[field] = 1.0 / r[field]


def _ends(rows, column):
    values = sorted({r[column] for r in rows})
    return values[0], values[-1]


#: One way to hand each check the wrong winner.
DOCTOR = {
    "E1": lambda t: _swap(t["bandwidth"], "series", "srudp/atm-155",
                          "srudp/ethernet-100", "mbps"),
    "E2": lambda t: _invert(t["speedup"], "speedup"),
    "E3": lambda t: _swap(t["availability"], "replicas",
                          *_ends(t["availability"], "replicas"), "availability"),
    "E4": lambda t: _swap(t["spawn_load"], "system", "snipe/1rm", "snipe/4rm",
                          "mean_latency_ms"),
    "E5": lambda t: _swap(t["success"], "system", "pvm", "snipe",
                          "success_rate"),
    "E6": lambda t: t["migration"][-1].update(lost=1, received=19),
    "E7": lambda t: _swap(t["delivery"], "mode", "majority", "single",
                          "delivery_rate"),
    "E8": lambda t: _swap(t["summary"], "policy", "snipe-multipath",
                          "single-interface", "completed", "delivered_mb"),
    "E9": lambda t: _swap(t["scaling"], "model", "master-master",
                          "single-master", "throughput"),
    "E10": lambda t: _swap(t["media"], "policy", "snipe", "default-ip",
                           "segment_used", "mbps"),
    "E11": lambda t: _swap(t["mttr"], "lease_ttl_s",
                           *_ends(t["mttr"], "lease_ttl_s"),
                           "detect_s", "mttr_s"),
    "E12": lambda t: _swap(t["overload"], "config", "static", "adaptive",
                           "hb_failed"),
    "E13": lambda t: _swap(t["distribution"], "strategy", "unicast", "tree",
                           "speedup_vs_unicast", "goodput_mbs",
                           where=lambda r: not r["crash"]),
    "E14": lambda t: _swap(t["overhead"], "config", "sampled", "on",
                           "trace_records"),
    "E15": lambda t: _swap(t["runs"], "config", "differential",
                           "heartbeat-only", "detection_s",
                           "false_lease_deaths"),
    "E16": lambda t: _swap(t["runs"], "config", "bounded", "unbounded",
                           "max_sync_batch"),
    "E17": lambda t: _swap(t["scale"], "hosts", *_ends(t["scale"], "hosts"),
                           "events"),
    "E18": lambda t: _invert(t["summary"], "speedup_ops"),
}


@by_id
def test_check_rejects_a_doctored_result(exp):
    committed = json.loads((RESULTS / "quick" / f"{exp.id}.json").read_text())
    exp.check(committed["rows"])  # the committed file itself passes
    DOCTOR[exp.id](committed["rows"])
    with pytest.raises(AssertionError):
        exp.check(committed["rows"])


def test_cli_exits_nonzero_when_a_check_fails(tmp_path, monkeypatch, capsys):
    from repro.bench import manifest

    argv = ["E10", "--quick", "--out", str(tmp_path)]
    assert manifest.main(argv) == 0
    assert (tmp_path / "quick" / "E10.json").exists()

    def never(tables):
        assert tables["media"] == [], "flipped"

    monkeypatch.setitem(manifest.BY_ID, "E10",
                        manifest.BY_ID["E10"]._replace(check=never))
    assert manifest.main(argv) == 1
    assert "FAILED checks: E10" in capsys.readouterr().out


def test_experiments_md_tables_are_rendered_from_results():
    render = runpy.run_path(str(ROOT / "scripts" / "render_experiments.py"))["render"]
    text = (ROOT / "EXPERIMENTS.md").read_text()
    assert render(text) == text, "run `python scripts/render_experiments.py`"
