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
from repro.bench.manifest import (
    BY_ID, E15_SWEEP, E16_SWEEP, EXPERIMENTS, Sweep, run_experiment, write_result)
from repro.check.scenarios import CHAOS_FLAGS, SCENARIOS
from repro.robust.spine import run_spine

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
    assert {fn for fn in used if not isinstance(fn, Sweep)} == public
    for exp in EXPERIMENTS:
        assert exp.full and list(exp.full) == list(exp.quick), exp.id
        assert callable(exp.check), exp.id
    assert [e.id for e in EXPERIMENTS] == [f"E{i}" for i in range(1, 19)]
    sweeps = [(exp, fn) for exp in EXPERIMENTS for fn in exp.full
              if isinstance(fn, Sweep)]
    assert [exp.id for exp, _ in sweeps] == ["E12", "E14", "E15", "E16"]
    for exp, sweep in sweeps:
        _assert_sweep_runs_its_scenario(exp, sweep)


def _assert_sweep_runs_its_scenario(exp, sweep):
    """Every config label is a baseline flag the scenario takes (setting
    that flag's kwarg) or the one default; every run's kwargs name a
    parameter of the scenario's runner or a spine harness kwarg it
    passes through; no kwarg restates the default."""
    entry = SCENARIOS[sweep.scenario]
    runner = inspect.signature(entry.runner)
    params = {**inspect.signature(run_spine).parameters, **runner.parameters}
    named = {k for k, p in params.items() if p.kind is not p.VAR_KEYWORD}
    switches = {CHAOS_FLAGS[f][0] for f in entry.flags
                if isinstance(CHAOS_FLAGS[f][1], bool)}
    for profile in ("full", "quick"):
        where = (exp.id, profile)
        kwargs = getattr(exp, profile)[sweep]
        assert set(sweep.axes) <= set(kwargs), where
        configs = kwargs.get("config", {})
        assert ("config" in sweep.axes) == bool(configs), where
        defaults = [label for label in configs if label not in CHAOS_FLAGS]
        assert not configs or len(defaults) == 1, where
        for label, overrides in configs.items():
            if label in CHAOS_FLAGS:
                assert label in entry.flags, (*where, label)
                kwarg, value, _ = CHAOS_FLAGS[label]
                assert overrides.get(kwarg) is value, (*where, label)
            else:
                assert not switches & set(overrides), (*where, label)
        for _, call in sweep.calls(**kwargs):
            runner.bind(**call)
            assert set(call) <= named, (*where, set(call) - named)
        stated = [(k, v) for k, v in kwargs.items() if k not in sweep.axes]
        stated += [kv for overrides in configs.values() for kv in overrides.items()]
        for k, v in stated:
            assert params[k].default != v, (*where, k)


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


def test_e15_zero_baseline_goodput_is_the_claims_best_case():
    """A heartbeat-only mean goodput of 0.0 is a measurement, not a
    missing one: the summary keeps it and the check passes."""
    rows = json.loads((RESULTS / "quick" / "E15.json").read_text())["rows"]["runs"]
    for r in rows:
        if r["config"] == "heartbeat-only":
            r["goodput_ops_s"] = 0.0
    summary = E15_SWEEP.summary(rows)
    assert summary["goodput_heartbeat_only_ops_s"] == 0.0
    assert summary["goodput_differential_ops_s"] > 0
    BY_ID["E15"].check({"runs": rows, "summary": [summary]})


@pytest.mark.parametrize("config", ["differential", "heartbeat-only"])
def test_e15_check_rejects_a_second_owner_in_either_config(config):
    """Fencing must keep even the baseline's wrong death verdicts safe."""
    rows = json.loads((RESULTS / "quick" / "E15.json").read_text())["rows"]
    next(r for r in rows["runs"] if r["config"] == config)["single_owner_violations"] = 1
    with pytest.raises(AssertionError):
        BY_ID["E15"].check(rows)


@pytest.mark.parametrize("config, column, value", [
    ("adaptive", "control_p99_ms", 500.1), ("static", "ok", False)])
def test_e12_check_rejects_a_breached_bound_or_an_unsafe_baseline(config, column, value):
    """E12 owns the control-plane bound; the static baseline is slow,
    not unsafe."""
    rows = json.loads((RESULTS / "quick" / "E12.json").read_text())["rows"]
    next(r for r in rows["overload"] if r["config"] == config)[column] = value
    with pytest.raises(AssertionError):
        BY_ID["E12"].check(rows)


@pytest.mark.parametrize("config, column, value", [
    ("bounded", "control_p99_ms", 500.1), ("blackout", "probe_failed", 1),
    ("bounded", "hb_failed", 1), ("unbounded", "reconverge_s", None)])
def test_e16_check_rejects_a_breached_heal_bound(config, column, value):
    """The heal bounds a run measures are E16's to assert, row by row."""
    rows = json.loads((RESULTS / "quick" / "E16.json").read_text())["rows"]
    next(r for r in rows["runs"] if r["config"] == config)[column] = value
    with pytest.raises(AssertionError):
        BY_ID["E16"].check(rows)


@pytest.mark.parametrize("row", [0, -1])
def test_e11_check_rejects_a_row_outside_the_analytic_bound(row):
    """A recovery that lands inside the TTL ordering but past
    TTL + scan + grace + probe round + slack still fails E11."""
    rows = json.loads((RESULTS / "quick" / "E11.json").read_text())["rows"]
    BY_ID["E11"].check(rows)
    sorted(rows["mttr"], key=lambda r: r["lease_ttl_s"])[row]["within_bound"] = False
    with pytest.raises(AssertionError):
        BY_ID["E11"].check(rows)


def test_summaries_report_a_mean_of_nothing_as_none():
    e15 = json.loads((RESULTS / "quick" / "E15.json").read_text())["rows"]["runs"]
    for r in e15:
        r["detection_s"] = None
    assert E15_SWEEP.summary(e15)["detection_s_mean"] is None
    e16 = json.loads((RESULTS / "quick" / "E16.json").read_text())["rows"]["runs"]
    for r in e16:
        r["reconverge_s"] = r["control_p99_ms"] = None
    summary = E16_SWEEP.summary(e16)
    for key in ("reconverge_bounded_s", "reconverge_unbounded_s",
                "control_p99_bounded_ms", "control_p99_unbounded_ms"):
        assert summary[key] is None, key


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
