"""Unit tests for report rendering, export diffing, and BENCH files."""

import json

import pytest

from repro.obs import MetricsRegistry, diff_exports, load_export, save_export
from repro.obs.report import (
    BENCH_SCHEMA_VERSION,
    render_diff,
    render_report,
    write_bench_json,
)


def sample_export():
    reg = MetricsRegistry()
    reg.counter("transport.retransmits", proto="srudp").inc(5)
    reg.gauge("daemon.load", host="h0").set(0.5)
    h = reg.histogram("transport.msg_latency", proto="srudp")
    for v in (0.01, 0.02, 0.04):
        h.observe(v)
    return reg.export()


def test_render_report_groups_by_subsystem():
    text = render_report(sample_export())
    assert "-- transport --" in text
    assert "-- daemon --" in text
    assert "transport.retransmits" in text
    assert "proto=srudp" in text
    assert "p50" in text and "p99" in text


def test_render_report_empty():
    assert "(no metrics recorded)" in render_report({})


def test_diff_exports_aligns_and_deltas():
    base = sample_export()
    reg = MetricsRegistry()
    reg.counter("transport.retransmits", proto="srudp").inc(8)
    reg.counter("transport.new_metric").inc(1)
    new = reg.export()
    rows = diff_exports(base, new)
    by_key = {(r["metric"], r["column"]): r for r in rows}
    retr = by_key[("transport.retransmits", "value")]
    assert retr["base"] == 5 and retr["new"] == 8
    assert retr["delta"] == 3
    assert retr["pct"] == 60.0
    # Present on one side only: other side blank, no delta.
    only_new = by_key[("transport.new_metric", "value")]
    assert only_new["base"] == "" and only_new["new"] == 1
    assert "delta" not in only_new
    only_base = by_key[("daemon.load", "value")]
    assert only_base["new"] == ""
    assert "transport.retransmits" in render_diff(base, new)


def test_save_and_load_export(tmp_path):
    export = sample_export()
    path = tmp_path / "run.json"
    save_export(export, str(path))
    assert load_export(str(path)) == json.loads(json.dumps(export))


def test_write_bench_json_and_load(tmp_path):
    rows = [{"series": "srudp", "mbps": 11.5}]
    path = write_bench_json("fig1", rows, str(tmp_path))
    assert path.endswith("BENCH_fig1.json")
    data = json.loads(open(path).read())
    assert data["name"] == "fig1"
    assert data["rows"] == rows
    # load_export turns the BENCH rows into gauges.
    assert [g["value"] for g in load_export(path)["gauges"]] == [11.5]


def test_load_bench_without_metrics_synthesizes_gauges(tmp_path):
    """A rows-only BENCH file still renders and diffs: numeric columns
    become bench.<name>.<col> gauges, string columns become tags."""
    rows = [
        {"series": "srudp", "size": 16384, "mbps": 11.5},
        {"series": "tcp", "size": 16384, "mbps": 9.8},
    ]
    path = write_bench_json("fig1", rows, str(tmp_path))
    export = load_export(path)
    gauges = {(g["name"], g["tags"].get("row")): g for g in export["gauges"]}
    g = gauges[("bench.fig1.mbps", "0")]
    assert g["value"] == 11.5
    assert g["tags"]["series"] == "srudp"
    assert gauges[("bench.fig1.mbps", "1")]["value"] == 9.8
    assert "bench.fig1.mbps" in render_report(export)
    # Two runs of the same benchmark diff by row index.
    new_dir = tmp_path / "new"
    new_dir.mkdir()
    rows2 = [dict(r, mbps=r["mbps"] + 1.0) for r in rows]
    path2 = write_bench_json("fig1", rows2, str(new_dir))
    drows = diff_exports(load_export(path), load_export(path2))
    mbps = [r for r in drows if r["metric"] == "bench.fig1.mbps"]
    assert all(r["delta"] == 1.0 for r in mbps) and len(mbps) == 2


def test_bench_envelope_is_common_across_writers(tmp_path):
    """Every BENCH file carries the same envelope: schema version,
    scenario (defaulting to the bench name), and seed/extra when the
    caller knows them."""
    path = write_bench_json(
        "e14", [{"x": 1}], str(tmp_path), scenario="overload",
        seed=7, extra={"profile": "quick"},
    )
    data = json.loads(open(path).read())
    assert data["schema"] == BENCH_SCHEMA_VERSION
    assert data["scenario"] == "overload"
    assert data["seed"] == 7
    assert data["profile"] == "quick"  # extra merged at the top level
    # Scenario defaults to the bench name; optional keys stay absent.
    bare = json.loads(open(write_bench_json("fig9", [], str(tmp_path))).read())
    assert bare["scenario"] == "fig9"
    assert "seed" not in bare


def test_diff_cli_renders_only(tmp_path, capsys):
    """``obs diff`` prints how far each metric moved and judges none of
    it: exit 0 whatever moved, and no flag turns it into a gate."""
    from repro.obs.cli import main

    def export(rate):
        path = tmp_path / f"{rate}.json"
        path.write_text(json.dumps({"counters": [], "histograms": [], "gauges": [
            {"name": "perf.rate", "tags": {}, "value": rate}]}))
        return str(path)

    base, moved = export(1.0), export(10.0)
    assert main(["diff", base, moved]) == 0
    (row,) = [ln for ln in capsys.readouterr().out.splitlines() if "perf.rate" in ln]
    assert row.split()[-1] == "900"  # the pct column
    with pytest.raises(SystemExit) as exc:
        main(["diff", base, moved, "--fail-over", "50"])
    assert exc.value.code == 2


def test_load_bench_dict_of_tables(tmp_path):
    """BENCH rows may be {table: [rows]}; each sub-table gets a table tag."""
    rows = {"summary": [{"policy": "multipath", "gap_ms": 85.0}]}
    path = write_bench_json("failover", rows, str(tmp_path))
    export = load_export(path)
    (g,) = [g for g in export["gauges"] if g["name"] == "bench.failover.gap_ms"]
    assert g["tags"]["table"] == "summary"
    assert g["tags"]["policy"] == "multipath"
    assert g["value"] == 85.0
