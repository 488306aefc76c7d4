"""Unit tests for report rendering, export diffing, and BENCH files."""

import json

import pytest

from repro.obs import MetricsRegistry, diff_exports, load_export, save_export
from repro.obs.report import (
    BENCH_SCHEMA_VERSION,
    gate_diff,
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


def gate_rows():
    return [
        {"metric": "bench.f.mbps", "tags": "", "column": "value",
         "base": 10.0, "new": 8.0, "delta": -2.0, "pct": -20.0},
        {"metric": "bench.f.wall_s", "tags": "", "column": "value",
         "base": 1.0, "new": 1.05, "delta": 0.05, "pct": 5.0},
        {"metric": "bench.f.retries", "tags": "", "column": "value",
         "base": 0, "new": 3, "delta": 3, "pct": ""},  # zero base: no pct
        {"metric": "bench.f.new_col", "tags": "", "column": "value",
         "base": "", "new": 4.0},  # one-sided: no pct at all
    ]


def test_gate_diff_threshold_and_direction():
    rows = gate_rows()
    tripped = gate_diff(rows, fail_over=10.0)
    assert [r["metric"] for r in tripped] == ["bench.f.mbps"]
    # Tighter threshold also catches the 5% creep.
    assert len(gate_diff(rows, fail_over=4.0)) == 2
    # Direction filters: "down" only sees the drop, "up" only the creep.
    assert [r["metric"] for r in gate_diff(rows, 4.0, direction="down")] == \
        ["bench.f.mbps"]
    assert [r["metric"] for r in gate_diff(rows, 4.0, direction="up")] == \
        ["bench.f.wall_s"]
    # At-threshold changes do not trip (strictly-over semantics).
    assert gate_diff(rows, fail_over=20.0) == []


def test_gate_diff_glob_and_bad_direction():
    rows = gate_rows()
    assert gate_diff(rows, 1.0, metrics_glob="*.wall_s") == [rows[1]]
    assert gate_diff(rows, 1.0, metrics_glob="nomatch.*") == []
    with pytest.raises(ValueError):
        gate_diff(rows, 1.0, direction="sideways")


def test_diff_cli_exit_code_is_the_gate(tmp_path):
    """``obs diff --fail-over`` exits 1 iff a gated metric moved too far
    in the gated direction — what CI's drift gates rely on."""
    from repro.obs.cli import main

    def export(rate, info):
        path = tmp_path / f"{rate}-{info}.json"
        path.write_text(json.dumps({"counters": [], "histograms": [], "gauges": [
            {"name": "perf.rate", "tags": {}, "value": rate},
            {"name": "info.wall_s", "tags": {}, "value": info}]}))
        return str(path)

    gate = ["--fail-over", "20", "--metrics", "perf.*", "--direction", "up"]
    base = export(1.0, 1.0)
    assert main(["diff", base, base, *gate]) == 0
    assert main(["diff", base, export(1.5, 1.0), *gate]) == 1
    # A move in the other direction, or outside the glob, is not gated.
    assert main(["diff", base, export(0.5, 1.0), *gate]) == 0
    assert main(["diff", base, export(1.0, 10.0), *gate]) == 0


def test_load_bench_dict_of_tables(tmp_path):
    """BENCH rows may be {table: [rows]}; each sub-table gets a table tag."""
    rows = {"summary": [{"policy": "multipath", "gap_ms": 85.0}]}
    path = write_bench_json("failover", rows, str(tmp_path))
    export = load_export(path)
    (g,) = [g for g in export["gauges"] if g["name"] == "bench.failover.gap_ms"]
    assert g["tags"]["table"] == "summary"
    assert g["tags"]["policy"] == "multipath"
    assert g["value"] == 85.0
