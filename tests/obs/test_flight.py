"""Unit tests for the black-box flight recorder."""

import json

from repro.obs.flight import FlightRecorder, dump_flight_records
from repro.sim import Simulator


def make_recorder(capacity=512):
    sim = Simulator(seed=1)
    return FlightRecorder(sim, capacity=capacity), sim


def test_ring_evicts_oldest_and_counts_drops_per_host():
    rec, _sim = make_recorder(capacity=3)
    for i in range(5):
        rec.on_probe("e", {"host": "h0", "i": i})
    rec.on_probe("e", {"host": "h1", "i": 99})
    assert len(rec) == 4  # 3 on h0's full ring + 1 on h1's
    assert rec.dropped == {"h0": 2}
    assert [r["i"] for r in rec.snapshot(host="h0")] == [2, 3, 4]
    assert rec.recorded == 6
    assert rec.hosts() == ["h0", "h1"]


def test_probe_host_keying_falls_back_dst_then_src():
    rec, _sim = make_recorder()
    rec.on_probe("a", {"host": "h0", "dst": "x", "src": "y"})
    rec.on_probe("b", {"dst": "h1", "src": "y"})
    rec.on_probe("c", {"src": "h2"})
    rec.on_probe("d", {"other": 1})
    assert rec.hosts() == ["*", "h0", "h1", "h2"]


def test_merged_snapshot_preserves_emission_order():
    rec, _sim = make_recorder()
    rec.on_probe("a", {"host": "h1"})
    rec.on_probe("b", {"host": "h0"})
    rec.on_probe("c", {"host": "h1"})
    assert [r["kind"] for r in rec.snapshot()] == ["a", "b", "c"]
    assert [r["kind"] for r in rec.snapshot(last=2)] == ["b", "c"]


def test_violation_lands_at_the_tail():
    rec, sim = make_recorder()
    for i in range(10):
        rec.on_probe("ctx.send", {"host": f"h{i % 2}", "seq": i})
    rec.note_violation("single-owner", sim.now, "two live owners")
    tape = rec.snapshot()
    assert tape[-1]["kind"] == "violation"
    assert tape[-1]["oracle"] == "single-owner"
    assert tape[-1]["host"] == "*"


def test_note_frame_records_wire_metadata():
    class Src:
        host = "h9"

    class Frame:
        proto = "srudp"
        src = Src()
        src_port = 1
        dst_port = 2
        size = 128
        trace_id = None

    rec, _sim = make_recorder()
    rec.note_frame("h0", Frame())
    (r,) = rec.snapshot(host="h0")
    assert r["kind"] == "frame.rx" and r["proto"] == "srudp"
    assert r["src"] == "h9" and r["bytes"] == 128


def test_attach_detach_sets_sim_flight():
    rec, sim = make_recorder()
    assert sim.flight is None
    rec.attach()
    assert sim.flight is rec
    rec.detach()
    assert sim.flight is None


def test_attach_subscribes_to_probe_bus():
    from repro.robust.oracles import ProbeBus

    rec, sim = make_recorder()
    bus = ProbeBus()
    rec.attach(bus)
    bus.emit("daemon.fence", host="h3", inc=2)
    (r,) = rec.snapshot(host="h3")
    assert r["kind"] == "daemon.fence" and r["inc"] == 2


def test_dump_jsonl_round_trip(tmp_path):
    rec, sim = make_recorder()
    rec.on_probe("a", {"host": "h0", "x": 1})
    rec.note_violation("o", sim.now, "boom")
    path = tmp_path / "tape.jsonl"
    assert rec.dump_jsonl(str(path)) == 2
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert lines == rec.snapshot()

    path2 = tmp_path / "tape2.jsonl"
    assert dump_flight_records(str(path2), rec.snapshot()) == 2
    assert path2.read_text() == path.read_text()
