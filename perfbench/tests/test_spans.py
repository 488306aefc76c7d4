"""Span self-time arithmetic, and the installer's promises."""

import pytest

from perfbench import spans
from repro.net.nic import NIC


def test_self_time_is_duration_minus_direct_children():
    #  root 0..10
    #    a 1..4   (child a1 2..3)
    #    b 5..9   (children b1 5..6, b2 6..8)
    rows = [("root", 0.0, 10.0, -1), ("a", 1.0, 4.0, 0), ("a1", 2.0, 3.0, 1),
            ("b", 5.0, 9.0, 0), ("b1", 5.0, 6.0, 3), ("b2", 6.0, 8.0, 3)]
    got = spans.self_times(*zip(*rows))
    assert got["root"]["self_s"] == pytest.approx(10 - 3 - 4)
    assert got["a"]["self_s"] == pytest.approx(2.0)
    assert got["b"]["self_s"] == pytest.approx(1.0)
    assert got["a1"]["self_s"] == pytest.approx(1.0)
    # Self times partition the root: nothing is lost or counted twice.
    assert sum(r["self_s"] for r in got.values()) == pytest.approx(10.0)


def test_same_name_spans_accumulate():
    rows = [("root", 0.0, 6.0, -1), ("x", 0.0, 2.0, 0), ("x", 3.0, 5.0, 0)]
    got = spans.self_times(*zip(*rows))
    assert got["x"] == {"count": 2, "total_s": pytest.approx(4.0), "self_s": pytest.approx(4.0)}
    assert got["root"]["self_s"] == pytest.approx(2.0)


def test_recorder_nests_by_call_stack():
    rec = spans.Recorder()
    outer, inner = rec.span_id("outer", "rpc"), rec.span_id("inner", "net")
    i = rec.begin(outer)
    j = rec.begin(inner)
    rec.finish(j)
    rec.finish(i)
    assert list(rec.parent) == [-1, 0]
    by_name = rec.by_name()
    layer = rec.layer_self_s(by_name)
    assert layer["rpc"] + layer["net"] == pytest.approx(by_name["outer"]["total_s"])


def test_install_wraps_and_uninstall_restores():
    before = NIC.send
    installer = spans.Installer(spans.Recorder()).install()
    try:
        assert NIC.send is not before
    finally:
        installer.uninstall()
    assert NIC.send is before


def test_missing_boundary_fails_by_name(monkeypatch):
    monkeypatch.setattr(spans, "LAYER_BOUNDARIES",
                        spans.LAYER_BOUNDARIES + (("repro.net.nic", "NIC", "no_such_call", "net"),))
    installer = spans.Installer(spans.Recorder())
    with pytest.raises(LookupError, match="repro.net.nic.NIC.no_such_call"):
        installer.install()
    installer.uninstall()
