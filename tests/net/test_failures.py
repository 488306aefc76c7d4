"""Unit tests for the failure injector."""

import pytest

from repro.net import FailureInjector, Medium, Topology
from repro.net.failures import FaultEvent
from repro.sim import Simulator

LAN = Medium(name="lan", bandwidth=1e6, latency=0.001, mtu=1500, frame_overhead=0)


def small_topo(n=4):
    sim = Simulator()
    topo = Topology(sim)
    seg = topo.add_segment("lan", LAN)
    for i in range(n):
        topo.connect(topo.add_host(f"h{i}"), seg)
    return sim, topo


def test_scheduled_host_down_and_recovery():
    sim, topo = small_topo()
    inj = FailureInjector(sim, topo)
    inj.host_down_at(5.0, "h1", duration=3.0)
    sim.run(until=4.9)
    assert topo.hosts["h1"].up
    sim.run(until=5.1)
    assert not topo.hosts["h1"].up
    sim.run(until=8.1)
    assert topo.hosts["h1"].up
    assert [(k, w) for _, k, w in inj.log] == [("host_down", "h1"), ("host_up", "h1")]


def test_scheduled_segment_down_permanent():
    sim, topo = small_topo()
    inj = FailureInjector(sim, topo)
    inj.segment_down_at(2.0, "lan")
    sim.run()
    assert not topo.segments["lan"].up


def _partition_topo():
    sim = Simulator()
    topo = Topology(sim)
    seg_a = topo.add_segment("side-a", LAN)
    seg_b = topo.add_segment("side-b", LAN)
    seg_x = topo.add_segment("cross", LAN)
    a1 = topo.add_host("a1")
    a2 = topo.add_host("a2")
    b1 = topo.add_host("b1")
    topo.connect(a1, seg_a)
    topo.connect(a2, seg_a)
    topo.connect(a1, seg_x)
    topo.connect(b1, seg_x)
    topo.connect(b1, seg_b)
    return sim, topo


def test_partition_cuts_spanning_segments_only():
    sim, topo = _partition_topo()
    inj = FailureInjector(sim, topo)
    inj.partition_at(1.0, ["a1", "a2"], ["b1"], duration=5.0)
    sim.run(until=2.0)
    cross = topo.segments["cross"]
    # Only the directed cross-side pairs on the spanning segment are cut;
    # the segment itself stays administratively up, and non-spanning
    # segments are untouched.
    assert topo.segments["side-a"].up and not topo.segments["side-a"]._gray
    assert topo.segments["side-b"].up and not topo.segments["side-b"]._gray
    assert cross.up
    assert cross.link_blocked("a1", "b1") and cross.link_blocked("b1", "a1")
    # Per-direction hold records land in the log (symmetric = both ways).
    kinds = [(k, w) for _, k, w in inj.log]
    assert ("link_down", "cross:a1->b1") in kinds
    assert ("link_down", "cross:b1->a1") in kinds
    sim.run(until=7.0)
    assert not cross.link_blocked("a1", "b1")
    assert not cross.link_blocked("b1", "a1")
    kinds = [(k, w) for _, k, w in inj.log]
    assert ("link_up", "cross:a1->b1") in kinds and ("link_up", "cross:b1->a1") in kinds


def test_oneway_partition_cuts_single_direction():
    sim, topo = _partition_topo()
    inj = FailureInjector(sim, topo)
    inj.partition_oneway_at(1.0, ["a1"], ["b1"], duration=5.0)
    sim.run(until=2.0)
    cross = topo.segments["cross"]
    assert cross.up
    assert cross.link_blocked("a1", "b1")
    assert not cross.link_blocked("b1", "a1")  # the gray part: replies flow
    sim.run(until=7.0)
    assert not cross.link_blocked("a1", "b1")


def _arm_churn(inj, hosts, mtbf, mttr, stop_at):
    for ev in inj.churn_plan(hosts, mtbf, mttr, inj.sim.now, stop_at):
        inj.inject(ev)


def test_churn_produces_alternating_up_down():
    sim, topo = small_topo()
    inj = FailureInjector(sim, topo)
    _arm_churn(inj, ["h0", "h1"], mtbf=10.0, mttr=2.0, stop_at=200.0)
    sim.run(until=200.0)
    # Each host's log alternates down/up.
    for h in ("h0", "h1"):
        events = [k for _, k, w in inj.log if w == h]
        assert len(events) > 2
        for i, ev in enumerate(events):
            assert ev == ("host_down" if i % 2 == 0 else "host_up")


def test_churn_is_seed_deterministic():
    def run(seed):
        sim = Simulator(seed=seed)
        topo = Topology(sim)
        seg = topo.add_segment("lan", LAN)
        topo.connect(topo.add_host("h0"), seg)
        inj = FailureInjector(sim, topo)
        _arm_churn(inj, ["h0"], mtbf=5.0, mttr=1.0, stop_at=100.0)
        sim.run(until=100.0)
        return inj.log

    assert run(7) == run(7)
    assert run(7) != run(8)


def test_overlapping_scripts_do_not_double_crash_or_early_recover():
    """An outage overlapping another on the same host must not re-crash
    a downed host, and must not recover a host the other still holds."""
    sim, topo = small_topo()
    inj = FailureInjector(sim, topo)
    # Script A holds h1 down over [2, 10); script B over [4, 6).
    inj.host_down_at(2.0, "h1", duration=8.0)
    inj.host_down_at(4.0, "h1", duration=2.0)
    sim.run(until=5.0)
    assert not topo.hosts["h1"].up
    kinds = [(k, w) for _, k, w in inj.log]
    assert ("host_down_skipped", "h1") in kinds  # B's crash was a no-op
    # B releases at t=6: h1 must STAY down (A still holds it).
    sim.run(until=7.0)
    assert not topo.hosts["h1"].up
    kinds = [(k, w) for _, k, w in inj.log]
    assert ("host_up_skipped", "h1") in kinds
    # A releases at t=10: now it really recovers.
    sim.run(until=11.0)
    assert topo.hosts["h1"].up
    effective = [k for _, k, w in inj.log if not k.endswith("_skipped")]
    assert effective == ["host_down", "host_up"]


def test_overlapping_segment_holds_refcount():
    sim, topo = small_topo()
    inj = FailureInjector(sim, topo)
    inj.segment_down_at(1.0, "lan", duration=10.0)
    inj.segment_down_at(2.0, "lan", duration=2.0)
    sim.run(until=5.0)
    assert not topo.segments["lan"].up  # first hold still active
    sim.run(until=12.0)
    assert topo.segments["lan"].up


def test_injector_logs_and_traces_each_transition():
    sim, topo = small_topo()
    sim.obs.tracer.enabled = True
    inj = FailureInjector(sim, topo)
    inj.host_down_at(1.0, "h0", duration=1.0)
    inj.segment_down_at(2.0, "lan", duration=1.0)
    sim.run(until=5.0)
    assert inj.log == [(1.0, "host_down", "h0"), (2.0, "segment_down", "lan"),
                       (2.0, "host_up", "h0"), (3.0, "segment_up", "lan")]
    traced = [(ev["kind"], ev["target"]) for ev in sim.obs.tracer.events()
              if ev["kind"].startswith("failure.")]
    assert traced == [(f"failure.{k}", w) for _, k, w in inj.log]


#: One event of every kind, each armed at t=1 for 2 s, and the fault-log
#: entries it must write (without times: fail at 1.0, heal at 3.0).
KIND_CASES = {
    "crash": (FaultEvent("crash", "a2", 1.0, 2.0),
              [("host_down", "a2")], [("host_up", "a2")]),
    "partition": (FaultEvent("partition", "side-b", 1.0, 2.0),
                  [("segment_down", "side-b")], [("segment_up", "side-b")]),
    "split": (FaultEvent("split", "a1,a2|b1", 1.0, 2.0),
              [("link_down", "cross:a1->b1"), ("link_down", "cross:b1->a1")],
              [("link_up", "cross:a1->b1"), ("link_up", "cross:b1->a1")]),
    "oneway": (FaultEvent("oneway", "a1->b1", 1.0, 2.0),
               [("link_down", "cross:a1->b1")], [("link_up", "cross:a1->b1")]),
    "congest": (FaultEvent("congest", "cross", 1.0, 2.0, 4.0),
                [("segment_congested", "cross")], [("segment_decongested", "cross")]),
    "slow": (FaultEvent("slow", "b1", 1.0, 2.0, 10.0),
             [("host_slowed", "b1")], [("host_unslowed", "b1")]),
    "impair-segment": (FaultEvent("impair", "cross", 1.0, 2.0, extra=(("loss", 0.5),)),
                       [("link_impaired", "cross:*->*")],
                       [("link_unimpaired", "cross:*->*")]),
    "impair-link": (FaultEvent("impair", "cross:b1->a1", 1.0, 2.0,
                               extra=(("corrupt", 0.2),)),
                    [("link_impaired", "cross:b1->a1")],
                    [("link_unimpaired", "cross:b1->a1")]),
    "skew": (FaultEvent("skew", "a1", 1.0, 2.0, extra=(("offset", -30.0),)),
             [("clock_skewed", "a1")], [("clock_unskewed", "a1")]),
    "ckptrot": (FaultEvent("ckptrot", "a2", 1.0, 2.0),
                [("ckpt_corruptor_on", "a2")], [("ckpt_corruptor_off", "a2")]),
}


@pytest.mark.parametrize("case", sorted(KIND_CASES))
def test_inject_arms_every_kind(case):
    ev, failed, healed = KIND_CASES[case]
    sim, topo = _partition_topo()
    inj = FailureInjector(sim, topo)
    inj.inject(ev)
    sim.run(until=5.0)
    assert inj.log == ([(1.0, k, w) for k, w in failed]
                       + [(3.0, k, w) for k, w in healed])


def test_inject_restores_what_each_window_changed():
    sim, topo = _partition_topo()
    inj = FailureInjector(sim, topo)
    a1, cross = topo.hosts["a1"], topo.segments["cross"]
    speed, medium = a1.cpu_speed, cross.medium
    for ev in (FaultEvent("slow", "a1", 1.0, 2.0, 4.0),
               FaultEvent("congest", "cross", 1.0, 2.0, 4.0),
               FaultEvent("ckptrot", "a1", 1.0, 2.0)):
        inj.inject(ev)
    sim.run(until=2.0)
    assert a1.cpu_speed == speed / 4.0 and a1.corrupt_ckpt_writes
    assert cross.medium.bandwidth == medium.bandwidth / 4.0
    sim.run(until=4.0)
    assert a1.cpu_speed == speed and not a1.corrupt_ckpt_writes
    assert cross.medium == medium


def test_inject_rejects_an_unknown_kind():
    sim, topo = small_topo()
    inj = FailureInjector(sim, topo)
    with pytest.raises(ValueError, match="unknown fault kind 'meteor'"):
        inj.inject(FaultEvent("meteor", "h0", 1.0, 1.0))
    assert inj.log == []


def test_congest_segment_degrades_and_restores_medium():
    sim, topo = small_topo()
    inj = FailureInjector(sim, topo)
    base = topo.segments["lan"].medium
    inj.congest_segment_at(2.0, "lan", factor=4.0, duration=3.0)
    sim.run(until=2.1)
    congested = topo.segments["lan"].medium
    assert congested.bandwidth == base.bandwidth / 4.0
    assert congested.latency == base.latency * 4.0
    assert congested.mtu == base.mtu  # only speed degrades, not framing
    sim.run(until=5.1)
    restored = topo.segments["lan"].medium
    assert restored.bandwidth == base.bandwidth
    assert restored.latency == base.latency
    assert inj.log == [(2.0, "segment_congested", "lan"),
                       (5.0, "segment_decongested", "lan")]


def test_congestion_windows_stack_multiplicatively():
    sim, topo = small_topo()
    inj = FailureInjector(sim, topo)
    base = topo.segments["lan"].medium
    inj.congest_segment_at(1.0, "lan", factor=2.0, duration=4.0)
    inj.congest_segment_at(2.0, "lan", factor=3.0, duration=1.0)
    sim.run(until=2.5)  # both windows active
    assert topo.segments["lan"].medium.bandwidth == base.bandwidth / 6.0
    sim.run(until=3.5)  # inner window unwound
    assert topo.segments["lan"].medium.bandwidth == base.bandwidth / 2.0
    sim.run(until=5.5)  # fully restored
    assert topo.segments["lan"].medium.bandwidth == base.bandwidth


def test_slow_host_scales_cpu_and_restores():
    sim, topo = small_topo()
    inj = FailureInjector(sim, topo)
    base = topo.hosts["h1"].cpu_speed
    inj.slow_host_at(1.0, "h1", factor=10.0, duration=2.0)
    sim.run(until=1.5)
    assert topo.hosts["h1"].cpu_speed == base / 10.0
    assert topo.hosts["h1"].up  # slow, not dead
    sim.run(until=3.5)
    assert topo.hosts["h1"].cpu_speed == base
    assert inj.log == [(1.0, "host_slowed", "h1"), (3.0, "host_unslowed", "h1")]
