"""Oracle unit tests: synthetic probe streams against each reference model."""

from dataclasses import dataclass

from repro.robust.oracles import (
    ConvergenceOracle,
    DeliveryOracle,
    ProbeBus,
    SingleOwnerOracle,
)
from repro.daemon.tasks import TaskState
from repro.rcds.records import RCStore
from repro.sim import Simulator


def test_probe_bus_fans_out_in_subscription_order():
    bus = ProbeBus()
    seen = []
    bus.subscribe(lambda kind, f: seen.append(("a", kind, f["x"])))
    bus.subscribe(lambda kind, f: seen.append(("b", kind, f["x"])))
    bus.emit("ev", x=1)
    assert seen == [("a", "ev", 1), ("b", "ev", 1)]


# -- DeliveryOracle ---------------------------------------------------------

def _delivery():
    sim = Simulator()
    return sim, DeliveryOracle(sim)


def send(o, seq, src="s", inc=1, dst="d"):
    o.on_probe("ctx.send", {"src": src, "inc": inc, "dst": dst, "seq": seq,
                            "tag": "t"})


def deliver(o, seq, src="s", src_inc=1, dst="d", dst_inc=1):
    o.on_probe("ctx.deliver", {"dst": dst, "dst_inc": dst_inc, "src": src,
                               "src_inc": src_inc, "seq": seq, "tag": "t"})


def test_delivery_clean_fifo_stream_passes():
    _, o = _delivery()
    for seq in (1, 2, 3):
        send(o, seq)
        deliver(o, seq)
    assert not o.violations
    assert o.delivered == 3


def test_delivery_flags_ghosts_duplicates_and_gaps():
    _, o = _delivery()
    deliver(o, 1)  # never sent
    assert "never sent" in o.violations[-1].detail
    for seq in (1, 2, 3):
        send(o, seq)
    deliver(o, 1)
    deliver(o, 1)  # duplicate
    assert "duplicate" in o.violations[-1].detail
    deliver(o, 3)  # gap: 2 skipped
    assert "gap" in o.violations[-1].detail
    assert len(o.violations) == 3


def test_delivery_group_fanout_is_exempt():
    _, o = _delivery()
    deliver(o, 0)
    deliver(o, 0)
    assert not o.violations


def test_delivery_restarted_receiver_resyncs_mid_stream():
    """A new receiver incarnation may join a live stream at any sequence
    (checkpoint restart); only *within* a stream must delivery be FIFO."""
    _, o = _delivery()
    for seq in (1, 2, 3, 4):
        send(o, seq)
    deliver(o, 1, dst_inc=1)
    deliver(o, 2, dst_inc=1)
    deliver(o, 3, dst_inc=2)  # restarted receiver syncs at 3
    deliver(o, 4, dst_inc=2)
    assert not o.violations


def test_delivery_flags_incarnation_regression():
    """Once a receiver heard incarnation 2 of a source, a message from
    incarnation 1 is a fenced zombie's straggler."""
    _, o = _delivery()
    send(o, 1, inc=2)
    send(o, 1, inc=1)
    deliver(o, 1, src_inc=2)
    deliver(o, 1, src_inc=1)
    assert len(o.violations) == 1
    assert "incarnation regression" in o.violations[0].detail


# -- SingleOwnerOracle ------------------------------------------------------

@dataclass
class FakeInfo:
    host: str
    state: str = TaskState.RUNNING
    fenced: bool = False


def start(o, inc, host, info):
    o.on_probe("ctx.start", {"urn": "urn:p:x", "inc": inc, "host": host,
                             "info": info})


def test_single_owner_flags_unfenced_zombie():
    o = SingleOwnerOracle(Simulator())
    start(o, 1, "a", FakeInfo("a"))
    start(o, 2, "b", FakeInfo("b"))  # restart elsewhere, no fence write
    assert len(o.violations) == 1
    assert "two live owners" in o.violations[0].detail


def test_single_owner_fence_write_covers_the_zombie():
    o = SingleOwnerOracle(Simulator())
    start(o, 1, "a", FakeInfo("a"))
    o.on_probe("daemon.fence", {"urn": "urn:p:x", "fence": 2})
    start(o, 2, "b", FakeInfo("b"))
    assert not o.violations


def test_single_owner_terminal_or_fenced_old_incarnation_is_fine():
    o = SingleOwnerOracle(Simulator())
    dead = FakeInfo("a", state=TaskState.FAILED)
    start(o, 1, "a", dead)
    start(o, 2, "b", FakeInfo("b"))
    assert not o.violations
    o2 = SingleOwnerOracle(Simulator())
    zombie = FakeInfo("a", fenced=True)
    start(o2, 1, "a", zombie)
    start(o2, 2, "b", FakeInfo("b"))
    assert not o2.violations


def test_single_owner_judges_a_lower_newcomer_too():
    """Successors launch as the incarnation their fence reserved, so one
    that drew earlier can start after a sibling that drew later. The
    rule is symmetric: the lower of the two live instances must be
    below the highest fence, whichever of them started last."""
    o = SingleOwnerOracle(Simulator())
    start(o, 5, "a", FakeInfo("a"))
    start(o, 4, "b", FakeInfo("b"))  # drew earlier, launched later, unfenced
    assert len(o.violations) == 1
    assert "incarnation 5" in o.violations[0].detail
    o2 = SingleOwnerOracle(Simulator())
    start(o2, 5, "a", FakeInfo("a"))
    o2.on_probe("daemon.fence", {"urn": "urn:p:x", "fence": 5})
    start(o2, 4, "b", FakeInfo("b"))  # below the fence: it stops itself
    assert not o2.violations


def test_single_owner_equal_incarnation_is_migration_handoff():
    o = SingleOwnerOracle(Simulator())
    start(o, 3, "a", FakeInfo("a"))
    start(o, 3, "b", FakeInfo("b"))  # migration: URN+incarnation move
    assert not o.violations


def test_single_owner_same_host_respawn_is_fenced_locally():
    """A duplicate spawn landing on the host that still runs the old
    incarnation is resolved by the daemon itself (spawn fences the stale
    task synchronously), so it is not a violation."""
    o = SingleOwnerOracle(Simulator())
    start(o, 1, "a", FakeInfo("a"))
    start(o, 2, "a", FakeInfo("a"))
    assert not o.violations


# -- ConvergenceOracle ------------------------------------------------------

class FakeEnv:
    def __init__(self, servers):
        self.rc_servers = servers


class FakeServer:
    def __init__(self, store):
        self.store = store


def test_convergence_mirrors_agree_on_honest_replicas():
    sim = Simulator()
    a, b = RCStore("rc-a"), RCStore("rc-b")
    oracle = ConvergenceOracle(sim)
    oracle.attach(FakeEnv({"ha": FakeServer(a), "hb": FakeServer(b)}))
    ra = a.local_update("uri:x", {"state": "running"}, wall=1.0)
    rb = b.local_update("uri:x", {"state": "exited"}, wall=2.0)
    # Cross-replicate in opposite orders: both must land on wall=2.0.
    a.apply_remote(rb)
    b.apply_remote(ra)
    assert not oracle.violations
    assert a.get("uri:x", "state") == b.get("uri:x", "state") == "exited"


def test_convergence_catches_a_replica_ignoring_lww():
    sim = Simulator()
    a = RCStore("rc-a")
    oracle = ConvergenceOracle(sim)
    oracle.attach(FakeEnv({"ha": FakeServer(a)}))
    newer = RCStore("rc-b").local_update("uri:x", {"state": "exited"}, wall=9.0)
    older = RCStore("rc-c").local_update("uri:x", {"state": "running"}, wall=1.0)
    a.apply_remote(newer)
    assert not oracle.violations
    a.lww_enabled = False  # instance-level: the seeded no-lww bug
    try:
        a.apply_remote(older)  # blind overwrite: older entry wins
    finally:
        del a.lww_enabled
    assert len(oracle.violations) == 1
    assert "LWW fold" in oracle.violations[0].detail


def test_convergence_quiescence_requires_terminal_agreement():
    sim = Simulator()
    a, b = RCStore("rc-a"), RCStore("rc-b")
    oracle = ConvergenceOracle(sim)
    oracle.attach(FakeEnv({"ha": FakeServer(a), "hb": FakeServer(b)}))
    recs = a.local_update("urn:p:x", {"state": TaskState.EXITED}, wall=1.0)
    oracle.check_quiescent(["urn:p:x"])  # b never heard: disagreement
    assert any("disagree" in v.detail for v in oracle.violations)
    oracle.violations = []
    b.apply_remote(recs)
    oracle.check_quiescent(["urn:p:x"])
    assert not oracle.violations
    recs = a.local_update("urn:p:x", {"state": TaskState.RUNNING}, wall=2.0)
    b.apply_remote(recs)
    oracle.check_quiescent(["urn:p:x"])  # agree, but not terminal
    assert any("not terminal" in v.detail for v in oracle.violations)


# -- ChunkOracle ------------------------------------------------------------

def _chunks():
    from repro.robust.oracles import ChunkOracle
    sim = Simulator()
    return sim, ChunkOracle(sim)


def _publish(o, name="obj", digests=("d0", "d1", "d2"), whole="H"):
    o.on_probe("bulk.map", {"name": name, "size": 3, "chunk_size": 1,
                            "digests": digests, "hash": whole})


def _commit(o, seq, digest, host="h", name="obj", source="src"):
    o.on_probe("bulk.chunk", {"host": host, "name": name, "seq": seq,
                              "digest": digest, "source": source})


def test_chunk_oracle_clean_transfer_passes():
    _, o = _chunks()
    _publish(o)
    for seq, d in enumerate(("d0", "d1", "d2")):
        _commit(o, seq, d)
    o.on_probe("bulk.complete", {"host": "h", "name": "obj", "hash": "H"})
    assert o.violations == []
    assert o.committed == 3 and o.completions == 1


def test_chunk_oracle_flags_digest_mismatch():
    _, o = _chunks()
    _publish(o)
    _commit(o, 1, "WRONG")
    assert len(o.violations) == 1
    assert "disagrees with the chunk map" in o.violations[0].detail


def test_chunk_oracle_flags_mapless_and_out_of_range_commits():
    _, o = _chunks()
    _commit(o, 0, "d0")  # no map yet
    _publish(o)
    _commit(o, 7, "d0")  # out of range
    details = [v.detail for v in o.violations]
    assert len(details) == 2
    assert "no published chunk map" in details[0]
    assert "out-of-range" in details[1]


def test_chunk_oracle_flags_double_commit_but_allows_evict_recommit():
    _, o = _chunks()
    _publish(o)
    _commit(o, 0, "d0")
    _commit(o, 0, "d0")  # blind duplicate
    assert len(o.violations) == 1 and "twice" in o.violations[0].detail
    o.violations.clear()
    o.on_probe("bulk.evict", {"host": "h", "name": "obj", "seq": 0})
    _commit(o, 0, "d0")  # legitimate repair after eviction
    assert o.violations == []


def test_chunk_oracle_flags_completion_with_gaps_or_bad_hash():
    _, o = _chunks()
    _publish(o)
    _commit(o, 0, "d0")
    o.on_probe("bulk.complete", {"host": "h", "name": "obj", "hash": "H"})
    assert len(o.violations) == 1 and "never committed" in o.violations[0].detail
    o.violations.clear()
    _commit(o, 1, "d1")
    _commit(o, 2, "d2")
    o.on_probe("bulk.complete", {"host": "h", "name": "obj", "hash": "BAD"})
    assert len(o.violations) == 1
    assert "whole-object hash" in o.violations[0].detail


def test_chunk_oracle_flags_map_republish_with_different_content():
    _, o = _chunks()
    _publish(o)
    _publish(o)  # identical: fine
    assert o.violations == []
    _publish(o, digests=("x0", "x1", "x2"))
    assert len(o.violations) == 1 and "re-published" in o.violations[0].detail
