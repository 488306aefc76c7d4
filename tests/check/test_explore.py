"""Schedule exploration: the tie-breaking scheduler and fault plans."""

import pytest

from repro.check import (
    ExplorationScheduler,
    FaultEvent,
    sample_fault_plan,
    seeded_bug,
)
from repro.guardian.guardian import Guardian
from repro.sim import Simulator
from repro.sim.kernel import URGENT


def test_seed_zero_is_the_fifo_schedule():
    sched = ExplorationScheduler(0)
    assert all(sched.pick(0.0, n) == 0 for n in (1, 2, 5, 9))
    assert sched.reordered == 0


def test_picks_are_in_range_and_seed_deterministic():
    a = ExplorationScheduler(7)
    b = ExplorationScheduler(7)
    c = ExplorationScheduler(8)
    seq_a = [a.pick(0.0, n) for n in (1, 2, 3, 4, 5, 6, 7, 8)]
    seq_b = [b.pick(0.0, n) for n in (1, 2, 3, 4, 5, 6, 7, 8)]
    seq_c = [c.pick(0.0, n) for n in (1, 2, 3, 4, 5, 6, 7, 8)]
    assert seq_a == seq_b
    assert seq_c != seq_a  # different seed, different schedule
    assert all(0 <= p < n for p, n in zip(seq_a, (1, 2, 3, 4, 5, 6, 7, 8)))
    assert a.picks == 8


def _tied_timeouts(sim, n):
    """n processes racing on identically-timed timeouts; returns the
    order their bodies ran in."""
    order = []

    def proc(sim, i):
        yield sim.timeout(1.0)
        order.append(i)

    for i in range(n):
        sim.process(proc(sim, i))
    return order


def test_kernel_fifo_matches_no_scheduler():
    """Installing the seed-0 scheduler must reproduce the default
    insertion-order schedule exactly."""
    plain = Simulator()
    order_plain = _tied_timeouts(plain, 6)
    plain.run()
    fifo = Simulator()
    fifo.set_scheduler(ExplorationScheduler(0))
    order_fifo = _tied_timeouts(fifo, 6)
    fifo.run()
    assert order_plain == list(range(6))
    assert order_fifo == order_plain


def test_kernel_exploration_permutes_ties_deterministically():
    orders = []
    for _ in range(2):
        sim = Simulator()
        sim.set_scheduler(ExplorationScheduler(3))
        order = _tied_timeouts(sim, 8)
        sim.run()
        orders.append(order)
    assert orders[0] == orders[1]  # same seed, same schedule
    assert sorted(orders[0]) == list(range(8))  # a permutation, no loss
    assert orders[0] != list(range(8))  # and actually reordered


def test_exploration_never_reorders_across_priorities():
    """Urgent events beat normal ones at the same timestamp no matter
    how the scheduler permutes within a priority class."""
    sim = Simulator()
    sim.set_scheduler(ExplorationScheduler(5))
    order = []
    for i in range(4):
        ev = sim.event()
        ev.add_callback(lambda e, i=i: order.append(("normal", i)))
        sim._schedule(ev, delay=1.0)
    for i in range(4):
        ev = sim.event()
        ev.add_callback(lambda e, i=i: order.append(("urgent", i)))
        sim._schedule(ev, delay=1.0, priority=URGENT)
    sim.run()
    assert [cls for cls, _ in order[:4]] == ["urgent"] * 4
    assert [cls for cls, _ in order[4:]] == ["normal"] * 4


def test_fault_plans_are_seeded_and_serializable():
    workers = ["w0", "w1", "w2"]
    a = sample_fault_plan("faults", 11, workers, horizon=30.0)
    b = sample_fault_plan("faults", 11, workers, horizon=30.0)
    c = sample_fault_plan("faults", 12, workers, horizon=30.0)
    assert a == b
    assert a != c
    assert any(e.kind == "partition" and e.target.startswith("s-") for e in a)
    for ev in a:
        assert FaultEvent.from_dict(ev.to_dict()) == ev
    over = sample_fault_plan("overload", 11, workers, horizon=30.0)
    assert {e.kind for e in over} <= {"congest", "slow"}
    with pytest.raises(ValueError):
        sample_fault_plan("nope", 1, workers, horizon=30.0)


def test_seeded_bug_flips_and_restores_the_hook():
    assert Guardian.fence_writes_enabled
    with seeded_bug("no-fence-write"):
        assert not Guardian.fence_writes_enabled
    assert Guardian.fence_writes_enabled
    with pytest.raises(ValueError):
        with seeded_bug("no-such-bug"):
            pass
