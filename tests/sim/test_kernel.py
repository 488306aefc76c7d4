"""Unit tests for the simulation kernel: clock, queue, run modes."""

import pytest

from repro.sim import Interrupt, SimulationError, Simulator, defuse


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0
    assert sim.peek() == float("inf")


def test_timeout_advances_clock():
    sim = Simulator()
    seen = []

    def proc(sim):
        yield sim.timeout(3.5)
        seen.append(sim.now)
        yield sim.timeout(1.5)
        seen.append(sim.now)

    sim.process(proc(sim))
    sim.run()
    assert seen == [3.5, 5.0]


def test_timeout_value_passthrough():
    sim = Simulator()
    got = []

    def proc(sim):
        v = yield sim.timeout(1, value="hello")
        got.append(v)

    sim.process(proc(sim))
    sim.run()
    assert got == ["hello"]


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.timeout(-1)


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []

    def waiter(sim, delay, tag):
        yield sim.timeout(delay)
        order.append(tag)

    for delay, tag in [(5, "c"), (1, "a"), (3, "b")]:
        sim.process(waiter(sim, delay, tag))
    sim.run()
    assert order == ["a", "b", "c"]


def test_simultaneous_events_fifo_order():
    """Equal-time events run in scheduling order (determinism)."""
    sim = Simulator()
    order = []

    def waiter(sim, tag):
        yield sim.timeout(2)
        order.append(tag)

    for tag in "abcde":
        sim.process(waiter(sim, tag))
    sim.run()
    assert order == list("abcde")


def test_run_until_time_stops_clock_exactly():
    sim = Simulator()

    def ticker(sim):
        while True:
            yield sim.timeout(1)

    sim.process(ticker(sim))
    sim.run(until=10.5)
    assert sim.now == 10.5


def test_run_until_event_returns_value():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(2)
        return 42

    p = sim.process(proc(sim))
    assert sim.run(until=p) == 42
    assert sim.now == 2


def test_run_until_past_time_rejected():
    sim = Simulator()
    sim.run(until=5)
    with pytest.raises(SimulationError):
        sim.run(until=1)


def test_run_until_never_fired_event_raises():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(SimulationError):
        sim.run(until=ev)


def test_manual_event_succeed():
    sim = Simulator()
    ev = sim.event()
    got = []

    def proc(sim, ev):
        got.append((yield ev))

    def firer(sim, ev):
        yield sim.timeout(4)
        ev.succeed("payload")

    sim.process(proc(sim, ev))
    sim.process(firer(sim, ev))
    sim.run()
    assert got == ["payload"]


def test_event_fail_propagates_into_process():
    sim = Simulator()
    ev = sim.event()
    caught = []

    def proc(sim, ev):
        try:
            yield ev
        except ValueError as exc:
            caught.append(str(exc))

    def firer(sim, ev):
        yield sim.timeout(1)
        ev.fail(ValueError("boom"))

    sim.process(proc(sim, ev))
    sim.process(firer(sim, ev))
    sim.run()
    assert caught == ["boom"]


def test_double_trigger_rejected():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)
    with pytest.raises(SimulationError):
        ev.fail(ValueError())


def test_uncaught_process_exception_aborts_run():
    sim = Simulator()

    def bad(sim):
        yield sim.timeout(1)
        raise RuntimeError("crashed")

    sim.process(bad(sim))
    with pytest.raises(RuntimeError, match="crashed"):
        sim.run()


def test_non_strict_mode_tolerates_crash_if_awaited():
    sim = Simulator(strict_process_errors=False)

    def bad(sim):
        yield sim.timeout(1)
        raise RuntimeError("quiet")

    def watcher(sim, p):
        try:
            yield p
        except RuntimeError:
            return "saw it"

    p = sim.process(bad(sim))
    w = sim.process(watcher(sim, p))
    assert sim.run(until=w) == "saw it"


def test_yield_non_event_is_error():
    sim = Simulator()

    def bad(sim):
        yield 42

    sim.process(bad(sim))
    with pytest.raises(SimulationError):
        sim.run()


def test_process_return_value_waitable():
    sim = Simulator()

    def child(sim):
        yield sim.timeout(2)
        return "result"

    def parent(sim):
        v = yield sim.process(child(sim))
        return v + "!"

    p = sim.process(parent(sim))
    assert sim.run(until=p) == "result!"


def test_step_on_empty_queue_raises():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.step()


def test_step_dispatches_one_live_event_past_cancelled_heads():
    sim = Simulator()
    fired = []
    sim.schedule_timer(1.0, lambda: fired.append(1)).cancel()
    sim.schedule_timer(2.0, lambda: fired.append(2))
    sim.schedule_timer(3.0, lambda: fired.append(3))
    sim.step()
    assert fired == [2] and sim.now == 2.0


def test_peek():
    sim = Simulator()
    assert sim.peek() == float("inf")
    sim.timeout(7)
    assert sim.peek() == 7


def test_interrupt_wakes_process_early():
    sim = Simulator()
    log = []

    def sleeper(sim):
        try:
            yield sim.timeout(100)
            log.append("slept")
        except Interrupt as i:
            log.append(("interrupted", i.cause, sim.now))

    def interrupter(sim, p):
        yield sim.timeout(3)
        p.interrupt("wake up")

    p = sim.process(sleeper(sim))
    sim.process(interrupter(sim, p))
    sim.run()
    assert log == [("interrupted", "wake up", 3.0)]


def test_interrupt_dead_process_is_error():
    sim = Simulator()

    def quick(sim):
        yield sim.timeout(1)

    def late(sim, p):
        yield sim.timeout(5)
        p.interrupt()

    p = sim.process(quick(sim))
    sim.process(late(sim, p))
    with pytest.raises(SimulationError):
        sim.run()


def test_any_of_and_all_of():
    sim = Simulator()
    results = []

    def proc(sim):
        t1 = sim.timeout(1, value="one")
        t2 = sim.timeout(2, value="two")
        got = yield sim.any_of([t1, t2])
        results.append(("any", sorted(got.values()), sim.now))
        t3 = sim.timeout(3, value="three")
        t4 = sim.timeout(1, value="four")
        got = yield sim.all_of([t3, t4])
        results.append(("all", sorted(got.values()), sim.now))

    sim.process(proc(sim))
    sim.run()
    assert results[0] == ("any", ["one"], 1.0)
    assert results[1] == ("all", ["four", "three"], 4.0)


def test_all_of_empty_fires_immediately():
    sim = Simulator()

    def proc(sim):
        got = yield sim.all_of([])
        return got

    p = sim.process(proc(sim))
    assert sim.run(until=p) == {}


def test_event_callback_after_processed_runs_immediately():
    sim = Simulator()
    ev = sim.event()
    ev.succeed("v")
    sim.run()
    seen = []
    ev.add_callback(lambda e: seen.append(e.value))
    assert seen == ["v"]


def test_defuse_suppresses_background_crash():
    sim = Simulator()

    def bad(sim):
        yield sim.timeout(1)
        raise RuntimeError("expected failure")

    defuse(sim.process(bad(sim)))
    sim.run()  # no raise: the failure was observed by the defuse callback


def test_condition_failure_propagates():
    sim = Simulator()

    def bad(sim):
        yield sim.timeout(1)
        raise ValueError("child died")

    def waiter(sim, p):
        try:
            yield sim.all_of([p, sim.timeout(5)])
        except ValueError as exc:
            return str(exc)

    p = sim.process(bad(sim))
    w = sim.process(waiter(sim, p))
    assert sim.run(until=w) == "child died"
