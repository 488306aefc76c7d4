"""Unit tests for Store, Resource, and Gate."""

import pytest

from repro.sim import Gate, Resource, SimulationError, Simulator, Store


def test_store_fifo_order():
    sim = Simulator()
    store = Store(sim)
    got = []

    def producer(sim, store):
        for i in range(5):
            yield store.put(i)
            yield sim.timeout(1)

    def consumer(sim, store):
        for _ in range(5):
            got.append((yield store.get()))

    sim.process(producer(sim, store))
    sim.process(consumer(sim, store))
    sim.run()
    assert got == [0, 1, 2, 3, 4]


def test_store_get_blocks_until_put():
    sim = Simulator()
    store = Store(sim)
    times = []

    def consumer(sim, store):
        v = yield store.get()
        times.append((sim.now, v))

    def producer(sim, store):
        yield sim.timeout(10)
        yield store.put("late")

    sim.process(consumer(sim, store))
    sim.process(producer(sim, store))
    sim.run()
    assert times == [(10.0, "late")]


def test_store_capacity_blocks_put():
    sim = Simulator()
    store = Store(sim, capacity=2)
    events = []

    def producer(sim, store):
        for i in range(4):
            yield store.put(i)
            events.append(("put", i, sim.now))

    def consumer(sim, store):
        yield sim.timeout(5)
        for _ in range(4):
            v = yield store.get()
            events.append(("get", v, sim.now))
            yield sim.timeout(1)

    sim.process(producer(sim, store))
    sim.process(consumer(sim, store))
    sim.run()
    # Puts 0 and 1 go through immediately; 2 and 3 wait for the consumer.
    put_times = {i: t for op, i, t in events if op == "put"}
    assert put_times[0] == 0 and put_times[1] == 0
    assert put_times[2] == 5.0
    assert put_times[3] == 6.0


def test_store_try_put_and_try_get():
    sim = Simulator()
    store = Store(sim, capacity=1)
    assert store.try_put("a") is True
    sim.run()
    assert store.try_put("b") is False
    ok, v = store.try_get()
    assert (ok, v) == (True, "a")
    ok, v = store.try_get()
    assert ok is False and v is None


def test_store_zero_capacity_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        Store(sim, capacity=0)


def test_resource_mutual_exclusion():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    timeline = []

    def worker(sim, res, tag):
        yield res.request()
        timeline.append((tag, "in", sim.now))
        yield sim.timeout(10)
        timeline.append((tag, "out", sim.now))
        res.release()

    sim.process(worker(sim, res, "a"))
    sim.process(worker(sim, res, "b"))
    sim.run()
    assert timeline == [
        ("a", "in", 0.0),
        ("a", "out", 10.0),
        ("b", "in", 10.0),
        ("b", "out", 20.0),
    ]


def test_resource_capacity_two_runs_concurrently():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    start_times = []

    def worker(sim, res):
        yield res.request()
        start_times.append(sim.now)
        yield sim.timeout(5)
        res.release()

    for _ in range(3):
        sim.process(worker(sim, res))
    sim.run()
    assert start_times == [0.0, 0.0, 5.0]


def test_resource_release_without_request_raises():
    sim = Simulator()
    res = Resource(sim)
    with pytest.raises(SimulationError):
        res.release()


def test_gate_broadcast_wakes_all():
    sim = Simulator()
    gate = Gate(sim)
    woke = []

    def waiter(sim, gate, tag):
        yield gate.wait()
        woke.append((tag, sim.now))

    def opener(sim, gate):
        yield sim.timeout(7)
        gate.open()

    for tag in "ab":
        sim.process(waiter(sim, gate, tag))
    sim.process(opener(sim, gate))
    sim.run()
    assert woke == [("a", 7.0), ("b", 7.0)]


def test_gate_open_then_wait_passes_immediately():
    sim = Simulator()
    gate = Gate(sim)
    gate.open()
    done = []

    def waiter(sim, gate):
        yield gate.wait()
        done.append(sim.now)

    sim.process(waiter(sim, gate))
    sim.run()
    assert done == [0.0]


def test_gate_pulse_does_not_latch():
    sim = Simulator()
    gate = Gate(sim)
    woke = []

    def early(sim, gate):
        yield gate.wait()
        woke.append("early")

    def pulser(sim, gate):
        yield sim.timeout(1)
        gate.pulse()

    def late(sim, gate):
        yield sim.timeout(2)
        yield gate.wait()
        woke.append("late")  # pragma: no cover - must not happen

    sim.process(early(sim, gate))
    sim.process(pulser(sim, gate))
    sim.process(late(sim, gate))
    sim.run(until=100)
    assert woke == ["early"]
