"""Property-based tests for the hierarchical timer wheel.

The wheel (``Simulator.schedule_timer`` with ``legacy_timers=False``) is
an optimisation over pushing every timer on the event heap; these tests
pin the contract that makes it safe:

* a timer fires at *exactly* its deadline — never early, never twice;
* fire order is nondecreasing in time;
* a timer cancelled before its deadline never fires;
* an arbitrary schedule/cancel/wait program produces the *identical*
  fire log under the wheel and under the naive all-on-the-heap
  reference (``legacy_timers=True``).

Delays are drawn from three bands chosen to straddle the wheel's level
spans (granularity 2 ms, fanout 32: level 0 covers ~64 ms, level 1
~2 s, level 2 ~65 s), so slot rounding, coarse-level cascade, and the
sub-granularity direct-to-heap path all get exercised.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Simulator
from repro.sim.kernel import (
    WHEEL_FANOUT,
    WHEEL_GRANULARITY,
    WHEEL_LEVELS,
)

#: Delay bands straddling the wheel level spans.
_DELAYS = st.one_of(
    st.floats(min_value=0.0, max_value=4 * WHEEL_GRANULARITY),
    st.floats(min_value=0.0, max_value=WHEEL_GRANULARITY * WHEEL_FANOUT * 2),
    st.floats(min_value=0.0, max_value=100.0),
)

#: One program step: schedule a timer, cancel an earlier one, or let
#: virtual time advance.
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("sched"), _DELAYS),
        st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=10_000)),
        st.tuples(st.just("wait"), st.floats(min_value=0.0, max_value=50.0)),
    ),
    min_size=1,
    max_size=60,
)


def _execute(sim: Simulator, ops):
    """Run one schedule/cancel/wait program; return its observation log.

    Returns (fires, deadlines, cancels): ``fires`` is the ordered
    ``(timer_index, fire_time)`` log, ``deadlines[i]`` the i-th timer's
    deadline, and ``cancels`` records ``(index, cancel_time,
    had_already_fired)`` for every cancel call.
    """
    fires = []
    deadlines = []
    cancels = []
    handles = []

    def driver():
        for kind, arg in ops:
            if kind == "sched":
                i = len(handles)
                deadlines.append(sim.now + arg)
                handles.append(
                    sim.schedule_timer(
                        arg, lambda i=i: fires.append((i, sim.now)), owner="prop"
                    )
                )
            elif kind == "cancel":
                if handles:
                    h = handles[arg % len(handles)]
                    cancels.append((arg % len(handles), sim.now, h.fired))
                    h.cancel()
            else:
                yield sim.timeout(arg)
        yield sim.timeout(0)

    sim.process(driver(), name="driver")
    sim.run()
    return fires, deadlines, cancels


@settings(max_examples=150)
@given(_OPS)
def test_wheel_matches_naive_heap_reference(ops):
    """Differential: the wheel and the all-on-the-heap reference produce
    bit-identical fire logs and end at the same virtual time."""
    wheel = Simulator(seed=1, legacy_timers=False)
    w_fires, _, _ = _execute(wheel, ops)
    heap = Simulator(seed=1, legacy_timers=True)
    h_fires, _, _ = _execute(heap, ops)
    assert w_fires == h_fires
    assert wheel.now == heap.now


@settings(max_examples=150)
@given(_OPS)
def test_timers_fire_exactly_at_deadline_and_at_most_once(ops):
    sim = Simulator(seed=1, legacy_timers=False)
    fires, deadlines, _ = _execute(sim, ops)
    seen = set()
    for i, t in fires:
        assert t == deadlines[i], (
            f"timer {i} fired at {t!r}, deadline {deadlines[i]!r}"
        )
        assert i not in seen, f"timer {i} fired twice"
        seen.add(i)


@settings(max_examples=150)
@given(_OPS)
def test_fire_times_nondecreasing_and_run_drains_every_live_timer(ops):
    sim = Simulator(seed=1, legacy_timers=False)
    fires, deadlines, cancels = _execute(sim, ops)
    times = [t for _, t in fires]
    assert times == sorted(times)
    # Every timer either fired exactly once or was cancelled first;
    # run() must drain wheel buckets even after the heap goes empty.
    fired = {i for i, _ in fires}
    cancelled = {i for i, _, already_fired in cancels if not already_fired}
    for i, deadline in enumerate(deadlines):
        if i in fired:
            continue
        assert i in cancelled, f"live timer {i} (deadline {deadline}) never fired"


@settings(max_examples=150)
@given(_OPS)
def test_cancelled_before_deadline_never_fires(ops):
    sim = Simulator(seed=1, legacy_timers=False)
    fires, deadlines, cancels = _execute(sim, ops)
    fired = {i for i, _ in fires}
    for i, cancel_time, already_fired in cancels:
        if not already_fired and cancel_time < deadlines[i]:
            assert i not in fired, (
                f"timer {i} cancelled at {cancel_time} (deadline "
                f"{deadlines[i]}) fired anyway"
            )


def test_wheel_levels_cover_expected_spans():
    """Sanity-pin the constants the delay bands above are tuned to."""
    assert WHEEL_LEVELS >= 3
    # The coarsest level must cover every lease/retry horizon in the
    # tree (tens of seconds).
    assert WHEEL_GRANULARITY * WHEEL_FANOUT ** (WHEEL_LEVELS - 1) > 60.0


def test_wheel_mode_uses_the_wheel():
    """The two modes really are different code paths: by default a long
    timer lands in a wheel bucket, not on the heap; the naive reference
    pushes it straight onto the heap."""
    sim = Simulator(seed=1)
    sim.schedule_timer(1.0, lambda: None)
    assert any(sim._wheel[lvl] for lvl in range(len(sim._wheel)))
    legacy = Simulator(seed=1, legacy_timers=True)
    baseline = len(legacy._queue)
    legacy.schedule_timer(1.0, lambda: None)
    assert len(legacy._queue) == baseline + 1
