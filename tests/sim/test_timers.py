"""Property-based tests for cancellable kernel timers.

``Simulator.schedule_timer`` pushes every timer onto the one event
heap; ``cancel()`` only sets a flag and the kernel discards a cancelled
timer when it surfaces. These tests pin the contract that makes that
safe:

* a timer fires at *exactly* its deadline — never early, never twice;
* fire order is nondecreasing in time and ``run()`` drains every live
  timer;
* a timer cancelled before its deadline never fires;
* cancelled timers never widen an exploration scheduler's tie set;
* a cancelled timer at the heap head never lets ``run(until=t)`` fire
  it or move the clock past *t*.

Delays mix continuous values with a few whole numbers so that
same-timestamp ties occur.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Simulator

#: Continuous delays plus whole-second ones (which collide into ties).
_DELAYS = st.one_of(
    st.floats(min_value=0.0, max_value=100.0),
    st.integers(min_value=0, max_value=8).map(float),
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
def test_timers_fire_exactly_at_deadline_and_at_most_once(ops):
    sim = Simulator(seed=1)
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
    sim = Simulator(seed=1)
    fires, deadlines, cancels = _execute(sim, ops)
    times = [t for _, t in fires]
    assert times == sorted(times)
    # Every timer either fired exactly once or was cancelled first.
    fired = {i for i, _ in fires}
    cancelled = {i for i, _, already_fired in cancels if not already_fired}
    for i, deadline in enumerate(deadlines):
        if i in fired:
            continue
        assert i in cancelled, f"live timer {i} (deadline {deadline}) never fired"


@settings(max_examples=150)
@given(_OPS)
def test_cancelled_before_deadline_never_fires(ops):
    sim = Simulator(seed=1)
    fires, deadlines, cancels = _execute(sim, ops)
    fired = {i for i, _ in fires}
    for i, cancel_time, already_fired in cancels:
        if not already_fired and cancel_time < deadlines[i]:
            assert i not in fired, (
                f"timer {i} cancelled at {cancel_time} (deadline "
                f"{deadlines[i]}) fired anyway"
            )


class _RecordingScheduler:
    """Tie-breaker that logs every ``pick(now, n)`` and takes the last
    candidate (so a non-FIFO order is exercised)."""

    def __init__(self) -> None:
        self.picks = []

    def pick(self, now: float, n: int) -> int:
        self.picks.append((now, n))
        return n - 1


@settings(max_examples=150)
@given(st.lists(st.booleans(), min_size=1, max_size=20))
def test_cancelled_timers_never_widen_a_tie_set(live_flags):
    """k live and m cancelled timers due at one timestamp, interleaved in
    any insertion order: the scheduler is asked to choose among the k
    live ones only — k, then k-1, ... down to 2 — and only they fire."""
    sim = Simulator(seed=1)
    sched = _RecordingScheduler()
    sim.set_scheduler(sched)
    fired = []
    for i, live in enumerate(live_flags):
        handle = sim.schedule_timer(1.0, lambda i=i: fired.append(i))
        if not live:
            handle.cancel()
    sim.run()
    k = sum(live_flags)
    assert all(n <= k for _, n in sched.picks)
    assert [n for _, n in sched.picks] == list(range(k, 1, -1))
    assert sorted(fired) == [i for i, live in enumerate(live_flags) if live]


@pytest.mark.parametrize("explore", [False, True], ids=["fifo", "explore"])
@pytest.mark.parametrize("dead_at", [1.0, 3.0], ids=["before-t", "after-t"])
def test_run_until_never_overruns_a_cancelled_head(dead_at, explore):
    """A cancelled timer at the heap head, due before or after t, is
    neither fired by ``run(until=t)`` nor lets the clock pass t — with or
    without a tie-breaking scheduler, whose pop path hands a cancelled
    head straight back instead of popping on past t."""
    sim = Simulator(seed=1)
    if explore:
        sim.set_scheduler(_RecordingScheduler())
    fired = []
    sim.schedule_timer(dead_at, lambda: fired.append("dead")).cancel()
    sim.schedule_timer(4.0, lambda: fired.append("live"))
    sim.run(until=2.0)
    assert sim.now == 2.0 and fired == []
    assert sim.peek() == 4.0
    sim.run(until=3.5)
    assert sim.now == 3.5 and fired == []
    sim.run()
    assert sim.now == 4.0 and fired == ["live"]
