"""Event primitives for the simulation kernel.

An :class:`Event` has three states: *pending* (created, not yet triggered),
*triggered* (a value or failure has been set and it is scheduled on the
event queue), and *processed* (its callbacks have run). Processes wait on
events by ``yield``-ing them; the kernel resumes the process with the
event's value, or throws the event's exception into it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable, List, Optional

from repro.sim.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator

_PENDING = object()


class Event:
    """A one-shot occurrence in virtual time.

    Callbacks are invoked exactly once, in registration order, when the
    kernel pops the triggered event from its queue.
    """

    __slots__ = ("sim", "callbacks", "_value", "_exc", "_processed")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._exc: Optional[BaseException] = None
        self._processed = False

    # -- state ---------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once a value/failure has been set."""
        return self._value is not _PENDING or self._exc is not None

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self._processed

    @property
    def ok(self) -> bool:
        """True if the event succeeded (valid only once triggered)."""
        if not self.triggered:
            raise SimulationError("event not yet triggered")
        return self._exc is None

    @property
    def value(self) -> Any:
        """The success value, or raises the failure exception."""
        if self._exc is not None:
            raise self._exc
        if self._value is _PENDING:
            raise SimulationError("event not yet triggered")
        return self._value

    # -- triggering ----------------------------------------------------
    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Trigger the event successfully, scheduling callbacks after *delay*."""
        if self.triggered:
            raise SimulationError(f"{self!r} already triggered")
        self._value = value
        self.sim._schedule(self, delay)
        return self

    def fail(self, exc: BaseException, delay: float = 0.0) -> "Event":
        """Trigger the event as failed with exception *exc*."""
        if self.triggered:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exc, BaseException):
            raise SimulationError(f"fail() needs an exception, got {exc!r}")
        self._exc = exc
        self.sim._schedule(self, delay)
        return self

    # -- callbacks -----------------------------------------------------
    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        """Run *fn(event)* when the event is processed (immediately if already)."""
        if self._processed:
            fn(self)
        else:
            assert self.callbacks is not None
            self.callbacks.append(fn)

    def remove_callback(self, fn: Callable[["Event"], None]) -> None:
        if self.callbacks is not None and fn in self.callbacks:
            self.callbacks.remove(fn)

    def _process(self) -> None:
        """Invoked by the kernel: run callbacks once."""
        if self._processed:
            return
        self._processed = True
        callbacks, self.callbacks = self.callbacks, None
        if callbacks:
            for fn in callbacks:
                fn(self)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = (
            "processed" if self._processed else "triggered" if self.triggered else "pending"
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


def waker(event: Event) -> Callable[..., None]:
    """A fire-once closure that succeeds *event* (if still pending).

    Registerable both as an event callback and as a kernel timer
    callback, which is what the transports' wait sites need: the first
    of "reply arrived" / "timer expired" wakes the waiting process, the
    second finds the event already triggered and does nothing. This
    replaces the per-wait ``any_of([reply, timeout(rto)])`` pattern —
    no Condition allocation, and the loser timer is *cancelled* instead
    of left to fire through the heap.
    """

    def _fire(*_args) -> None:
        if event._value is _PENDING and event._exc is None:
            event.succeed()

    return _fire


def defuse(event: Event) -> Event:
    """Mark a failure-capable event as observed.

    A process that fails with no callbacks registered is treated as an
    uncaught background crash and aborts ``run()`` in strict mode; fire-and
    -forget senders (e.g. RPC replies to a host that died) attach this noop
    observer to say "failure here is expected and handled elsewhere".
    """
    event.add_callback(_noop)
    return event


def _noop(_event: Event) -> None:
    return None


class Timeout(Event):
    """An event that fires after a fixed virtual-time delay."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay!r}")
        super().__init__(sim)
        self.delay = float(delay)
        self._value = value
        sim._schedule(self, delay)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Timeout delay={self.delay}>"


class Condition(Event):
    """Composite event over several child events.

    Fires when ``evaluate(children, n_done)`` returns True; its value is a
    dict mapping each *triggered* child to its value. A failing child fails
    the condition immediately.
    """

    __slots__ = ("_events", "_done")

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        super().__init__(sim)
        self._events = list(events)
        self._done = 0
        for ev in self._events:
            if ev.sim is not sim:
                raise SimulationError("condition mixes events from different simulators")
        if not self._events:
            self.succeed({})
            return
        for ev in self._events:
            ev.add_callback(self._on_child)

    def _evaluate(self, n_events: int, n_done: int) -> bool:
        raise NotImplementedError

    def _on_child(self, ev: Event) -> None:
        if self.triggered:
            return
        if not ev.ok:
            # Propagate the first child failure.
            self.fail(ev._exc)  # type: ignore[arg-type]
            return
        self._done += 1
        if self._evaluate(len(self._events), self._done):
            # Only children whose callbacks have run count as "arrived":
            # a Timeout is triggered (scheduled) from birth but has not
            # occurred until the kernel processes it.
            self.succeed({e: e._value for e in self._events if e.processed and e.ok})


class AllOf(Condition):
    """Fires when every child event has fired."""

    __slots__ = ()

    def _evaluate(self, n_events: int, n_done: int) -> bool:
        return n_done == n_events


class AnyOf(Condition):
    """Fires when at least one child event has fired."""

    __slots__ = ()

    def _evaluate(self, n_events: int, n_done: int) -> bool:
        return n_done >= 1
