"""Generator-coroutine processes.

A :class:`Process` drives a generator: each ``yield``-ed :class:`Event`
suspends the process until the event fires, at which point the generator
is resumed with the event's value (or the event's exception is thrown in).
A Process is itself an Event that fires with the generator's return value
when it exits, so processes can wait on each other with ``yield proc``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.sim.errors import Interrupt, SimulationError
from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator


class Process(Event):
    """A running simulation process wrapping a generator."""

    __slots__ = ("gen", "name", "_target", "_resume_pending")

    def __init__(
        self, sim: "Simulator", gen: Generator[Event, Any, Any], name: str = ""
    ) -> None:
        if not hasattr(gen, "send") or not hasattr(gen, "throw"):
            raise SimulationError(f"process body must be a generator, got {gen!r}")
        super().__init__(sim)
        self.gen = gen
        self.name = name or getattr(gen, "__name__", "process")
        self._target: Optional[Event] = None
        # Kick off at the current simulation time via an initialisation event.
        init = Event(sim)
        init._value = None
        sim._schedule(init, 0.0)
        init.add_callback(self._resume)
        self._target = init

    @property
    def is_alive(self) -> bool:
        """True while the generator has not exited."""
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting a dead process is an error; interrupting a process
        that is about to be resumed is allowed (the interrupt wins).
        """
        if not self.is_alive:
            raise SimulationError(f"cannot interrupt dead process {self.name!r}")
        if self._target is self:
            raise SimulationError("process cannot interrupt itself")
        # Detach from the current target so its firing no longer resumes us.
        if self._target is not None:
            self._target.remove_callback(self._resume)
            self._target = None
        ev = Event(self.sim)
        ev._exc = Interrupt(cause)
        self.sim._schedule(ev, 0.0)
        ev.add_callback(self._resume)
        self._target = ev

    def _resume(self, event: Event) -> None:
        """Advance the generator with the outcome of *event*."""
        self.sim._active_process = self
        self._target = None
        try:
            if event._exc is not None:
                next_ev = self.gen.throw(event._exc)
            else:
                next_ev = self.gen.send(event._value)
        except StopIteration as stop:
            self.sim._active_process = None
            self.succeed(stop.value)
            return
        except BaseException as exc:
            self.sim._active_process = None
            self.fail(exc)
            if self.sim.strict_process_errors and not self.callbacks:
                # Nobody is waiting on this process: surface the error at
                # run() rather than letting a background crash pass silently.
                self.sim._crashed.append((self, exc))
            return
        finally:
            self.sim._active_process = None

        if not isinstance(next_ev, Event):
            exc = SimulationError(
                f"process {self.name!r} yielded non-event {next_ev!r}"
            )
            self.gen.close()
            self.fail(exc)
            self.sim._crashed.append((self, exc))
            return
        self._target = next_ev
        next_ev.add_callback(self._resume)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "dead" if self.triggered else "alive"
        return f"<Process {self.name!r} {state}>"
