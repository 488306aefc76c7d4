"""Shared resources: stores (bounded queues), semaphores and broadcast
gates. These are the synchronisation vocabulary used by the network and
SNIPE service layers.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Deque, List, Tuple

from repro.sim.errors import SimulationError
from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator


class Store:
    """FIFO queue of items with optional capacity.

    ``put(item)`` and ``get()`` return events; a put blocks while the store
    is full, a get blocks while it is empty.
    """

    def __init__(self, sim: "Simulator", capacity: float = float("inf")) -> None:
        if capacity <= 0:
            raise SimulationError("store capacity must be positive")
        self.sim = sim
        self.capacity = capacity
        self.items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._putters: Deque[Tuple[Event, Any]] = deque()

    def __len__(self) -> int:
        return len(self.items)

    @property
    def full(self) -> bool:
        return len(self.items) >= self.capacity

    def put(self, item: Any) -> Event:
        ev = Event(self.sim)
        # Fast paths preserve _dispatch()'s order exactly (put admitted
        # first, then the getter satisfied) without the scan: with no
        # queued putters a waiting getter implies an empty store, and a
        # non-full store with no getters just appends.
        if not self._putters:
            if self._getters and not self.items:
                ev.succeed()
                self._getters.popleft().succeed(item)
                return ev
            if not self.full and not self._getters:
                self.items.append(item)
                ev.succeed()
                return ev
        self._putters.append((ev, item))
        self._dispatch()
        return ev

    def try_put(self, item: Any) -> bool:
        """Non-blocking put; False if the store is full."""
        if self.full and not self._getters:
            return False
        self.put(item)
        return True

    def get(self) -> Event:
        ev = Event(self.sim)
        if not self._putters:
            if self.items and not self._getters:
                ev.succeed(self.items.popleft())
            else:
                self._getters.append(ev)
            return ev
        self._getters.append(ev)
        self._dispatch()
        return ev

    def try_get(self) -> Tuple[bool, Any]:
        """Non-blocking get; (False, None) if nothing immediately available."""
        if not self.items and not self._putters:
            return False, None
        if self.items:
            item = self.items.popleft()
            self._dispatch()
            return True, item
        # A putter is waiting but the item hasn't been admitted yet.
        ev, item = self._putters.popleft()
        ev.succeed()
        return True, item

    # -- internals -------------------------------------------------------
    def _dispatch(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            # Admit queued puts while there is room.
            while self._putters and not self.full:
                ev, item = self._putters.popleft()
                self.items.append(item)
                ev.succeed()
                progressed = True
            # Satisfy queued gets while there are items.
            while self._getters and self.items:
                ev = self._getters.popleft()
                ev.succeed(self.items.popleft())
                progressed = True


class Resource:
    """Counting semaphore: at most *capacity* concurrent holders."""

    def __init__(self, sim: "Simulator", capacity: int = 1) -> None:
        if capacity < 1:
            raise SimulationError("resource capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self.in_use = 0
        self._waiters: Deque[Event] = deque()

    def request(self) -> Event:
        """Event that fires when a slot is granted."""
        ev = Event(self.sim)
        if self.in_use < self.capacity:
            self.in_use += 1
            ev.succeed()
        else:
            self._waiters.append(ev)
        return ev

    def release(self) -> None:
        if self.in_use <= 0:
            raise SimulationError("release without matching request")
        if self._waiters:
            self._waiters.popleft().succeed()
        else:
            self.in_use -= 1


class Gate:
    """Broadcast signal: many waiters, one ``open()`` wakes them all.

    Unlike an Event, a Gate is reusable: after opening it can be reset and
    waited on again. Used for "state changed" notifications.
    """

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self.is_open = False
        self._waiters: List[Event] = []

    def wait(self) -> Event:
        ev = Event(self.sim)
        if self.is_open:
            ev.succeed()
        else:
            self._waiters.append(ev)
        return ev

    def open(self, value: Any = None) -> None:
        self.is_open = True
        waiters, self._waiters = self._waiters, []
        for ev in waiters:
            ev.succeed(value)

    def reset(self) -> None:
        self.is_open = False

    def pulse(self, value: Any = None) -> None:
        """Wake current waiters without leaving the gate open."""
        waiters, self._waiters = self._waiters, []
        for ev in waiters:
            ev.succeed(value)
