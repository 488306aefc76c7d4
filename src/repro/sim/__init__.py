"""Deterministic discrete-event simulation kernel.

This package is the substrate for the whole SNIPE reproduction: virtual
time, generator-coroutine processes, events, resources, and seeded random
streams. Everything above it (network, transports, SNIPE services) is a
deterministic function of the master seed.

The programming model follows the classic process-interaction style
(cf. SimPy): a *process* is a Python generator that ``yield``\\ s events;
the kernel resumes it when the event fires.

Example
-------
>>> from repro.sim import Simulator
>>> sim = Simulator()
>>> log = []
>>> def proc(sim):
...     yield sim.timeout(5)
...     log.append(sim.now)
>>> _ = sim.process(proc(sim))
>>> sim.run()
>>> log
[5.0]
"""

from repro.sim.errors import Interrupt, SimulationError
from repro.sim.events import AllOf, AnyOf, Event, Timeout, defuse, waker
from repro.sim.kernel import Simulator, TimerHandle
from repro.sim.process import Process
from repro.sim.resources import Gate, Resource, Store
from repro.sim.rng import RngRegistry

__all__ = [
    "AllOf",
    "AnyOf",
    "Event",
    "Gate",
    "Interrupt",
    "Process",
    "Resource",
    "RngRegistry",
    "SimulationError",
    "Simulator",
    "Store",
    "Timeout",
    "TimerHandle",
    "defuse",
    "waker",
]
