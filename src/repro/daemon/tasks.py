"""Task model: specs, states, program registry, and the task context.

A "program" is a registered generator function ``prog(ctx, **params)``;
spawning creates a :class:`TaskInfo` and runs the program as a simulation
process under the host daemon's supervision. The :class:`TaskContext`
gives programs their window on the world: virtual CPU consumption (with
quota enforcement), signals, notifications, and suspend/resume — the
richer SNIPE client-library context in :mod:`repro.core` extends it with
messaging, metadata, spawning and migration.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, Generator, Optional

from repro.rcds import uri as uri_mod
from repro.sim.resources import Gate, Store

if TYPE_CHECKING:  # pragma: no cover
    from repro.daemon.daemon import SnipeDaemon
    from repro.sim.kernel import Simulator

_task_seq = itertools.count(1)


class TaskState:
    """Lifecycle states, as reported in RC process metadata (§5.2.3)."""

    PENDING = "pending"
    RUNNING = "running"
    SUSPENDED = "suspended"
    EXITED = "exited"
    FAILED = "failed"
    KILLED = "killed"
    MIGRATED = "migrated"

    TERMINAL = frozenset({EXITED, FAILED, KILLED, MIGRATED})


class QuotaExceeded(Exception):
    """A task exceeded its CPU or memory quota (§3.3: quota violations)."""


@dataclass
class TaskSpec:
    """What to run and what it needs (§5.5's environment specification)."""

    program: str
    params: Dict[str, Any] = field(default_factory=dict)
    #: Requirements matched against host metadata by daemons/RMs.
    arch: Optional[str] = None
    os: Optional[str] = None
    min_memory: float = 0.0
    #: Quotas: the supervising daemon enforces the CPU one, a playground
    #: the memory one (its VM's cell budget, §3.6).
    cpu_quota: Optional[float] = None
    memory_quota: Optional[float] = None
    #: Optional explicit name stem for the URN.
    name: Optional[str] = None
    #: Checkpointed state to resume from (migration/restart).
    initial_state: Optional[Dict[str, Any]] = None
    #: Mobile code requires a playground (§3.6): signed code reference.
    mobile_code: Optional[str] = None
    owner: Optional[str] = None
    #: Keep this URN across a migration instead of minting a new one —
    #: the paper's processes keep their distinguished URN when they move.
    urn_override: Optional[str] = None
    #: Guardian respawn: the spawning daemon quorum-writes a fresh
    #: ``fenced-below: N`` and starts the task *as incarnation N*, unless
    #: a sibling drew higher (``SnipeDaemon._spawn_fenced``). Never set
    #: for migration — the moved task keeps its incarnation.
    fence_predecessors: bool = False


@dataclass
class TaskInfo:
    """Supervision record the daemon keeps per task."""

    urn: str
    spec: TaskSpec
    host: str
    state: str = TaskState.PENDING
    exit_value: Any = None
    error: str = ""
    cpu_used: float = 0.0
    memory_used: float = 0.0
    started_at: float = 0.0
    ended_at: Optional[float] = None
    #: True when this instance was terminated because a newer incarnation
    #: superseded it (Guardian fencing). Fenced deaths are never published
    #: to RC — the catalog already names the successor, and a later write
    #: from the corpse would win the last-writer-wins race and advertise a
    #: dead location.
    fenced: bool = False
    #: The incarnation a fenced respawn reserved (its fence), else None.
    incarnation: Optional[int] = None


def new_task_urn(spec: TaskSpec, host: str, sim: Optional["Simulator"] = None) -> str:
    """Mint a URN for a new task.

    When *sim* is given the sequence number comes from that simulation's
    own counter, so identical runs mint identical URNs regardless of what
    ran earlier in the process — URN text feeds the Guardians' hash
    sharding, so this is a behavioural requirement for replayable runs,
    not cosmetics. The module-global counter remains as a fallback for
    sim-less callers.
    """
    if spec.urn_override is not None:
        return spec.urn_override
    stem = spec.name or spec.program
    seq = sim.sequence("task-urn") if sim is not None else next(_task_seq)
    return uri_mod.process_urn(f"{stem}.{seq}")


class ProgramRegistry:
    """Name → generator-function registry of runnable programs.

    The same registry backs ordinary spawns and (via signed code
    references) playground execution of mobile code.
    """

    def __init__(self) -> None:
        self._programs: Dict[str, Callable[..., Generator]] = {}

    def register(self, name: str, fn: Callable[..., Generator]) -> None:
        if name in self._programs:
            raise ValueError(f"program {name!r} already registered")
        self._programs[name] = fn

    def get(self, name: str) -> Callable[..., Generator]:
        fn = self._programs.get(name)
        if fn is None:
            raise KeyError(f"unknown program {name!r}")
        return fn

    def __contains__(self, name: str) -> bool:
        return name in self._programs


class TaskContext:
    """Execution context handed to a running program.

    Programs interact with the simulator exclusively through their
    context; ``yield ctx.compute(t)`` consumes virtual CPU (respecting the
    host's speed, suspension, and the task's quota), ``yield
    ctx.next_signal()`` waits for asynchronous signals, and
    ``ctx.checkpoint_state`` is where migratable programs keep state the
    daemon may capture.
    """

    def __init__(self, daemon: "SnipeDaemon", info: TaskInfo) -> None:
        self.daemon = daemon
        self.info = info
        self.sim: "Simulator" = daemon.sim
        self.host = daemon.host
        self.urn = info.urn
        self.signals: Store = Store(self.sim)
        self.notifications: Store = Store(self.sim)
        self._resume_gate = Gate(self.sim)
        self._resume_gate.open()
        #: Programs that support checkpoint/migration keep their state here.
        self.checkpoint_state: Dict[str, Any] = dict(info.spec.initial_state or {})

    # -- CPU ----------------------------------------------------------------
    def compute(self, cpu_seconds: float):
        """Consume CPU; returns an event to yield on."""
        return self.sim.process(self._compute(cpu_seconds), name=f"compute:{self.urn}")

    def _compute(self, cpu_seconds: float):
        # Wait out any suspension first (§3.3 task management).
        yield self._resume_gate.wait()
        wall = cpu_seconds / self.host.cpu_speed
        yield self.sim.timeout(wall)
        self.info.cpu_used += cpu_seconds
        quota = self.info.spec.cpu_quota
        if quota is not None and self.info.cpu_used > quota:
            self.daemon.log_violation(self.urn, "cpu-quota")
            raise QuotaExceeded(f"{self.urn}: cpu {self.info.cpu_used:.3f}s > quota {quota}s")

    # -- signals & notifications -----------------------------------------------
    def next_signal(self):
        """Event yielding the next asynchronous signal (§3.3)."""
        return self.signals.get()

    def next_notification(self):
        """Event yielding the next state-change notification (§5.2.3)."""
        return self.notifications.get()

    # -- suspension (driven by the daemon) -------------------------------------
    def _suspend(self) -> None:
        self._resume_gate.reset()

    def _resume(self) -> None:
        self._resume_gate.open()

    def sleep(self, seconds: float):
        """Plain wall-clock sleep (no CPU accounting)."""
        return self.sim.timeout(seconds)
