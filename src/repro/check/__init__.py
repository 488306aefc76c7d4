"""repro.check — the deterministic simulator as a model checker.

The simulator already makes every run a pure function of its seed; this
package adds the three missing pieces of a model checker on top of it:

* **schedule exploration** — :class:`ExplorationScheduler` plugs into
  :meth:`repro.sim.kernel.Simulator.set_scheduler` and permutes
  same-timestamp event ties from a seed, so one integer fully determines
  a schedule and different integers genuinely explore different
  interleavings (priorities are never reordered);
* **reference-model oracles** — small, obviously-correct models checked
  *continuously* against the real implementation through the kernel's
  probe bus (:mod:`repro.robust.oracles`, re-exported here): one LWW-map
  model of every catalog replica (:class:`CatalogOracle`, filing
  ``lww-convergence``, ``no-resurrection``, ``compaction-convergence``
  and ``shard-ownership``), an exactly-once/FIFO model for URN-addressed
  message streams (:class:`DeliveryOracle`), a single-owner model for
  Guardian restarts (:class:`SingleOwnerOracle`), and the
  scenario-specific rest. They live below this package because every
  scenario run carries them, chaos runs included;
* **search and shrinking** — :func:`run_check` runs a scenario's one
  runner under its check profile with a seeded fault plan and an
  explored schedule; ``python -m repro check sweep`` searches seeds; on
  a violation, :func:`minimize` delta-debugs the fault plan (and drops
  the tie permutation when it is not needed) down to a minimized trace
  that ``python -m repro check replay`` re-fails deterministically.

Deliberately seeded bugs (``--bug``, see :data:`BUGS`) exist to prove
the oracles can catch what they claim to catch.
"""

from repro.check.explore import BUGS, ExplorationScheduler, seeded_bug
from repro.check.scenarios import SCENARIOS, run_check, sample_fault_plan
from repro.check.shrink import ddmin, load_trace, minimize, replay_trace, write_trace
from repro.net.failures import FaultEvent
from repro.robust.oracles import (
    CatalogOracle,
    DeliveryOracle,
    LwwMap,
    ProbeBus,
    SingleOwnerOracle,
    Violation,
    lww_merge,
)

__all__ = [
    "BUGS",
    "CatalogOracle",
    "DeliveryOracle",
    "ExplorationScheduler",
    "FaultEvent",
    "LwwMap",
    "ProbeBus",
    "SCENARIOS",
    "SingleOwnerOracle",
    "Violation",
    "ddmin",
    "load_trace",
    "lww_merge",
    "minimize",
    "replay_trace",
    "run_check",
    "sample_fault_plan",
    "seeded_bug",
    "write_trace",
]
