"""The run protocol: repeats of *setup phase -> measured phase*.

One run executes the same seeded workload several times in one process.
Host-clock numbers (set-up and measured wall seconds) are reported as
the median over the repeats; virtual-clock numbers and counts come from
a deterministic simulator, so they must be bit-identical on every repeat
and the run fails as non-deterministic when they are not.
"""

from __future__ import annotations

import gc
import hashlib
import math
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

#: Fewest repeats a run may report a median over.
MIN_REPEATS = 5
#: Most repeats one run makes, however short its measured phases are.
MAX_REPEATS = 9
#: Fewest samples for which ``virt_op_p99_ms`` is printed and compared;
#: below it the slowest op sets ``virt_makespan_s`` anyway.
P99_MIN_N = 1000


@dataclass
class Outcome:
    """What one measured phase produced, on the virtual clock and in counts."""

    attempted: int
    failed: int
    #: Virtual latency (seconds) of every primary op that completed.
    latencies: List[float]
    #: Virtual seconds from the first op issued to the last op checked.
    makespan: float
    #: Correctness-check failures; empty means every output was right.
    problems: List[str] = field(default_factory=list)
    #: Other deterministic facts that must repeat exactly (op counts...).
    facts: Dict[str, Any] = field(default_factory=dict)

    def digest(self) -> str:
        """Hash of everything that must be identical across same-seed
        repeats: counts, makespan and every op latency, to the last bit."""
        facts = (self.attempted, self.failed, self.makespan,
                 tuple(self.latencies), tuple(sorted(self.facts.items())))
        return hashlib.sha256(repr(facts).encode()).hexdigest()


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (*q* in 0..1) of *values*; 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))]


def spread(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and sample count of host-clock *values*."""
    out = {"median": statistics.median(values), "n": len(values)}
    if len(values) >= 2:
        q1, _q2, q3 = statistics.quantiles(values, n=4)
        out["q1"], out["q3"] = q1, q3
    else:
        out["q1"] = out["q3"] = out["median"]
    return out


def peak_rss_mb() -> float:
    """Peak resident set of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_once(workload, inputs, around_measure: Optional[Callable] = None):
    """One repeat: returns ``(setup_s, wall_s, outcome)``.

    *around_measure(site, measure)* lets the traced pass wrap the
    measured phase; it must call ``measure()`` and return its outcome.
    """
    gc.collect()
    t0 = time.perf_counter()
    site = workload.setup(inputs)
    setup_s = time.perf_counter() - t0
    # Park the site in the permanent generation for the measured phase, so
    # collections during it walk only what the phase allocates. Re-walking
    # the whole static site is the most cache-sensitive work in the
    # process: with it, same-seed wall_s swung 23 % between runs with the
    # box's memory regime; without it, 8 %.
    gc.collect()
    gc.freeze()
    try:
        if around_measure is None:
            t1 = time.perf_counter()
            outcome = workload.measure(site, inputs)
            t2 = time.perf_counter()
        else:
            t1, outcome, t2 = around_measure(site, lambda: workload.measure(site, inputs))
    finally:
        gc.unfreeze()
    return setup_s, t2 - t1, outcome


def run_repeats(workload, seed: int, seconds: float, quick: bool = False) -> Dict[str, Any]:
    """The untraced run: repeat until *seconds* of measured phase have
    accumulated, at least :data:`MIN_REPEATS` and at most
    :data:`MAX_REPEATS` times, and summarise."""
    inputs = workload.generate(seed, quick)
    setup_s, wall_s, first = run_once(workload, inputs)
    setups, walls, digests = [setup_s], [wall_s], {first.digest()}
    while len(walls) < MIN_REPEATS or (sum(walls) < seconds and len(walls) < MAX_REPEATS):
        setup_s, wall_s, outcome = run_once(workload, inputs)
        setups.append(setup_s)
        walls.append(wall_s)
        digests.add(outcome.digest())
    problems = list(first.problems)
    if len(digests) > 1:
        problems.append("non-deterministic: virtual metrics or counts differ between "
                        "same-seed repeats")
    lat = first.latencies
    return {
        "workload": workload.name,
        "seed": seed,
        "quick": quick,
        "attempted": first.attempted,
        "failed": first.failed,
        "correct": not problems,
        "problems": problems,
        "host": {"setup_s": setups, "wall_s": walls},
        "facts": first.facts,
        "virtual_digest": first.digest(),
        "end_to_end": {
            "setup_s": {"unit": "s", "clock": "host", **spread(setups)},
            "wall_s": {"unit": "s", "clock": "host", **spread(walls)},
            "peak_rss_mb": {"unit": "MB", "clock": "host", "value": peak_rss_mb()},
            "virt_makespan_s": {"unit": "s", "clock": "virtual", "value": first.makespan},
            "virt_op_p50_ms": {"unit": "ms", "clock": "virtual", "n": len(lat),
                               "value": percentile(lat, 0.50) * 1e3},
            "virt_op_p99_ms": {"unit": "ms", "clock": "virtual", "n": len(lat),
                               "value": percentile(lat, 0.99) * 1e3},
            "ops_failed_ratio": {"unit": "ratio", "clock": "count",
                                 "value": first.failed / max(first.attempted, 1)},
        },
    }


def value_of(metric: Dict[str, Any]) -> float:
    """The single number a metric row reports (a median for host times)."""
    return metric["median"] if "median" in metric else metric["value"]
