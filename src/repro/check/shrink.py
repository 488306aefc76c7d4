"""Failing-schedule shrinking: delta-debug the fault plan, drop the
tie permutation when it is not needed, emit a replayable trace.

A failing check run is described by (scenario, seed, bug, fault plan,
explore flag) — all explicit, all serializable. Shrinking asks the only
question that matters for debugging: *which of these ingredients does
the failure actually need?* The ddmin pass removes fault events while
the run still fails; a final pass retries without schedule permutation.
The result is a minimized trace (JSON) that ``python -m repro check
replay`` re-runs deterministically.
"""

from __future__ import annotations

import json
from typing import Callable, Dict, List, Optional, Sequence

from repro.check.scenarios import run_check
from repro.net.failures import FaultEvent

TRACE_VERSION = 2


def ddmin(items: Sequence, failing: Callable[[List], bool]) -> List:
    """Zeller's delta-debugging minimization.

    Returns a sublist of *items* (order preserved) on which *failing*
    still returns True, locally minimal in the sense that removing any
    single remaining chunk at the finest granularity makes the failure
    disappear. *failing* must be deterministic; it is assumed True for
    the full list.
    """
    items = list(items)
    n = 2
    while len(items) >= 2:
        chunk = (len(items) + n - 1) // n
        reduced = False
        for i in range(0, len(items), chunk):
            complement = items[:i] + items[i + chunk:]
            if complement and failing(complement):
                items = complement
                n = max(2, n - 1)
                reduced = True
                break
        if not reduced:
            if n >= len(items):
                break
            n = min(len(items), n * 2)
    if len(items) == 1 and failing([]):
        items = []
    return items


def minimize(
    scenario: str,
    seed: int,
    bug: Optional[str],
    plan: List[FaultEvent],
    explore: bool = True,
    params: Optional[Dict] = None,
    log: Optional[Callable[[str], None]] = None,
) -> Dict:
    """Shrink a failing run to its minimal fault plan.

    Returns ``{"plan", "explore", "report", "runs"}`` where ``plan`` is
    the minimized :class:`FaultEvent` list, ``explore`` says whether tie
    permutation is still required to fail, ``report`` is the final
    failing run's report, and ``runs`` counts the check runs spent.
    Raises ``ValueError`` if the original configuration does not fail
    (nothing to shrink — a non-reproducible report upstream).
    """
    params = dict(params or {})
    counter = {"runs": 0}
    say = log or (lambda _msg: None)

    def attempt(candidate: List[FaultEvent], expl: bool) -> Dict:
        counter["runs"] += 1
        return run_check(scenario=scenario, seed=seed, bug=bug,
                         plan=list(candidate), explore=expl, **params)

    base = attempt(plan, explore)
    if base["ok"]:
        raise ValueError("original run does not fail; nothing to minimize")
    say(f"shrinking: {len(plan)} fault events, explore={explore}")

    best = {"report": base}

    def failing(candidate: List[FaultEvent]) -> bool:
        report = attempt(candidate, explore)
        if not report["ok"]:
            best["report"] = report
            return True
        return False

    min_plan = ddmin(plan, failing)
    say(f"ddmin: {len(plan)} -> {len(min_plan)} fault events "
        f"({counter['runs']} runs)")

    final_explore = explore
    if explore:
        report = attempt(min_plan, False)
        if not report["ok"]:
            final_explore = False
            best["report"] = report
            say("tie permutation not needed: fails on the FIFO schedule too")

    return {
        "plan": list(min_plan),
        "explore": final_explore,
        "report": best["report"],
        "runs": counter["runs"],
    }


# ---------------------------------------------------------------------------
# Trace files
# ---------------------------------------------------------------------------

def write_trace(path: str, report: Dict) -> None:
    """Serialize a (minimized) failing run so ``check replay`` can re-run it.

    *report* is a :func:`run_check` report; everything needed to
    reproduce — scenario, seed, bug, explore flag, workload parameters,
    and the explicit fault plan — is copied into the trace along with
    the violation it produced.
    """
    trace = {
        "version": TRACE_VERSION,
        "scenario": report["scenario"],
        "seed": report["seed"],
        "bug": report.get("bug"),
        "explore": report["explore"],
        "params": report["params"],
        "plan": report["plan"],
        "violations": report["violations"],
    }
    with open(path, "w") as fh:
        json.dump(trace, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_trace(path: str) -> Dict:
    with open(path) as fh:
        trace = json.load(fh)
    if trace.get("version") != TRACE_VERSION:
        raise ValueError(f"{path}: unsupported trace version {trace.get('version')!r}")
    return trace


def replay_trace(trace: Dict) -> Dict:
    """Re-run the exact configuration a trace describes."""
    return run_check(
        scenario=trace["scenario"],
        seed=trace["seed"],
        bug=trace.get("bug"),
        plan=[FaultEvent.from_dict(d) for d in trace["plan"]],
        explore=trace["explore"],
        **trace["params"],
    )
