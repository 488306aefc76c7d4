"""The scenario table: the one place a scenario is declared.

Every consumer of a scenario — the ``chaos`` and ``check`` CLIs, ``obs
profile``, CI's loops — looks it up in :data:`SCENARIOS` by name;
nothing else dispatches on a scenario name. An entry is a record of
plain functions, all of which run through
:func:`repro.robust.spine.run_spine`:

* ``chaos`` — the seeded chaos run (imperative fault schedule,
  quiescent verdicts): the public ``run_*`` function itself. Called, it
  returns the report; ``chaos.run(...)`` returns the whole
  :class:`~repro.robust.spine.Run` (report + sim).
* ``check`` — the scenario under the model checker (explicit fault plan,
  explored schedule, continuous oracles); ``plan`` samples that fault
  plan from a seed; ``bugs`` are the seeded bugs its oracles must catch.
* ``render`` / ``sweep_line`` / ``check_line`` — the full chaos report
  and the one-line chaos and check summaries; ``flags`` — the
  scenario-specific ``chaos`` CLI flags it takes (any other is a usage
  error, see :func:`chaos_kwargs`); ``profile`` — its ``obs profile``
  preset.

Adding a scenario is one entry here plus the functions it names. The
module lives in :mod:`repro.check` because that package already sits on
top of :mod:`repro.robust`.
"""

from __future__ import annotations

import argparse
import inspect
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.check import explore as ck
from repro.check.explore import BUGS, FaultEvent, sample_plan, seeded_bug
from repro.robust import chaos


@dataclass(frozen=True)
class Scenario:
    blurb: str
    chaos: Callable[..., Dict]
    render: Callable[[Dict], str]
    sweep_line: Callable[[Dict], str]
    flags: Tuple[str, ...]
    check: Callable[..., Dict]
    plan: Callable[..., List[FaultEvent]]
    check_line: Callable[[Dict], str] = ck.describe_check
    bugs: Tuple[str, ...] = ()
    profile: Dict[str, Any] = field(default_factory=dict)
    #: Most ``--workers`` the CLIs accept (None: no limit).
    max_workers: Optional[int] = None


#: Scenario-specific ``chaos run|sweep`` flags: flag -> (runner kwarg,
#: the type a valued flag parses *or* the bool a bare switch sets, help).
#: An entry's ``flags`` picks from these; a flag left unset is not
#: passed, so every default is the runner's own signature default.
CHAOS_FLAGS: Dict[str, Tuple[str, Any, str]] = {
    "workers": ("n_workers", int, "worker hosts"),
    "steps": ("total", int, "work units per task"),
    "duration": ("duration", float, "simulated-seconds budget"),
    "no-churn": ("churn", False, "disable host crash/churn"),
    "no-partitions": ("partitions", False,
                      "disable segment partitions (no zombie scenarios)"),
    "saturation": ("saturation", float,
                   "offered load as a multiple of site capacity"),
    "static": ("adaptive", False,
               "baseline: fixed timeouts, no breakers, no priority lanes"),
    "heartbeat-only": ("differential", False,
                       "baseline: health boards inert, Guardian trusts "
                       "lapsed leases without probing"),
    "unbounded": ("bounded", False,
                  "baseline: legacy single-blob rc.sync on the control "
                  "lane, no compaction, no payload bound"),
    "blackout": ("blackout", True,
                 "crash all three replicas at once instead of "
                 "partitioning; the catalog must come back from the "
                 "durable snapshots + journals"),
}

SCENARIOS: Dict[str, Scenario] = {
    "faults": Scenario(
        blurb="crash/partition chaos over the checkpointing workload "
              "(default)",
        chaos=chaos.run_chaos,
        render=chaos.format_report,
        sweep_line=chaos.sweep_faults,
        flags=("workers", "steps", "duration", "no-churn", "no-partitions"),
        check=ck.check_faults,
        plan=ck.plan_faults,
        bugs=("no-fence-write", "no-rx-fencing", "no-lww"),
        profile={"duration": 60.0, "total": 30},
    ),
    "overload": Scenario(
        blurb="bulk saturation plus congestion and CPU starvation, no "
              "crashes",
        chaos=chaos.run_overload,
        render=chaos.format_overload_report,
        sweep_line=chaos.sweep_overload,
        flags=("workers", "duration", "saturation", "static"),
        check=ck.check_overload,
        plan=ck.plan_overload,
        profile={"duration": 24.0, "saturation": 3.0},
    ),
    "bulk": Scenario(
        blurb="relay-tree distribution with mid-transfer kills (check: a "
              "poisoned source and crashing fetchers)",
        chaos=chaos.run_bulk_chaos,
        render=chaos.format_bulk_report,
        sweep_line=chaos.sweep_bulk,
        flags=("duration",),
        check=ck.check_bulk,
        plan=ck.plan_bulk,
        bugs=("no-chunk-verify",),
        profile={"object_kb": 1024},
    ),
    "gray": Scenario(
        blurb="zombie replica, clock skew, corruption, one-way and lossy "
              "links — nothing fail-stop",
        chaos=chaos.run_gray,
        render=chaos.format_gray_report,
        sweep_line=chaos.sweep_gray,
        flags=("workers", "steps", "duration", "heartbeat-only"),
        check=ck.check_gray,
        plan=ck.plan_gray,
        bugs=("no-digest", "naive-health"),
    ),
    "heal": Scenario(
        blurb="a replica partitioned past the compaction horizon under "
              "write/delete load, then healed",
        chaos=chaos.run_partition_heal,
        render=chaos.format_heal_report,
        sweep_line=chaos.sweep_heal,
        flags=("workers", "duration", "unbounded", "blackout"),
        check=ck.check_heal,
        plan=ck.plan_heal,
        bugs=("early-gc", "vector-gap"),
    ),
    "shard": Scenario(
        blurb="sharded catalog splitting under write load while a shard "
              "replica crashes and a worker is partitioned",
        chaos=chaos.run_shard_chaos,
        render=chaos.format_shard_report,
        sweep_line=chaos.sweep_shard,
        flags=("workers", "duration"),
        # Sweeps, goldens and the checker cover this site at up to three
        # workers; the CLI used to clamp a larger --workers silently.
        max_workers=3,
        check=ck.check_shard,
        plan=ck.plan_shard,
        check_line=ck.describe_shard_check,
        bugs=("stale-epoch-write",),
    ),
}


def _scenario(name: str) -> Scenario:
    try:
        return SCENARIOS[name]
    except KeyError:
        raise ValueError(f"unknown scenario {name!r} "
                         f"(known: {', '.join(SCENARIOS)})") from None


# ---------------------------------------------------------------------------
# Name-keyed entry points of the model checker
# ---------------------------------------------------------------------------

def sample_fault_plan(scenario: str, seed: int, workers: List[str],
                      horizon: float) -> List[FaultEvent]:
    """Seeded explicit fault plan for a scenario (its table entry's
    ``plan`` sampler, see :func:`repro.check.explore.sample_plan`)."""
    return sample_plan(_scenario(scenario).plan, seed, workers, horizon)


def run_check(
    scenario: str = "faults",
    seed: int = 1,
    bug: Optional[str] = None,
    plan: Optional[List[FaultEvent]] = None,
    explore: bool = True,
    n_workers: int = 3,
    total: int = 16,
    step: float = 0.2,
    duration: float = 60.0,
    saturation: float = 3.0,
    service_time: float = 0.05,
    obs_sample: Optional[float] = None,
) -> Dict:
    """One model-checking run; returns a report dict (``report["ok"]``).

    Runs the scenario's ``check`` entry — its site and workload under
    the seeded fault *plan* (sampled from the seed when not given), with
    tie-permutation *explore* enabled and the scenario's oracles swept
    every :data:`repro.robust.spine.CHUNK` virtual seconds — with the
    seeded *bug*, if any, switched on for the duration.
    """
    entry = _scenario(scenario)
    params = {
        "n_workers": n_workers, "total": total, "step": step,
        "duration": duration, "saturation": saturation,
        "service_time": service_time, "obs_sample": obs_sample,
    }

    def plan_for(hosts: List[str]) -> List[FaultEvent]:
        if plan is not None:
            return plan
        return sample_plan(entry.plan, seed, hosts, horizon=duration * 0.5)

    with seeded_bug(bug):
        report = entry.check(seed, plan_for, explore, params)
    report["bug"] = bug
    report["params"] = params
    return report


# ---------------------------------------------------------------------------
# CLI surface generated from the table
# ---------------------------------------------------------------------------

def scenario_help() -> str:
    return "; ".join(f"{name}: {s.blurb}" for name, s in SCENARIOS.items())


def bug_help() -> str:
    scenario_of = {b: name for name, s in SCENARIOS.items() for b in s.bugs}
    return "; ".join(f"{b} [{scenario_of[b]}] = {BUGS[b]}" for b in sorted(BUGS))


def _takers(flag: str) -> List[str]:
    return [name for name, s in SCENARIOS.items() if flag in s.flags]


def add_chaos_flags(p: argparse.ArgumentParser) -> None:
    """``--scenario`` and every scenario-specific flag, each help line
    tagged with the scenarios that take it and their own defaults."""
    p.add_argument("--scenario", choices=list(SCENARIOS), default="faults",
                   help=scenario_help())
    for flag, (kwarg, kind, text) in CHAOS_FLAGS.items():
        tag = f"[{', '.join(_takers(flag))}] "
        if isinstance(kind, bool):
            p.add_argument(f"--{flag}", action="store_true", help=tag + text)
            continue
        defaults = []
        for name in _takers(flag):
            default = inspect.signature(
                SCENARIOS[name].chaos).parameters[kwarg].default
            defaults.append(f"{name} {default:g}" if default is not None
                            else f"{name} set by mode")
        p.add_argument(f"--{flag}", type=kind, default=None,
                       help=f"{tag}{text} (default: {', '.join(defaults)})")


def reject_workers(p: argparse.ArgumentParser, scenario: str, n: int) -> None:
    """``argparse`` error if *scenario* cannot take *n* workers."""
    most = SCENARIOS[scenario].max_workers
    if n < 1 or (most is not None and n > most):
        p.error(f"--workers {n} is out of range for scenario {scenario!r} "
                f"(1..{most if most is not None else ''})")


def chaos_kwargs(p: argparse.ArgumentParser, args: argparse.Namespace) -> Dict:
    """The selected scenario's runner kwargs for the flags that were given.

    A flag the scenario does not take, or more workers than it can, is
    an ``argparse`` error (exit 2) — never silently dropped or clamped.
    """
    entry = SCENARIOS[args.scenario]
    given = {}
    for flag in CHAOS_FLAGS:
        value = getattr(args, flag.replace("-", "_"))
        if value is not None and value is not False:  # 0 is a given value
            given[flag] = value
    stray = [flag for flag in given if flag not in entry.flags]
    if stray:
        p.error(f"scenario {args.scenario!r} does not take "
                + ", ".join(f"--{flag} (taken by: {', '.join(_takers(flag))})"
                            for flag in stray))
    if "workers" in given:
        reject_workers(p, args.scenario, given["workers"])
    return {CHAOS_FLAGS[flag][0]:
            value if value is not True else CHAOS_FLAGS[flag][1]
            for flag, value in given.items()}
