"""The scenario table: the one place a scenario is declared.

Every consumer of a scenario — the ``chaos`` and ``check`` CLIs, ``obs
profile``, the experiment sweeps, CI's loops — looks it
up in :data:`SCENARIOS` by name; nothing else dispatches on a scenario
name. An entry is a record of plain data and plain functions:

* ``runner`` — the scenario's one runner, the public ``run_*`` function
  of :mod:`repro.robust.chaos` (site, workload, fault plan, oracles,
  quiescent checks, all through :func:`repro.robust.spine.run_spine`).
  Called, it returns the report; ``runner.run(...)`` returns the whole
  :class:`~repro.robust.spine.Run` (report + sim). Without a ``plan``
  it is a chaos run: the scenario's own seeded chaos plan.
* ``check`` — the check profile: the runner kwargs a model-checking run
  (:func:`run_check`) starts from. ``plan`` samples that run's fault
  plan from a seed; ``bugs`` are the seeded bugs its oracles must catch.
* ``columns`` — the report columns the CLIs print, a column being a
  report key or a function of the report (as in a manifest ``Sweep``);
  ``flags`` — the scenario-specific CLI flags it takes (any other is a
  usage error, see :func:`chaos_kwargs`); ``profile`` — its ``obs
  profile`` preset.

Adding a scenario is one entry here plus the runner and the ``plan_*``
sampler it names. The module lives in :mod:`repro.check` because that
package already sits on top of :mod:`repro.robust`.
"""

from __future__ import annotations

import argparse
import inspect
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.check import explore as ck
from repro.check.explore import BUGS, ExplorationScheduler, sample_plan, seeded_bug
from repro.net.failures import FaultEvent
from repro.robust import chaos

#: A report column: a report key, or a function of the report.
Column = Union[str, Callable[[Dict], Any]]


@dataclass(frozen=True)
class Scenario:
    blurb: str
    runner: Callable[..., Dict]
    plan: Callable[..., List[FaultEvent]]
    columns: Dict[str, Column]
    flags: Tuple[str, ...]
    check: Dict[str, Any]
    bugs: Tuple[str, ...] = ()
    profile: Dict[str, Any] = field(default_factory=dict)
    #: Most ``--workers`` the CLIs accept (None: no limit).
    max_workers: Optional[int] = None


#: Scenario-specific ``chaos``/``check`` flags: flag -> (runner kwarg,
#: the type a valued flag parses *or* the bool a bare switch sets, help).
#: An entry's ``flags`` picks from these; a flag left unset is not
#: passed, so every default is the runner's own (or its check profile's).
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

#: The flags that only shape a scenario's seeded chaos plan. A check
#: run's plan is sampled or given, so ``check`` does not offer them.
PLAN_FLAGS = ("no-churn", "no-partitions", "blackout")


def _ms(key: str) -> Callable[[Dict], Optional[float]]:
    """Column: a report value in seconds, shown in milliseconds."""
    return lambda r: None if r[key] is None else r[key] * 1000


def _of(key: str, total: str) -> Callable[[Dict], str]:
    return lambda r: f"{r[key]}/{r[total]}"


def _count(key: str) -> Callable[[Dict], int]:
    return lambda r: len(r[key])


def found(oracle: str) -> Callable[[Dict], int]:
    """Column: how many violations *oracle* filed in a report."""
    return lambda r: sum(v["oracle"] == oracle for v in r["violations"])


#: Every check profile's time budget, the old ``check --duration`` default.
CHECK_DURATION = 60.0

#: The faults and gray scenarios' checked workload: three workers,
#: short tasks, so a run can stop early once every task reported.
_STAR_CHECK = {"n_workers": 3, "total": 16, "step": 0.2,
               "duration": CHECK_DURATION}

SCENARIOS: Dict[str, Scenario] = {
    "faults": Scenario(
        blurb="crash/partition chaos over the checkpointing workload "
              "(default)",
        runner=chaos.run_chaos,
        plan=ck.plan_faults,
        columns={"completed": _of("completed", "workers"),
                 "recoveries": _count("recoveries"),
                 "fenced": "msgs_fenced", "delivered": "delivered"},
        flags=("workers", "steps", "duration", "no-churn", "no-partitions"),
        check={**_STAR_CHECK, "ckpt_every": 3},
        bugs=("no-fence-write", "no-rx-fencing", "no-lww"),
        profile={"duration": 60.0, "total": 30},
    ),
    "overload": Scenario(
        blurb="bulk saturation plus congestion and CPU starvation, no "
              "crashes",
        runner=chaos.run_overload,
        plan=ck.plan_overload,
        columns={"goodput_ops_s": "goodput_ops_s",
                 "control_p99_ms": _ms("control_p99_s"),
                 "deaths": "deaths_declared", "hb_failed": "heartbeats_failed",
                 "shed": "requests_shed", "breaker_opens": "breaker_opens"},
        flags=("workers", "duration", "saturation", "static"),
        check={"n_workers": 3, "duration": CHECK_DURATION, "saturation": 3.0,
               "service_time": 0.05},
        profile={"duration": 24.0, "saturation": 3.0},
    ),
    "bulk": Scenario(
        blurb="relay-tree distribution with mid-transfer kills (check: a "
              "poisoned source and crashing fetchers)",
        runner=chaos.run_bulk_chaos,
        plan=ck.plan_bulk,
        columns={"completed": _of("completed", "hosts"), "crashes": "crashes",
                 "retries": "chunk_retries",
                 "goodput_MB_s": lambda r: r["aggregate_goodput"] / 1e6,
                 "poisoned": _count("poisoned")},
        flags=("duration",),
        check={"racks": 3, "object_kb": 512, "chunk_size": 16384,
               "duration": CHECK_DURATION, "poison": True},
        bugs=("no-chunk-verify",),
        profile={"object_kb": 1024},
    ),
    "gray": Scenario(
        blurb="zombie replica, clock skew, corruption, one-way and lossy "
              "links — nothing fail-stop",
        runner=chaos.run_gray,
        plan=ck.plan_gray,
        columns={"goodput_ops_s": "goodput_ops_s", "detect_s": "detection_s",
                 "false_deaths": "false_lease_deaths", "saved": "probe_saved",
                 "corrupt_dropped": "rx_corrupt_dropped"},
        flags=("workers", "steps", "duration", "heartbeat-only"),
        check=_STAR_CHECK,
        bugs=("no-digest", "naive-health"),
    ),
    "heal": Scenario(
        blurb="a replica partitioned past the compaction horizon under "
              "write/delete load, then healed",
        runner=chaos.run_partition_heal,
        plan=ck.plan_heal,
        columns={"reconverge_s": "reconverge_s",
                 "max_batch": "max_sync_batch",
                 "control_p99_ms": _ms("control_p99"),
                 "hb_failovers": "heartbeat_failovers",
                 "resurrected": found("no-resurrection"),
                 "writes_ok": "writes_ok", "retired": "retired"},
        flags=("workers", "duration", "unbounded", "blackout"),
        # Aggressive compaction, so the horizon provably moves while a
        # replica is cut off and anti-entropy must heal across it (via
        # gap-refusing batches and snapshot catch-up) rather than replay
        # a complete log.
        check={"n_workers": 3, "duration": CHECK_DURATION, "n_keys": 18,
               "interval": 0.35, "value_pad": 256,
               "rc_server_kw": {"compact_interval": 1.0,
                                "peer_stale_after": 6.0,
                                "max_sync_records": 32, "snapshot_every": 64,
                                "log_keep_tail": 8}},
        bugs=("early-gc", "vector-gap"),
    ),
    "shard": Scenario(
        blurb="sharded catalog splitting under write load while a shard "
              "replica crashes and a worker is partitioned",
        runner=chaos.run_shard_chaos,
        plan=ck.plan_shard,
        columns={"splits": "splits", "epoch": "epoch",
                 "shards": _count("shards"), "redirects": "redirects",
                 "handoffs": "handoffs", "writes_ok": "writes_ok",
                 "retired": "retired"},
        flags=("workers", "duration"),
        # Sweeps, goldens and the checker cover this site at up to three
        # workers.
        max_workers=3,
        check={"duration": CHECK_DURATION},
        bugs=("stale-epoch-write",),
    ),
}


def _scenario(name: str) -> Scenario:
    try:
        return SCENARIOS[name]
    except KeyError:
        raise ValueError(f"unknown scenario {name!r} "
                         f"(known: {', '.join(SCENARIOS)})") from None


def columns(name: str, report: Dict) -> List[Tuple[str, Any]]:
    """A report's declared columns: ``[(column, value), ...]``."""
    return [(col, f(report) if callable(f) else report[f])
            for col, f in SCENARIOS[name].columns.items()]


def show(value: Any) -> str:
    """A column value as the CLIs print it."""
    return f"{value:.2f}" if isinstance(value, float) else str(value)


def summary(name: str, report: Dict) -> str:
    """The one-line form of a report: ``column=value ...``."""
    return " ".join(f"{col}={show(v)}" for col, v in columns(name, report))


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
    **kwargs: Any,
) -> Dict:
    """One model-checking run; returns a report dict (``report["ok"]``).

    Runs the scenario's runner with its check profile updated by
    *kwargs* (runner kwargs, ``obs_sample`` included; one it does not
    take is a ``TypeError``), under the fault *plan* — sampled from the
    seed over the site's hosts when not given — with tie-permutation
    *explore* enabled, the oracles swept every
    :data:`repro.robust.spine.CHUNK` virtual seconds, and the seeded
    *bug*, if any, switched on for the duration. ``report["params"]`` is
    *kwargs*, so a trace replays the run.
    """
    entry = _scenario(scenario)
    params = {**entry.check, **kwargs}
    scheduler = ExplorationScheduler(seed) if explore else None

    def plan_for(hosts: List[str]) -> List[FaultEvent]:
        if plan is not None:
            return plan
        return sample_plan(entry.plan, seed, hosts, horizon=params["duration"] * 0.5)

    with seeded_bug(bug):
        report = entry.runner(seed, plan=plan_for, supervise=params["duration"],
                              scheduler=scheduler, **params)
    report.update(
        scenario=scenario,
        explore=explore,
        schedule_picks=scheduler.picks if scheduler else 0,
        schedule_reordered=scheduler.reordered if scheduler else 0,
        bug=bug,
        params=kwargs,
    )
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


def add_chaos_flags(p: argparse.ArgumentParser, check: bool = False) -> None:
    """``--scenario`` and every scenario-specific flag, each help line
    tagged with the scenarios that take it and their own defaults — the
    runner's, or with *check* the check profile's (and no
    :data:`PLAN_FLAGS`)."""
    p.add_argument("--scenario", choices=list(SCENARIOS), default="faults",
                   help=scenario_help())
    for flag, (kwarg, kind, text) in CHAOS_FLAGS.items():
        if check and flag in PLAN_FLAGS:
            continue
        tag = f"[{', '.join(_takers(flag))}] "
        if isinstance(kind, bool):
            p.add_argument(f"--{flag}", action="store_true", help=tag + text)
            continue
        defaults = []
        for name in _takers(flag):
            entry = SCENARIOS[name]
            default = inspect.signature(entry.runner).parameters[kwarg].default
            if check:
                default = entry.check.get(kwarg, default)
            defaults.append(f"{name} {default:g}" if default is not None
                            else f"{name} set by mode")
        p.add_argument(f"--{flag}", type=kind, default=None,
                       help=f"{tag}{text} (default: {', '.join(defaults)})")
    p.add_argument("--obs-sample", type=float, default=None, metavar="RATE",
                   help="enable tracing at this sampling rate (1.0 = every "
                        "record, 0.01 = 1-in-100; default: tracing off)")


def chaos_kwargs(p: argparse.ArgumentParser, args: argparse.Namespace) -> Dict:
    """The selected scenario's runner kwargs for the flags that were given.

    A flag the scenario does not take, or more workers than it can, is
    an ``argparse`` error (exit 2) — never silently dropped or clamped.
    """
    entry = SCENARIOS[args.scenario]
    given = {}
    for flag in CHAOS_FLAGS:
        value = getattr(args, flag.replace("-", "_"), None)
        if value is not None and value is not False:  # 0 is a given value
            given[flag] = value
    stray = [flag for flag in given if flag not in entry.flags]
    if stray:
        p.error(f"scenario {args.scenario!r} does not take "
                + ", ".join(f"--{flag} (taken by: {', '.join(_takers(flag))})"
                            for flag in stray))
    most = entry.max_workers
    n = given.get("workers")
    if n is not None and (n < 1 or (most is not None and n > most)):
        p.error(f"--workers {n} is out of range for scenario {args.scenario!r} "
                f"(1..{most if most is not None else ''})")
    kwargs = {CHAOS_FLAGS[flag][0]:
              value if value is not True else CHAOS_FLAGS[flag][1]
              for flag, value in given.items()}
    if args.obs_sample is not None:
        kwargs["obs_sample"] = args.obs_sample
    return kwargs
