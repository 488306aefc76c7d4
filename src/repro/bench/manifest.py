"""The experiment manifest: E1–E18 declared once, run one way.

Every experiment in EXPERIMENTS.md is one row of :data:`EXPERIMENTS`:
the builder functions that produce its tables, their keyword arguments
at paper scale (``full``) and at tier-1 scale (``quick``), and a
``check`` holding the paper-shape assertion (who wins, by what factor,
what must never happen). ``python -m repro experiments [ID ...]
[--quick] [--out DIR]`` is the only runner: it builds the tables,
prints them, runs ``check`` and writes ``<out>/<profile>/<id>.json``.
No column reads the host clock (host time is perfbench's), so each
committed file under ``results/`` is a pure function of the source
tree, and tier-1 regenerates the quick profile and compares it
byte for byte (``tests/bench/test_manifest.py``).

A builder returns named tables, ``{name: [row, ...]}``; an experiment's
result is the union over its builders, a table two of them return being
their rows in row order. A :class:`Sweep` is a builder that is data: a
scenario-backed experiment names its ``SCENARIOS`` entry, axes and
columns instead of looping over a ``run_*`` runner. ``check`` sees the
same tables the file holds, so it can be re-run on a committed file.
"""

from __future__ import annotations

import argparse
import itertools
import os
import traceback
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.bench.e2_mpiconnect import mpiconnect_vs_pvmpi
from repro.bench.e3_availability import availability_vs_replicas
from repro.bench.e4_rm import rm_scalability
from repro.bench.e5_master import master_failure
from repro.bench.e6_migration import migration_loss
from repro.bench.e7_mcast import mcast_fault_tolerance, router_density_ablation
from repro.bench.e8_failover import failover_timeline
from repro.bench.e9_rc import anti_entropy_ablation, rc_update_scaling
from repro.bench.e10_media import media_selection
from repro.bench.e11_recovery import recovery_mttr
from repro.bench.e13_bulk import FANOUT as E13_FANOUT, bulk_distribution
from repro.bench.e14_obs import SIM_COLUMNS, TRACING, bulk_obs_overhead
from repro.bench.e17_kernel_scale import kernel_scale
from repro.bench.e18_catalog_scale import catalog_scale, split_under_load
from repro.bench.fig1 import (
    fig1_bandwidth,
    multicast_fanout_ablation,
    srudp_window_ablation,
)
from repro.bench.table import Tables, mean, print_table
from repro.check.scenarios import SCENARIOS, found
from repro.obs.report import write_bench_json

Row = Dict[str, Any]
Builder = Callable[..., Tables]


class Experiment(NamedTuple):
    id: str
    title: str
    #: builder (or :class:`Sweep`) -> its kwargs at paper scale / at
    #: tier-1 scale. Both profiles list the same builders; the builders
    #: of a row run in order and their tables are merged.
    full: Dict[Builder, Dict[str, Any]]
    quick: Dict[Builder, Dict[str, Any]]
    #: Raises AssertionError unless the tables have the paper's shape.
    check: Callable[[Tables], None]


class Sweep:
    """One table swept from a ``SCENARIOS`` entry's runner (chaos runs).

    A profile's kwargs give each of ``axes`` (outermost first) its
    values; every other kwarg is a runner kwarg all runs share. The
    ``config`` axis maps labels to the runner kwargs they set: the
    chaos CLI's flag for a baseline, one label for the default. Every
    other axis is a runner kwarg. Each point of the product is one
    ``runner.run(...)`` and one row of ``columns``: a string names an
    axis or a report key, a callable is ``f(run, at)`` of the finished
    :class:`~repro.robust.spine.Run` and the axis point. ``summary``, if
    set, adds the table ``summary`` holding ``summary(rows)``.
    """

    def __init__(self, scenario: str, table: str, axes: Tuple[str, ...],
                 columns: Dict[str, Any],
                 summary: Optional[Callable[[List[Row]], Row]] = None) -> None:
        self.scenario, self.table, self.axes = scenario, table, axes
        self.columns, self.summary = columns, summary

    def calls(self, **kwargs: Any) -> List[Tuple[Dict[str, Any], Dict[str, Any]]]:
        """Every ``(axis point, runner kwargs)``, in row order."""
        shared = {k: v for k, v in kwargs.items() if k not in self.axes}
        out = []
        for point in itertools.product(*(kwargs[a] for a in self.axes)):
            at = dict(zip(self.axes, point))
            call = {**shared, **at}
            if "config" in call:
                call.update(kwargs["config"][call.pop("config")])
            out.append((at, call))
        return out

    def __call__(self, **kwargs: Any) -> Tables:
        runner = SCENARIOS[self.scenario].runner.run
        rows = []
        for at, call in self.calls(**kwargs):
            run = runner(**call)
            rows.append({
                name: (col(run, at) if callable(col)
                       else at[col] if col in at else run.report[col])
                for name, col in self.columns.items()})
        tables = {self.table: rows}
        if self.summary is not None:
            tables["summary"] = [self.summary(rows)]
        return tables


def _round(value: Optional[float], digits: int, scale: int = 1) -> Optional[float]:
    return None if value is None else round(value * scale, digits)


def _rounded(key: str, digits: int = 2, scale: int = 1) -> Callable:
    """Sweep column: report *key* times *scale*, rounded; None stays None."""
    return lambda run, at: _round(run.report[key], digits, scale)


def _by(rows: List[Row], *keys: str) -> Dict[Any, Row]:
    """Index rows by one column, or by a tuple of several."""
    if len(keys) == 1:
        return {r[keys[0]]: r for r in rows}
    return {tuple(r[k] for k in keys): r for r in rows}


# ---------------------------------------------------------------------------
# Paper-shape assertions, one per experiment. Each must hold at both
# profiles, so thresholds are phrased against the sizes actually run.
# ---------------------------------------------------------------------------

def _check_e1(t: Tables) -> None:
    series: Dict[str, Dict[int, float]] = {}
    for r in t["bandwidth"]:
        series.setdefault(r["series"], {})[r["size"]] = r["mbps"]
    srudp_eth = series["srudp/ethernet-100"]
    tcp_eth = series["tcp/ethernet-100"]
    srudp_atm = series["srudp/atm-155"]
    mcast = series["mcast/ethernet-100"]
    small, big = min(srudp_eth), max(srudp_eth)
    # Throughput rises with message size and saturates under the media
    # ceilings: 12.5 MB/s Ethernet line rate, ~17.6 MB/s ATM after the
    # cell tax.
    assert srudp_eth[big] > srudp_eth[small]
    assert 10.5 < srudp_eth[big] < 12.2
    assert 15.0 < srudp_atm[big] < 17.6
    # ATM beats Ethernet; SRUDP >= TCP at the small end (less header,
    # no handshake); multicast tracks unicast Ethernet within ~15 %.
    assert srudp_atm[big] > srudp_eth[big]
    assert srudp_eth[small] >= tcp_eth[small]
    assert mcast[big] > 0.85 * srudp_eth[big]
    # Small SRUDP windows stall on the bandwidth-delay product; the
    # curve rises, then flattens.
    window = [r["mbps"] for r in sorted(t["window"], key=lambda r: r["window"])]
    assert window[0] < window[-1]
    assert all(b >= 0.95 * a for a, b in zip(window, window[1:]))
    # Unicast cost grows ~linearly with receivers; multicast stays flat.
    fan = sorted(t["fanout"], key=lambda r: r["receivers"])
    one, most = fan[0], fan[-1]
    growth = most["receivers"] / one["receivers"]
    assert most["unicast_s"] > 0.75 * growth * one["unicast_s"]
    assert most["mcast_s"] < 2.0 * one["mcast_s"]
    assert most["speedup"] > 0.5 * growth


def _check_e2(t: Tables) -> None:
    # "Slightly higher point-to-point communication performance":
    # MPI_Connect wins at every size, by a modest factor (<2x).
    assert t["speedup"]
    for r in t["speedup"]:
        assert 1.0 < r["speedup"] < 2.0, f"size {r['size']}: {r['speedup']}"


def _check_e3(t: Tables) -> None:
    rows = sorted(t["availability"], key=lambda r: r["replicas"])
    one, most = rows[0], rows[-1]
    # One server tracks raw host uptime (within a few points) ...
    assert one["replicas"] == 1
    assert abs(one["availability"] - one["host_uptime"]) < 0.12
    # ... and replication lifts availability monotonically toward
    # "almost perfect" (> 99.5 % at the top replica count).
    avail = [r["availability"] for r in rows]
    assert all(b >= a for a, b in zip(avail, avail[1:]))
    assert most["availability"] > one["availability"]
    assert most["availability"] > 0.995


#: E4: one manager's capacity is 1 / e4_rm.SERVICE_TIME requests/s.
_RM_CAPACITY = 50.0


def _check_e4(t: Tables) -> None:
    rates = sorted({r["offered_rate"] for r in t["spawn_load"]})
    assert rates[-1] > _RM_CAPACITY
    for rate in rates:
        at = {r["system"]: r for r in t["spawn_load"]
              if r["offered_rate"] == rate}
        redundant = at[max((s for s in at if s != "pvm"),
                           key=lambda s: int(s[len("snipe/"):-len("rm")]))]
        if rate < _RM_CAPACITY:
            # Below capacity everyone keeps up with comparable latency.
            for r in at.values():
                assert r["throughput"] >= 0.95 * rate
                assert r["mean_latency_ms"] < 100
        else:
            # Past one server's capacity the centralized systems
            # saturate — PVM sheds load and/or queues without bound, so
            # does a single SNIPE RM (mean latency an order of magnitude
            # over the redundant RMs', and growing with the window);
            # redundant RMs keep latency flat at the full offered rate.
            queued = 10 * redundant["mean_latency_ms"]
            assert at["pvm"]["failed"] > 0 or at["pvm"]["mean_latency_ms"] > queued
            assert at["snipe/1rm"]["mean_latency_ms"] > queued
            assert redundant["mean_latency_ms"] < 200
            assert redundant["throughput"] > 0.94 * rate


def _check_e5(t: Tables) -> None:
    rate = {k: r["success_rate"] for k, r in _by(t["success"], "system", "phase").items()}
    assert rate[("pvm", "before")] == 1.0 and rate[("snipe", "before")] == 1.0
    # "PVM can tolerate slave failures but not failure of its master";
    # SNIPE has no master: killing an RC+RM host leaves it usable.
    assert rate[("pvm", "after")] == 0.0
    assert rate[("snipe", "after")] >= 0.95


def _check_e6(t: Tables) -> None:
    assert any(r["hops"] > 0 for r in t["migration"])
    for r in t["migration"]:
        # The §5.6 guarantee, verbatim: no loss; sequence-number dedup
        # also forbids duplicates, and delivery stays in order.
        assert r["lost"] == 0, f"{r['hops']} hops lost messages"
        assert r["duplicated"] == 0 and r["reordered"] == 0
        assert r["received"] == r["sent"]
        # Migration costs a bounded pause, not a stall.
        if r["hops"] > 0:
            assert 0 < r["max_pause_ms"] < 2_000


def _check_e7(t: Tables) -> None:
    assert any(r["killed"] > 0 for r in t["delivery"])
    for r in t["delivery"]:
        # Majority registration guarantees "at least one path from the
        # sending process to each recipient" under minority router
        # failure; the single-registration baseline goes dark.
        dark = r["mode"] == "single" and r["killed"] > 0
        assert r["delivery_rate"] == (0.0 if dark else 1.0), r
    density = sorted(t["density"], key=lambda r: r["min_routers"])
    # Everyone still hears the message at every election density, but
    # more routers mean more relay work.
    assert density[0]["delivered"] > 0
    assert len({r["delivered"] for r in density}) == 1
    assert density[-1]["relay_ops"] >= density[0]["relay_ops"]


def _check_e8(t: Tables) -> None:
    summary = _by(t["summary"], "policy")
    multi, single = summary["snipe-multipath"], summary["single-interface"]
    # Multipath completes the whole transfer despite the cut, with a
    # bounded stall and at least one route switch — "without user
    # applications intervention". The single-interface baseline dies
    # with its link.
    assert multi["completed"] is True
    assert multi["route_switches"] >= 1
    assert multi["failover_gap_ms"] < 1_000
    assert single["completed"] is False
    assert single["delivered_mb"] < multi["delivered_mb"]
    assert t["timeline"]


def _check_e9(t: Tables) -> None:
    rows = _by(t["scaling"], "model", "replicas")
    k = max(r["replicas"] for r in t["scaling"])
    assert k > 1
    mm1, mmk = rows[("master-master", 1)], rows[("master-master", k)]
    sm1, smk = rows[("single-master", 1)], rows[("single-master", k)]
    # "A true master-master update data model ... inherently more
    # scalable": write throughput grows with replicas (>2x at 4); the
    # LDAP/MDS-style single master gains nothing from extra replicas
    # and its saturated write latency loses to master-master's.
    assert mmk["throughput"] > (1 + k / 4) * mm1["throughput"]
    assert smk["throughput"] < 1.2 * sm1["throughput"]
    assert mmk["mean_latency_ms"] < smk["mean_latency_ms"]
    # Propagation delay tracks the gossip period.
    lag = [r["propagation_s"] for r in
           sorted(t["anti_entropy"], key=lambda r: r["sync_interval"])]
    assert len(lag) > 1 and all(a < b for a, b in zip(lag, lag[1:]))


def _check_e10(t: Tables) -> None:
    policy = _by(t["media"], "policy")
    # SNIPE shops for the fastest shared medium (the Myrinet SAN); plain
    # IP stays on the first-configured interface. The payoff is roughly
    # the media ratio (~13x; accept >5x).
    assert policy["snipe"]["segment_used"] == "myr"
    assert policy["default-ip"]["segment_used"] == "eth"
    assert policy["snipe"]["mbps"] > 5.0 * policy["default-ip"]["mbps"]


def _check_e11(t: Tables) -> None:
    rows = sorted(t["mttr"], key=lambda r: r["lease_ttl_s"])
    # The builder itself asserts one recovery per episode and
    # exactly-once completion. Detection dominates MTTR (the respawn
    # adds well under a second) and tracks the lease TTL: a shorter
    # lease never recovers slower than a longer one, and none misses the
    # analytic bound (TTL + scan + grace + probe round + slack).
    assert len(rows) > 1
    for r in rows:
        assert 0.0 <= r["detect_s"] <= r["mttr_s"] < r["detect_s"] + 1.0
        assert r["within_bound"]
    mttr = [r["mttr_s"] for r in rows]
    assert all(a < b for a, b in zip(mttr, mttr[1:]))


def _check_e12(t: Tables) -> None:
    rows = _by(t["overload"], "config", "saturation_x")
    saturations = sorted({r["saturation_x"] for r in t["overload"]})
    for sat in saturations:
        adaptive, static = rows[("adaptive", sat)], rows[("static", sat)]
        # The robustness claim: under overload the adaptive stack keeps
        # the control plane clean — zero false death declarations, zero
        # dropped lease heartbeats, p99 within 500 ms — and does not pay
        # for it with bulk goodput. Both configs pass every oracle: the
        # static baseline is slow, not unsafe.
        assert adaptive["false_deaths"] == 0
        assert adaptive["hb_failed"] == 0
        assert adaptive["control_p99_ms"] <= 500
        assert adaptive["ok"] and static["ok"]
        assert adaptive["goodput_ops_s"] > 0  # some service survives
        assert adaptive["goodput_ops_s"] >= static["goodput_ops_s"]
    # The baseline must actually exhibit the failure mode being fixed,
    # or the comparison is vacuous: at heavy saturation fixed timeouts
    # lose heartbeats.
    assert saturations[-1] >= 5.0
    assert rows[("static", saturations[-1])]["hb_failed"] > 0


def _check_e13(t: Tables) -> None:
    rows = _by(t["distribution"], "hosts", "strategy", "crash")
    sizes = sorted({r["hosts"] for r in t["distribution"]})
    # Every configuration delivers everywhere with every digest
    # verified — the mid-transfer relay crash included, and the victim
    # really did crash mid-object.
    for r in t["distribution"]:
        assert r["completed"] == r["hosts"] and r["all_verified"], r
        if r["crash"]:
            assert r["crashes"] >= 1
        elif r["strategy"] == "tree":
            # No host feeds more than fanout children, the root
            # included, so its NIC sends about fanout copies however
            # many hosts the tree reaches.
            assert r["root_copies"] <= E13_FANOUT + 0.5, r
    # The data-plane claim: at 16 hosts the relay tree beats naive
    # root-unicast — by at least 3x aggregate goodput once the object
    # is long enough to fill the pipeline (1 MiB = 64 chunks) — and its
    # advantage grows with fan-out because unicast serializes every
    # copy through the root's link.
    tree16 = rows[(16, "tree", False)]
    assert tree16["speedup_vs_unicast"] >= (
        3.0 if tree16["object_kb"] >= 1024 else 1.5)
    gain = [rows[(n, "tree", False)]["speedup_vs_unicast"] for n in sizes]
    assert len(gain) > 1 and all(a < b for a, b in zip(gain, gain[1:]))


def _check_e14(t: Tables) -> None:
    workloads = sorted({r["workload"] for r in t["overhead"]})
    assert len(workloads) == 2
    for w in workloads:
        cfg = {r["config"]: r for r in t["overhead"] if r["workload"] == w}
        off, sampled, on = cfg["off"], cfg["sampled"], cfg["on"]
        # The virtual clock makes the simulated outcome identical across
        # configs: looking never changes what happened.
        assert (off["virtual_s"], off["events"]) \
            == (sampled["virtual_s"], sampled["events"]) \
            == (on["virtual_s"], on["events"])
        # The knob buys a real trade: detached keeps nothing, sampling
        # thins, always-on keeps everything the ring holds.
        assert 0 == off["trace_records"] < sampled["trace_records"] < on["trace_records"]
        assert off["sampled_out"] == 0 == on["sampled_out"] < sampled["sampled_out"]


def _check_e15(t: Tables) -> None:
    diff = [r for r in t["runs"] if r["config"] == "differential"]
    base = [r for r in t["runs"] if r["config"] == "heartbeat-only"]
    assert diff and len(diff) == len(base)
    for r in diff:
        # The zombie is quarantined within seconds by failed *work*, no
        # live host is ever declared dead, and no bit-flipped payload
        # reaches an application.
        assert r["completed_ok"]
        assert r["detection_s"] is not None and r["detection_s"] < 5.0
        assert r["false_lease_deaths"] == 0
        assert r["corrupt_delivered"] == 0
    # The headline: >= 2x the heartbeat-only goodput through the zombie
    # window (a baseline at zero goodput is the claim's best case).
    s = t["summary"][0]
    assert s["goodput_differential_ops_s"] >= 2 * s["goodput_heartbeat_only_ops_s"]
    # The baseline must exhibit the failure modes being fixed: it never
    # detects the zombie and turns lapsed leases into false deaths.
    for r in base:
        assert r["detection_s"] is None
        assert r["false_lease_deaths"] > 0
    # Fencing keeps a wrong death verdict safe: one owner per URN, always.
    for r in diff + base:
        assert r["single_owner_violations"] == 0


def _summary_e15(rows: List[Row]) -> Row:
    """E15's cross-seed aggregates and the headline goodput ratio."""
    diff = [r for r in rows if r["config"] == "differential"]
    base = [r for r in rows if r["config"] == "heartbeat-only"]
    g_diff = mean([r["goodput_ops_s"] for r in diff])
    g_base = mean([r["goodput_ops_s"] for r in base])
    return {
        "goodput_differential_ops_s": _round(g_diff, 2),
        "goodput_heartbeat_only_ops_s": _round(g_base, 2),
        "goodput_ratio": (round(g_diff / g_base, 2)
                          if g_diff is not None and g_base else None),
        "detection_s_mean": _round(mean([r["detection_s"] for r in diff]), 2),
        "false_deaths_differential": sum(r["false_lease_deaths"] for r in diff),
        "false_deaths_heartbeat_only": sum(r["false_lease_deaths"] for r in base),
    }


def _check_e16(t: Tables) -> None:
    s = t["summary"][0]
    # Every bounded run passes every heal check, with payloads at the
    # configured bound, the control lane responsive through the heal
    # and no heartbeat lost or failed over; the one-blob baseline
    # breaches the bound; blackout recovery is from disk alone with no
    # delete resurrected. Every run reconverges.
    assert s["bounded_all_ok"] and s["blackout_all_ok"]
    assert s["baseline_breaches_bound"]
    assert s["hb_failovers_bounded"] == 0
    assert s["blackout_restores"] > 0 and s["blackout_resurrected"] == 0
    for r in t["runs"]:
        assert r["reconverge_s"] is not None
        if r["config"] != "unbounded":
            assert r["max_sync_batch"] <= r["bound"]
            assert r["control_p99_ms"] is not None and r["control_p99_ms"] <= 500
            assert r["probe_failed"] == 0
        if r["config"] == "bounded":
            assert r["hb_failed"] == 0


def _summary_e16(rows: List[Row]) -> Row:
    """E16's cross-seed aggregates and the headline payload/latency
    contrast."""
    by = {c: [r for r in rows if r["config"] == c]
          for c in ("bounded", "unbounded", "blackout")}
    bnd, base, blk = by["bounded"], by["unbounded"], by["blackout"]
    peak_bnd = max((r["max_sync_batch"] for r in bnd), default=0)
    peak_base = max((r["max_sync_batch"] for r in base), default=0)
    return {
        "reconverge_bounded_s": _round(mean([r["reconverge_s"] for r in bnd]), 2),
        "reconverge_unbounded_s": _round(mean([r["reconverge_s"] for r in base]), 2),
        "max_batch_bounded": peak_bnd,
        "max_batch_unbounded": peak_base,
        "payload_ratio": (round(peak_base / peak_bnd, 1) if peak_bnd else None),
        "control_p99_bounded_ms": _round(
            mean([r["control_p99_ms"] for r in bnd]), 1),
        "control_p99_unbounded_ms": _round(
            mean([r["control_p99_ms"] for r in base]), 1),
        "hb_failovers_bounded": sum(r["hb_failovers"] for r in bnd),
        "hb_failovers_unbounded": sum(r["hb_failovers"] for r in base),
        "probe_failed_unbounded": sum(r["probe_failed"] for r in base),
        "blackout_restores": sum(r["restores"] for r in blk),
        "blackout_resurrected": sum(r["resurrected"] for r in blk),
        "bounded_all_ok": all(r["ok"] for r in bnd),
        "blackout_all_ok": all(r["ok"] for r in blk),
        "baseline_breaches_bound": peak_base > max(
            (r["bound"] or 0 for r in bnd), default=0),
    }


def _check_e17(t: Tables) -> None:
    rows = sorted(t["scale"], key=lambda r: r["hosts"])
    for r in rows:
        # Feasibility: every call completes at every scale — the kernel,
        # not the workload, is what this experiment stresses.
        assert r["calls_ok"] == r["calls"] and r["calls_failed"] == 0
    # Event volume scales linearly with hosts (same per-host workload);
    # sub-linear counts would mean the scenario silently shrank.
    small, big = rows[0], rows[-1]
    assert big["hosts"] > small["hosts"]
    assert big["events"] > 0.75 * big["hosts"] / small["hosts"] * small["events"]


def _check_e18(t: Tables) -> None:
    s = t["summary"][0]
    for r in t["scale"]:
        assert r["failed"] == 0
        if r["config"] == "sharded":
            assert r["misses"] == 0  # every preloaded name resolves
    # The capacity headline needs a baseline that saturates, which the
    # closed-loop mix only does from 10^5 names with 32 sessions.
    assert s["speedup_ops"] is not None and s["speedup_ops"] >= 1.0
    if s["max_names"] >= 100_000:
        assert s["speedup_ops"] > 1.5
    # Flat latency: sharded p99 does not blow up with catalog size.
    assert s.get("p99_flat_across_scales", True)
    # The split happened under live load and the parent drained; live
    # traffic kept flowing, and the epoch fence turned stale-routed ops
    # into redirects the clients then re-routed.
    split = t["split"][0]
    assert split["splits"] >= 1 and split["epoch"] >= 2
    assert split["drain_s"] is not None
    assert split["redirects"] > 0 and split["redirect_retries"] > 0
    assert split["failed"] == 0


# ---------------------------------------------------------------------------
# The table
# ---------------------------------------------------------------------------

E12_SWEEP = Sweep(
    "overload", "overload", axes=("saturation", "config"),
    columns={
        "config": "config",
        "saturation_x": "saturation",
        "goodput_ops_s": _rounded("goodput_ops_s"),
        "control_p99_ms": _rounded("control_p99_s", 1, 1000),
        "hb_failed": "heartbeats_failed",
        "false_deaths": "deaths_declared",
        "shed": "requests_shed",
        "breaker_opens": "breaker_opens",
        "ok": "ok",
    })

_TRACE_CONFIG = {rate: config for config, rate in TRACING.items()}

E14_SWEEP = Sweep(
    "overload", "overhead", axes=("obs_sample",),
    columns={
        "workload": lambda run, at: "overload-e12",
        "config": lambda run, at: _TRACE_CONFIG[at["obs_sample"]],
        "sample_rate": "obs_sample",
        **{name: (lambda run, at, f=f: f(run.sim))
           for name, f in SIM_COLUMNS.items()},
    })

E15_SWEEP = Sweep(
    "gray", "runs", axes=("config", "seed"),
    columns={
        "config": "config", "seed": "seed",
        "goodput_ops_s": _rounded("goodput_ops_s"),
        "detection_s": _rounded("detection_s"),
        "false_lease_deaths": "false_lease_deaths",
        "deaths_declared": "deaths_declared", "probe_saved": "probe_saved",
        "ckpt_rejected": "ckpt_rejected",
        "corrupt_dropped": "rx_corrupt_dropped",
        "corrupt_delivered": "corrupt_delivered",
        "ops_ok": "ops_ok", "ops_failed": "ops_failed", "sessions": "sessions",
        "completed_ok": lambda run, at: (run.report["ok"]
                                         if run.report["differential"] else None),
        "single_owner_violations": lambda run, at: found("single-owner")(run.report),
    },
    summary=_summary_e15)

E16_SWEEP = Sweep(
    "heal", "runs", axes=("config", "seed"),
    columns={
        "config": "config", "seed": "seed", "mode": "mode",
        "reconverge_s": _rounded("reconverge_s"),
        "diverged_at_heal": "diverged_at_heal",
        "max_sync_batch": lambda run, at: int(run.report["max_sync_batch"]),
        "bound": "bound",
        "control_p99_ms": _rounded("control_p99", 1, 1000),
        "control_max_ms": _rounded("control_max", 1, 1000),
        "probe_failed": "control_probe_failed",
        "hb_failed": "heartbeats_failed",
        "hb_failovers": "heartbeat_failovers",
        "snapshot_catchups": "snapshot_catchups",
        "writes_ok": "writes_ok", "retired": "retired",
        "resurrected": lambda run, at: found("no-resurrection")(run.report),
        "restores": lambda run, at: sum(
            s["restores"] for s in run.report["replica_stats"].values()),
        "ok": "ok",
    },
    summary=_summary_e16)

EXPERIMENTS: Tuple[Experiment, ...] = (
    Experiment(
        "E1", "Fig. 1: bandwidth (MB/s) offered to clients on various media",
        full={
            fig1_bandwidth: dict(sizes=(16_384, 131_072, 1_048_576, 4_194_304)),
            srudp_window_ablation: {},
            multicast_fanout_ablation: dict(receiver_counts=(1, 4, 8),
                                            size=524_288),
        },
        quick={
            fig1_bandwidth: dict(sizes=(16_384, 1_048_576)),
            srudp_window_ablation: dict(windows=(4, 64), size=262_144),
            multicast_fanout_ablation: dict(receiver_counts=(1, 4),
                                            size=131_072),
        },
        check=_check_e1),
    Experiment(
        "E2", "MPI_Connect vs PVMPI inter-MPP ping-pong",
        full={mpiconnect_vs_pvmpi: dict(
            sizes=(1_024, 16_384, 131_072, 1_048_576), n_msgs=3)},
        quick={mpiconnect_vs_pvmpi: dict(sizes=(4_096,), n_msgs=2)},
        check=_check_e2),
    Experiment(
        "E3", "metadata availability vs replica count",
        full={availability_vs_replicas: dict(horizon=1_000.0)},
        quick={availability_vs_replicas: dict(replica_counts=(1, 3),
                                              horizon=120.0)},
        check=_check_e3),
    Experiment(
        "E4", "spawn throughput/latency vs offered load: central vs redundant RMs",
        full={rm_scalability: dict(n_hosts=8, rates=(20.0, 90.0),
                                   rm_counts=(1, 4), window=10.0)},
        quick={rm_scalability: dict(n_hosts=4, rates=(90.0,), rm_counts=(1, 4),
                                    window=1.5, drain=3.0)},
        check=_check_e4),
    Experiment(
        "E5", "operation success rate around the critical-host crash",
        full={master_failure: {}},
        quick={master_failure: dict(n_hosts=4, ops_per_phase=5)},
        check=_check_e5),
    Experiment(
        "E6", "message accounting across process migrations",
        full={migration_loss: dict(hop_counts=(0, 1, 2, 3))},
        quick={migration_loss: dict(hop_counts=(1,), n_msgs=20, horizon=10.0)},
        check=_check_e6),
    Experiment(
        "E7", "multicast delivery with dead routers",
        full={mcast_fault_tolerance: dict(router_kills=(0, 1)),
              router_density_ablation: dict(n_members=8)},
        quick={mcast_fault_tolerance: dict(n_members=5, router_kills=(0, 1)),
               router_density_ablation: dict(min_routers_options=(1, 3),
                                             n_members=5)},
        check=_check_e7),
    Experiment(
        "E8", "transparent route failover under link failure",
        full={failover_timeline: {}},
        quick={failover_timeline: dict(total_bytes=4_000_000, cut_at=0.05)},
        check=_check_e8),
    Experiment(
        "E9", "master-master vs single-master catalog updates",
        full={rc_update_scaling: dict(replica_counts=(1, 4), n_writers=8,
                                      window=10.0),
              anti_entropy_ablation: {}},
        quick={rc_update_scaling: dict(replica_counts=(1, 2), n_writers=4,
                                       window=2.0),
               anti_entropy_ablation: dict(sync_intervals=(0.2, 2.0), k=2)},
        check=_check_e9),
    Experiment(
        "E10", "fastest-shared-medium routing vs plain IP",
        full={media_selection: {}},
        quick={media_selection: dict(size=2_000_000)},
        check=_check_e10),
    Experiment(
        "E11", "recovery MTTR vs heartbeat lease TTL",
        full={recovery_mttr: {}},
        quick={recovery_mttr: dict(lease_ttls=(1.5, 6.0))},
        check=_check_e11),
    Experiment(
        "E12", "overload goodput and control-plane latency: static vs adaptive",
        full={E12_SWEEP: dict(saturation=(2.0, 5.0), seed=1,
                              config={"static": dict(adaptive=False),
                                      "adaptive": {}})},
        quick={E12_SWEEP: dict(saturation=(5.0,), seed=1,
                               config={"static": dict(adaptive=False),
                                       "adaptive": {}})},
        check=_check_e12),
    Experiment(
        "E13", "bulk distribution: unicast vs pipelined relay tree",
        full={bulk_distribution: {}},
        quick={bulk_distribution: dict(host_counts=(8, 16), object_kb=256)},
        check=_check_e13),
    Experiment(
        "E14", "observability overhead: tracing off / sampled / on",
        full={E14_SWEEP: dict(obs_sample=tuple(TRACING.values()), seed=1,
                              saturation=2.0, duration=20.0),
              bulk_obs_overhead: {}},
        quick={E14_SWEEP: dict(obs_sample=tuple(TRACING.values()), seed=1,
                               saturation=2.0, duration=10.0),
               bulk_obs_overhead: dict(object_kb=256)},
        check=_check_e14),
    Experiment(
        "E15", "gray-failure detection: differential vs heartbeat-only",
        full={E15_SWEEP: dict(seed=(1, 2, 3), config={
            "differential": {}, "heartbeat-only": dict(differential=False)})},
        quick={E15_SWEEP: dict(seed=(1,), config={
            "differential": {}, "heartbeat-only": dict(differential=False)})},
        check=_check_e15),
    # E16's 2 KiB values build a divergence big enough that the unbounded
    # baseline's blob visibly storms while the bounded protocol stays at
    # its per-RPC record bound; at paper scale the writers are 4x faster.
    Experiment(
        "E16", "heal reconvergence: bounded anti-entropy vs one blob",
        full={E16_SWEEP: dict(
            seed=(1, 2, 3), interval=0.1, value_pad=2048, config={
                "bounded": dict(duration=100.0),
                "unbounded": dict(duration=100.0, bounded=False),
                "blackout": dict(blackout=True)})},
        quick={E16_SWEEP: dict(
            seed=(1,), value_pad=2048, config={
                "bounded": dict(duration=28.0, part_for=10.0),
                "unbounded": dict(duration=28.0, part_for=10.0, bounded=False),
                "blackout": dict(blackout=True)})},
        check=_check_e16),
    Experiment(
        "E17", "kernel scalability: wan_site RPC echo",
        full={kernel_scale: dict(scales=(256, 512, 1024))},
        quick={kernel_scale: dict(scales=(16, 32), calls_per_host=2)},
        check=_check_e17),
    Experiment(
        "E18", "catalog scale: sharded federation vs full replication",
        full={catalog_scale: {}, split_under_load: {}},
        quick={catalog_scale: dict(name_counts=(200,), n_shards=2, window=2.0,
                                   n_client_hosts=2, sessions_per_host=2),
               split_under_load: dict(n_names=450, window=3.0,
                                      n_client_hosts=2, sessions_per_host=1)},
        check=_check_e18),
)

BY_ID: Dict[str, Experiment] = {e.id: e for e in EXPERIMENTS}


# ---------------------------------------------------------------------------
# The runner
# ---------------------------------------------------------------------------

def run_experiment(exp: Experiment, profile: str) -> Tables:
    """Build every table of *exp* at *profile*; a table two builders
    return holds the first one's rows, then the second's."""
    tables: Tables = {}
    for build, kwargs in getattr(exp, profile).items():
        for name, rows in build(**kwargs).items():
            tables.setdefault(name, []).extend(rows)
    return tables


def _params(build: Builder, kwargs: Dict[str, Any]) -> Tuple[str, Dict[str, Any]]:
    """A builder's ``params`` entry: its name and the kwargs it ran with;
    a sweep's also names its scenario and axes."""
    if isinstance(build, Sweep):
        return "sweep", {"scenario": build.scenario, "axes": build.axes, **kwargs}
    return build.__name__, kwargs


def write_result(exp: Experiment, profile: str, tables: Tables, out: str) -> str:
    """Write ``<out>/<profile>/<id>.json``: the tables under ``rows``."""
    return write_bench_json(
        exp.id, tables, os.path.join(out, profile),
        filename=f"{exp.id}.json",
        extra={
            "title": exp.title,
            "profile": profile,
            "params": dict(_params(b, kw) for b, kw in getattr(exp, profile).items()),
        })


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro experiments",
        description="run experiments from the manifest, check their "
                    "paper-shape assertions, write results/<profile>/<id>.json")
    parser.add_argument("ids", nargs="*", metavar="ID", choices=[[], *BY_ID],
                        help=f"experiments to run (default: all of "
                             f"{EXPERIMENTS[0].id}..{EXPERIMENTS[-1].id})")
    parser.add_argument("--quick", action="store_true",
                        help="tier-1 sizes instead of paper scale")
    parser.add_argument("--out", default="results", metavar="DIR",
                        help="results directory (default: results)")
    args = parser.parse_args(argv)
    profile = "quick" if args.quick else "full"
    failed = []
    for exp in [BY_ID[i] for i in args.ids or BY_ID]:
        tables = run_experiment(exp, profile)
        for name, rows in tables.items():
            print_table(f"{exp.id} {exp.title} — {name}", rows)
        try:
            exp.check(tables)
            verdict = "ok"
        except AssertionError as err:
            failed.append(exp.id)
            where = traceback.extract_tb(err.__traceback__)[-1]
            verdict = f"FAILED at `{where.line}` {err}".rstrip()
        path = write_result(exp, profile, tables, args.out)
        print(f"\n{exp.id} check {verdict}  ({path})")
    if failed:
        print(f"\nFAILED checks: {' '.join(failed)}")
    return 1 if failed else 0
