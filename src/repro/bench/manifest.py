"""The experiment manifest: E1–E18 declared once, run one way.

Every experiment in EXPERIMENTS.md is one row of :data:`EXPERIMENTS`:
the builder functions that produce its tables, their keyword arguments
at paper scale (``full``) and at tier-1 scale (``quick``), the columns
that are measured on the host clock, and a ``check`` holding the
paper-shape assertion (who wins, by what factor, what must never
happen). ``python -m repro experiments [ID ...] [--quick] [--out DIR]``
is the only runner: it builds the tables, prints them, runs ``check``
and writes ``<out>/<profile>/<id>.json``. The files under ``results/``
are committed; everything in them except the ``host`` block is a pure
function of the source tree, and tier-1 regenerates the quick profile
and compares it byte for byte (``tests/bench/test_manifest.py``).

A builder returns named tables, ``{name: [row, ...]}``; an experiment's
result is the union over its builders. ``check`` sees only the
deterministic columns, so it can be re-run on a committed file.
"""

from __future__ import annotations

import argparse
import os
import time
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
from repro.bench.e12_overload import overload_goodput
from repro.bench.e13_bulk import bulk_distribution
from repro.bench.e14_obs import obs_overhead
from repro.bench.e15_gray import gray_goodput
from repro.bench.e16_heal import heal_reconvergence
from repro.bench.e17_kernel_scale import kernel_scale
from repro.bench.e18_catalog_scale import catalog_scale, split_under_load
from repro.bench.fig1 import (
    fig1_bandwidth,
    multicast_fanout_ablation,
    srudp_window_ablation,
)
from repro.bench.table import Tables, print_table
from repro.obs.report import write_bench_json

Row = Dict[str, Any]
Builder = Callable[..., Tables]


class Experiment(NamedTuple):
    id: str
    title: str
    #: builder -> its kwargs at paper scale / at tier-1 scale. Both
    #: profiles list the same builders; the builders of a row run in
    #: order and their tables are merged.
    full: Dict[Builder, Dict[str, Any]]
    quick: Dict[Builder, Dict[str, Any]]
    #: Raises AssertionError unless the tables have the paper's shape.
    check: Callable[[Tables], None]
    #: Columns measured on the host clock: reported, never compared.
    host: Tuple[str, ...] = ()


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
    # lease never recovers slower than a longer one.
    assert len(rows) > 1
    for r in rows:
        assert 0.0 <= r["detect_s"] <= r["mttr_s"] < r["detect_s"] + 1.0
    mttr = [r["mttr_s"] for r in rows]
    assert all(a < b for a, b in zip(mttr, mttr[1:]))
    # ``within_bound`` (MTTR <= TTL + scan + grace + slack) is reported,
    # not asserted: the Guardian's serial probe-before-death pushes
    # detection ~7 s past the lease (ROADMAP, "A recovery path that
    # needs no favourable fault plan"), so the analytic bound has not
    # held since the probe was added.


def _check_e12(t: Tables) -> None:
    rows = _by(t["overload"], "config", "saturation_x")
    saturations = sorted({r["saturation_x"] for r in t["overload"]})
    for sat in saturations:
        adaptive, static = rows[("adaptive", sat)], rows[("static", sat)]
        # The robustness claim: under overload the adaptive stack keeps
        # the control plane clean — zero false death declarations, zero
        # dropped lease heartbeats, bounded p99 — and does not pay for
        # it with bulk goodput.
        assert adaptive["false_deaths"] == 0
        assert adaptive["hb_failed"] == 0
        assert adaptive["ok"]
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
    # ``wall_ms`` / ``overhead_pct`` are host-clock columns: reported in
    # the host block (min of repeats), not gated here.


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
    # window.
    assert t["summary"][0]["goodput_ratio"] >= 2.0
    # The baseline must exhibit the failure modes being fixed: it never
    # detects the zombie and turns lapsed leases into false deaths.
    for r in base:
        assert r["detection_s"] is None
        assert r["false_lease_deaths"] > 0


def _check_e16(t: Tables) -> None:
    s = t["summary"][0]
    # Every bounded run passes all six heal criteria with payloads at
    # the configured bound and no heartbeat failover; the one-blob
    # baseline breaches the bound; blackout recovery is from disk alone
    # with no delete resurrected.
    assert s["bounded_all_ok"] and s["blackout_all_ok"]
    assert s["baseline_breaches_bound"]
    assert s["hb_failovers_bounded"] == 0
    assert s["blackout_restores"] > 0 and s["blackout_resurrected"] == 0
    for r in t["runs"]:
        if r["config"] != "unbounded":
            assert r["max_sync_batch"] <= r["bound"]


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
        if r["config"] == "sharded":
            # Every preloaded name resolves. Failed ops get a
            # 0.1%-of-writes allowance: at the saturated top scale a
            # closed-loop QUORUM write can exhaust its retry budget
            # without indicting the federation.
            assert r["misses"] == 0
            assert r["failed"] <= 0.001 * (r["updates"] + r["creates"])
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
    # Same 0.1 % allowance as above. What it covers here is known: two
    # sessions sharing one fresh ShardedRCClient both fetch the map and
    # the second is redirected off an epoch-0 copy (ROADMAP, "one
    # client"); with one session per client it is zero.
    assert split["failed"] <= 0.001 * (
        split["lookups"] + split["updates"] + split["queries"])


# ---------------------------------------------------------------------------
# The table
# ---------------------------------------------------------------------------

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
        full={overload_goodput: {}},
        quick={overload_goodput: dict(saturations=(5.0,))},
        check=_check_e12),
    Experiment(
        "E13", "bulk distribution: unicast vs pipelined relay tree",
        full={bulk_distribution: {}},
        quick={bulk_distribution: dict(host_counts=(8, 16), object_kb=256)},
        check=_check_e13),
    Experiment(
        "E14", "observability overhead: tracing off / sampled / on",
        full={obs_overhead: dict(repeats=7)},
        quick={obs_overhead: dict(repeats=1, quick=True)},
        check=_check_e14, host=("wall_ms", "overhead_pct")),
    Experiment(
        "E15", "gray-failure detection: differential vs heartbeat-only",
        full={gray_goodput: {}},
        quick={gray_goodput: dict(seeds=(1,))},
        check=_check_e15),
    Experiment(
        "E16", "heal reconvergence: bounded anti-entropy vs one blob",
        full={heal_reconvergence: {}},
        quick={heal_reconvergence: dict(seeds=(1,), duration=28.0,
                                        part_for=10.0, interval=0.4)},
        check=_check_e16),
    Experiment(
        "E17", "kernel scalability: wan_site RPC echo",
        full={kernel_scale: dict(scales=(256, 512, 1024))},
        quick={kernel_scale: dict(scales=(16, 32), calls_per_host=2)},
        check=_check_e17, host=("wall_s", "events_per_s")),
    Experiment(
        "E18", "catalog scale: sharded federation vs full replication",
        full={catalog_scale: {}, split_under_load: {}},
        quick={catalog_scale: dict(name_counts=(200,), n_shards=2, window=2.0,
                                   n_client_hosts=2, sessions_per_host=2),
               split_under_load: dict(n_names=450, window=3.0,
                                      n_client_hosts=2, sessions_per_host=1)},
        check=_check_e18, host=("wall_s", "preload_s")),
)

BY_ID: Dict[str, Experiment] = {e.id: e for e in EXPERIMENTS}


# ---------------------------------------------------------------------------
# The runner
# ---------------------------------------------------------------------------

def run_experiment(exp: Experiment, profile: str) -> Tuple[Tables, float]:
    """Build every table of *exp* at *profile*; returns them with the
    wall-clock seconds the builders took."""
    t0 = time.perf_counter()
    tables: Tables = {}
    for build, kwargs in getattr(exp, profile).items():
        tables.update(build(**kwargs))
    return tables, time.perf_counter() - t0


def deterministic(exp: Experiment, tables: Tables) -> Tables:
    """*tables* without the host-clock columns: what ``check`` sees and
    what must regenerate byte for byte."""
    return {name: [{k: v for k, v in row.items() if k not in exp.host}
                   for row in rows]
            for name, rows in tables.items()}


def write_result(exp: Experiment, profile: str, tables: Tables,
                 wall_s: float, out: str) -> str:
    """Write ``<out>/<profile>/<id>.json``: the deterministic tables under
    ``rows``, and everything host-dependent under ``host``."""
    host: Dict[str, Any] = {"wall_s": round(wall_s, 2)}
    for name, rows in tables.items():
        cols = [{k: row[k] for k in exp.host if k in row} for row in rows]
        if any(cols):
            host[name] = cols
    return write_bench_json(
        exp.id, deterministic(exp, tables), os.path.join(out, profile),
        filename=f"{exp.id}.json",
        extra={
            "title": exp.title,
            "profile": profile,
            "params": {b.__name__: kw for b, kw in getattr(exp, profile).items()},
            "host": host,
        })


def main(argv: Optional[List[str]] = None) -> int:
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
        tables, wall_s = run_experiment(exp, profile)
        for name, rows in tables.items():
            print_table(f"{exp.id} {exp.title} — {name}", rows)
        try:
            exp.check(deterministic(exp, tables))
            verdict = "ok"
        except AssertionError as err:
            failed.append(exp.id)
            where = traceback.extract_tb(err.__traceback__)[-1]
            verdict = f"FAILED at `{where.line}` {err}".rstrip()
        path = write_result(exp, profile, tables, wall_s, args.out)
        print(f"\n{exp.id} check {verdict}  ({wall_s:.1f}s, {path})")
    if failed:
        print(f"\nFAILED checks: {' '.join(failed)}")
    return 1 if failed else 0
