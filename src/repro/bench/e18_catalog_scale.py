"""E18 — catalog scale: a sharded federation vs full replication.

    "SNIPE is intended to scale to thousands of hosts spread across the
    national infrastructure" (§1) — and to catalogs far past what one
    replica group can serve.

The un-sharded catalog replicates every name on every replica: capacity
is one group's capacity no matter how many hosts the site has. The
sharded federation (:mod:`repro.rcds.shard`) partitions the namespace by
prefix across per-shard replica groups, so serving capacity grows with
the number of groups while clients keep the exact RCClient API through
the map-routed facade.

Scenario: one LAN site with 3 root/directory hosts, 12 shard placement
hosts, and a pool of client hosts. The catalog is preloaded to N names
(``10^4``–``10^5`` by default; pass ``10^6`` for the full curve) as
already-converged register state — the preload models a catalog that
grew over months, not a write benchmark — then a closed-loop client mix
of lookups (70%), QUORUM updates (20%), creates (5%), and directory
prefix queries (5%) churns it for a measurement window. Both configs
run on identical hardware and identical workloads:

* **sharded** — the namespace pre-carved into ``n_shards`` prefix
  shards, each with its own 3-replica group on the placement hosts;
  clients route through :class:`ShardedRCClient`.
* **full-replication** — the classic 3-replica group on the root hosts
  holding every name; clients use the plain :class:`RCClient`.

Reported per row: lookup p50/p99 and update/query p99 latency,
per-second served rates, failed ops, and lookup misses (a preloaded
name that read empty — must be zero without migration in flight).

``split_under_load`` is the second half of the experiment: one shard
preloaded past its split threshold, so the director splits it *while
the closed-loop load runs*. Reported: when the split published, how
long the handoff took to drain the parent, lookup p99 across the run,
redirects/redirect-retries (the epoch fence at work), and the count of
lookup misses inside the migration window — the availability cost of
moving a live namespace.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.bench.table import Tables
from repro.core.environment import SnipeEnvironment
from repro.rcds.client import QUORUM, ConsistencyError
from repro.rcds.records import Entry

#: Per-request service cost at every catalog server (§E9 uses the same
#: single-threaded-replica model): the capacity unit the two configs
#: contrast. 2ms => one replica serves ~500 requests/s.
SERVICE_TIME = 0.002

#: Names per directory level in the synthetic namespace.
DIR_WIDTH = 100

#: Client op mix (cumulative): lookup / update / create / query.
MIX_LOOKUP, MIX_UPDATE, MIX_CREATE = 0.70, 0.90, 0.95

#: Mean think time between a session's ops (closed loop).
THINK = 0.006

#: Origin id stamped on preloaded register state. Never a real server
#: id, so anti-entropy has no records to ship for it — the preload is
#: born converged.
PRELOAD_ORIGIN = "preload"


def _uri(i: int, n_shards: int) -> str:
    """Deterministic name for preload index *i*: group (the shard radix),
    then a directory level ~DIR_WIDTH names wide (the query surface)."""
    return (f"snipe://app/g{i % n_shards}"
            f"/d{(i // n_shards) // DIR_WIDTH:05d}/n{i:09d}")


def _site(seed: int, n_client_hosts: int,
          n_placement: int = 12) -> Tuple[SnipeEnvironment, List[str], List[str]]:
    """One LAN: 3 root hosts, the shard placement pool, client hosts.
    Both configs build the identical site; full replication just leaves
    the placement pool idle (that asymmetry *is* the experiment)."""
    env = SnipeEnvironment(seed=seed)
    env.add_segment("lan")
    for name in ("r0", "r1", "r2"):
        env.add_host(name, segments=["lan"])
    placement = [f"n{i}" for i in range(n_placement)]
    for name in placement:
        env.add_host(name, segments=["lan"])
    clients = [f"cl{i}" for i in range(n_client_hosts)]
    for name in clients:
        env.add_host(name, segments=["lan"])
    return env, placement, clients


def _preload(stores, indices: Sequence[int], n_shards: int) -> None:
    """Install identical, already-converged register state on every
    replica of one group. Entries carry a synthetic origin with no log
    records behind it, so no anti-entropy or journal traffic follows —
    and one Entry object is shared across the group's replicas."""
    entries = [(_uri(i, n_shards), "v",
                Entry(value=0, lamport=1, origin=PRELOAD_ORIGIN, wall=0.0))
               for i in indices]  # per-group index order is already sorted
    for store in stores:
        store.install_entries(entries)


def _pct(vals: List[float], q: float) -> Optional[float]:
    if not vals:
        return None
    vals = sorted(vals)
    return vals[min(len(vals) - 1, int(q * len(vals)))]


def _ms(v: Optional[float]) -> Optional[float]:
    return round(v * 1000, 2) if v is not None else None


def _sessions(env: SnipeEnvironment, client_hosts: List[str],
              sessions_per_host: int, n_names: int, n_shards: int,
              t0: float, t1: float) -> Dict:
    """Start the closed-loop client mix; returns the shared tally the
    sessions fill in (latency lists + op counters)."""
    n_dirs = max(1, (n_names // n_shards) // DIR_WIDTH)
    state: Dict = {
        "next_i": n_names, "failed": 0, "misses": 0,
        "lookup": [], "update": [], "create": [], "query": [],
    }
    sim = env.sim

    def session(idx: int, host: str):
        client = env.rc_client(host)
        rng = sim.rng.stream(f"e18.session.{idx}")
        yield sim.timeout(max(0.0, t0 - sim.now) + rng.uniform(0.0, 0.1))
        while sim.now < t1:
            r = rng.random()
            t_op = sim.now
            try:
                if r < MIX_LOOKUP:
                    i = rng.randrange(state["next_i"])
                    got = yield client.lookup(_uri(i, n_shards))
                    state["lookup"].append(sim.now - t_op)
                    if i < n_names and not got:
                        state["misses"] += 1
                elif r < MIX_UPDATE:
                    i = rng.randrange(n_names)
                    yield client.update(_uri(i, n_shards), {"v": idx},
                                        consistency=QUORUM)
                    state["update"].append(sim.now - t_op)
                elif r < MIX_CREATE:
                    i = state["next_i"]
                    state["next_i"] = i + 1
                    yield client.update(_uri(i, n_shards), {"v": 0},
                                        consistency=QUORUM)
                    state["create"].append(sim.now - t_op)
                else:
                    g = rng.randrange(n_shards)
                    d = rng.randrange(n_dirs)
                    yield client.query(f"snipe://app/g{g}/d{d:05d}/")
                    state["query"].append(sim.now - t_op)
            except ConsistencyError:
                state["failed"] += 1
            yield sim.timeout(THINK * (0.5 + rng.random()))

    for j, host in enumerate(client_hosts):
        for s in range(sessions_per_host):
            sim.process(session(j * sessions_per_host + s, host),
                        name=f"e18-session:{host}.{s}")
    return state


def _row(config: str, n_names: int, n_shards: int, n_servers: int,
         n_sessions: int, window: float, state: Dict,
         redirects: int) -> Dict:
    served = sum(len(state[k]) for k in ("lookup", "update", "create", "query"))
    return {
        "config": config,
        "names": n_names,
        "shards": n_shards,
        "servers": n_servers,
        "clients": n_sessions,
        "window_s": window,
        "lookups": len(state["lookup"]),
        "updates": len(state["update"]),
        "creates": len(state["create"]),
        "queries": len(state["query"]),
        "failed": state["failed"],
        "misses": state["misses"],
        "ops_per_s": round(served / window, 1),
        "lookups_per_s": round(len(state["lookup"]) / window, 1),
        "updates_per_s": round(len(state["update"]) / window, 1),
        "lookup_p50_ms": _ms(_pct(state["lookup"], 0.50)),
        "lookup_p99_ms": _ms(_pct(state["lookup"], 0.99)),
        "update_p99_ms": _ms(_pct(state["update"], 0.99)),
        "query_p99_ms": _ms(_pct(state["query"], 0.99)),
        "redirects": redirects,
    }


def _run_config(config: str, n_names: int, n_shards: int, window: float,
                n_client_hosts: int, sessions_per_host: int,
                seed: int) -> Dict:
    env, placement, client_hosts = _site(seed, n_client_hosts)
    if config == "sharded":
        env.add_rc_servers(["r0", "r1", "r2"], sharded=True,
                           service_time=SERVICE_TIME)
        mgr = env.enable_sharding(
            placement_hosts=placement, replicas_per_shard=3,
            split_threshold=None, server_kw=dict(service_time=SERVICE_TIME))
        for k in range(n_shards):
            mgr.add_shard(f"g{k}", (f"snipe://app/g{k}/",))
        mgr.start()
        mgr.seed_map()
        for k in range(n_shards):
            stores = [s.store for s in mgr.servers[f"g{k}"].values()]
            _preload(stores, range(k, n_names, n_shards), n_shards)
        n_servers = 3 + 3 * n_shards
    else:
        servers = env.add_rc_servers(["r0", "r1", "r2"],
                                     service_time=SERVICE_TIME)
        mgr = None
        _preload([s.store for s in servers], range(n_names), n_shards)
        n_servers = 3
    t0, t1 = 1.0, 1.0 + window
    state = _sessions(env, client_hosts, sessions_per_host,
                      n_names, n_shards, t0, t1)
    env.sim.run(until=t1 + 3.0)
    redirects = (sum(s.redirects for s in mgr.all_servers().values())
                 if mgr is not None else 0)
    return _row(config, n_names, n_shards, n_servers,
                n_client_hosts * sessions_per_host, window, state, redirects)


def catalog_scale(
    name_counts: Sequence[int] = (10_000, 100_000),
    n_shards: int = 4,
    window: float = 20.0,
    n_client_hosts: int = 8,
    sessions_per_host: int = 4,
    seed: int = 1,
) -> Tables:
    """The E18 matrix: table ``scale``, one row per (config, name count);
    table ``summary``, the capacity headline across them."""
    rows: List[Dict] = []
    for n_names in name_counts:
        for config in ("sharded", "full-replication"):
            rows.append(_run_config(config, n_names, n_shards, window,
                                    n_client_hosts, sessions_per_host, seed))
    return {"scale": rows, "summary": [_summary(rows)]}


def split_under_load(
    seed: int = 1,
    n_names: int = 3_000,
    split_threshold: Optional[int] = None,
    window: float = 30.0,
    n_client_hosts: int = 4,
    sessions_per_host: int = 2,
    n_shards: int = 4,
) -> Tables:
    """One shard preloaded past its threshold splits under live load;
    table ``split`` holds the one row.

    ``n_shards`` here only shapes the *names* (the radix the split plan
    bites on); the catalog starts as a single ``app`` shard owning the
    whole ``snipe://app/`` prefix. The threshold defaults to 2/3 of the
    preload so one split suffices (children land under it)."""
    if split_threshold is None:
        split_threshold = (2 * n_names) // 3
    env, placement, client_hosts = _site(seed, n_client_hosts)
    env.add_rc_servers(["r0", "r1", "r2"], sharded=True,
                       service_time=SERVICE_TIME)
    mgr = env.enable_sharding(
        placement_hosts=placement, replicas_per_shard=3,
        split_threshold=split_threshold,
        server_kw=dict(service_time=SERVICE_TIME))
    mgr.add_shard("app", ("snipe://app/",))
    mgr.start()
    mgr.seed_map()
    parent_group = list(mgr.servers["app"].values())
    _preload([s.store for s in parent_group], range(n_names), n_shards)

    sim = env.sim
    t0, t1 = 1.0, 1.0 + window
    state = _sessions(env, client_hosts, sessions_per_host,
                      n_names, n_shards, t0, t1)
    marks = {"split_at": None, "drained_at": None}

    def monitor():
        while sim.now < t1:
            yield sim.timeout(0.2)
            if marks["split_at"] is None and mgr.splits >= 1:
                marks["split_at"] = sim.now
            if (marks["split_at"] is not None and marks["drained_at"] is None
                    and all(s.store.live_uri_count() == 0
                            for s in parent_group)):
                marks["drained_at"] = sim.now

    sim.process(monitor(), name="e18-split-monitor")
    sim.run(until=t1 + 3.0)
    clients = [env.rc_client(h) for h in client_hosts]
    return {"split": [{
        "names": n_names,
        "split_threshold": split_threshold,
        "splits": mgr.splits,
        "epoch": mgr.map.epoch,
        "shards": len(mgr.map.shards),
        "split_at_s": (round(marks["split_at"], 2)
                       if marks["split_at"] is not None else None),
        "drain_s": (round(marks["drained_at"] - marks["split_at"], 2)
                    if marks["drained_at"] is not None else None),
        "lookups": len(state["lookup"]),
        "updates": len(state["update"]) + len(state["create"]),
        "queries": len(state["query"]),
        "failed": state["failed"],
        "misses": state["misses"],
        "miss_rate": round(state["misses"] / max(len(state["lookup"]), 1), 4),
        "lookup_p99_ms": _ms(_pct(state["lookup"], 0.99)),
        "redirects": sum(s.redirects for s in mgr.all_servers().values()),
        "redirect_retries": sum(c.redirect_retries for c in clients),
        "handoffs": sum(s.handoffs for s in parent_group),
    }]}


def _summary(rows: List[Dict]) -> Dict:
    """Cross-row aggregates: the capacity headline at the largest scale
    and the flat-latency claim across scales."""
    sharded = [r for r in rows if r["config"] == "sharded"]
    base = [r for r in rows if r["config"] == "full-replication"]
    top_s = max(sharded, key=lambda r: r["names"]) if sharded else None
    top_b = max(base, key=lambda r: r["names"]) if base else None
    out: Dict = {
        "max_names": top_s["names"] if top_s else 0,
        "speedup_ops": (round(top_s["ops_per_s"] / top_b["ops_per_s"], 2)
                        if top_s and top_b and top_b["ops_per_s"] else None),
        "sharded_p99_ms": top_s["lookup_p99_ms"] if top_s else None,
        "baseline_p99_ms": top_b["lookup_p99_ms"] if top_b else None,
        "sharded_misses": sum(r["misses"] for r in sharded),
        "baseline_misses": sum(r["misses"] for r in base),
    }
    if len(sharded) > 1:
        lo = min(sharded, key=lambda r: r["names"])
        out["p99_flat_across_scales"] = (
            top_s["lookup_p99_ms"] is not None
            and lo["lookup_p99_ms"] is not None
            and top_s["lookup_p99_ms"] <= 3 * max(lo["lookup_p99_ms"], 1.0))
    return out
