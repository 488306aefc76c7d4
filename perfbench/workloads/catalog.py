"""The two catalog workloads: the same ``rcds`` layer used both ways.

``catalog-read-sharded`` drives the read path — shard-map routing,
register lookup and prefix query over a preloaded working set far above
any cache, through :class:`ShardedRCClient`. ``catalog-write-replicated``
drives the write path — apply, log, journal, snapshot, compaction and
anti-entropy in one durable replica group, through the plain
:class:`RCClient`. A read-side gain that taxes writes, or a client
unification that taxes the one-group case, shows on the other one.

Both are closed loops of sessions that each run a fixed, seeded op list
with exact mix counts (shuffled, not drawn), so the work is the same on
every seed and only its order and keys change.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, List, Sequence, Set, Tuple

from repro.core.environment import SnipeEnvironment
from repro.rcds.client import QUORUM, ConsistencyError
from repro.rcds.records import Entry

from perfbench.harness import Outcome

#: Per-request cost at every catalog server: a single-threaded replica
#: serving ~500 requests/s, the capacity unit both workloads load.
SERVICE_TIME = 0.002
#: Names per preloaded directory (the prefix-query answer size).
DIR_WIDTH = 100
#: Name groups; the sharded site carves one shard per group.
N_GROUPS = 4
#: Origin stamped on preloaded registers: never a server id, so no log
#: records stand behind them and the preload is born converged.
PRELOAD_ORIGIN = "preload"
#: Virtual seconds the write workload may wait for replicas to agree.
CONVERGE_CAP = 20.0

LOOKUP, QUERY, UPDATE, CREATE, DELETE = "lookup", "query", "update", "create", "delete"
Op = Tuple[str, Any, float]  # (kind, argument, think seconds before it)


def uri_of(i: int) -> str:
    """Name of preload index *i*: group (the shard radix), a directory
    level :data:`DIR_WIDTH` names wide (the query surface), the name."""
    return f"snipe://app/g{i % N_GROUPS}/d{(i // N_GROUPS) // DIR_WIDTH:05d}/n{i:09d}"


def dir_of(i: int) -> str:
    return uri_of(i).rsplit("/", 1)[0] + "/"


def created_uri(session: int, k: int) -> str:
    """Names sessions create live in their own directories, so preloaded
    directories keep a known population."""
    return f"snipe://app/g{(session + k) % N_GROUPS}/new{session:03d}/n{k:06d}"


def _thinks(rng: random.Random, n: int, mean: float) -> List[float]:
    """A shuffled even grid on [0.5, 1.5) x *mean*: same total per session."""
    grid = [mean * (0.5 + (j + 0.5) / n) for j in range(n)]
    rng.shuffle(grid)
    return grid


def _preload(stores, indices: Sequence[int]) -> None:
    """Install identical converged register state on one replica group;
    the Entry objects are shared across its replicas."""
    entries = [(uri_of(i), "v", Entry(value=0, lamport=1, origin=PRELOAD_ORIGIN, wall=0.0))
               for i in indices]
    for store in stores:
        store.install_entries(entries)


@dataclass
class Inputs:
    seed: int
    n_names: int
    client_hosts: int
    sessions_per_host: int
    #: Per session, the measured op list and the shorter warm-up list.
    plans: List[List[Op]]
    warm: List[List[Op]]


@dataclass
class Site:
    env: SnipeEnvironment
    client_hosts: List[str]
    #: Replica groups as lists of servers (one group when unsharded).
    groups: Dict[str, list]

    @property
    def sim(self):
        return self.env.sim


class _Tally:
    """What the sessions observed; shared by all of them in one phase."""

    def __init__(self) -> None:
        self.latencies: List[float] = []
        self.failed = 0
        self.misses = 0
        self.bad_queries = 0
        self.last_done = 0.0
        #: uri -> values acknowledged as written, in order (None = deleted).
        self.written: Dict[str, List[Any]] = {}
        #: uris whose last write gave up: their final value is unknowable.
        self.uncertain: Set[str] = set()


def _run_sessions(site: Site, inputs: Inputs, plans: List[List[Op]]) -> Tuple[_Tally, float]:
    """Run every session's op list to completion; returns the tally and
    the virtual time the phase started."""
    sim = site.sim
    tally = _Tally()
    t_start = sim.now

    def session(idx: int, ops: List[Op]):
        client = site.env.rc_client(site.client_hosts[idx // inputs.sessions_per_host])
        for opno, (kind, arg, think) in enumerate(ops):
            yield sim.timeout(think)
            t_op = sim.now
            uri = None
            try:
                if kind == LOOKUP:
                    got = yield client.lookup(uri_of(arg))
                    if not got:
                        tally.misses += 1
                elif kind == QUERY:
                    prefix, want = arg
                    got = yield client.query(prefix)
                    if not (want <= set(got)) or any(not u.startswith(prefix) for u in got):
                        tally.bad_queries += 1
                elif kind == DELETE:
                    uri = uri_of(arg)
                    yield client.delete(uri, consistency=QUORUM)
                    tally.written.setdefault(uri, []).append(None)
                else:
                    uri = uri_of(arg) if kind == UPDATE else created_uri(idx, arg)
                    value = f"s{idx}.{opno}"
                    yield client.update(uri, {"v": value}, consistency=QUORUM)
                    tally.written.setdefault(uri, []).append(value)
            except ConsistencyError:
                # A give-up is a failed op, not a fatal one.
                tally.failed += 1
                if uri is not None:
                    tally.uncertain.add(uri)
                continue
            tally.latencies.append(sim.now - t_op)
            tally.last_done = sim.now

    procs = [sim.process(session(i, ops), name=f"pb-session:{i}")
             for i, ops in enumerate(plans)]
    sim.run(until=sim.all_of(procs))
    return tally, t_start


def _outcome(tally: _Tally, plans, makespan: float, problems: List[str]) -> Outcome:
    attempted = sum(len(p) for p in plans)
    if tally.misses:
        problems.append(f"{tally.misses} lookups of a preloaded, never-deleted name read empty")
    if tally.bad_queries:
        problems.append(f"{tally.bad_queries} prefix queries missed or misplaced names")
    return Outcome(
        attempted=attempted,
        failed=tally.failed + tally.misses + tally.bad_queries,
        latencies=tally.latencies,
        makespan=makespan,
        problems=problems,
        facts={"ops": attempted, "giveups": tally.failed},
    )


def _stable_dir(i: int, n_names: int, doomed: Set[int]) -> Tuple[str, frozenset]:
    """The directory of index *i* and the names in it nobody deletes."""
    base = ((i // N_GROUPS) // DIR_WIDTH) * DIR_WIDTH * N_GROUPS + i % N_GROUPS
    members = [j for j in range(base, min(n_names, base + DIR_WIDTH * N_GROUPS), N_GROUPS)
               if j not in doomed]
    return dir_of(i), frozenset(uri_of(j) for j in members)


class CatalogReadSharded:
    name = "catalog-read-sharded"
    primary_op = "one client op"
    why = ("catalog read path: rcds.shard routing, rcds.records lookup/query at a working set "
           "far above any cache, rcds.server, rpc; preload makes setup_s and peak_rss_mb real")
    #: (preloaded names, client hosts, sessions per host, ops per session)
    FULL = (50_000, 8, 4, 300)
    QUICK = (2000, 2, 2, 40)

    def generate(self, seed: int, quick: bool) -> Inputs:
        n_names, hosts, per_host, n_ops = self.QUICK if quick else self.FULL
        rng = random.Random(seed)
        plans, warm = [], []
        for s in range(hosts * per_host):
            # 5 % queries, 3 % QUORUM updates, 1 % creates, the rest
            # lookups. The write share is what keeps every replica's
            # journal under its 256-record snapshot threshold for the
            # whole run: a snapshot is write-path cost, measured by
            # catalog-write-replicated, and whether one falls inside the
            # measured phase must not depend on the seed.
            counts = {QUERY: n_ops * 5 // 100, UPDATE: n_ops * 3 // 100,
                      CREATE: max(1, n_ops // 100)}
            counts[LOOKUP] = n_ops - sum(counts.values())
            plans.append(self._ops(rng, counts, n_names, s, create_base=100))
            warm.append(self._ops(rng, {LOOKUP: 2 * N_GROUPS, QUERY: 1, UPDATE: 1, CREATE: 1},
                                  n_names, s, create_base=0))
        return Inputs(seed, n_names, hosts, per_host, plans, warm)

    @staticmethod
    def _ops(rng: random.Random, counts: Dict[str, int], n_names: int, session: int,
             create_base: int) -> List[Op]:
        kinds = [k for k, n in counts.items() for _ in range(n)]
        rng.shuffle(kinds)
        created = updated = 0
        ops: List[Op] = []
        for kind, think in zip(kinds, _thinks(rng, len(kinds), mean=0.006)):
            if kind == QUERY:
                arg: Any = _stable_dir(rng.randrange(n_names), n_names, set())
            elif kind == CREATE:
                arg = create_base + created
                created += 1
            elif kind == UPDATE:
                # Updates rotate over the groups, so every shard takes
                # the same number of writes on every seed.
                arg = (rng.randrange(n_names // N_GROUPS) * N_GROUPS
                       + (session + updated) % N_GROUPS)
                updated += 1
            else:
                arg = rng.randrange(n_names)
            ops.append((kind, arg, think))
        return ops

    def setup(self, inputs: Inputs) -> Site:
        env = SnipeEnvironment(seed=inputs.seed)
        env.add_segment("lan")
        roots = ["r0", "r1", "r2"]
        placement = [f"n{i}" for i in range(3 * N_GROUPS)]
        clients = [f"cl{i}" for i in range(inputs.client_hosts)]
        for name in roots + placement + clients:
            env.add_host(name, segments=["lan"])
        env.add_rc_servers(roots, sharded=True, service_time=SERVICE_TIME)
        mgr = env.enable_sharding(
            placement_hosts=placement, replicas_per_shard=3, split_threshold=None,
            server_kw=dict(service_time=SERVICE_TIME))
        for k in range(N_GROUPS):
            mgr.add_shard(f"g{k}", (f"snipe://app/g{k}/",))
        mgr.start()
        mgr.seed_map()
        groups = {sid: list(group.values()) for sid, group in mgr.servers.items()}
        for k in range(N_GROUPS):
            _preload([s.store for s in groups[f"g{k}"]], range(k, inputs.n_names, N_GROUPS))
        env.settle(1.0)
        site = Site(env, clients, groups)
        # Shard-map bootstrap, one op per client host on its own: two
        # sessions racing a client's first map fetch can surface the
        # epoch-0 redirect as a give-up, which is cold-start behaviour
        # this benchmark does not measure.
        boot = [[(LOOKUP, 0, 0.0)] if s % inputs.sessions_per_host == 0 else []
                for s in range(len(inputs.plans))]
        _run_sessions(site, inputs, boot)
        tally, _t0 = _run_sessions(site, inputs, inputs.warm)
        if tally.failed or tally.misses or tally.bad_queries:
            raise RuntimeError("catalog-read-sharded warm-up had failing ops")
        return site

    def measure(self, site: Site, inputs: Inputs) -> Outcome:
        tally, t_start = _run_sessions(site, inputs, inputs.plans)
        problems: List[str] = []
        mgr = site.env.shard_manager
        lost = 0
        for uri, values in tally.written.items():
            if uri in tally.uncertain:
                continue
            holders = site.groups[mgr.map.route(uri)]
            if sum(s.store.get(uri, "v") in values for s in holders) < len(holders) // 2 + 1:
                lost += 1
        if lost:
            problems.append(f"{lost} QUORUM-acknowledged writes are not on a majority of "
                            "their shard's replicas")
        return _outcome(tally, inputs.plans, tally.last_done - t_start, problems)


class CatalogWriteReplicated:
    name = "catalog-write-replicated"
    primary_op = "one client op"
    why = ("catalog write path: apply/log/compact/journal/sync in one durable 3-replica group "
           "through the unsharded RCClient; the guard against read-side or client changes")
    #: (preloaded names, client hosts, sessions per host, ops per session)
    FULL = (4000, 4, 4, 160)
    QUICK = (1000, 2, 2, 40)

    def generate(self, seed: int, quick: bool) -> Inputs:
        n_names, hosts, per_host, n_ops = self.QUICK if quick else self.FULL
        rng = random.Random(seed)
        n_sessions = hosts * per_host
        counts = {UPDATE: n_ops * 55 // 100, CREATE: n_ops * 10 // 100,
                  DELETE: n_ops * 10 // 100, LOOKUP: n_ops * 20 // 100}
        counts[QUERY] = n_ops - sum(counts.values())
        # Session s owns the preload indices congruent to s, so every
        # name has one sequential writer and its final value is known.
        owned = [list(range(s, n_names, n_sessions)) for s in range(n_sessions)]
        doomed_by = [rng.sample(owned[s], counts[DELETE]) for s in range(n_sessions)]
        doomed = {i for d in doomed_by for i in d}
        stable = [i for i in range(n_names) if i not in doomed]
        plans, warm = [], []
        for s in range(n_sessions):
            mine = [i for i in owned[s] if i not in doomed]
            plans.append(self._ops(rng, counts, mine, doomed_by[s], stable, n_names, doomed, 100))
            warm.append(self._ops(rng, {UPDATE: 8, CREATE: 2, LOOKUP: 4, QUERY: 2},
                                  mine, [], stable, n_names, doomed, 0))
        return Inputs(seed, n_names, hosts, per_host, plans, warm)

    @staticmethod
    def _ops(rng, counts, mine, doomed_mine, stable, n_names, doomed, create_base) -> List[Op]:
        kinds = [k for k, n in counts.items() for _ in range(n)]
        rng.shuffle(kinds)
        to_delete = list(doomed_mine)
        created = 0
        ops: List[Op] = []
        for kind, think in zip(kinds, _thinks(rng, len(kinds), mean=0.04)):
            if kind == QUERY:
                arg: Any = _stable_dir(rng.choice(stable), n_names, doomed)
            elif kind == CREATE:
                arg = create_base + created
                created += 1
            elif kind == DELETE:
                arg = to_delete.pop()
            elif kind == UPDATE:
                arg = rng.choice(mine)
            else:
                arg = rng.choice(stable)
            ops.append((kind, arg, think))
        return ops

    def setup(self, inputs: Inputs) -> Site:
        env = SnipeEnvironment(seed=inputs.seed)
        env.add_segment("lan")
        replicas = ["r0", "r1", "r2"]
        clients = [f"cl{i}" for i in range(inputs.client_hosts)]
        for name in replicas + clients:
            env.add_host(name, segments=["lan"])
        # RCServer defaults: durable journal + snapshots, anti-entropy
        # every 0.5 s, log compaction on.
        servers = env.add_rc_servers(replicas, service_time=SERVICE_TIME)
        _preload([s.store for s in servers], range(inputs.n_names))
        env.settle(1.0)
        site = Site(env, clients, {"all": servers})
        tally, _t0 = _run_sessions(site, inputs, inputs.warm)
        if tally.failed or tally.misses or tally.bad_queries:
            raise RuntimeError("catalog-write-replicated warm-up had failing ops")
        return site

    def measure(self, site: Site, inputs: Inputs) -> Outcome:
        tally, t_start = _run_sessions(site, inputs, inputs.plans)
        sim = site.sim
        stores = [s.store for s in site.groups["all"]]
        problems: List[str] = []
        cap = sim.now + CONVERGE_CAP
        while sim.now < cap and not all(st.digest() == stores[0].digest() for st in stores[1:]):
            sim.run(until=sim.now + 0.05)
        if sim.now >= cap:
            problems.append(f"replicas did not converge within {CONVERGE_CAP} virtual s")
        wrong = 0
        for uri, values in tally.written.items():
            if uri not in tally.uncertain and any(st.get(uri, "v") != values[-1] for st in stores):
                wrong += 1
        if wrong:
            problems.append(f"{wrong} names do not hold their last acknowledged write on "
                            "every replica after convergence")
        # The wait for anti-entropy is part of the measured work but not
        # of the makespan: it depends on where the last op fell in the
        # 0.5 s sync cycle, not on how fast the catalog is.
        return _outcome(tally, inputs.plans, tally.last_done - t_start, problems)
