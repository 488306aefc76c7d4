"""The sites and workloads the scenario runners drive.

:mod:`repro.robust.chaos` holds one body per scenario; this module holds
what those bodies are built from: the star site (a stable service core
behind a gateway, each worker alone on its own segment so it can be
isolated) and its sharded variant, the checkpointing task workload, and
the load generators — open-loop Poisson lookups (overload), closed-loop
catalog sessions (gray, heal) and per-key write/retire/delete load
(heal, shard). RNG stream names, process and task names are part of the
replay contract.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.core.checkpoint import checkpoint_to_files
from repro.core.environment import SnipeEnvironment
from repro.daemon.tasks import TaskSpec
from repro.rcds.client import QUORUM, ConsistencyError, RCClient
from repro.robust import TIMEOUTS
from repro.rpc import RpcClient, RpcError


def _star_site(
    seed: int,
    n_workers: int,
    configure: Optional[Callable] = None,
    backup_core: bool = False,
) -> Tuple[SnipeEnvironment, List[str]]:
    """Hosts and wires of the star site, nothing running on them yet:
    c0-c2 and a forwarding gateway on the core LAN(s), each worker alone
    on its own segment behind the gateway so it can be isolated."""
    env = SnipeEnvironment(seed=seed)
    if configure is not None:
        configure(env.sim)
    env.add_segment("core-lan")
    core_segments = ["core-lan"]
    if backup_core:
        env.add_segment("core-lan2")
        core_segments.append("core-lan2")
    for name in ("c0", "c1", "c2"):
        env.add_host(name, segments=core_segments)
    gw = env.add_host("gw", segments=core_segments, forwarding=True)
    workers = []
    for i in range(n_workers):
        seg = env.add_segment(f"s-w{i}")
        env.topology.connect(gw, seg)
        env.add_host(f"w{i}", segments=[f"s-w{i}"], arch="worker")
        workers.append(f"w{i}")
    return env, workers


def build_chaos_env(
    seed: int,
    n_workers: int = 4,
    rc_service_time: Optional[float] = None,
    configure: Optional[Callable] = None,
    backup_core: bool = False,
    rc_server_kw: Optional[Dict] = None,
) -> Tuple[SnipeEnvironment, List[str]]:
    """The chaos site: stable core (RC x3, RM, files, guardians) behind a
    gateway, each worker alone on its own segment so it can be isolated.

    ``rc_service_time`` makes the RC replicas single-threaded bottleneck
    servers (the overload scenario saturates them); ``configure(sim)``
    runs before any endpoint exists, so it can set
    :class:`repro.robust.overload.OverloadConfig` fields that are read at
    queue-construction time. ``backup_core`` adds a second core segment
    (every core host dual-homed), so a one-way fault on one core link has
    a healthy alternate path — the gray scenario's per-interface health
    scoring steers around the sick link instead of timing out forever.
    """
    env, workers = _star_site(seed, n_workers, configure, backup_core)
    server_kw = dict(rc_server_kw or {})
    if rc_service_time is not None:
        server_kw["service_time"] = rc_service_time
    env.add_rc_servers(["c0", "c1", "c2"], **server_kw)
    for name in ("c0", "c1", "c2", "gw", *workers):
        env.boot_daemon(name)
    env.add_rm("c0")
    env.add_file_server("c0")
    env.add_file_server("c1")
    env.add_guardian("c1")
    env.add_guardian("c2")
    return env, workers


class CheckpointWorkload:
    """The chaos-collector on c0 plus one checkpointing *program* task per
    worker host, started on a settled site — the workload of the faults,
    overload and gray runs (and of a checked heal run). Task names
    (``<prefix>-coll``, ``<prefix>-w<i>``) are part of the replay
    contract.

    ``chaos-worker`` reports every step, checkpoints behind its
    acknowledged output and claims completion unless fenced.
    ``overload-worker`` is the same loop hardened for overload: reports
    and checkpoints are best-effort and there is no completion, because
    bulk-plane failures are *expected* under saturation and a program
    crash would read as a (true) death, drowning the false-death signal
    the overload scenario measures.
    """

    def __init__(self, env: SnipeEnvironment, workers: List[str], prefix: str,
                 total: int, ckpt_every: int, step: float,
                 program: str = "chaos-worker") -> None:
        self.total = total
        self.acked: Dict[str, int] = {}
        self.state: Dict = {"done": {}, "done_at": {}, "progress": {},
                            "mismatch": []}
        self.wstats = {"steps": 0, "send_failures": 0, "ckpt_failures": 0}
        self._install(env)
        env.settle(2.0)
        self.coll = env.spawn(
            TaskSpec(program="chaos-collector", name=f"{prefix}-coll"), on="c0")
        self.urns: List[str] = []
        for i, w in enumerate(workers):
            spec = TaskSpec(
                program=program,
                arch="worker",  # keep (re)placement on the worker fleet
                name=f"{prefix}-w{i}",
                params={"total": total, "ckpt_every": ckpt_every,
                        "collector_urn": self.coll.urn, "step": step},
            )
            self.urns.append(env.spawn(spec, on=w).urn)

    def all_reported(self) -> bool:
        return len(self.state["done"]) == len(self.urns)

    def completed(self) -> List[str]:
        return [u for u in self.urns if self.state["done"].get(u) == self.total]

    def _install(self, env: SnipeEnvironment) -> None:
        acked, coll_state, wstats = self.acked, self.state, self.wstats

        @env.program("chaos-worker")
        def chaos_worker(ctx, total, ckpt_every, collector_urn, step):
            def take_checkpoint():
                # Checkpointing is durability, not progress: when every
                # file server is briefly unreachable (gray quorum loss,
                # one-way cuts) the task keeps computing and retries at
                # the next boundary — dying here would turn a storage
                # degradation into the very failure checkpoints exist to
                # survive. Recovery resumes from the last checkpoint that
                # *did* land; the redone steps are duplicates the
                # collector dedups.
                try:
                    yield checkpoint_to_files(ctx)
                except Exception:
                    coll_state["ckpt_skipped"] = coll_state.get("ckpt_skipped", 0) + 1
                    ctx.sim.obs.metrics.counter("ckpt.skipped").inc()

            i = ctx.checkpoint_state.get("i", 0)
            # Checkpoint immediately: from the first instant there is a
            # durable state for the Guardian to restart from.
            yield from take_checkpoint()
            while i < total:
                yield ctx.compute(step)
                i += 1
                ctx.checkpoint_state["i"] = i
                yield ctx.send(collector_urn,
                               {"urn": ctx.urn, "i": i, "inc": ctx.incarnation},
                               tag="progress")
                acked[ctx.urn] = acked.get(ctx.urn, 0) + 1
                # Output-commit discipline: checkpoint only after the
                # report for this step was acknowledged. A checkpoint
                # that ran ahead of unacknowledged output would let a
                # crash lose the report for work the successor (resuming
                # past it) never redoes.
                if i % ckpt_every == 0:
                    yield from take_checkpoint()
            # App-level fence check before claiming completion: a
            # superseded incarnation leaves the report to its successor.
            try:
                fence = yield ctx.rc.get(ctx.urn, "fenced-below")
            except Exception:
                fence = None
            if fence is not None and ctx.incarnation < fence:
                return i
            yield ctx.send(collector_urn,
                           {"urn": ctx.urn, "result": i, "inc": ctx.incarnation},
                           tag="done")
            acked[ctx.urn] = acked.get(ctx.urn, 0) + 1
            return i

        @env.program("overload-worker")
        def overload_worker(ctx, total, ckpt_every, collector_urn, step):
            i = 0
            while i < total:
                yield ctx.compute(step)
                i += 1
                wstats["steps"] += 1
                try:
                    yield ctx.send(collector_urn,
                                   {"urn": ctx.urn, "i": i, "inc": ctx.incarnation},
                                   tag="progress")
                except Exception:
                    wstats["send_failures"] += 1
                if i % ckpt_every == 0:
                    try:
                        yield checkpoint_to_files(ctx)
                    except Exception:
                        wstats["ckpt_failures"] += 1
            return i

        @env.program("chaos-collector")
        def chaos_collector(ctx):
            while True:
                msg = yield ctx.recv()
                p = msg.payload
                urn = p["urn"]
                if msg.tag == "done":
                    if urn not in coll_state["done"]:
                        coll_state["done"][urn] = p["result"]
                        coll_state["done_at"][urn] = ctx.sim.now
                    elif coll_state["done"][urn] != p["result"]:
                        coll_state["mismatch"].append(urn)
                else:
                    coll_state["progress"].setdefault(urn, set()).add(p["i"])


def start_load_generators(
    env: SnipeEnvironment,
    workers: List[str],
    offered_rate: float,
    t_load0: float,
    t_load1: float,
    max_outstanding: int = 48,
) -> Dict:
    """Open-loop Poisson ``rc.lookup`` generators on the worker hosts.

    Offers *offered_rate* lookups/s site-wide between ``t_load0`` and
    ``t_load1`` (outstanding calls capped per host, so the sim stays
    bounded). Returns the shared load-counters dict.
    """
    replicas = list(env.rc_replicas)
    load = {"offered": 0, "issued": 0, "ok": 0, "failed": 0, "ok_in_window": 0}

    def _load_gen(host_name: str):
        client = RpcClient(env.topology.hosts[host_name])
        rng = env.sim.rng.stream(f"overload.load.{host_name}")
        state = {"outstanding": 0, "rr": 0}

        def one_call(rhost: str, rport: int):
            try:
                yield client.call(rhost, rport, "rc.lookup",
                                  timeout=TIMEOUTS["rc.call"],
                                  uri=f"snipe://host/{rhost}")
                load["ok"] += 1
                if t_load0 <= env.sim.now <= t_load1:
                    load["ok_in_window"] += 1
            except RpcError:
                load["failed"] += 1
            finally:
                state["outstanding"] -= 1

        def gen():
            yield env.sim.timeout(max(0.0, t_load0 - env.sim.now))
            rate = offered_rate / len(workers)
            while env.sim.now < t_load1:
                yield env.sim.timeout(rng.expovariate(rate))
                load["offered"] += 1
                if state["outstanding"] >= max_outstanding:
                    load["failed"] += 1  # client-side shed: site hopeless
                    continue
                state["outstanding"] += 1
                load["issued"] += 1
                rhost, rport = replicas[state["rr"] % len(replicas)]
                state["rr"] += 1
                env.sim.process(one_call(rhost, rport),
                                name=f"ovl-call:{host_name}")

        env.sim.process(gen(), name=f"ovl-load:{host_name}")

    for w in workers:
        _load_gen(w)
    return load


def start_gray_sessions(
    env: SnipeEnvironment,
    workers: List[str],
    t0: float,
    t1: float,
    ops_per_session: int = 8,
    think: float = 0.05,
) -> Dict:
    """Closed-loop, short-lived catalog sessions on the worker hosts.

    Each session is a *fresh* :class:`RCClient` (fresh circuit breakers,
    fresh RTT estimates — the state a short-lived task starts with) doing
    ``ops_per_session`` sequential lookups, then closing. Closed-loop on
    purpose: a zombie replica's timeouts stall the session, so goodput
    reflects detection quality instead of hiding it the way open-loop
    fire-and-forget would. What persists across sessions is only the
    *host's* health board — exactly the differential-detector state the
    gray scenario measures.
    """
    stats = {"sessions": 0, "ops_ok": 0, "ops_failed": 0,
             "window": (t0, t1), "in_window": {}}

    def _driver(host_name: str):
        host = env.topology.hosts[host_name]
        rng = env.sim.rng.stream(f"gray.load.{host_name}")

        def session():
            client = RCClient(host, list(env.rc_replicas), secret=env.secret)
            try:
                for _ in range(ops_per_session):
                    target = env.rc_replicas[rng.randrange(len(env.rc_replicas))][0]
                    try:
                        yield client.lookup(f"snipe://host/{target}")
                        stats["ops_ok"] += 1
                        key = int(env.sim.now)
                        stats["in_window"][key] = stats["in_window"].get(key, 0) + 1
                    except Exception:
                        stats["ops_failed"] += 1
                    yield env.sim.timeout(think)
            finally:
                client.close()

        def gen():
            yield env.sim.timeout(max(0.0, t0 - env.sim.now))
            while env.sim.now < t1:
                stats["sessions"] += 1
                yield env.sim.process(session(), name=f"gray-sess:{host_name}")
                yield env.sim.timeout(think)

        env.sim.process(gen(), name=f"gray-load:{host_name}")

    for w in workers:
        _driver(w)
    return stats


def _start_keyed_load(env: SnipeEnvironment, workers: List[str], t0: float,
                      t1: float, n_keys: int, interval: float,
                      retire_frac: float, retire_window: Tuple[float, float],
                      stream: str, uri_of: Callable[[int], str],
                      ops_of: Callable, failure: type,
                      delete_delay: float = 0.0) -> Dict:
    """Per-key write, then retire, then delete load — what both the heal
    and the shard sessions are.

    Key *i* (``uri_of(i)``) gets a writer process on worker ``i mod n``
    writing a monotonic sequence number every ~*interval* (jitter from
    ``<stream>.k<i>``) from *t0* to *t1*. The first ``retire_frac`` of
    the keys instead stop at a time drawn from *stream* inside
    *retire_window*, wait *delete_delay*, and are deleted (up to five
    tries). ``ops_of(i, worker)`` binds a key's ``(write(uri, n),
    delete(uri))``; each returns the event to wait on and fails with
    *failure*. ``tracked["acked"][uri]`` is the last acknowledged
    ``(n, time)``; a deleted key moves to ``tracked["retired"]``.
    """
    rng = env.sim.rng.stream(stream)
    n_retire = int(n_keys * retire_frac)
    tracked: Dict = {
        "writes_ok": 0, "writes_failed": 0,
        "deletes_ok": 0, "deletes_failed": 0,
        "acked": {}, "retired": {}, "keys": [],
    }

    def _driver(i: int) -> None:
        uri = uri_of(i)
        tracked["keys"].append(uri)
        write, delete = ops_of(i, workers[i % len(workers)])
        jitter = env.sim.rng.stream(f"{stream}.k{i}")
        retire_t = rng.uniform(*retire_window) if i < n_retire else None

        def writer():
            yield env.sim.timeout(max(0.0, t0 - env.sim.now))
            n = 0
            stop = retire_t if retire_t is not None else t1
            while env.sim.now < stop:
                n += 1
                try:
                    yield write(uri, n)
                    tracked["writes_ok"] += 1
                    tracked["acked"][uri] = (n, env.sim.now)
                except failure:
                    tracked["writes_failed"] += 1
                yield env.sim.timeout(interval * (0.75 + 0.5 * jitter.random()))
            if retire_t is None:
                return
            if delete_delay:
                yield env.sim.timeout(delete_delay)
            for _ in range(5):
                try:
                    yield delete(uri)
                    tracked["deletes_ok"] += 1
                    tracked["retired"][uri] = env.sim.now
                    tracked["acked"].pop(uri, None)
                    return
                except failure:
                    yield env.sim.timeout(0.5)
            tracked["deletes_failed"] += 1

        env.sim.process(writer(), name=f"{stream.replace('.', '-')}:k{i}")

    for i in range(n_keys):
        _driver(i)
    return tracked


def start_heal_sessions(
    env: SnipeEnvironment,
    workers: List[str],
    t0: float,
    t1: float,
    n_keys: int = 24,
    interval: float = 0.4,
    value_pad: int = 1024,
    retire_frac: float = 0.25,
    retire_window: Tuple[float, float] = (0.0, 0.0),
) -> Dict:
    """Sustained per-key write/delete load against *pinned* replicas.

    Each key is written by one worker to one fixed replica (a direct
    :class:`RpcClient`, deliberately *without* failover) so that during
    a partition both sides keep accepting divergent writes — the worst
    case anti-entropy has to heal. The first ``retire_frac`` of the keys
    stop being written at a seeded time inside *retire_window* and are
    then deleted through the *next* replica in the ring, which during
    the partition usually sits on the other side of the cut: exactly the
    write-here/delete-there pair that tombstone resurrection bugs need.

    Values carry ``value_pad`` bytes of padding and a monotonic sequence
    prefix (``"<n>:xxx..."``), so the report can check that what the
    replicas converge on is at least as new as the last acknowledged
    write per key.
    """
    replicas = list(env.rc_replicas)
    clients: Dict[str, RpcClient] = {}

    def ops_of(i: int, wname: str):
        pin = replicas[i % len(replicas)]
        deleter = replicas[(i + 1) % len(replicas)]
        rpc = clients.setdefault(
            wname, RpcClient(env.topology.hosts[wname], secret=env.secret))
        return (
            lambda uri, n: rpc.call(
                pin[0], pin[1], "rc.update", timeout=TIMEOUTS["rc.call"],
                uri=uri, assertions={"v": f"{n}:" + "x" * value_pad}),
            lambda uri: rpc.call(
                deleter[0], deleter[1], "rc.delete", timeout=TIMEOUTS["rc.call"],
                uri=uri, keys=None),
        )

    return _start_keyed_load(
        env, workers, t0, t1, n_keys, interval, retire_frac, retire_window,
        "heal.load", lambda i: f"snipe://heal/k{i}", ops_of, RpcError,
        delete_delay=0.5)


def visible_state(store, uri: str) -> Dict[str, Tuple]:
    """One replica's visible (non-deleted) assertions for *uri*, keyed by
    assertion name, as comparable ``(stamp, value)`` tuples."""
    out: Dict[str, Tuple] = {}
    for key, entry in store.data.get(uri, {}).items():
        if not entry.deleted:
            out[key] = (entry.wall, entry.lamport, entry.origin, entry.value)
    return out


def build_shard_env(
    seed: int,
    n_workers: int = 3,
    split_threshold: int = 24,
    replicas_per_shard: int = 3,
    rc_server_kw: Optional[Dict] = None,
    manager_kw: Optional[Dict] = None,
) -> Tuple[SnipeEnvironment, List[str]]:
    """The shard chaos site: a sharded catalog on the core hosts, workers
    each alone behind the gateway so they can be isolated.

    The root directory group sits at the usual RC port on c0/c1/c2; one
    initial ``app`` shard owns ``snipe://app/`` with its replica group on
    the same core hosts (different port). The director runs on the
    gateway — deliberately off the core hosts, so a core crash stresses
    the shard groups without also beheading map publication."""
    env, workers = _star_site(seed, n_workers)
    env.add_rc_servers(["c0", "c1", "c2"], sharded=True,
                       **dict(rc_server_kw or {}))
    mgr = env.enable_sharding(
        split_threshold=split_threshold,
        replicas_per_shard=replicas_per_shard,
        director_host="gw",
        **dict(manager_kw or {}))
    mgr.add_shard("app", ("snipe://app/",))
    mgr.start()
    mgr.seed_map()
    return env, workers


def start_shard_sessions(
    env: SnipeEnvironment,
    workers: List[str],
    t0: float,
    t1: float,
    n_keys: int = 48,
    interval: float = 0.25,
    retire_frac: float = 0.2,
    retire_window: Tuple[float, float] = (0.0, 0.0),
) -> Dict:
    """Closed-loop write/delete load through the sharded facade.

    Every key is written at QUORUM through a :class:`ShardedRCClient`
    (each worker host gets one), with a monotonic sequence number as the
    value — an ack means a majority of the *owning* group at that epoch
    accepted it, which is exactly the durability the quiescent checks
    hold the federation to while splits move the ownership under the
    writers. The first ``retire_frac`` keys stop at a seeded time inside
    *retire_window* and are deleted; a retired key reappearing after
    migration with a stamp *older* than its delete is a resurrection
    across the split boundary. (A strictly newer stamp is not: an
    abandoned write kept alive by transport retransmission can land
    after the delete and win LWW — base-catalog semantics the shard
    layer must preserve, not mask.)"""

    def ops_of(_i: int, wname: str):
        client = env.rc_client(wname)
        return (lambda uri, n: client.update(uri, {"v": n}, consistency=QUORUM),
                lambda uri: client.delete(uri, consistency=QUORUM))

    return _start_keyed_load(
        env, workers, t0, t1, n_keys, interval, retire_frac, retire_window,
        # Structured names so splits have a radix to bite on.
        "shard.load", lambda i: f"snipe://app/g{i % 4}/k{i:03d}", ops_of,
        ConsistencyError)
