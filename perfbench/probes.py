"""Layer probes: isolated micro-workloads timing one layer's public calls.

Each probe builds its own minimal fixture from product packages, times a
fixed number of operations on the host clock, and asserts its own result
(every probed lookup returns the preloaded value, every message arrives)
so a probe cannot get faster by doing less. A probe reports the median
of :data:`REPEATS` runs; rates are operations per host second unless the
name says otherwise, and the two ``*_virt_mbps`` twins are the modelled
goodput on the virtual clock (the paper's Fig. 1 quantity).
"""

from __future__ import annotations

import random
import statistics
import time
from dataclasses import replace
from typing import Callable, Dict, List, Tuple

from repro.bulk.chunks import ChunkMap, build_chunk_map, chunk_digests, split_chunks
from repro.core.checkpoint import seal_record, verify_checkpoint_record
from repro.net.media import ETHERNET_100
from repro.net.packet import Frame
from repro.net.topology import Topology
from repro.obs.metrics import Histogram
from repro.rcds.records import Entry, RCStore
from repro.rcds.shard.map import ShardInfo, ShardMap
from repro.rpc import RpcClient, RpcServer
from repro.security.hashes import content_hash
from repro.sim.kernel import Simulator
from repro.transport.srudp import SrudpEndpoint
from repro.transport.stream import StreamEndpoint

from perfbench.workloads.catalog import DIR_WIDTH, uri_of
from perfbench.workloads.rpc_echo_wan import build_wan

REPEATS = 3
#: A lossless LAN: probes assert every frame arrives, so the medium's
#: one-in-a-million residual loss must not fail a run by chance.
LAN = replace(ETHERNET_100, name="probe-lan", loss_rate=0.0)
STORE_NAMES = 100_000

Probe = Callable[[], Dict[str, float]]


def _timed(fn: Callable[[], None]) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def _pair(medium=LAN) -> Tuple[Simulator, Topology, object, object]:
    sim = Simulator(seed=1)
    topo = Topology(sim)
    seg = topo.add_segment("lan", medium)
    a, b = topo.add_host("a"), topo.add_host("b")
    topo.connect(a, seg)
    topo.connect(b, seg)
    return sim, topo, a, b


def calib_spin() -> Dict[str, float]:
    """Allocation-heavy pure-Python spin: how fast this box is right now."""
    def spin():
        acc = []
        for i in range(1_200_000):
            acc.append((i, str(i)))
            if len(acc) > 1000:
                acc = []
    return {"probe.calib_spin_s": _timed(spin)}


# -- sim ---------------------------------------------------------------------
def sim_timeouts() -> Dict[str, float]:
    n = 60_000
    sim = Simulator(seed=1)
    fired = [0]

    def hit(_ev):
        fired[0] += 1

    def go():
        for i in range(n):
            sim.timeout(i * 1e-4).add_callback(hit)
        sim.run()

    dt = _timed(go)
    if fired[0] != n:
        raise AssertionError(f"timeout probe fired {fired[0]}/{n}")
    return {"probe.sim.timeout_events_per_s": n / dt}


def sim_timer_cancel() -> Dict[str, float]:
    n = 150_000
    sim = Simulator(seed=1)
    fired = [0]

    def hit():
        fired[0] += 1

    def go():
        for i in range(n):
            sim.schedule_timer(0.05 + (i % 100) * 1e-3, hit).cancel()
        sim.run()

    dt = _timed(go)
    if fired[0]:
        raise AssertionError(f"{fired[0]} cancelled timers fired")
    return {"probe.sim.timer_cancel_per_s": n / dt}


def sim_process_switch() -> Dict[str, float]:
    procs, rounds = 50, 3000
    sim = Simulator(seed=1)
    resumed = [0]

    def body():
        for _ in range(rounds):
            yield sim.timeout(0.001)
            resumed[0] += 1

    def go():
        sim.run(until=sim.all_of([sim.process(body(), name=f"pb-p:{i}") for i in range(procs)]))

    dt = _timed(go)
    if resumed[0] != procs * rounds:
        raise AssertionError("process-switch probe lost resumes")
    return {"probe.sim.process_switch_per_s": procs * rounds / dt}


# -- net ---------------------------------------------------------------------
def _blast(sim, nic, dst_ip, l2, sink_host, n: int) -> float:
    got = [0]
    binding = sink_host.bind("udp", 9)
    binding.handler = lambda frame: got.__setitem__(0, got[0] + 1)
    nic.txq_capacity = n + 1

    def go():
        for _ in range(n):
            nic.send(Frame(src=nic.address, dst_ip=dst_ip, proto="udp", src_port=9,
                           dst_port=9, payload=None, size=nic.medium.mtu, l2_dst=l2))
        sim.run()

    dt = _timed(go)
    if got[0] != n:
        raise AssertionError(f"net probe delivered {got[0]}/{n} frames")
    return n / dt


def net_frames() -> Dict[str, float]:
    sim, _topo, a, b = _pair()
    nic = next(iter(a.nics.values()))
    dst_ip = next(iter(b.nics.values())).address.ip
    return {"probe.net.frames_per_s": _blast(sim, nic, dst_ip, None, b, 50_000)}


def net_forward() -> Dict[str, float]:
    sim = Simulator(seed=1)
    topo = Topology(sim)
    s1, s2 = topo.add_segment("s1", LAN), topo.add_segment("s2", LAN)
    a, gw, b = topo.add_host("a"), topo.add_host("gw", forwarding=True), topo.add_host("b")
    topo.connect(a, s1)
    topo.connect(gw, s1)
    topo.connect(gw, s2)
    topo.connect(b, s2)
    dst_ip = next(iter(b.nics.values())).address.ip
    nic, l2 = topo.next_hop("a", dst_ip)
    rate = _blast(sim, nic, dst_ip, l2, b, 20_000)
    if gw.forwarded_frames != 20_000:
        raise AssertionError("forward probe bypassed the gateway")
    return {"probe.net.forward_frames_per_s": rate}


def net_route_cold() -> Dict[str, float]:
    n_lans, per_lan, routes = 64, 16, 60
    topo, _hosts = build_wan(Simulator(seed=1), n_lans, per_lan)
    rng = random.Random(1)
    pairs = [(f"l{rng.randrange(n_lans)}h{rng.randrange(1, per_lan)}",
              f"l{rng.randrange(n_lans)}h{rng.randrange(1, per_lan)}") for _ in range(routes)]
    found: List = []
    dt = _timed(lambda: found.extend(topo.route(a, b) for a, b in pairs))
    if any(p is None or p[0] != a or p[-1] != b for p, (a, b) in zip(found, pairs)):
        raise AssertionError("route probe returned a wrong path")
    return {"probe.net.route_cold_per_s": routes / dt}


# -- transport / rpc -----------------------------------------------------------
def _stream_of(endpoint_cls, size: int, count: int) -> Tuple[float, float]:
    """Send *count* messages of *size* bytes a->b one after another;
    returns (host seconds, virtual seconds)."""
    sim, _topo, a, b = _pair()
    tx, rx = endpoint_cls(a, 5000), endpoint_cls(b, 5000)
    got = [0]

    def sender():
        for i in range(count):
            yield tx.send("b", 5000, ("m", i), size)

    def receiver():
        for i in range(count):
            msg = yield rx.recv()
            if msg.payload != ("m", i) or msg.size != size:
                raise AssertionError(f"transport probe: message {i} arrived wrong")
            got[0] += 1

    procs = [sim.process(sender(), name="pb-tx"), sim.process(receiver(), name="pb-rx")]
    t_virtual = sim.now
    dt = _timed(lambda: sim.run(until=sim.all_of(procs)))
    if got[0] != count:
        raise AssertionError("transport probe lost messages")
    return dt, sim.now - t_virtual


def _transport(tag: str, cls, small_n: int, big_n: int) -> Probe:
    def probe() -> Dict[str, float]:
        mb = 1 << 20
        dt_small, _v = _stream_of(cls, 1024, small_n)
        dt_big, virt_big = _stream_of(cls, mb, big_n)
        return {
            f"probe.transport.{tag}_1k_msgs_per_s": small_n / dt_small,
            f"probe.transport.{tag}_1m_mb_per_s": big_n / dt_big,
            f"probe.transport.{tag}_1m_virt_mbps": big_n * mb * 8 / virt_big / 1e6,
        }
    return probe


def _echo_calls(n: int, trace: bool) -> float:
    sim, _topo, a, b = _pair()
    sim.obs.tracer.enabled = trace
    RpcServer(b, 7100).register("echo", lambda args: args["x"])
    client = RpcClient(a)

    def go():
        for i in range(n):
            if (yield client.call("b", 7100, "echo", x=i)) != i:
                raise AssertionError("rpc probe: wrong echo")

    proc = sim.process(go(), name="pb-echo")
    return _timed(lambda: sim.run(until=proc))


def rpc_echo() -> Dict[str, float]:
    n = 2000
    return {"probe.rpc.echo_calls_per_s": n / _echo_calls(n, trace=False)}


def obs_tracing() -> Dict[str, float]:
    n = 1500
    off, on = _echo_calls(n, trace=False), _echo_calls(n, trace=True)
    return {"probe.obs.tracing_on_ratio": on / off}


# -- rcds ----------------------------------------------------------------------
def rcds_store() -> Dict[str, float]:
    n_ops = 40_000
    entries = [(uri_of(i), "v", Entry(value=i, lamport=1, origin="preload", wall=0.0))
               for i in range(STORE_NAMES)]
    store, peer = RCStore("a:385"), RCStore("b:385")
    dt_install = _timed(lambda: store.install_entries(entries))
    peer.install_entries(entries)
    if store.live_uri_count() != STORE_NAMES:
        raise AssertionError("install probe: names missing")
    rng = random.Random(1)
    keys = [rng.randrange(STORE_NAMES) for _ in range(n_ops)]

    hits = [0]

    def lookups():
        for i in keys:
            if store.lookup(uri_of(i))["v"]["value"] == i:
                hits[0] += 1

    dt_lookup = _timed(lookups)
    if hits[0] != n_ops:
        raise AssertionError("lookup probe: a preloaded name read wrong")

    prefixes = [uri_of(i).rsplit("/", 1)[0] + "/" for i in keys[:5000]]
    sizes: List[int] = []
    dt_query = _timed(lambda: sizes.extend(len(store.query(p)) for p in prefixes))
    if any(s != DIR_WIDTH for s in sizes):
        raise AssertionError(f"query probe: a directory is not {DIR_WIDTH} names wide")

    records: List = []
    dt_update = _timed(lambda: records.extend(
        r for k, i in enumerate(keys) for r in store.local_update(uri_of(i), {"v": -k}, 1.0 + k)))
    if len(records) != n_ops or store.get(uri_of(keys[-1]), "v") != -(n_ops - 1):
        raise AssertionError("update probe: writes missing")

    applied = [0]
    dt_apply = _timed(lambda: applied.__setitem__(0, peer.apply_remote(records)))
    if applied[0] != n_ops or peer.digest() != {"a:385": n_ops}:
        raise AssertionError("apply_remote probe: records not all new")
    return {
        "probe.rcds.store_install_per_s": STORE_NAMES / dt_install,
        "probe.rcds.store_lookup_per_s": n_ops / dt_lookup,
        "probe.rcds.store_query_per_s": len(prefixes) / dt_query,
        "probe.rcds.store_update_per_s": n_ops / dt_update,
        "probe.rcds.store_apply_remote_per_s": n_ops / dt_apply,
    }


def rcds_shard_route() -> Dict[str, float]:
    shards = [ShardInfo("root", ("",), (("r0", 385),))]
    shards += [ShardInfo(f"s{k}", (f"snipe://app/g{k:02d}/",), ((f"n{k}", 1400),))
               for k in range(64)]
    smap = ShardMap(1, shards)
    names = [f"snipe://app/g{i % 64:02d}/d{i:05d}/n{i:09d}" for i in range(30_000)]
    owners: List[str] = []
    dt = _timed(lambda: owners.extend(smap.route(n) for n in names))
    if any(o != f"s{i % 64}" for i, o in enumerate(owners)):
        raise AssertionError("shard-route probe: wrong owner")
    return {"probe.rcds.shard_route_per_s": len(names) / dt}


# -- bulk / core / security / obs ------------------------------------------------
def bulk_chunks() -> Dict[str, float]:
    data = random.Random(1).randbytes(16 << 20)
    digests: List = []
    dt = _timed(lambda: digests.extend(chunk_digests(split_chunks(data, 16384))))
    if len(set(digests)) != 1024:
        raise AssertionError("chunk-digest probe: digests collide")
    secret = b"perfbench"
    cmap, _chunks = build_chunk_map("obj", data[: 384 * 16384], 16384)
    published = {k: {"value": v} for k, v in cmap.to_assertions(secret).items()}
    n = 2000
    out: List = []
    dt_verify = _timed(lambda: out.extend(
        ChunkMap.from_assertions(published, secret) for _ in range(n)))
    if any(m != cmap for m in out):
        raise AssertionError("chunk-map probe: verified map differs")
    return {"probe.bulk.chunk_digest_mb_per_s": 16 / dt,
            "probe.bulk.chunkmap_verify_per_s": n / dt_verify}


def core_seal() -> Dict[str, float]:
    n = 20_000
    ok = [0]

    def go():
        for i in range(n):
            record = {"urn": f"urn:snipe:proc:w.{i}", "program": "worker",
                      "params": {"total": 60, "step": 0.3}, "state": {"i": i}, "taken_at": 1.0 * i}
            ok[0] += verify_checkpoint_record(seal_record(record))

    dt = _timed(go)
    if ok[0] != n:
        raise AssertionError("seal probe: a sealed record failed verification")
    return {"probe.core.seal_verify_per_s": n / dt}


def security_hash() -> Dict[str, float]:
    blocks = [random.Random(i).randbytes(1 << 20) for i in range(8)]
    rounds = 40
    out: List = []
    dt = _timed(lambda: out.extend(content_hash(b) for _ in range(rounds) for b in blocks))
    if len(set(out)) != len(blocks):
        raise AssertionError("hash probe: digests collide")
    return {"probe.security.hash_mb_per_s": rounds * len(blocks) / dt}


def obs_histogram() -> Dict[str, float]:
    n = 800_000
    h = Histogram("probe")
    values = [1e-4 * (1 + i % 997) for i in range(n)]

    def go():
        for v in values:
            h.observe(v)

    dt = _timed(go)
    if h.n != n:
        raise AssertionError("histogram probe lost observations")
    return {"probe.obs.histogram_observe_per_s": n / dt}


PROBES: Tuple[Probe, ...] = (
    calib_spin, sim_timeouts, sim_timer_cancel, sim_process_switch,
    net_frames, net_forward, net_route_cold,
    _transport("srudp", SrudpEndpoint, 5000, 30), _transport("stream", StreamEndpoint, 5000, 6),
    rpc_echo, rcds_store, rcds_shard_route, bulk_chunks, core_seal, security_hash,
    obs_histogram, obs_tracing,
)

#: name -> (unit, better), for BENCHMARK.json and the printed table.
PROBE_METRICS: Dict[str, Tuple[str, str]] = {
    "probe.calib_spin_s": ("s", "lower"),
    "probe.sim.timeout_events_per_s": ("1/s", "higher"),
    "probe.sim.timer_cancel_per_s": ("1/s", "higher"),
    "probe.sim.process_switch_per_s": ("1/s", "higher"),
    "probe.net.frames_per_s": ("1/s", "higher"),
    "probe.net.forward_frames_per_s": ("1/s", "higher"),
    "probe.net.route_cold_per_s": ("1/s", "higher"),
    "probe.transport.srudp_1k_msgs_per_s": ("1/s", "higher"),
    "probe.transport.srudp_1m_mb_per_s": ("MB/s", "higher"),
    "probe.transport.srudp_1m_virt_mbps": ("Mbit/s", "higher"),
    "probe.transport.stream_1k_msgs_per_s": ("1/s", "higher"),
    "probe.transport.stream_1m_mb_per_s": ("MB/s", "higher"),
    "probe.transport.stream_1m_virt_mbps": ("Mbit/s", "higher"),
    "probe.rpc.echo_calls_per_s": ("1/s", "higher"),
    "probe.rcds.store_install_per_s": ("1/s", "higher"),
    "probe.rcds.store_lookup_per_s": ("1/s", "higher"),
    "probe.rcds.store_query_per_s": ("1/s", "higher"),
    "probe.rcds.store_update_per_s": ("1/s", "higher"),
    "probe.rcds.store_apply_remote_per_s": ("1/s", "higher"),
    "probe.rcds.shard_route_per_s": ("1/s", "higher"),
    "probe.bulk.chunk_digest_mb_per_s": ("MB/s", "higher"),
    "probe.bulk.chunkmap_verify_per_s": ("1/s", "higher"),
    "probe.core.seal_verify_per_s": ("1/s", "higher"),
    "probe.security.hash_mb_per_s": ("MB/s", "higher"),
    "probe.obs.histogram_observe_per_s": ("1/s", "higher"),
    "probe.obs.tracing_on_ratio": ("ratio", "lower"),
}


def run_probes(repeats: int = REPEATS) -> Dict[str, float]:
    """Every probe, *repeats* times each; the median per metric."""
    out: Dict[str, float] = {}
    for probe in PROBES:
        samples: Dict[str, List[float]] = {}
        for _ in range(repeats):
            for name, value in probe().items():
                samples.setdefault(name, []).append(value)
        for name, values in samples.items():
            out[name] = statistics.median(values)
    missing = set(PROBE_METRICS) - set(out)
    if missing:
        raise LookupError(f"perfbench: probes did not report {sorted(missing)}")
    return out
