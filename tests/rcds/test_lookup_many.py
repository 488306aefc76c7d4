"""``rc.lookup_many`` against per-name ``rc.lookup``: the batch is the
same reads, answered in one request per replica (and per shard).

* ONE and QUORUM over a group with one stale replica per key: every
  name's batched answer equals its single lookup, and at QUORUM the
  newest ``wall`` wins per key;
* an unknown name answers ``{}``; ``[]`` sends nothing;
* a sharded client whose map predates a split gets its batch redirected,
  refreshes the map, regroups the names over the child shards and still
  returns the unsharded answer.
"""

import pytest

from repro.bench.e18_catalog_scale import PRELOAD_ORIGIN, _site, _uri
from repro.rcds import ONE, QUORUM, RCClient
from repro.rcds.records import Entry
from repro.rcds.shard import client as shard_client
from repro.rpc import RpcClient

from .test_server_client import cluster, run_proc

URIS = [f"urn:snipe:proc:t{i}" for i in range(4)]
UNKNOWN = "urn:snipe:proc:nobody"


def _one_sided_staleness(servers):
    """Replica k holds an old copy of key ``k{k}`` of every name and the
    newest copy of every other key (anti-entropy is parked by the caller)."""
    for k, server in enumerate(servers):
        for uri in URIS:
            for j in range(3):
                server.store.local_update(
                    uri, {f"k{j}": "old" if j == k else "new"},
                    wall=1.0 if j == k else 2.0)


def _values(answer):
    """``{uri: {key: (value, wall)}}`` — what a reader sees. The origin is
    left out: equal copies written on different replicas (or re-stamped
    by a shard handoff) differ only there."""
    return {uri: {key: (info["value"], info["wall"]) for key, info in found.items()}
            for uri, found in answer.items()}


def _both_ways(client, consistency):
    """(batched answer, per-name answers) for URIS + UNKNOWN."""
    sim = client.sim

    def go():
        batch = yield client.lookup_many(URIS + [UNKNOWN], consistency)
        singles = {}
        for uri in URIS + [UNKNOWN]:
            singles[uri] = yield client.lookup(uri, consistency)
        return batch, singles

    return run_proc(sim, go())


@pytest.mark.parametrize("consistency", [ONE, QUORUM])
def test_batch_equals_per_name_lookups(consistency):
    sim, topo, hosts, servers, replicas = cluster(sync_interval=1e6)
    _one_sided_staleness(servers)
    # At ONE the local replica (h0) answers both ways; at QUORUM the
    # client on h4 reads a shuffled majority.
    client = RCClient(hosts[0 if consistency == ONE else 4], replicas)
    batch, singles = _both_ways(client, consistency)
    assert _values(batch) == _values(singles)
    assert batch[UNKNOWN] == {}
    if consistency == QUORUM:
        # Any two replicas include one that holds the newest copy of each
        # key, and the per-key merge keeps it.
        want = {"k0": ("new", 2.0), "k1": ("new", 2.0), "k2": ("new", 2.0)}
    else:
        want = {"k0": ("old", 1.0), "k1": ("new", 2.0), "k2": ("new", 2.0)}
    assert all(_values(batch)[uri] == want for uri in URIS)


def test_batch_is_one_request_per_replica_and_empty_sends_nothing(monkeypatch):
    sim, topo, hosts, servers, replicas = cluster(sync_interval=1e6)
    _one_sided_staleness(servers)
    client = RCClient(hosts[4], replicas)
    calls = []
    real_call = RpcClient.call

    def call(self, dst_host, dst_port, method, **kw):
        calls.append(method)
        return real_call(self, dst_host, dst_port, method, **kw)

    monkeypatch.setattr(RpcClient, "call", call)

    def go():
        empty = yield client.lookup_many([], QUORUM)
        assert calls == []
        full = yield client.lookup_many(URIS, QUORUM)
        return empty, full

    empty, full = run_proc(sim, go())
    assert empty == {} and sorted(full) == sorted(URIS)
    assert calls == ["rc.lookup_many"] * 2
    metrics = sim.obs.metrics
    assert metrics.counter("rcds.lookups").value == 2     # requests, not names


N_NAMES = 120
N_BRANCHES = 4


def test_sharded_batch_regroups_after_a_live_split(monkeypatch):
    # The client keeps whatever map it holds until a redirect forces a
    # refresh, so its batch after the split is routed on the stale map.
    monkeypatch.setattr(shard_client, "MAP_TTL", 1e9)
    env, placement, hosts = _site(1, 1)
    env.add_rc_servers(["r0", "r1", "r2"], sharded=True, service_time=0.0002)
    mgr = env.enable_sharding(placement_hosts=placement, replicas_per_shard=3,
                              split_threshold=None,
                              server_kw=dict(service_time=0.0002))
    mgr.add_shard("app", ("snipe://app/",))
    mgr.start()
    mgr.seed_map()
    uris = [_uri(i, N_BRANCHES) for i in range(N_NAMES)]
    entries = [(uri, "v", Entry(value=i, lamport=1, origin=PRELOAD_ORIGIN, wall=0.0))
               for i, uri in enumerate(uris)]
    for server in mgr.servers["app"].values():
        server.store.install_entries(entries)
    want = {uri: {"v": (i, 0.0)} for i, uri in enumerate(uris)}
    want["snipe://app/g0/nobody"] = {}
    sim = env.sim
    client = env.rc_client(hosts[0])
    got = {}

    def drive():
        yield sim.timeout(0.5)
        got["before"] = yield client.lookup_many(list(want))
        epoch = client.map.epoch
        assert (yield from mgr._split("app"))
        yield sim.timeout(15.0)          # the parent drains into its children
        assert client.map.epoch == epoch  # still routing on the old map
        got["after"] = yield client.lookup_many(list(want))

    sim.process(drive(), name="drive")
    sim.run(until=20.0)
    assert _values(got["before"]) == want
    assert _values(got["after"]) == want
    assert client.redirect_retries >= 1
    owners = {client.map.route(uri) for uri in uris}
    assert len(owners) >= 2 and "app" not in owners
