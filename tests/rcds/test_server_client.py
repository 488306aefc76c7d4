"""Integration tests: RC servers + clients over the simulated network."""


from repro.rcds import ALL, MASTER, ONE, QUORUM, ConsistencyError, RCClient, RCServer
from repro.rcds.lifn import LifnRegistry

from ..transport.conftest import make_lan


def cluster(n_servers=3, n_hosts=5, seed=0, **server_kw):
    sim, topo, hosts = make_lan(n_hosts=n_hosts, seed=seed)
    replicas = [(f"h{i}", 385) for i in range(n_servers)]
    servers = [
        RCServer(hosts[i], peers=[r for r in replicas if r[0] != f"h{i}"], **server_kw)
        for i in range(n_servers)
    ]
    return sim, topo, hosts, servers, replicas


def run_proc(sim, gen):
    p = sim.process(gen)
    return sim.run(until=p)


def test_update_then_lookup_one():
    sim, topo, hosts, servers, replicas = cluster()
    client = RCClient(hosts[4], replicas)

    def go(sim):
        yield client.update("urn:snipe:proc:t1", {"state": "running", "host": "h4"})
        got = yield client.lookup("urn:snipe:proc:t1")
        return got

    got = run_proc(sim, go(sim))
    assert got["state"]["value"] == "running"
    assert got["state"]["wall"] >= 0  # automatic timestamping


def test_anti_entropy_propagates_to_all_replicas():
    sim, topo, hosts, servers, replicas = cluster()
    client = RCClient(hosts[4], replicas)

    def go(sim):
        yield client.update("urn:x", {"v": 42}, consistency=ONE)
        yield sim.timeout(5.0)  # several anti-entropy rounds
        return None

    run_proc(sim, go(sim))
    for server in servers:
        assert server.store.get("urn:x", "v") == 42


def test_lookup_fails_over_to_live_replica():
    sim, topo, hosts, servers, replicas = cluster()
    client = RCClient(hosts[4], replicas, rpc_timeout=0.3)

    def go(sim):
        yield client.update("urn:x", {"v": 1}, consistency=ALL)
        hosts[0].crash()
        hosts[1].crash()
        got = yield client.lookup("urn:x", consistency=ONE)
        return got["v"]["value"]

    assert run_proc(sim, go(sim)) == 1
    assert client.failovers >= 0


def test_quorum_write_survives_minority_failure():
    sim, topo, hosts, servers, replicas = cluster()
    client = RCClient(hosts[4], replicas, rpc_timeout=0.3)

    def go(sim):
        hosts[2].crash()  # 2 of 3 replicas still up
        yield client.update("urn:x", {"v": "q"}, consistency=QUORUM)
        got = yield client.lookup("urn:x", consistency=QUORUM)
        return got["v"]["value"]

    assert run_proc(sim, go(sim)) == "q"


def test_quorum_fails_under_majority_failure():
    sim, topo, hosts, servers, replicas = cluster()
    client = RCClient(hosts[4], replicas, rpc_timeout=0.2)

    def go(sim):
        hosts[0].crash()
        hosts[1].crash()
        try:
            yield client.update("urn:x", {"v": 1}, consistency=QUORUM)
        except ConsistencyError:
            return "failed"
        return "ok"

    assert run_proc(sim, go(sim)) == "failed"


def test_quorum_read_sees_freshest_write():
    """R+W overlap: a QUORUM read after a QUORUM write returns the new value
    even before anti-entropy runs."""
    sim, topo, hosts, servers, replicas = cluster(sync_interval=1000.0)
    client = RCClient(hosts[4], replicas)

    def go(sim):
        yield client.update("urn:x", {"v": "old"}, consistency=ALL)
        yield client.update("urn:x", {"v": "new"}, consistency=QUORUM)
        got = yield client.lookup("urn:x", consistency=QUORUM)
        return got["v"]["value"]

    assert run_proc(sim, go(sim)) == "new"


def test_master_mode_fails_when_master_down():
    """The LDAP/MDS-style baseline loses write availability with its master."""
    sim, topo, hosts, servers, replicas = cluster()
    client = RCClient(hosts[4], replicas, rpc_timeout=0.2)

    def go(sim):
        yield client.update("urn:x", {"v": 1}, consistency=MASTER)
        hosts[0].crash()  # replicas[0] is the master
        try:
            yield client.update("urn:x", {"v": 2}, consistency=MASTER)
        except ConsistencyError:
            return "write-unavailable"
        return "ok"

    assert run_proc(sim, go(sim)) == "write-unavailable"


def test_shared_secret_cluster():
    sim, topo, hosts, servers, replicas = cluster(secret=b"rc-secret")
    good = RCClient(hosts[4], replicas, secret=b"rc-secret")
    bad = RCClient(hosts[3], replicas, secret=b"intruder", rpc_timeout=0.2)

    def go(sim):
        yield good.update("urn:x", {"v": 1})
        try:
            yield bad.update("urn:x", {"v": 666})
        except ConsistencyError:
            return (yield good.get("urn:x", "v"))

    assert run_proc(sim, go(sim)) == 1


def test_query_lists_registered_processes():
    sim, topo, hosts, servers, replicas = cluster()
    client = RCClient(hosts[4], replicas)

    def go(sim):
        yield client.update("urn:snipe:proc:a", {"state": "running"}, consistency=ALL)
        yield client.update("urn:snipe:proc:b", {"state": "exited"}, consistency=ALL)
        return (yield client.query("urn:snipe:proc:"))

    assert run_proc(sim, go(sim)) == ["urn:snipe:proc:a", "urn:snipe:proc:b"]


def test_lifn_bind_resolve():
    sim, topo, hosts, servers, replicas = cluster()
    client = RCClient(hosts[4], replicas)
    lifns = LifnRegistry(client)

    def go(sim):
        yield lifns.bind("data.bin", "file://h0/data.bin", content_hash="abc123")
        yield lifns.bind("data.bin", "file://h4/data.bin")
        locs = yield lifns.locations("data.bin")
        chash = yield lifns.content_hash("data.bin")
        return locs, chash

    locs, chash = run_proc(sim, go(sim))
    assert locs == ["file://h0/data.bin", "file://h4/data.bin"]
    assert chash == "abc123"


def test_recovered_replica_catches_up():
    sim, topo, hosts, servers, replicas = cluster(sync_interval=0.3)
    client = RCClient(hosts[4], replicas, rpc_timeout=0.3)

    def go(sim):
        hosts[2].crash()
        yield client.update("urn:x", {"v": "while-down"}, consistency=QUORUM)
        yield sim.timeout(2.0)
        hosts[2].recover()
        yield sim.timeout(5.0)  # anti-entropy heals it
        return servers[2].store.get("urn:x", "v")

    assert run_proc(sim, go(sim)) == "while-down"
