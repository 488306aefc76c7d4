"""Tests for file servers, sinks/sources, replication, closest-replica reads."""

import pytest

from repro.files import FileClient, FileError, FileServer, ReplicationDaemon
from repro.rcds import RCClient, RCServer
from repro.rpc import RpcClient
from repro.transport.srudp import SrudpEndpoint

from ..transport.conftest import make_lan


def file_site(n_hosts=4, n_servers=2, seed=0):
    sim, topo, hosts = make_lan(n_hosts=n_hosts, seed=seed)
    # RC lives on the last host: several tests crash h0 (a file server)
    # and the metadata service must outlive it.
    replicas = [(hosts[-1].name, 385)]
    RCServer(hosts[-1])
    servers = []
    for i in range(n_servers):
        rc = RCClient(hosts[i], replicas)
        servers.append(FileServer(hosts[i], rc))
    client_rc = RCClient(hosts[-1], replicas)
    client = FileClient(hosts[-1], client_rc)
    return sim, topo, hosts, servers, client


def run_gen(sim, gen):
    return sim.run(until=sim.process(gen))


def test_write_then_read_back():
    sim, topo, hosts, servers, client = file_site()

    def go(sim):
        yield sim.timeout(0.5)  # let servers register in RC
        yield client.write("results.dat", {"rows": [1, 2, 3]}, 3000)
        got = yield client.read("results.dat")
        return got

    got = run_gen(sim, go(sim))
    assert got["payload"] == {"rows": [1, 2, 3]}
    assert got["size"] == 3000


def test_read_missing_lifn_fails():
    sim, topo, hosts, servers, client = file_site()

    def go(sim):
        try:
            yield client.read("ghost.dat")
        except FileError as exc:
            return str(exc)

    assert "no replicas" in run_gen(sim, go(sim))


def test_read_prefers_local_then_fails_over():
    sim, topo, hosts, servers, client = file_site(n_servers=2)

    def go(sim):
        # Store on both servers under the same LIFN.
        yield client.write("shared.dat", b"same-bytes", 100, server=("h0", 2100))
        yield client.write("shared.dat", b"same-bytes", 100, server=("h1", 2100))
        got1 = yield client.read("shared.dat")
        hosts[0].crash()
        got2 = yield client.read("shared.dat")
        return got1["location"], got2["location"]

    loc1, loc2 = run_gen(sim, go(sim))
    assert loc1 in ("file://h0/shared.dat", "file://h1/shared.dat")
    assert loc2 == "file://h1/shared.dat"  # survivor


def test_integrity_check_rejects_corrupt_replica():
    sim, topo, hosts, servers, client = file_site(n_servers=2)

    def go(sim):
        yield client.write("v.dat", b"good", 10, server=("h0", 2100))
        yield client.write("v.dat", b"good", 10, server=("h1", 2100))
        # Corrupt h0's copy behind the registry's back.
        servers[0].files["v.dat"].payload = b"evil"
        got = yield client.read("v.dat")
        return got

    got = run_gen(sim, go(sim))
    assert got["payload"] == b"good"
    assert client.integrity_failures == 1


def test_sink_accumulates_messages_into_file():
    """§5.9: open-for-write spawns a sink fed by ordinary messages."""
    sim, topo, hosts, servers, client = file_site()
    port, done = servers[0].spawn_sink("stream.log")
    sender = SrudpEndpoint(hosts[2], hosts[2].ephemeral_port())

    def go(sim):
        for i in range(5):
            yield sender.send("h0", port, f"record-{i}", 1000)
        yield sender.send("h0", port, "__snipe_file_eof__", 16)
        vf = yield done
        return vf

    vf = run_gen(sim, go(sim))
    assert vf.size == 5000
    assert vf.chunks == [f"record-{i}" for i in range(5)]
    # And the LIFN is bound so anyone can read it.
    def check(sim):
        return (yield client.read("stream.log"))

    got = run_gen(sim, check(sim))
    assert got["size"] == 5000


def test_source_streams_file_to_address():
    """§5.9: open-for-read spawns a source that transmits SNIPE messages."""
    sim, topo, hosts, servers, client = file_site()
    received = []
    rx = SrudpEndpoint(hosts[3], 7777)

    def receiver(sim):
        while True:
            msg = yield rx.recv()
            received.append(msg.payload)
            if msg.payload == "__snipe_file_eof__":
                return

    def go(sim):
        yield client.write("big.dat", b"contents", 200_000, server=("h0", 2100))
        r = sim.process(receiver(sim))
        yield servers[0].spawn_source("big.dat", "h3", 7777, chunk_size=65536)
        yield r
        return received

    run_gen(sim, go(sim))
    assert received[-1] == "__snipe_file_eof__"
    assert len(received) == 5  # ceil(200000/65536)=4 chunks + EOF


def test_replication_daemon_reaches_redundancy_target():
    sim, topo, hosts, servers, client = file_site(n_servers=3)
    daemons = [ReplicationDaemon(s, redundancy=3, interval=0.5) for s in servers]

    def go(sim):
        yield client.write("precious.dat", b"data", 1000, server=("h0", 2100))
        yield sim.timeout(10.0)
        return (yield client.lifns.locations("precious.dat"))

    locations = run_gen(sim, go(sim))
    assert len(locations) == 3
    assert sum(d.replicas_created for d in daemons) >= 2


def test_replication_survives_server_failure():
    """After replication, losing the original server doesn't lose the file."""
    sim, topo, hosts, servers, client = file_site(n_servers=3)
    for s in servers:
        ReplicationDaemon(s, redundancy=2, interval=0.5)

    def go(sim):
        yield client.write("durable.dat", b"keep-me", 500, server=("h0", 2100))
        yield sim.timeout(10.0)
        hosts[0].crash()
        got = yield client.read("durable.dat")
        return got["payload"]

    assert run_gen(sim, go(sim)) == b"keep-me"


def replicated_file_site(n_servers, files):
    """h0..h(n-1) file servers over a 3-replica catalog (h3-h5), with one
    parked replication daemon each, and *files* ``{name: [server index]}``
    stored where given. Returns (sim, servers, daemons, client)."""
    sim, topo, hosts = make_lan(n_hosts=6)
    replicas = [(f"h{i}", 385) for i in (3, 4, 5)]
    for i in (3, 4, 5):
        RCServer(hosts[i], peers=[r for r in replicas if r[0] != f"h{i}"])
    servers = [FileServer(hosts[i], RCClient(hosts[i], replicas)) for i in range(n_servers)]
    # An interval no wakeup reaches: the tests drive single passes.
    daemons = [ReplicationDaemon(s, redundancy=2, interval=1e9) for s in servers]
    client = FileClient(hosts[5], RCClient(hosts[5], replicas))

    def store(sim):
        yield sim.timeout(0.5)
        for name, where in files.items():
            for i in where:
                yield client.write(name, b"bytes", 10, server=(f"h{i}", 2100))

    run_gen(sim, store(sim))
    return sim, servers, daemons, client


def one_pass(sim, daemon):
    run_gen(sim, daemon._pass(sim.rng.stream("test-pass")))
    sim.run(until=sim.now + 2.0)   # let pushed replicas bind their locations


@pytest.mark.parametrize("n_files", [1, 64])
def test_replication_pass_catalog_rpcs_do_not_grow_with_files(n_files, monkeypatch):
    # One server: every file is below redundancy but no peer can take it,
    # so the pass does nothing but read the catalog.
    sim, servers, daemons, _client = replicated_file_site(
        1, {f"f{i}.dat": [0] for i in range(n_files)})
    catalog = servers[0].rc.rpc
    calls = []
    real_call = RpcClient.call

    def call(self, dst_host, dst_port, method, **kw):
        if self is catalog:
            calls.append(method)
        return real_call(self, dst_host, dst_port, method, **kw)

    monkeypatch.setattr(RpcClient, "call", call)
    one_pass(sim, daemons[0])
    # One QUORUM lookup_many (two replicas) and one discover at ONE.
    assert sorted(calls) == ["rc.lookup", "rc.lookup_many", "rc.lookup_many"]


def test_replication_pass_pushes_and_trims_from_one_batched_read():
    sim, servers, daemons, client = replicated_file_site(
        3, {"lonely.dat": [0], "crowded.dat": [0, 1, 2]})

    def locations(sim):
        got = yield client.lifns.locations_many(["lonely.dat", "crowded.dat"])
        return got

    one_pass(sim, daemons[0])
    after = run_gen(sim, locations(sim))
    # Under-replicated: pushed to a peer that lacked it.
    assert daemons[0].replicas_created == 1
    assert len(after["lonely.dat"]) == 2 and "file://h0/lonely.dat" in after["lonely.dat"]
    # Cold and over target: h0 dropped its own replica, never below target.
    assert daemons[0].replicas_deleted == 1
    assert "crowded.dat" not in servers[0].files
    assert after["crowded.dat"] == ["file://h1/crowded.dat", "file://h2/crowded.dat"]


def test_serving_replica_crash_mid_object_fails_over_verified():
    """The serving replica dies *while serving*: the read must fail over
    to the next-ranked replica and the content digest must still verify."""
    sim, topo, hosts, servers, client = file_site(n_servers=2)
    payload = bytes(i % 251 for i in range(3000))
    crashed_at = []

    # Arm h0 to crash at the exact moment it is asked for the object —
    # the request is in, the response will never make it out.
    orig_get = servers[0].rpc.handlers["file.get"]

    def crash_while_serving(args):
        result = orig_get(args)
        crashed_at.append(sim.now)
        hosts[0].crash()
        return result

    servers[0].rpc.handlers["file.get"] = crash_while_serving

    def go(sim):
        yield client.write("model.bin", payload, 3000, server=("h0", 2100))
        yield client.write("model.bin", payload, 3000, server=("h1", 2100))
        t0 = sim.now
        got = yield client.read("model.bin")
        return t0, got

    t0, got = run_gen(sim, go(sim))
    # h0 ranks first (sorted URL order at equal distance) and did crash
    # mid-read; the object still arrived, from h1, digest verified.
    assert crashed_at and t0 < crashed_at[0] < sim.now
    assert got["location"] == "file://h1/model.bin"
    assert got["payload"] == payload
    assert client.integrity_failures == 0
