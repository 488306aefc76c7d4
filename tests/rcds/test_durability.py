"""Durable catalog state: snapshot + journal survive replica crashes.

The RC server journals every record entering its log (digest stamped)
and periodically folds the journal into a digest-verified snapshot, both
in the host's crash-surviving disk dict. These tests pin the restore
paths: a cold restart rebuilds the full visible state including
tombstones, a corrupted snapshot generation falls back to the previous
one, and a blackout of *every* replica — nobody left to anti-entropy
from — comes back from disk alone.
"""

from repro.rcds import ALL, RCClient, RCServer

from ..transport.conftest import make_lan


def one_server(snapshot_every=4, seed=0, **kw):
    sim, topo, hosts = make_lan(n_hosts=1, seed=seed)
    server = RCServer(hosts[0], peers=[], snapshot_every=snapshot_every, **kw)
    return sim, hosts[0], server


def test_cold_restart_recovers_state_and_tombstones():
    sim, host, server = one_server()
    store = server.store
    for i in range(1, 8):
        store.local_update("u", {"k": i}, wall=float(i))
    store.local_update("gone", {"k": "x"}, wall=8.0)
    store.local_delete("gone", None, wall=9.0)
    assert server.snapshots_written >= 1      # rotation actually happened

    host.crash()
    assert store.data == {}                   # memory really gone
    host.recover()

    assert server.restores == 1
    assert store.get("u", "k") == 7
    assert store.get("gone", "k") is None     # tombstone restored, not lost
    assert store.tombstone_count() == 1
    assert store.vector[store.server_id] == 9
    # The restored replica keeps accepting writes with fresh sequence
    # numbers — no fork of its own origin log.
    store.local_update("u", {"k": 99}, wall=10.0)
    assert store.vector[store.server_id] == 10


def test_double_crash_replays_the_same_disk():
    sim, host, server = one_server()
    store = server.store
    for i in range(1, 6):
        store.local_update("u", {"k": i}, wall=float(i))
    host.crash()
    host.recover()
    host.crash()
    host.recover()
    assert server.restores == 2
    assert store.get("u", "k") == 5


def test_corrupt_snapshot_falls_back_to_previous_generation():
    sim, host, server = one_server(snapshot_every=4)
    store = server.store
    for i in range(1, 4):                     # journal: 3 clean records
        store.local_update("u", {"k": i}, wall=float(i))
    host.corrupt_ckpt_writes = True
    store.local_update("u", {"k": 4}, wall=4.0)   # rots the journal entry
    host.corrupt_ckpt_writes = False              # ...and the snapshot it sealed
    for i in range(5, 7):
        store.local_update("u", {"k": i}, wall=float(i))

    host.crash()
    host.recover()

    assert server.snapshots_rejected == 1     # torn snapshot caught by digest
    assert server.journal_skipped == 1        # torn journal record caught too
    assert store.get("u", "k") == 6           # newest surviving write wins
    # The skipped record leaves a vector gap: knowledge stalls at the
    # contiguous point so anti-entropy would refill 4 from a peer.
    assert store.vector[store.server_id] == 3


def test_blackout_of_every_replica_restores_from_disk():
    sim, topo, hosts = make_lan(n_hosts=4, seed=7)
    replicas = [(f"h{i}", 385) for i in range(3)]
    servers = [
        RCServer(hosts[i], peers=[r for r in replicas if r[0] != f"h{i}"],
                 snapshot_every=8)
        for i in range(3)
    ]
    client = RCClient(hosts[3], replicas)

    def go(sim):
        yield client.update("urn:a", {"v": 1}, consistency=ALL)
        yield client.update("urn:b", {"v": 2}, consistency=ALL)
        yield client.delete("urn:b", None, consistency=ALL)
        yield sim.timeout(2.0)
        for h in hosts[:3]:
            h.crash()
        yield sim.timeout(1.0)
        for h in hosts[:3]:
            h.recover()
        yield sim.timeout(3.0)                # a few anti-entropy rounds
        got = yield client.lookup("urn:a")
        return got

    p = sim.process(go(sim))
    got = sim.run(until=p)
    assert got["v"]["value"] == 1
    for server in servers:
        assert server.restores == 1
        assert server.store.get("urn:a", "v") == 1
        assert server.store.get("urn:b", "v") is None   # delete survived


# -- the record that triggers a fold must be inside the fold ------------------
# (PR 12: the snapshot used to be cut before the triggering record was
# applied but after the vector covered it, then the journal was cleared —
# one acknowledged write per ``snapshot_every`` vanished on restart.)

def crash_and_check_four(host, server):
    store = server.store
    assert server.snapshots_written == 1      # the fourth record folded
    host.crash()
    host.recover()
    assert [store.get(f"u{i}", "k") for i in range(1, 5)] == [1, 2, 3, 4]


def test_fold_keeps_the_local_write_that_triggered_it():
    sim, host, server = one_server(snapshot_every=4)
    for i in range(1, 5):
        server.store.local_update(f"u{i}", {"k": i}, wall=float(i))
    crash_and_check_four(host, server)
    assert server.store.vector[server.store.server_id] == 4


def test_fold_keeps_the_remote_record_that_triggered_it():
    from repro.rcds.records import RCStore

    sim, host, server = one_server(snapshot_every=4)
    peer = RCStore("rc-b:385")
    for i in range(1, 5):
        peer.local_update(f"u{i}", {"k": i}, wall=float(i))
    server.store.apply_remote(peer.missing_for({}))   # last record folds
    crash_and_check_four(host, server)
    assert server.store.vector["rc-b:385"] == 4


def test_fold_keeps_the_imported_entry_that_triggered_it():
    from repro.rcds.records import Entry

    sim, host, server = one_server(snapshot_every=4)
    for i in range(1, 5):
        server.store.import_entry(f"u{i}", "k", Entry(
            value=i, lamport=i, origin="rc-z:385", wall=float(i), seq=i))
    crash_and_check_four(host, server)
    assert server.store.vector[server.store.server_id] == 4
