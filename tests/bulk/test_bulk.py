"""Bulk service + fetcher: seeding, multi-source fetch, failover, resume."""

from repro.bulk.chunks import DEFAULT_CHUNK_SIZE, bulk_urn
from repro.bulk.fetch import BulkError, parse_sources
from repro.bulk.testbed import build_bulk_site, make_payload
from repro.robust.spine import ProbeBus

CHUNK = 4096  # small chunks so tests move many chunks cheaply


def site(seed=0, racks=1, per_rack=3):
    return build_bulk_site(seed=seed, racks=racks, per_rack=per_rack)


def run_gen(env, gen):
    return env.sim.run(until=env.sim.process(gen))


def probe_times(env, kind):
    """``{host: virtual time of its last *kind* probe}``, filled as the
    run emits them."""
    bus = ProbeBus()
    env.sim.probes = bus
    last = {}

    def on(k, f):
        if k == kind:
            last[f["host"]] = env.sim.now

    bus.subscribe(on)
    return last


def test_seed_publishes_map_and_sources():
    env, root, dests = site()
    payload = make_payload(5 * CHUNK, CHUNK)

    def go(sim):
        yield env.bulk_services[root].seed("weights", payload, CHUNK)
        assertions = yield env.rc_client(root).lookup(bulk_urn("weights"))
        return assertions

    assertions = run_gen(env, go(env.sim))
    assert assertions["map"]["value"]["size"] == 5 * CHUNK
    assert len(assertions["map"]["value"]["digests"]) == 5
    assert parse_sources(assertions) == [(root, 2200)]


def test_fetch_from_origin_verifies_and_announces():
    env, root, dests = site()
    payload = make_payload(8 * CHUNK + 100, CHUNK)

    def go(sim):
        yield env.bulk_services[root].seed("weights", payload, CHUNK)
        report = yield env.bulk_services[dests[0]].fetcher.fetch("weights")
        assertions = yield env.rc_client(root).lookup(bulk_urn("weights"))
        return report, assertions

    report, assertions = run_gen(env, go(env.sim))
    assert report["ok"] and report["hash_ok"]
    assert report["bytes"] == 8 * CHUNK + 100
    assert report["nchunks"] == 9
    store = env.bulk_services[dests[0]].store
    assert store.complete("weights")
    assert store.payload("weights") == payload
    # The completed copy announced itself as a source (swarm growth).
    assert (dests[0], 2200) in parse_sources(assertions)


def test_fetch_stripes_across_multiple_sources():
    env, root, dests = site(per_rack=3)
    payload = make_payload(20 * CHUNK, CHUNK)

    def go(sim):
        yield env.bulk_services[root].seed("weights", payload, CHUNK)
        # First replica completes, announces, then a second fetch should
        # pull from both the origin and the new peer.
        yield env.bulk_services[dests[0]].fetcher.fetch("weights")
        report = yield env.bulk_services[dests[1]].fetcher.fetch("weights")
        return report

    report = run_gen(env, go(env.sim))
    assert report["ok"]
    sources = set(report["bytes_by_source"])
    assert len(sources) >= 2  # striped, not single-source
    assert sum(report["bytes_by_source"].values()) == 20 * CHUNK


def test_failover_when_source_dies_mid_object():
    env, root, dests = site(per_rack=3)
    payload = make_payload(30 * CHUNK, CHUNK)

    def go(sim):
        yield env.bulk_services[root].seed("weights", payload, CHUNK)
        yield env.bulk_services[dests[0]].fetcher.fetch("weights")
        # dests[1] fetches while its preferred source (the peer replica,
        # passed as a hint) is killed mid-transfer.
        fetch = env.bulk_services[dests[1]].fetcher.fetch(
            "weights", hints=[env.bulk_services[dests[0]].address])
        yield sim.timeout(0.2)
        env.topology.hosts[dests[0]].crash()
        report = yield fetch
        return report

    report = run_gen(env, go(env.sim))
    assert report["ok"] and report["hash_ok"]
    # The dead peer cost retries, and the origin finished the object.
    assert (root, 2200) in report["bytes_by_source"]
    store = env.bulk_services[dests[1]].store
    assert store.payload("weights") == payload


def test_fetch_resumes_from_partial_store():
    env, root, dests = site()
    nchunks = 100
    payload = make_payload(nchunks * CHUNK, CHUNK)
    svc = env.bulk_services[dests[0]]

    def go(sim):
        yield env.bulk_services[root].seed("weights", payload, CHUNK)
        first = svc.fetcher.fetch("weights")
        # Interrupt as soon as the transfer is genuinely mid-object.
        while svc.store.count("weights") == 0:
            yield sim.timeout(0.002)
        first.interrupt("simulated crash")
        try:
            yield first
        except Exception:
            pass
        got = svc.store.count("weights")
        report = yield svc.fetcher.fetch("weights")
        return got, report

    got, report = run_gen(env, go(env.sim))
    assert 0 < got < nchunks  # genuinely mid-object when interrupted
    assert report["ok"]
    # The resumed fetch only moved the missing chunks.
    assert report["nchunks"] == nchunks
    assert sum(report["bytes_by_source"].values()) == (nchunks - got) * CHUNK
    assert svc.store.payload("weights") == payload


def test_fetch_unknown_object_fails_cleanly():
    env, root, dests = site()

    def go(sim):
        try:
            yield env.bulk_services[dests[0]].fetcher.fetch("ghost", deadline=3.0)
        except BulkError as exc:
            return str(exc)
        return None

    assert "no chunk map" in run_gen(env, go(env.sim))


def test_corrupt_source_is_quarantined():
    env, root, dests = site(per_rack=2)
    payload = make_payload(10 * CHUNK, CHUNK)
    poison = env.bulk_services[dests[0]]

    def go(sim):
        yield env.bulk_services[root].seed("weights", payload, CHUNK)
        yield poison.fetcher.fetch("weights")
        # Corrupt every chunk held by the announced peer.
        for seq in range(10):
            poison.store._chunks["weights"][seq] = b"\x00" * CHUNK
        report = yield env.bulk_services[dests[1]].fetcher.fetch(
            "weights", hints=[poison.address])
        return report

    report = run_gen(env, go(env.sim))
    assert report["ok"] and report["hash_ok"]
    assert report["integrity_failures"] >= 1
    assert env.bulk_services[dests[1]].store.payload("weights") == payload


def test_wait_based_serving_pipelines_to_children():
    # A peer that only *starts* holding the map can still serve: children
    # asking ahead park in bulk.get_chunk until the chunk arrives.
    env, root, dests = site(per_rack=2)
    payload = make_payload(15 * CHUNK, CHUNK)
    relay, leaf = dests[0], dests[1]

    def go(sim):
        yield env.bulk_services[root].seed("weights", payload, CHUNK)
        relay_fetch = env.bulk_services[relay].fetcher.fetch("weights")
        yield sim.timeout(0.05)  # relay has the map, not yet the chunks
        leaf_fetch = env.bulk_services[leaf].fetcher.fetch(
            "weights", hints=[env.bulk_services[relay].address])
        r1 = yield relay_fetch
        r2 = yield leaf_fetch
        return r1, r2

    r1, r2 = run_gen(env, go(env.sim))
    assert r1["ok"] and r2["ok"]
    # The leaf got real bytes from the still-downloading relay.
    assert r2["bytes_by_source"].get((relay, 2200), 0) > 0
    assert env.bulk_services[leaf].store.payload("weights") == payload


def test_default_chunk_size_used_when_unspecified():
    env, root, dests = site()
    payload = make_payload(2 * DEFAULT_CHUNK_SIZE + 7)

    def go(sim):
        cmap = yield env.bulk_services[root].seed("weights", payload)
        return cmap

    cmap = run_gen(env, go(env.sim))
    assert cmap.chunk_size == DEFAULT_CHUNK_SIZE
    assert cmap.nchunks == 3


def test_fetch_ends_at_its_last_commit():
    # No lane naps while another holds the last chunk: each destination
    # finishes within one announce round trip (a few ms on this site)
    # of its last verified commit.
    env, root, dests = site(racks=2, per_rack=3)
    last_commit = probe_times(env, "bulk.chunk")
    payload = make_payload(40 * CHUNK, CHUNK)
    dist = env.bulk_distributor(root, fanout=2)
    report = env.sim.run(until=dist.distribute(
        "weights", payload, dests, chunk_size=CHUNK))
    assert report["completed"] == len(dests)
    for d in dests:
        gap = report["per_dest"][d]["finished_at"] - last_commit[d]
        assert 0 <= gap <= 0.01, (d, gap)


def test_fault_free_tree_reads_the_catalog_once_per_destination():
    env, root, dests = build_bulk_site(racks=4, per_rack=8)
    chunk = 16384
    payload = make_payload(160 * chunk, chunk)
    lookups = env.sim.obs.metrics.counter("rcds.lookups")
    before = lookups.value
    dist = env.bulk_distributor(root, fanout=2)
    report = env.sim.run(until=dist.distribute(
        "weights", payload, dests, chunk_size=chunk))
    assert report["completed"] == len(dests) == 32
    assert report["chunk_retries"] == 0
    assert lookups.value - before == len(dests)  # the map read, no polls


def test_sources_announced_after_the_map_read_are_learned_on_a_strike():
    # The hinted relay dies after a rack peer announced; the strikes on
    # the relay re-read the record, and the peer carries the rest.
    env, root, dests = site(per_rack=3)
    relay, peer, me = (env.bulk_services[d] for d in dests)
    payload = make_payload(100 * CHUNK, CHUNK)

    def go(sim):
        yield env.bulk_services[root].seed("weights", payload, CHUNK)
        yield relay.fetcher.fetch("weights", announce=False)
        yield peer.fetcher.fetch("weights", announce=False)
        fetch = me.fetcher.fetch("weights", hints=[relay.address])
        while "weights" not in me.store.maps:
            yield sim.timeout(0.001)
        yield peer.announce("weights")
        while me.store.count("weights") < 10:
            yield sim.timeout(0.001)
        relay.host.crash()
        return (yield fetch)

    report = run_gen(env, go(env.sim))
    assert report["ok"] and report["hash_ok"]
    assert report["chunk_retries"] >= 1
    assert report["bytes_by_source"].get(peer.address, 0) > 0
    assert me.store.payload("weights") == payload


def test_empty_pool_rereads_sources_before_napping():
    # Every source the map read named is poisoned; an honest peer
    # announces only after that read. The poisoned chunk and the empty
    # pool it leaves each start a re-read, so the fetch finds the peer
    # within a backoff or two instead of starving until its deadline.
    env, root, dests = site(per_rack=2)
    honest, me = (env.bulk_services[d] for d in dests)
    origin = env.bulk_services[root]
    payload = make_payload(20 * CHUNK, CHUNK)

    def go(sim):
        yield origin.seed("weights", payload, CHUNK)
        yield honest.fetcher.fetch("weights", announce=False)
        for seq in range(20):
            origin.store._chunks["weights"][seq] = b"\xff" * CHUNK
        fetch = me.fetcher.fetch("weights", deadline=10.0)
        while "weights" not in me.store.maps:
            yield sim.timeout(0.001)
        yield honest.announce("weights")
        return (yield fetch)

    report = run_gen(env, go(env.sim))
    assert report["ok"] and report["hash_ok"]
    assert report["integrity_failures"] >= 1
    assert report["elapsed"] < 1.0
    assert set(report["bytes_by_source"]) == {honest.address}
    assert me.store.payload("weights") == payload
