"""Relay-tree construction and end-to-end fan-out distribution."""

import pytest

from repro.bulk.distribute import TREE_FAR_WEIGHT, build_relay_tree
from repro.bulk.testbed import build_bulk_site, make_payload

CHUNK = 4096


def tree_depth(parents, dest, root):
    """Levels between *dest* and *root* in the parent map."""
    depth, node = 0, dest
    while node != root and depth <= len(parents):
        node = parents[node]
        depth += 1
    return depth


def run_gen(env, gen):
    return env.sim.run(until=env.sim.process(gen))


def test_relay_tree_clusters_by_segment():
    env, root, dests = build_bulk_site(racks=2, per_rack=3, settle=0)
    parents = build_relay_tree(env.topology, root, dests, fanout=2)
    assert set(parents) == set(dests)
    # Exactly one head per rack pulls from the root.
    heads = [d for d, p in parents.items() if p == root]
    assert len(heads) == 2
    assert {h.split("-")[0] for h in heads} == {"m0", "m1"}
    # Every non-head's parent lives in the same rack.
    for d, p in parents.items():
        if p != root:
            assert d.split("-")[0] == p.split("-")[0]
    # Depths are bounded by the fanout-2 tree over 3 members.
    assert max(tree_depth(parents, d, root) for d in dests) <= 2


def test_relay_tree_fanout_bound():
    env, root, dests = build_bulk_site(racks=1, per_rack=7, settle=0)
    parents = build_relay_tree(env.topology, root, dests, fanout=2)
    for p in set(parents.values()):
        assert list(parents.values()).count(p) <= 2


@pytest.mark.parametrize("racks,per_rack", [(4, 8), (3, 3)])
def test_relay_tree_bounds_every_out_degree_and_enters_each_rack_once(
        racks, per_rack):
    env, root, dests = build_bulk_site(racks=racks, per_rack=per_rack, settle=0)
    fanout = 2
    parents = build_relay_tree(env.topology, root, dests, fanout=fanout)
    assert set(parents) == set(dests)
    children = {}
    for d, p in parents.items():
        children[p] = children.get(p, 0) + 1
    assert children[root] == fanout
    assert max(children.values()) <= fanout

    def rack(h):
        return h.split("-")[0]

    for r in range(racks):
        members = [d for d in dests if rack(d) == f"m{r}"]
        entries = [d for d in members if parents[d] == root
                   or rack(parents[d]) != f"m{r}"]
        assert len(entries) == 1, (r, entries)
        # Every other member pulls from inside its own rack.
        for d in set(members) - set(entries):
            assert rack(parents[d]) == f"m{r}"


def test_relay_tree_rejects_a_fanout_with_no_slot_to_relay():
    env, root, dests = build_bulk_site(racks=2, per_rack=2, settle=0)
    with pytest.raises(ValueError):
        build_relay_tree(env.topology, root, dests, fanout=1)


def test_distribute_tree_delivers_everywhere():
    env, root, dests = build_bulk_site(racks=2, per_rack=3)
    payload = make_payload(30 * CHUNK, CHUNK)
    dist = env.bulk_distributor(root)

    def go(sim):
        return (yield dist.distribute("weights", payload, dests,
                                      chunk_size=CHUNK))

    report = run_gen(env, go(env.sim))
    assert report["completed"] == len(dests)
    assert report["failed"] == []
    assert report["all_verified"]
    for d in dests:
        assert env.bulk_services[d].store.payload("weights") == payload


def test_distribute_unicast_baseline_delivers():
    env, root, dests = build_bulk_site(racks=2, per_rack=2)
    payload = make_payload(20 * CHUNK, CHUNK)
    dist = env.bulk_distributor(root)

    def go(sim):
        return (yield dist.distribute("weights", payload, dests,
                                      chunk_size=CHUNK, strategy="unicast"))

    report = run_gen(env, go(env.sim))
    assert report["completed"] == len(dests)
    assert report["all_verified"]
    # Naive mode: every byte came straight from the root.
    for d in dests:
        by = report["per_dest"][d]["bytes_by_source"]
        assert set(by) == {(root, 2200)}


def test_distribute_survives_relay_crash_and_recovery():
    env, root, dests = build_bulk_site(racks=2, per_rack=4)
    nchunks = 120
    payload = make_payload(nchunks * CHUNK, CHUNK)
    dist = env.bulk_distributor(root)
    parents = build_relay_tree(env.topology, root, dests, fanout=2)
    relay = [d for d, p in parents.items() if p == root][0]

    def go(sim):
        d = dist.distribute("weights", payload, dests, chunk_size=CHUNK,
                            deadline=30.0)
        # Kill the rack-0 cluster head once it is mid-transfer.
        while env.bulk_services[relay].store.count("weights") == 0:
            yield sim.timeout(0.002)
        env.topology.hosts[relay].crash()
        yield sim.timeout(1.0)
        env.topology.hosts[relay].recover()
        return (yield d)

    report = run_gen(env, go(env.sim))
    assert report["completed"] == len(dests)
    assert report["all_verified"]
    assert report["per_dest"][relay]["crashes"] >= 1
    for d in dests:
        assert env.bulk_services[d].store.payload("weights") == payload


def test_distribute_tree_keeps_backbone_traffic_constant():
    # In tree mode only the root's fanout children pull from it: the
    # root serves ~fanout transfers' worth of bytes, not hosts' worth.
    env, root, dests = build_bulk_site(racks=2, per_rack=4)
    payload = make_payload(40 * CHUNK, CHUNK)
    dist = env.bulk_distributor(root)

    def go(sim):
        return (yield dist.distribute("weights", payload, dests,
                                      chunk_size=CHUNK))

    report = run_gen(env, go(env.sim))
    assert report["completed"] == len(dests)
    root_bytes = sum(
        by.get((root, 2200), 0)
        for by in (r["bytes_by_source"] for r in report["per_dest"].values())
    )
    total_bytes = len(dests) * 40 * CHUNK
    # The root served well under half of all delivered bytes.
    assert root_bytes < total_bytes / 2


def test_distribute_tree_root_sends_about_fanout_copies():
    # The root's uplink is the one every copy would funnel through; the
    # tree holds its load at ~fanout copies however many racks there are.
    env, root, dests = build_bulk_site(racks=4, per_rack=8)
    size = 64 * 16384
    payload = make_payload(size, 16384)
    fanout = 2
    dist = env.bulk_distributor(root, fanout=fanout)
    nics = env.topology.hosts[root].nics.values()
    tx0 = sum(nic.tx_bytes for nic in nics)
    report = env.run(until=dist.distribute("weights", payload, dests,
                                           chunk_size=16384))
    assert report["completed"] == len(dests) and report["all_verified"]
    root_tx = sum(nic.tx_bytes for nic in nics) - tx0
    assert root_tx <= (fanout + 0.5) * size


def test_relay_parks_a_request_that_beats_its_own_map_lookup():
    # A child asks its relay for chunks before the relay has even
    # started resolving the object's map; the relay must hold the
    # requests, not refuse them (a refusal strikes the relay).
    env, root, dests = build_bulk_site(racks=1, per_rack=2)
    relay, child = env.bulk_services[dests[0]], env.bulk_services[dests[1]]
    payload = make_payload(12 * CHUNK, CHUNK)

    def go(sim):
        yield env.bulk_services[root].seed("weights", payload, CHUNK)
        fetch = child.fetcher.fetch("weights", hints=[relay.address],
                                    far_weight=TREE_FAR_WEIGHT)
        yield sim.timeout(0.2)
        assert "weights" not in relay.store.maps
        yield relay.fetcher.fetch("weights", hints=[(root, 2200)])
        return (yield fetch)

    report = run_gen(env, go(env.sim))
    assert report["ok"] and report["hash_ok"]
    assert report["chunk_retries"] == 0
    assert set(report["bytes_by_source"]) == {relay.address}


def test_tree_cli_prints_the_catalog_lookups_it_served(capsys):
    from repro.bulk.cli import main

    assert main(["tree", "--racks", "2", "--per-rack", "2",
                 "--object-kb", "64"]) == 0
    out = capsys.readouterr().out
    assert "catalog lookups served: 4\n" in out
    assert "root:if0" in out
