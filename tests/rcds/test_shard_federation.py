"""Integration tests for the sharded federation: routing, split, drain.

These pin the two director behaviours the E18 split-under-load run
depends on and that the property tests (which work on maps, not
stores) cannot see:

* a split's plan must cover *every* branch of the owned namespace, not
  just the branches visible in the lexicographic head page — a biased
  sample strands the unseen branches on the parent forever;
* a shard whose records are still draining to an earlier split's
  children must not be re-split over those records (their prefixes now
  belong to the children; re-planning them would mint duplicate
  ownership).
"""

import pytest

from repro.bench.e18_catalog_scale import _preload, _site
from repro.rcds.client import QUORUM


def _federation(n_names, n_branches=4, split_threshold=None):
    env, placement, clients = _site(1, 2)
    env.add_rc_servers(["r0", "r1", "r2"], sharded=True, service_time=0.0002)
    mgr = env.enable_sharding(placement_hosts=placement, replicas_per_shard=3,
                              split_threshold=split_threshold,
                              server_kw=dict(service_time=0.0002))
    mgr.add_shard("app", ("snipe://app/",))
    mgr.start()
    mgr.seed_map()
    parent = list(mgr.servers["app"].values())
    _preload([s.store for s in parent], range(n_names), n_branches)
    return env, mgr, parent, clients


def test_sharded_client_routes_and_reads_preloaded_names():
    env, mgr, parent, hosts = _federation(80)
    sim = env.sim
    got = {}

    def reader():
        client = env.rc_client(hosts[0])
        yield sim.timeout(0.5)
        got["a"] = (yield client.lookup("snipe://app/g0/d00000/n000000000"))
        yield client.update("snipe://app/g1/d00000/n000000013", {"v": 7},
                            consistency=QUORUM)
        got["b"] = (yield client.lookup("snipe://app/g1/d00000/n000000013",
                                        consistency=QUORUM))

    sim.process(reader(), name="reader")
    sim.run(until=3.0)
    assert got["a"] and got["a"]["v"]["value"] == 0
    assert got["b"]["v"]["value"] == 7


def test_split_plan_covers_every_branch_and_parent_drains():
    # 900 names over 4 radix branches — more than split_sample (512), so
    # a head-page sample would only ever see g0/g1/g2 and the plan would
    # leave every g3 name stranded on the parent (the pre-fix behaviour:
    # a permanent 225-name residual per replica).
    env, mgr, parent, _ = _federation(900)
    sim = env.sim

    def trigger():
        yield sim.timeout(1.0)
        ok = yield from mgr._split("app")
        assert ok

    sim.process(trigger(), name="trigger")
    sim.run(until=20.0)
    assert mgr.splits == 1 and mgr.map.epoch >= 2
    assert all(s.store.live_uri_count() == 0 for s in parent)
    assert sum(s.handoffs for s in parent) >= 900


def test_resplit_during_drain_plans_nothing_not_duplicate_ownership():
    # Split once, then force a second split attempt while the handoff is
    # still draining. The parent's store still *holds* the records it
    # gave away; planning over them used to mint child prefixes that
    # collide with the first split's children (ValueError from ShardMap).
    env, mgr, parent, _ = _federation(900)
    sim = env.sim
    results = {}

    def trigger():
        yield sim.timeout(1.0)
        results["first"] = yield from mgr._split("app")
        # Immediately, mid-drain: the map routes everything away, so the
        # routed pool is empty and the plan must come up empty.
        results["second"] = yield from mgr._split("app")

    sim.process(trigger(), name="trigger")
    sim.run(until=20.0)
    assert results["first"] is True
    assert results["second"] is False
    assert mgr.splits == 1
    # The map stayed a partition: every preloaded name has one owner.
    for i in (0, 1, 450, 899):
        uri = f"snipe://app/g{i % 4}/d{(i // 4) // 100:05d}/n{i:09d}"
        assert mgr.map.route(uri) != "app"


def test_threshold_split_fires_and_moved_names_stay_readable():
    env, mgr, parent, hosts = _federation(600, split_threshold=400)
    sim = env.sim
    reads = {"miss": 0, "ok": 0}

    def reader():
        client = env.rc_client(hosts[0])
        rng = sim.rng.stream("reader")
        while sim.now < 25.0:
            i = rng.randrange(600)
            uri = f"snipe://app/g{i % 4}/d{(i // 4) // 100:05d}/n{i:09d}"
            try:
                got = yield client.lookup(uri)
            except Exception:
                reads["miss"] += 1
            else:
                reads["ok" if got else "miss"] += 1
            yield sim.timeout(0.05)

    sim.process(reader(), name="reader")
    sim.run(until=30.0)
    assert mgr.splits >= 1
    assert all(s.store.live_uri_count() == 0 for s in parent)
    assert reads["ok"] > 100
    # Mid-migration misses are bounded: the fence redirects, the client
    # re-routes; only the install-in-flight window can read empty.
    assert reads["miss"] < reads["ok"] * 0.15


def test_a_handed_off_fence_is_marked_moved_once():
    """``fenced-below`` is a max register, yet a handoff's moved marker
    must still win over it: a live fence that outranked the marker would
    look misplaced on every janitor pass and be re-installed forever,
    and the moved name would stay live (and count toward a split)."""
    env, mgr, parent, hosts = _federation(80)
    sim = env.sim
    uri = "snipe://app/g1/d00000/n000000013"
    marked = []
    for server in parent:
        def mark_moved(u, key, wall, _store=server.store, _mark=server.store.mark_moved):
            if (u, key) == (uri, "fenced-below"):
                marked.append(_store.server_id)
            return _mark(u, key, wall)
        server.store.mark_moved = mark_moved

    def trigger():
        yield env.rc_client(hosts[0]).update(uri, {"fenced-below": 7},
                                             consistency=QUORUM)
        yield sim.timeout(1.0)
        assert (yield from mgr._split("app"))

    sim.process(trigger(), name="trigger")
    sim.run(until=20.0)
    assert all(s.store.live_uri_count() == 0 for s in parent)
    assert marked and len(marked) == len(set(marked))
    handoffs = sum(s.handoffs for s in parent)
    sim.run(until=30.0)
    assert sum(s.handoffs for s in parent) == handoffs
    got = env.run(until=env.rc_client(hosts[0]).get(uri, "fenced-below"))
    assert got == 7


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-x", "-q"]))
