"""Tests for resource managers: selection, modes, goals, redundancy, migration."""


from repro.daemon import ProgramRegistry, TaskSpec, TaskState
from repro.rm import AllocationError, ResourceManager, RmClient
from repro.rm.selection import rank_hosts

from ..daemon.conftest import make_site


def programs_with_worker():
    programs = ProgramRegistry()

    def worker(ctx, rounds=10, cost=0.5):
        for _ in range(rounds):
            yield ctx.compute(cost)
        return "done"

    def stateful(ctx, total=20):
        # Migratable: progress lives in checkpoint_state.
        i = ctx.checkpoint_state.get("i", 0)
        while i < total:
            yield ctx.compute(0.2)
            i += 1
            ctx.checkpoint_state["i"] = i
        return i

    programs.register("worker", worker)
    programs.register("stateful", stateful)
    return programs


def rm_site(n_hosts=5, n_rms=1, seed=0, **rm_kw):
    (sim, topo, hosts, daemons, clients) = make_site(
        n_hosts=n_hosts, n_rc=1, seed=seed, programs=programs_with_worker()
    )
    rms = []
    for i in range(n_rms):
        rm_host = hosts[i]
        rms.append(ResourceManager(rm_host, clients[i], port=3600 + i, **rm_kw))
    sim.run(until=3.0)  # daemons register host metadata + load
    return sim, topo, hosts, daemons, clients, rms


def run_gen(sim, gen):
    return sim.run(until=sim.process(gen))


def test_rank_hosts_prefers_low_load():
    spec = TaskSpec(program="worker")
    metadata = {
        "busy": {"arch": {"value": "x86"}, "load": {"value": 5.0}, "memory": {"value": 1024}},
        "idle": {"arch": {"value": "x86"}, "load": {"value": 0.0}, "memory": {"value": 1024}},
    }
    assert rank_hosts(spec, metadata) == ["idle", "busy"]


def test_rank_hosts_filters_requirements():
    spec = TaskSpec(program="worker", arch="sparc", min_memory=512)
    metadata = {
        "wrong-arch": {"arch": {"value": "x86"}, "memory": {"value": 1024}},
        "small": {"arch": {"value": "sparc"}, "memory": {"value": 128}},
        "good": {"arch": {"value": "sparc"}, "memory": {"value": 1024}},
    }
    assert rank_hosts(spec, metadata) == ["good"]


def test_active_request_spawns_on_least_loaded():
    sim, topo, hosts, daemons, clients, rms = rm_site()
    # Pre-load h1 and h2 with tasks so h3/h4 are the idle ones.
    daemons[1].spawn(TaskSpec(program="worker"))
    daemons[2].spawn(TaskSpec(program="worker"))
    sim.run(until=sim.now + 3.0)  # load gauges refresh
    rmc = RmClient(hosts[4], clients[4])

    def go(sim):
        return (yield rmc.request(TaskSpec(program="worker", params={"rounds": 1})))

    result = run_gen(sim, go(sim))
    assert result["mode"] == "active"
    assert result["host"] in ("h0", "h3", "h4")  # the unloaded hosts
    assert result["urn"].startswith("urn:snipe:proc:worker")


def test_passive_request_reserves_without_spawning():
    sim, topo, hosts, daemons, clients, rms = rm_site(mode="passive")
    rmc = RmClient(hosts[4], clients[4])

    def go(sim):
        return (yield rmc.request(TaskSpec(program="worker")))

    result = run_gen(sim, go(sim))
    assert result["mode"] == "passive"
    assert result["urn"] is None if "urn" in result else True
    # Nothing was spawned anywhere.
    assert all(len(d.tasks) == 0 for d in daemons)


def test_allocation_goal_enforced():
    sim, topo, hosts, daemons, clients, rms = rm_site(goals={"alice": 2})
    rmc = RmClient(hosts[4], clients[4])

    def go(sim):
        for _ in range(2):
            yield rmc.request(TaskSpec(program="worker"), owner="alice")
        try:
            yield rmc.request(TaskSpec(program="worker"), owner="alice")
        except AllocationError as exc:
            return str(exc)
        return "no-error"

    assert "allocation goal" in run_gen(sim, go(sim))


def test_allocation_goal_counts_only_live_tasks():
    """A goal caps *concurrent* allocations: once alice's first task has
    exited, her next request is granted rather than refused."""
    sim, topo, hosts, daemons, clients, rms = rm_site(goals={"alice": 1})
    rmc = RmClient(hosts[4], clients[4])
    quick = TaskSpec(program="worker", params={"rounds": 1, "cost": 0.1})

    def first(sim):
        return (yield rmc.request(quick, owner="alice"))

    done = run_gen(sim, first(sim))
    sim.run(until=sim.now + 3.0)  # the task exits and its record says so
    host = next(d for d in daemons if d.host.name == done["host"])
    assert host.tasks[done["urn"]].state == TaskState.EXITED

    def second(sim):
        return (yield rmc.request(quick, owner="alice"))

    assert run_gen(sim, second(sim))["mode"] == "active"
    assert rms[0].rejects == 0


def test_impossible_requirements_rejected():
    sim, topo, hosts, daemons, clients, rms = rm_site()
    rmc = RmClient(hosts[4], clients[4])

    def go(sim):
        try:
            yield rmc.request(TaskSpec(program="worker", arch="cray"))
        except AllocationError as exc:
            return str(exc)

    assert "no host satisfies" in run_gen(sim, go(sim))


def test_redundant_rms_failover():
    """Kill one RM: requests keep being served by the other (§3)."""
    sim, topo, hosts, daemons, clients, rms = rm_site(n_rms=2)
    rmc = RmClient(hosts[4], clients[4])

    def go(sim):
        first = yield rmc.request(TaskSpec(program="worker", params={"rounds": 1}))
        hosts[0].crash()  # kills RM 0 (and RC? no - RC is also h0!)
        return first

    # RC replica is on h0 too; use a site where RM hosts differ from RC.
    # Simpler: don't crash h0 — crash via closing rm 0's rpc instead.
    rms[0].rpc.close()

    def go2(sim):
        result = yield rmc.request(TaskSpec(program="worker", params={"rounds": 1}))
        return result

    result = run_gen(sim, go2(sim))
    assert result["mode"] == "active"
    assert rmc.failovers <= 1  # at most one failed attempt before success


def test_rm_kill_via_catalog_lookup():
    sim, topo, hosts, daemons, clients, rms = rm_site()
    rmc = RmClient(hosts[4], clients[4])

    def go(sim):
        result = yield rmc.request(TaskSpec(program="worker", params={"rounds": 100}))
        yield sim.timeout(2.0)
        yield rmc.rpc.call(rms[0].host.name, rms[0].port, "rm.kill", urn=result["urn"])
        yield sim.timeout(1.0)
        host_idx = int(result["host"][1:])
        return daemons[host_idx].tasks[result["urn"]].state

    assert run_gen(sim, go(sim)) == TaskState.KILLED


def test_rm_migration_preserves_urn_and_state():
    """RM-initiated migration: checkpoint, respawn elsewhere, same URN."""
    sim, topo, hosts, daemons, clients, rms = rm_site()
    rmc = RmClient(hosts[4], clients[4])

    def go(sim):
        result = yield rmc.request(TaskSpec(program="stateful", params={"total": 30}))
        yield sim.timeout(2.0)  # makes some progress (~10 steps)
        moved = yield rmc.migrate(result["urn"])
        yield sim.timeout(60.0)  # finish on the new host
        return result, moved

    result, moved = run_gen(sim, go(sim))
    assert moved["urn"] == result["urn"]
    assert moved["from"] == result["host"]
    assert moved["to"] != moved["from"]
    old_idx, new_idx = int(moved["from"][1:]), int(moved["to"][1:])
    assert daemons[old_idx].tasks[result["urn"]].state == TaskState.MIGRATED
    new_info = daemons[new_idx].tasks[result["urn"]]
    assert new_info.state == TaskState.EXITED
    assert new_info.exit_value == 30  # finished the FULL count across hosts
    # It resumed from the checkpoint, not from zero: total CPU across both
    # hosts is ~30 steps worth, not ~60.
    assert (new_info.spec.initial_state or {}).get("i", 0) > 0


def test_rank_hosts_skips_lapsed_leases():
    """Placement must avoid hosts whose heartbeat lease has expired."""
    spec = TaskSpec(program="worker")
    metadata = {
        "fresh": {"arch": {"value": "x86"}, "load": {"value": 2.0},
                  "memory": {"value": 1024}, "lease-expires": {"value": 100.0}},
        "stale": {"arch": {"value": "x86"}, "load": {"value": 0.0},
                  "memory": {"value": 1024}, "lease-expires": {"value": 9.0}},
        "legacy": {"arch": {"value": "x86"}, "load": {"value": 1.0},
                   "memory": {"value": 1024}},  # no lease key: kept
    }
    assert rank_hosts(spec, metadata, now=10.0) == ["legacy", "fresh"]
    # Without a clock, leases are ignored (backward compatible).
    assert rank_hosts(spec, metadata) == ["stale", "legacy", "fresh"]


def test_rm_request_avoids_crashed_host():
    """End to end: a crashed host's lease lapses, so an RM placing a new
    task picks a live host even though the corpse's metadata looks idle."""
    sim, topo, hosts, daemons, clients, rms = rm_site(n_hosts=3)
    topo.hosts["h2"].crash()
    sim.run(until=sim.now + 6.0)  # h2's lease (3s) lapses
    rm_client = RmClient(hosts[0], clients[0])
    spec = TaskSpec(program="worker", params={"rounds": 1, "cost": 0.1})
    result = sim.run(until=rm_client.request(spec))
    assert result["host"] != "h2"
