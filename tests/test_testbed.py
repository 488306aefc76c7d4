"""The §6 testbed, end to end.

    "SNIPE testbeds have been running at the University of Tennessee
    since autumn 1997 and due to replication have maintained an almost
    perfect level of availability. SNIPE testbeds have also extended to
    the University of Reading, UK and the Aeronautical Systems Center
    … in support of an across MPP inter-MPI application system."

This integration test builds the whole thing: three sites (UT, Reading,
ASC) joined by WAN links, RC replicas at every site, daemons + file
servers + an RM per site, random host churn on the worker nodes, a mixed
workload (spawns through the RM, metadata lookups, file reads, group
multicast), and a cross-site MPI_Connect application — all running
concurrently. The assertions mirror the paper's observations.
"""

import pytest

from repro.core import SnipeEnvironment
from repro.daemon import TaskSpec, TaskState
from repro.mpi import MpiConnectBridge, MpiJob
from repro.net.media import ETHERNET_100, MYRINET, WAN_T3
from repro.rm.client import RmClient

SITES = ["ut", "reading", "asc"]
WORKERS_PER_SITE = 3  # plus a gateway/core host per site


@pytest.fixture(scope="module")
def testbed():
    env = SnipeEnvironment(seed=1997)
    env.add_segment("wan", WAN_T3)
    for site in SITES:
        env.add_segment(f"{site}-lan", ETHERNET_100)
        core = env.add_host(f"{site}-core", segments=[f"{site}-lan"], forwarding=True)
        env.topology.connect(core, env.topology.segments["wan"])
        for i in range(WORKERS_PER_SITE):
            env.add_host(f"{site}-w{i}", segments=[f"{site}-lan"])
    # ASC also has an MPP behind its core (the paper's MSRC machines).
    env.add_segment("asc-mpp", MYRINET)
    for i in range(2):
        env.add_host(f"asc-mpp{i}", segments=["asc-mpp"])
    env.topology.connect(env.topology.hosts["asc-core"], env.topology.segments["asc-mpp"])
    # UT has one too.
    env.add_segment("ut-mpp", MYRINET)
    for i in range(2):
        env.add_host(f"ut-mpp{i}", segments=["ut-mpp"])
    env.topology.connect(env.topology.hosts["ut-core"], env.topology.segments["ut-mpp"])

    env.add_rc_servers([f"{site}-core" for site in SITES])
    for name in env.topology.hosts:
        env.boot_daemon(name)
    for site in SITES:
        env.add_file_server(f"{site}-w0")
        env.add_rm(f"{site}-core", port=3600)

    @env.program("unit-of-work")
    def unit_of_work(ctx, n=3):
        for _ in range(n):
            yield ctx.compute(0.05)
        yield ctx.publish({"work": "done"})
        return "done"

    @env.program("group-listener")
    def group_listener(ctx, count):
        yield ctx.join_group("testbed-news")
        got = 0
        while got < count:
            yield ctx.recv_group("testbed-news")
            got += 1
        return got

    @env.program("group-talker")
    def group_talker(ctx, count):
        yield ctx.join_group("testbed-news")
        yield ctx.sleep(3.0)
        for i in range(count):
            yield ctx.send_group("testbed-news", {"bulletin": i})
            yield ctx.sleep(1.0)
        return count

    env.settle(3.0)
    # Worker nodes churn; cores and file-server hosts stay up (they are
    # the replicated infrastructure whose availability we measure).
    churners = [f"{site}-w{i}" for site in SITES for i in (1, 2)]
    for ev in env.failures.churn_plan(churners, 60.0, 10.0, env.sim.now, 200.0):
        env.failures.inject(ev)
    return env


def test_mixed_workload_high_availability(testbed):
    env = testbed
    stats = {"ok": 0, "fail": 0}
    rmc = RmClient(env.topology.hosts["reading-w0"], env.rc_client("reading-w0"))
    rc = env.rc_client("ut-w0")
    fc = env.file_client("asc-w0")

    def seed_file():
        yield fc.write("testbed/config.dat", b"shared-config", 4_000)

    env.run(until=env.sim.process(seed_file()))

    def workload():
        for round_no in range(40):
            yield env.sim.timeout(2.0)
            try:
                yield rmc.request(TaskSpec(program="unit-of-work"), timeout=5.0)
                yield rc.lookup("snipe://ut-core/")
                yield fc.read("testbed/config.dat")
                stats["ok"] += 1
            except Exception:
                stats["fail"] += 1

    p = env.sim.process(workload())
    env.run(until=p)
    total = stats["ok"] + stats["fail"]
    assert total == 40
    # "Almost perfect level of availability" — the infrastructure is
    # replicated, so worker churn barely shows.
    assert stats["ok"] / total >= 0.95


def test_group_communication_across_sites(testbed):
    env = testbed
    listeners = [
        env.spawn(TaskSpec(program="group-listener", params={"count": 3}),
                  on=f"{site}-w0")
        for site in SITES
    ]
    env.settle(1.5)
    talker = env.spawn(TaskSpec(program="group-talker", params={"count": 3}),
                       on="ut-core")
    env.run(until=env.sim.now + 60.0)
    assert talker.state == TaskState.EXITED
    for listener in listeners:
        assert listener.state == TaskState.EXITED
        assert listener.exit_value == 3


def test_cross_mpp_mpi_connect_on_testbed(testbed):
    """The paper's 'across MPP inter-MPI application system' between the
    UT and ASC machines, running over the live (churning) testbed."""
    env = testbed
    sim = env.sim
    bridges = {}
    exchanged = []

    def ut_side(mpi):
        bridge = bridges["ut"]
        if mpi.rank == 0:
            yield bridge.register()
            remote = yield bridge.connect("asc")
        total = yield mpi.allreduce(mpi.rank + 1, lambda a, b: a + b)
        if mpi.rank == 0:
            yield bridge.send(0, remote, 0, {"ut-sum": total}, tag=9, size=50_000)
            msg = yield bridge.recv(0, tag=9)
            exchanged.append(("ut", msg.payload))
        return total

    def asc_side(mpi):
        bridge = bridges["asc"]
        if mpi.rank == 0:
            yield bridge.register()
            remote = yield bridge.connect("ut")
        total = yield mpi.allreduce((mpi.rank + 1) * 10, lambda a, b: a + b)
        if mpi.rank == 0:
            msg = yield bridge.recv(0, tag=9)
            exchanged.append(("asc", msg.payload))
            yield bridge.send(0, remote, 0, {"asc-sum": total}, tag=9, size=50_000)
        return total

    ut_hosts = [env.topology.hosts[f"ut-mpp{i}"] for i in range(2)]
    asc_hosts = [env.topology.hosts[f"asc-mpp{i}"] for i in range(2)]
    ut_job = MpiJob(sim, ut_hosts, ut_side, name="ut")
    asc_job = MpiJob(sim, asc_hosts, asc_side, name="asc")
    bridges["ut"] = MpiConnectBridge(ut_job, env.rc_replicas, "ut")
    bridges["asc"] = MpiConnectBridge(asc_job, env.rc_replicas, "asc")
    sim.run(until=sim.all_of(ut_job.procs + asc_job.procs))
    assert ("asc", {"ut-sum": 3}) in exchanged
    assert ("ut", {"asc-sum": 30}) in exchanged
