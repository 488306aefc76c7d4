"""End-to-end self-healing: Guardian detection, restart, and fencing."""

from repro.core import SnipeEnvironment
from repro.core.checkpoint import checkpoint_to_files
from repro.daemon import TaskSpec, TaskState


def healing_env(seed=3):
    """A LAN site with two guardians and a checkpointing worker program."""
    env = SnipeEnvironment.lan_site(n_hosts=5, n_rc=3, n_rm=1, n_fs=2, seed=seed)
    env.add_guardian("h1")
    env.add_guardian("h2")
    received = []

    @env.program("collector")
    def collector(ctx):
        while True:
            msg = yield ctx.recv()
            received.append((msg.tag, msg.payload, msg.src_inc))

    @env.program("worker")
    def worker(ctx, total, ckpt_every, collector_urn):
        i = ctx.checkpoint_state.get("i", 0)
        while i < total:
            yield ctx.compute(0.2)
            i += 1
            ctx.checkpoint_state["i"] = i
            yield ctx.send(collector_urn, {"i": i, "inc": ctx.incarnation}, tag="progress")
            # Output-commit: checkpoint only after the report was acked,
            # so a successor can never resume past an unreported step.
            if i % ckpt_every == 0:
                yield checkpoint_to_files(ctx)
        yield ctx.send(collector_urn, {"inc": ctx.incarnation}, tag="done")
        return i

    env.settle(1.0)  # guardians register
    return env, received


def all_recoveries(env):
    return [r for g in env.guardians.values() for r in g.recoveries]


def test_guardian_recovers_task_from_crashed_host():
    """Kill a checkpointing task's host mid-run: the Guardian must respawn
    it from the latest checkpoint on a live host, and it completes once."""
    env, received = healing_env(seed=3)
    coll = env.spawn(TaskSpec(program="collector"), on="h0")
    work = env.spawn(
        TaskSpec(program="worker",
                 params={"total": 30, "ckpt_every": 5, "collector_urn": coll.urn}),
        on="h4",
    )
    old_inc = env.daemons["h4"].contexts[work.urn].incarnation
    # Crash h4 mid-run (~10 steps in, latest checkpoint at i=10). Permanent.
    env.failures.host_down_at(env.sim.now + 2.1, "h4")
    env.run(until=60.0)

    recs = all_recoveries(env)
    assert len(recs) == 1, f"expected exactly one recovery, got {recs}"
    rec = recs[0]
    assert rec["urn"] == work.urn
    assert rec["from"] == "h4"
    assert rec["to"] not in (None, "h4")
    assert rec["new_inc"] > (rec["old_inc"] or 0)
    assert rec["old_inc"] == old_inc

    # The successor ran to completion on the new host.
    revived = env.daemons[rec["to"]].tasks[work.urn]
    assert revived.state == TaskState.EXITED
    assert revived.exit_value == 30
    # Exactly one completion signal, from the new incarnation.
    dones = [(payload, inc) for tag, payload, inc in received if tag == "done"]
    assert len(dones) == 1
    assert dones[0][1] == rec["new_inc"]
    # Every unit of work was reported (restarts may redo a checkpointed
    # suffix, but nothing is lost).
    seen_i = {payload["i"] for tag, payload, _ in received if tag == "progress"}
    assert seen_i == set(range(1, 31))


def test_zombie_incarnation_is_fenced_after_partition():
    """A partitioned (not crashed) host looks dead to the Guardian. After
    recovery, the original keeps running — a zombie. Its late messages
    must be dropped by receivers, and it must terminate itself (quietly)
    once it sees the fence."""
    env = SnipeEnvironment(seed=11)
    env.add_segment("core")
    env.add_segment("edge")
    for name in ("h0", "h1", "h2"):
        env.add_host(name, segments=["core"])
    env.add_host("gw", segments=["core", "edge"], forwarding=True)
    env.add_host("w", segments=["edge"])
    env.add_rc_servers(["h0", "h1", "h2"])
    for name in ("h0", "h1", "h2", "gw", "w"):
        env.boot_daemon(name)
    env.add_rm("h0")
    env.add_file_server("h0")
    env.add_file_server("h1")
    env.add_guardian("h1")
    env.add_guardian("h2")
    received = []

    @env.program("collector")
    def collector(ctx):
        while True:
            msg = yield ctx.recv()
            received.append((msg.tag, msg.payload, msg.src_inc))

    @env.program("worker")
    def worker(ctx, total, ckpt_every, collector_urn):
        i = ctx.checkpoint_state.get("i", 0)
        while i < total:
            yield ctx.compute(0.2)
            i += 1
            ctx.checkpoint_state["i"] = i
            yield ctx.send(collector_urn, {"i": i, "inc": ctx.incarnation}, tag="progress")
            # Output-commit: checkpoint only after the report was acked,
            # so a successor can never resume past an unreported step.
            if i % ckpt_every == 0:
                yield checkpoint_to_files(ctx)
        yield ctx.send(collector_urn, {"inc": ctx.incarnation}, tag="done")
        return i

    env.settle(2.0)
    coll = env.spawn(TaskSpec(program="collector"), on="h0")
    work = env.spawn(
        TaskSpec(program="worker",
                 params={"total": 100, "ckpt_every": 5, "collector_urn": coll.urn}),
        on="w",
    )
    old_inc = env.daemons["w"].contexts[work.urn].incarnation
    # Isolate w (and only w): its lease lapses but the task keeps running.
    env.failures.partition_at(env.sim.now + 1.6, ["w"], ["h0", "h1", "h2", "gw"],
                              duration=12.0)
    env.run(until=90.0)

    recs = all_recoveries(env)
    assert len(recs) == 1
    rec = recs[0]
    assert rec["from"] == "w"
    assert rec["new_inc"] > old_inc

    # The zombie was fenced: terminated without publishing, and its late
    # messages (buffered across the partition) were dropped on arrival.
    zombie = env.daemons["w"].tasks[work.urn]
    assert zombie.fenced
    assert zombie.state == TaskState.KILLED
    coll_ctx = env.daemons["h0"].contexts[coll.urn]
    assert coll_ctx.msgs_fenced > 0
    # Exactly one completion, from the successor incarnation.
    dones = [(payload, inc) for tag, payload, inc in received if tag == "done"]
    assert len(dones) == 1
    assert dones[0][1] == rec["new_inc"]
    # No message from the zombie incarnation ever arrived post-recovery
    # interleaved into the stream: once the successor spoke, everything
    # recorded is from the successor.
    first_new = next(i for i, (_, _, inc) in enumerate(received) if inc == rec["new_inc"])
    assert all(inc == rec["new_inc"] for _, _, inc in received[first_new:])
    # The catalog agrees the task finished (successor's record survived).
    def check(sim):
        meta = yield env.rc_client("h2").lookup(work.urn)
        return (meta.get("state") or {}).get("value")

    state = env.run(until=env.sim.process(check(env.sim)))
    assert state == TaskState.EXITED


def test_duplicate_fenced_respawns_converge_to_one_owner():
    """A spawn whose reply is lost gets retried by the RM layers on another
    host, so one recovery can start two successors. A fenced respawn
    quorum-writes the incarnation it drew as the fence *before*
    launching, and launches as that incarnation: the sibling that drew
    later is the higher incarnation and fences every other one. When the
    two spawns overlap and the first-drawn fence write lands last (its
    frames are held up on the wire, as a slow replica holds gray's
    writes up), the lower one reads the higher fence back and never
    launches — else its record would land last and name a corpse.
    Either way the catalog names the owner while it runs, and exactly
    one owner finishes."""
    for overlap in (False, True):
        _one_owner_after_duplicate_respawns(overlap)


def _one_owner_after_duplicate_respawns(overlap):
    env, received = healing_env(seed=7)
    coll = env.spawn(TaskSpec(program="collector"), on="h0")
    work = env.spawn(
        TaskSpec(program="worker",
                 params={"total": 40, "ckpt_every": 5, "collector_urn": coll.urn}),
        on="h3",
    )
    env.run(until=env.sim.now + 1.5)  # original makes progress, stays alive

    def respawn(program="worker"):
        return TaskSpec(program=program,
                        params={"total": 40, "ckpt_every": 5,
                                "collector_urn": coll.urn},
                        urn_override=work.urn, fence_predecessors=True)

    def duplicate_spawns(sim):
        # What the retry race produces: the same recovery's spec landing
        # on two daemons — back to back, or overlapping with the first
        # one's fence write delayed past the second one's launch.
        if overlap:
            env.failures.impair_link_at(sim.now, "lan", src="h4", loss=1.0,
                                        duration=0.4)
        first = sim.process(env.daemons["h4"]._spawn_fenced(respawn()))
        if not overlap:
            yield first
        second = sim.process(env.daemons["h2"]._spawn_fenced(respawn()))
        yield sim.all_of([first, second])
        return first.value, second.value

    first, second = env.run(until=env.sim.process(duplicate_spawns(env.sim)))
    owner = env.daemons["h2"].contexts[work.urn].incarnation
    # Each launched successor is the incarnation its own fence reserved;
    # the overlapped one stood down and reports the owner's.
    assert second["incarnation"] == owner
    if overlap:
        assert first["incarnation"] == owner
        assert work.urn not in env.daemons["h4"].tasks
    else:
        assert first["incarnation"] == env.daemons["h4"].contexts[work.urn].incarnation
        assert first["incarnation"] < owner

    def catalog(sim):
        meta = yield env.rc_client("h0").lookup(work.urn, consistency="quorum")
        return {k: (meta.get(k) or {}).get("value")
                for k in ("host", "state", "incarnation")}

    env.run(until=env.sim.now + 3.0)
    assert env.daemons["h2"].tasks[work.urn].state == TaskState.RUNNING
    assert env.run(until=env.sim.process(catalog(env.sim))) == {
        "host": "h2", "state": TaskState.RUNNING, "incarnation": owner}
    env.run(until=60.0)

    # The highest incarnation owns the URN; every other was fenced, quietly.
    assert env.daemons["h2"].tasks[work.urn].state == TaskState.EXITED
    for loser in ("h3",) if overlap else ("h3", "h4"):
        info = env.daemons[loser].tasks[work.urn]
        assert info.fenced and info.state == TaskState.KILLED
    dones = [inc for tag, _, inc in received if tag == "done"]
    assert dones == [owner]


def test_a_fenced_respawn_never_displaces_a_higher_sibling_on_its_host():
    """Two fenced respawns of one URN on the *same* daemon, where the
    one that drew later launches first: the earlier one, resuming after
    its fence write and a read-back that predates the sibling's write,
    must not launch — the daemon would fence the higher sibling to make
    room, and its own fence watch would then stop it, leaving no owner
    at all. It reports the sibling instead."""
    env, received = healing_env(seed=7)
    coll = env.spawn(TaskSpec(program="collector"), on="h0")
    spec = TaskSpec(program="worker",
                    params={"total": 10, "ckpt_every": 5, "collector_urn": coll.urn},
                    urn_override="urn:snipe:proc:twin", fence_predecessors=True)
    daemon = env.daemons["h4"]

    def overlapping(sim):
        stalled = daemon._spawn_fenced(spec)
        write = next(stalled)      # drew the lower incarnation
        yield write
        read_back = stalled.send(write.value)
        yield read_back            # sees only its own fence
        later = yield sim.process(daemon._spawn_fenced(spec))
        try:
            stalled.send(read_back.value)
        except StopIteration as done:
            return done.value, later

    earlier, later = env.run(until=env.sim.process(overlapping(env.sim)))
    assert earlier == later
    assert earlier["incarnation"] == daemon.contexts[spec.urn_override].incarnation
    env.run(until=40.0)
    assert daemon.tasks[spec.urn_override].state == TaskState.EXITED
    assert [inc for tag, _, inc in received if tag == "done"] == [later["incarnation"]]


def test_crash_recovery_inside_partition_eventually_publishes_deaths():
    """A host that crashes and reboots *inside* a partition cannot reach
    the catalog to report its dead tasks. The daemon must keep retrying
    after the partition heals — otherwise the ghost RUNNING record plus
    the rebooted host's healthy lease convince every Guardian the task is
    fine, forever."""
    env = SnipeEnvironment(seed=13)
    env.add_segment("core")
    env.add_segment("edge")
    for name in ("h0", "h1", "h2"):
        env.add_host(name, segments=["core"])
    env.add_host("gw", segments=["core", "edge"], forwarding=True)
    env.add_host("w", segments=["edge"])
    env.add_rc_servers(["h0", "h1", "h2"])
    for name in ("h0", "h1", "h2", "gw", "w"):
        env.boot_daemon(name)
    env.add_rm("h0")
    env.add_file_server("h0")
    env.add_file_server("h1")
    env.add_guardian("h1")
    env.add_guardian("h2")
    received = []

    @env.program("collector")
    def collector(ctx):
        while True:
            msg = yield ctx.recv()
            received.append((msg.tag, msg.payload, msg.src_inc))

    @env.program("worker")
    def worker(ctx, total, ckpt_every, collector_urn):
        i = ctx.checkpoint_state.get("i", 0)
        while i < total:
            yield ctx.compute(0.2)
            i += 1
            ctx.checkpoint_state["i"] = i
            yield ctx.send(collector_urn, {"i": i, "inc": ctx.incarnation}, tag="progress")
            if i % ckpt_every == 0:
                yield checkpoint_to_files(ctx)
        yield ctx.send(collector_urn, {"inc": ctx.incarnation}, tag="done")
        return i

    env.settle(2.0)
    coll = env.spawn(TaskSpec(program="collector"), on="h0")
    work = env.spawn(
        TaskSpec(program="worker",
                 params={"total": 30, "ckpt_every": 5, "collector_urn": coll.urn}),
        on="w",
    )
    t0 = env.sim.now
    # Cut w off, then crash-and-reboot it while the cut is still up: the
    # reboot lands with a dead task to report and no catalog in sight.
    env.failures.partition_at(t0 + 1.6, ["w"], ["h0", "h1", "h2", "gw"],
                              duration=12.0)
    env.failures.host_down_at(t0 + 2.0, "w", duration=2.0)
    env.run(until=90.0)

    assert env.daemons["w"]._unpublished == set()
    recs = all_recoveries(env)
    assert len(recs) == 1 and recs[0]["from"] == "w"
    dones = [inc for tag, _, inc in received if tag == "done"]
    assert dones == [recs[0]["new_inc"]]


def test_dead_task_without_checkpoint_is_recorded_unrecoverable():
    env, _ = healing_env(seed=5)

    @env.program("sleeper")
    def sleeper(ctx):
        while True:
            yield ctx.sleep(1.0)

    info = env.spawn(TaskSpec(program="sleeper"), on="h3")
    env.failures.host_down_at(env.sim.now + 1.0, "h3")
    env.run(until=20.0)
    assert not all_recoveries(env)
    unrecoverable = {}
    for g in env.guardians.values():
        unrecoverable.update(g.unrecoverable)
    assert unrecoverable.get(info.urn) == "h3"
