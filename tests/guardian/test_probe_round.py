"""The Guardian's death confirmation: one bounded probe round per scan.

A lease-lapsed host is a suspect. One scan pings every interface of
every suspect at once, each ping pinned to one path with its reply
pinned to the same path, and a suspect is dead only if every path
fails. The notify and recovery paths read the scan's verdict and never
probe themselves.
"""

import pytest

from repro.core import SnipeEnvironment
from repro.core.checkpoint import checkpoint_to_files
from repro.daemon import TaskSpec, TaskState
from repro.guardian.guardian import PROBE_TIMEOUT

#: Scan bookkeeping (catalog query + batched read) on an idle LAN.
EPS = 0.05


def record_pings(env, guardian):
    """Log every ping the guardian sends: (time, calling process, host, via)."""
    pings = []
    client = guardian._probe
    call = client.call

    def logged(dst_host, dst_port, method, **kw):
        pings.append((env.sim.now, env.sim._active_process.name, dst_host, kw.get("via")))
        return call(dst_host, dst_port, method, **kw)

    client.call = logged
    return pings


def record_rounds(env, guardian):
    """Log every probe round that has suspects as [start, end, suspects,
    alive]; end and alive stay None while the round runs."""
    rounds = []
    probe_round = guardian._probe_round

    def logged(suspects):
        entry = [env.sim.now, None, sorted(suspects), None]
        if suspects:
            rounds.append(entry)
        alive = yield from probe_round(suspects)
        entry[1], entry[3] = env.sim.now, sorted(alive)
        return alive

    guardian._probe_round = logged
    return rounds


def dual_homed_site(seed=5):
    """Core hosts c0-c2 (catalog) and a daemon-only host h3, all on two
    LANs; one guardian on c1. ``lan`` is every pair's primary path."""
    env = SnipeEnvironment(seed=seed)
    env.add_segment("lan")
    env.add_segment("lan2")
    for name in ("c0", "c1", "c2", "h3"):
        env.add_host(name, segments=["lan", "lan2"])
    env.add_rc_servers(["c0", "c1", "c2"])
    for name in ("c0", "c1", "c2", "h3"):
        env.boot_daemon(name)
    guardian = env.add_guardian("c1")
    env.settle(2.0)
    return env, guardian


@pytest.mark.parametrize("cut", [("c1", "h3"), ("h3", "c1")],
                         ids=["c1->h3", "h3->c1"])
def test_a_one_way_cut_of_the_primary_path_is_not_a_death(cut):
    """h3's clock runs 30 s slow, so its lease always looks lapsed, and
    one direction of its primary link to the guardian is cut. Each scan
    must confirm it alive in one round through the other LAN. With the
    cut on the reply direction (h3->c1) that needs the reply to leave by
    the interface the ping arrived on."""
    env, guardian = dual_homed_site()
    pings = record_pings(env, guardian)
    rounds = record_rounds(env, guardian)
    env.failures.skew_clock_at(env.sim.now, "h3", offset=-30.0)
    env.topology.segments["lan"].block_link(*cut)
    h3_ips = [nic.address.ip for nic in env.topology.hosts["h3"].nics.values()]
    env.run(until=env.sim.now + 12.0)

    done = [r for r in rounds if r[1] is not None]
    assert len(done) >= 8
    for t0, t1, suspects, alive in done:
        assert suspects == ["h3"] and alive == ["h3"]
        assert t1 - t0 <= PROBE_TIMEOUT + EPS
    assert "h3" not in guardian._dead
    assert guardian.deaths_declared == 0
    assert guardian.false_deaths_averted == len(done)
    # Every round pinged both paths, the cut one and the one that answers.
    assert sorted(via for _t, _p, _h, via in pings) == sorted(h3_ips * len(rounds))


def test_a_partitioned_host_is_declared_dead_within_one_probe_round():
    """A single-homed host cut off from everyone is declared dead after
    one probe round: within lease_ttl + scan_interval + grace +
    PROBE_TIMEOUT of its last heartbeat."""
    env = SnipeEnvironment.lan_site(n_hosts=5, n_rc=3, n_rm=1, seed=4)
    guardian = env.add_guardian("h1")
    env.settle(1.0)
    rounds = record_rounds(env, guardian)
    env.failures.partition_at(env.sim.now + 0.3, ["h4"], ["h0", "h1", "h2", "h3"])
    env.run(until=env.sim.now + 12.0)

    done = [r for r in rounds if r[1] is not None]
    declared = [t1 for _t0, t1, suspects, alive in done
                if "h4" in suspects and "h4" not in alive]
    assert declared and guardian._dead.get("h4") is not None
    lease_ttl = env.daemons["h4"].lease_ttl
    last_heartbeat = guardian._dead["h4"] - lease_ttl
    bound = lease_ttl + guardian.scan_interval + guardian.grace + PROBE_TIMEOUT
    assert declared[0] - last_heartbeat <= bound + EPS
    assert all(alive == [] for _t0, _t1, _s, alive in done)


def flaky_site(seed):
    """LAN site, two guardians, and a checkpointing program that fails
    once on its first run (at step *fail_at*, just after a checkpoint)
    and completes as the successor."""
    env = SnipeEnvironment.lan_site(n_hosts=5, n_rc=3, n_rm=1, n_fs=2, seed=seed)
    env.add_guardian("h1")
    env.add_guardian("h2")

    @env.program("flaky")
    def flaky(ctx, total, fail_at=12):
        i = ctx.checkpoint_state.get("i", 0)
        if i == 0:
            yield checkpoint_to_files(ctx)
        while i < total:
            yield ctx.compute(0.2)
            i += 1
            ctx.checkpoint_state["i"] = i
            if i % 4 == 0:
                yield checkpoint_to_files(ctx)
            if i == fail_at:
                raise RuntimeError("flaky step")
        return i

    env.settle(1.0)
    return env


def test_one_ping_per_suspect_interface_and_none_outside_the_scan():
    """A host crash (the lease path, through ``_recover``) and a program
    failure (the notify path, through ``_consider``): every ping comes
    from a scan, one per (suspect, interface) per round."""
    env = flaky_site(seed=6)
    pings = {h: record_pings(env, g) for h, g in env.guardians.items()}
    rounds = {h: record_rounds(env, g) for h, g in env.guardians.items()}
    considered, recovered = [], []
    for g in env.guardians.values():
        consider, recover = g._consider, g._recover

        def logged_consider(urn, consider=consider):
            considered.append(urn)
            return consider(urn)

        def logged_recover(urn, *args, recover=recover):
            recovered.append(urn)
            return recover(urn, *args)

        g._consider, g._recover = logged_consider, logged_recover

    # The program fails after h4's lease has lapsed, so h4 is a suspect
    # whenever the notify path runs.
    flaky = env.spawn(TaskSpec(program="flaky", params={"total": 40, "fail_at": 32}),
                      on="h3")
    steady = env.spawn(TaskSpec(program="flaky", params={"total": 8}), on="h4")
    env.failures.host_down_at(env.sim.now + 0.5, "h4")
    env.run(until=env.sim.now + 30.0)

    assert flaky.urn in considered
    assert {flaky.urn, steady.urn} <= set(recovered)
    for host, log in pings.items():
        assert all(proc == f"guardian-scan:{host}" for _t, proc, _h, _v in log)
        per_round = sorted((dst, via) for _t, _p, dst, via in log)
        want = sorted((dst, nic.address.ip)
                      for _t0, _t1, suspects, _a in rounds[host] for dst in suspects
                      for nic in env.topology.hosts[dst].nics.values())
        assert per_round == want
        assert len(set((t, dst, via) for t, _p, dst, via in log)) == len(log)
    assert any(rounds[h] for h in rounds)


def test_a_notified_failure_recovers_from_consider_despite_a_lagging_replica():
    """The failure report reaches the owning guardian's local replica
    late (its anti-entropy is held back). ``_consider`` reads at QUORUM,
    so the recovery still starts from the notification, not from a
    later scan. (Seed 2: the report lands on h0, and the QUORUM read's
    second reply comes from a replica that has it.)"""
    env = flaky_site(seed=2)
    work = env.spawn(TaskSpec(program="flaky", params={"total": 16}), on="h3")
    env.run(until=env.sim.now + 1.5)  # a scan subscribes the owner
    owner = next(g for g in env.guardians.values() if work.urn in g._watched)
    local = env.rc_servers[owner.host.name].store
    apply_remote = local.apply_remote
    local.apply_remote = lambda records: 0
    started = []
    start = owner._start_recovery

    def logged(urn, *args):
        started.append((env.sim._active_process.name, local.get(urn, "state")))
        start(urn, *args)

    owner._start_recovery = logged
    env.run(until=env.sim.now + 6.0)
    local.apply_remote = apply_remote

    assert started[:1] == [(f"guardian-consider:{work.urn}", TaskState.RUNNING)]
    env.run(until=env.sim.now + 20.0)
    assert len(owner.recoveries) == 1
    assert owner.recoveries[0]["urn"] == work.urn
