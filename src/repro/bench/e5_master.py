"""E5 — master failure tolerance (§2.2).

    "PVM can tolerate slave failures but not failure of its master host."

Scenario: a steady stream of operations (spawn a small task, look up a
name) before and after one designated host dies. For PVM the dead host
is the master; for SNIPE it is one of the hosts carrying an RC replica
and an RM — a worst case for SNIPE, since it has no master at all.

Expected: PVM's post-failure success rate collapses to ~0; SNIPE's stays
near 100 % (requests just fail over to surviving replicas/RMs).
"""

from __future__ import annotations

from typing import Dict, List

from repro.bench.table import Tables
from repro.core.environment import SnipeEnvironment
from repro.daemon.tasks import TaskSpec
from repro.net.media import ETHERNET_100
from repro.net.topology import Topology
from repro.pvm.pvmd import Pvmd
from repro.rm.client import RmClient
from repro.sim.kernel import Simulator


def _phase_stats() -> Dict[str, List[int]]:
    return {"before": [0, 0], "after": [0, 0]}  # [ok, fail]


def _run_snipe(n_hosts: int, ops_per_phase: int, seed: int) -> List[Dict]:
    env = SnipeEnvironment.lan_site(n_hosts=n_hosts, n_rc=3, n_rm=2, seed=seed, mcast=False)

    def noop(ctx):
        yield ctx.sleep(0.001)
        return "ok"

    env.register_program("noop", noop)
    env.settle(3.0)
    stats = _phase_stats()
    client_host = f"h{n_hosts - 1}"
    rmc = RmClient(env.topology.hosts[client_host], env.rc_client(client_host))
    rc = env.rc_client(client_host)

    def run_phase(phase: str):
        for _ in range(ops_per_phase):
            yield env.sim.timeout(0.25)
            try:
                yield rmc.request(TaskSpec(program="noop"), timeout=3.0)
                yield rc.lookup("snipe://h1/")
                stats[phase][0] += 1
            except Exception:
                stats[phase][1] += 1

    def scenario():
        yield from run_phase("before")
        # Kill h0: an RC replica AND an RM live there. No matter — no master.
        env.topology.hosts["h0"].crash()
        yield from run_phase("after")

    env.run(until=env.sim.process(scenario(), name="e5-snipe"))
    return _rows("snipe", stats)


def _run_pvm(n_hosts: int, ops_per_phase: int, seed: int) -> List[Dict]:
    sim = Simulator(seed=seed)
    topo = Topology(sim)
    seg = topo.add_segment("lan", ETHERNET_100)

    def noop(ctx):
        yield ctx.sleep(0.001)

    programs = {"noop": noop}
    hosts = []
    for i in range(n_hosts):
        h = topo.add_host(f"h{i}")
        topo.connect(h, seg)
        hosts.append(h)
    Pvmd(hosts[0], programs)  # the master pvmd
    slaves = [Pvmd(h, programs, master_host="h0") for h in hosts[1:]]

    def boot():
        for s in slaves:
            yield s.join()

    sim.run(until=sim.process(boot(), name="boot"))
    stats = _phase_stats()
    requester = slaves[-1]

    def run_phase(phase: str):
        for _ in range(ops_per_phase):
            yield sim.timeout(0.25)
            try:
                tids = yield requester.spawn("noop")
                if not tids:
                    raise RuntimeError("no tids")
                stats[phase][0] += 1
            except Exception:
                stats[phase][1] += 1

    def scenario():
        yield from run_phase("before")
        hosts[0].crash()  # the master
        yield from run_phase("after")

    sim.run(until=sim.process(scenario(), name="e5-pvm"))
    return _rows("pvm", stats)


def _rows(system: str, stats) -> List[Dict]:
    out = []
    for phase in ("before", "after"):
        ok, fail = stats[phase]
        total = ok + fail
        out.append(
            {
                "system": system,
                "phase": phase,
                "ops": total,
                "ok": ok,
                "success_rate": ok / total if total else 0.0,
            }
        )
    return out


def master_failure(n_hosts: int = 8, ops_per_phase: int = 20,
                   seed: int = 0) -> Tables:
    """Table ``success``: success rate before/after the critical host
    dies, per system."""
    return {"success": _run_pvm(n_hosts, ops_per_phase, seed)
            + _run_snipe(n_hosts, ops_per_phase, seed)}
