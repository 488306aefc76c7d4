"""The replica-set core, seen through the three clients built on it.

RC, RM and file clients share one failover discipline
(``repro.robust.replicas``): a replica behind an open circuit breaker or
a health-board quarantine is tried only after every healthy one, and the
healthy ones keep the client's own preference order. Each case below
makes every call of the client's verb fail, so one operation walks the
whole candidate list, and compares the order of the attempts with the
same site's order when nothing is sick.
"""

import pytest

from repro.daemon import TaskSpec
from repro.files import FileClient, FileError, FileServer
from repro.rcds import ConsistencyError
from repro.rm import AllocationError, ResourceManager, RmClient
from repro.rm.client import RmUnreachable
from repro.rpc import RpcClient, RpcError

from ..daemon.conftest import make_site

CLIENT = 1  # the clients under test all run on h1


def _site(kind):
    """A 5-host LAN, RC replicas on h0-h2; returns (sim, hosts, op, verb,
    short) where *op()* is one client operation (a process) whose walk
    calls *verb* and raises *short* when every replica fails."""
    sim, _topo, hosts, _daemons, clients = make_site(n_hosts=5, n_rc=3)
    rc = clients[CLIENT]
    if kind == "rc":
        op, verb, short = (lambda: rc.lookup("urn:snipe:host:h3")), "rc.lookup", ConsistencyError
    elif kind == "rm":
        for i in (0, 2, 3):
            ResourceManager(hosts[i], clients[i], port=3600 + i)
        rmc = RmClient(hosts[CLIENT], rc)
        # arch="cray": no host satisfies it, so a live RM answers with a
        # policy rejection.
        op = lambda: rmc.request(TaskSpec(program="worker", arch="cray"))
        verb, short = "rm.request", RmUnreachable
    else:
        servers = [FileServer(hosts[i], clients[i]) for i in (0, 1, 2)]
        fc = FileClient(hosts[CLIENT], rc)

        def store(sim):
            yield sim.timeout(0.5)
            for s in servers:
                yield fc.write("f.dat", b"bytes", 10, server=(s.host.name, s.port))

        sim.run(until=sim.process(store(sim)))
        op, verb, short = (lambda: fc.read("f.dat")), "file.get", FileError
    sim.run(until=sim.now + 3.0)  # services register in the catalog
    return sim, hosts, op, verb, short


def _walk_order(monkeypatch, kind, sick=None, how=None):
    """Hosts in the order one operation tried them, all of them failing."""
    sim, hosts, op, verb, short = _site(kind)
    if how == "breaker":
        monkeypatch.setattr(RpcClient, "breaker_open", lambda self, h, p: h == sick)
    elif how == "quarantine":
        for _ in range(12):
            hosts[CLIENT].health.note_outcome(sick, ok=False)
        assert hosts[CLIENT].health.is_quarantined(sick)
    tried = []
    real_call = RpcClient.call

    def refuse(sim):
        raise RpcError("refused by the test")
        yield  # pragma: no cover

    def call(self, dst_host, dst_port, method, **kw):
        if method != verb:
            return real_call(self, dst_host, dst_port, method, **kw)
        tried.append(dst_host)
        return sim.process(refuse(sim))

    with monkeypatch.context() as m:
        m.setattr(RpcClient, "call", call)

        def go(sim):
            with pytest.raises(short):
                yield op()

        sim.run(until=sim.process(go(sim)))
    return tried


@pytest.mark.parametrize("how", ["breaker", "quarantine"])
@pytest.mark.parametrize("kind", ["rc", "rm", "file"])
def test_sick_replica_is_tried_last_and_the_healthy_keep_their_order(monkeypatch, kind, how):
    healthy_order = _walk_order(monkeypatch, kind)
    assert len(healthy_order) == 3
    if kind != "rm":  # RC: local replica first; files: closest (local) first
        assert healthy_order[0] == f"h{CLIENT}"
    sick = healthy_order[0]  # the replica the client likes best
    order = _walk_order(monkeypatch, kind, sick, how)
    assert order == healthy_order[1:] + [sick]


def test_rm_policy_rejection_does_not_fail_over(monkeypatch):
    sim, _hosts, op, verb, _short = _site("rm")
    asked = []
    real_call = RpcClient.call

    def call(self, dst_host, dst_port, method, **kw):
        if method == verb:
            asked.append(dst_host)
        return real_call(self, dst_host, dst_port, method, **kw)

    monkeypatch.setattr(RpcClient, "call", call)

    def go(sim):
        with pytest.raises(AllocationError) as err:
            yield op()  # every RM would refuse alike
        return err.type

    assert sim.run(until=sim.process(go(sim))) is AllocationError  # not RmUnreachable
    assert len(asked) == 1


def test_corrupt_file_replica_is_skipped_and_counted():
    sim, _topo, hosts, _daemons, clients = make_site(n_hosts=5, n_rc=3)
    servers = [FileServer(hosts[i], clients[i]) for i in (0, 1, 2)]
    fc = FileClient(hosts[CLIENT], clients[CLIENT])

    def go(sim):
        yield sim.timeout(0.5)
        for s in servers:
            yield fc.write("f.dat", b"good", 10, server=(s.host.name, s.port))
        servers[1].files["f.dat"].payload = b"evil"  # the local, closest copy
        return (yield fc.read("f.dat"))

    got = sim.run(until=sim.process(go(sim)))
    assert got["payload"] == b"good"
    assert got["location"] == "file://h0/f.dat"  # next closest by URL
    assert fc.integrity_failures == 1
