"""Injector-level duplication + reordering: srudp delivers exactly once.

The gray-fault injector's :meth:`~repro.net.failures.FailureInjector.
impair_link_at` installs a probabilistic LinkFault on one segment
direction — duplicated and reordered frames, exactly what a flapping
switch port produces. The transport's contract is unchanged underneath
it: every message sent is delivered exactly once, whole, in send order.
A duplicated final segment must not re-deliver a completed message, and
a reordered segment must not tear one.
"""

import pytest

from repro.net.failures import FailureInjector
from repro.transport import SrudpEndpoint

from .conftest import make_lan

N_MSGS = 40


def _run(seed, **impair):
    sim, topo, (a, b) = make_lan(seed=seed)
    inj = FailureInjector(sim, topo)
    # Impair both directions from t=0 for the whole run: data segments
    # *and* acks get duplicated/reordered.
    inj.impair_link_at(0.0, "lan", **impair)
    tx = SrudpEndpoint(a, 5000)
    rx = SrudpEndpoint(b, 5000)
    got = []

    def receiver():
        while True:
            msg = yield rx.recv()
            got.append(msg.payload["seq"])

    def sender():
        for i in range(N_MSGS):
            yield tx.send("h1", 5000, {"seq": i}, 2000)

    sim.process(receiver(), name="rx")
    p = sim.process(sender(), name="tx")
    sim.run(until=p)
    # Drain: late duplicates of already-acked traffic are still in
    # flight — exactly-once means none of them re-deliver.
    sim.run(until=sim.now + 5.0)
    return got


@pytest.mark.parametrize("seed", range(1, 11))
def test_dup_reorder_exactly_once(seed):
    got = _run(seed, dup=0.3, reorder=0.3)
    assert got == list(range(N_MSGS))


@pytest.mark.parametrize("seed", range(1, 11))
def test_dup_reorder_loss_exactly_once(seed):
    """Adding loss on top forces retransmits — the retransmit path must
    not break the dedup that exactly-once rests on."""
    got = _run(seed, dup=0.2, reorder=0.2, loss=0.05)
    assert got == list(range(N_MSGS))
