"""Unit tests for the differential HealthBoard.

The load-bearing semantics, each pinned by a test:

* application kinds (rpc, digest) trump transport kinds (srudp,
  heartbeat) — a zombie whose NIC acks every frame must still be
  quarantinable on failed work alone;
* ``iface_quarantined`` never falls back to the aggregate cell — a
  peer-wide quarantine must not condemn every sibling path at once;
* hysteresis: quarantine needs ``min_samples`` and a score below the
  threshold, release needs recovery *above* a higher one or a lapsed
  probation window;
* the heartbeat-only baseline (``enabled = False``) scores everything
  1.0 and quarantines nothing.
"""

from repro.robust.health import (
    APP_KINDS, KIND_WEIGHTS, QUARANTINE_BELOW, RECOVER_ABOVE, HealthBoard,
)
from repro.sim import Simulator


def fresh(**kw):
    return HealthBoard(Simulator(), owner="t", **kw)


def feed(board, peer, ok, kind, n, iface="*"):
    for _ in range(n):
        board.note_outcome(peer, ok, kind=kind, iface=iface)


def test_app_kinds_trump_transport():
    """The zombie case: healthy srudp (its NIC acks everything) plus
    failing rpc. With weighted averaging the transport EWMA of 1.0
    would floor the score at w_srudp/(w_rpc+w_srudp) = 0.43 — above the
    quarantine threshold, an undetectable zombie. App evidence must
    exclude the transport kinds instead."""
    b = fresh()
    feed(b, "z", True, "srudp", 20)
    feed(b, "z", False, "rpc", 8)
    assert b.score("z") < QUARANTINE_BELOW
    assert b.is_quarantined("z")


def test_transport_fills_in_without_app_evidence():
    """Per-iface cells fed purely by srudp outcomes still score and
    quarantine — transport evidence counts when it is all there is."""
    b = fresh()
    feed(b, "p", False, "srudp", 6, iface="eth0")
    assert b.score("p", "eth0") < QUARANTINE_BELOW
    assert b.iface_quarantined("p", "eth0")


def test_iface_quarantined_never_falls_back_to_aggregate():
    """rpc outcomes carry no iface: they quarantine the aggregate cell
    only. The per-iface check must stay clean or the path selector
    would see every sibling path condemned at once."""
    b = fresh()
    feed(b, "p", False, "rpc", 8)
    assert b.is_quarantined("p")
    assert b.is_quarantined("p", "eth0")       # aggregate fallback: yes
    assert not b.iface_quarantined("p", "eth0")  # strict check: no


def test_min_samples_gate():
    """A burst shorter than min_samples never quarantines — one lost
    frame (or three) must not flap a peer. alpha=0.5 drives the score
    below threshold by the second failure, so the gate is the only
    thing holding the flag back."""
    b = fresh(min_samples=4, alpha=0.5)
    feed(b, "p", False, "rpc", 3)
    assert b.score("p") < QUARANTINE_BELOW
    assert not b.is_quarantined("p")
    feed(b, "p", False, "rpc", 1)
    assert b.is_quarantined("p")


def test_probation_then_recovery():
    """The flag clears after probation even at a low score (the peer
    earns a re-probe), and successes above RECOVER_ABOVE release it."""
    b = fresh(probation=10.0)
    feed(b, "p", False, "rpc", 8)
    assert b.is_quarantined("p")
    b.sim.run(until=10.0)
    assert not b.is_quarantined("p")
    feed(b, "p", True, "rpc", 12)
    assert b.score("p") > RECOVER_ABOVE
    assert not b.is_quarantined("p")
    assert [w for _, _, _, w in b.transitions] == ["quarantine", "release"]


def test_heartbeat_only_baseline_is_blind():
    b = fresh()
    b.enabled = False
    feed(b, "p", False, "rpc", 50)
    assert b.score("p") == 1.0
    assert not b.is_quarantined("p")
    assert not b.iface_quarantined("p", "eth0")
    assert b.transitions == []


def test_weights_cover_app_kinds():
    assert APP_KINDS <= set(KIND_WEIGHTS)
    assert abs(sum(KIND_WEIGHTS.values()) - 1.0) < 1e-9
