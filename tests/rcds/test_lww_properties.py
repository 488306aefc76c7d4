"""Property tests: register merges are joins, so replicas converge.

The catalog judge in :mod:`repro.robust.oracles` mirrors every
replica through :func:`repro.robust.oracles.lww_merge` — or, for the
``fenced-below`` max register, :func:`repro.robust.oracles.max_merge` —
and these tests prove that both specifications are commutative,
associative, idempotent joins over entries with distinct stamps, and
that the real :class:`~repro.rcds.records.RCStore` computes the same
fold, tombstones and shard-handoff moved markers included, no matter
what order records arrive in.
Stamps are unique by construction (the origin id is the final tiebreak
and every generated entry gets a distinct one), matching production
where two replicas can never mint the same stamp.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.robust.oracles import LwwMap, lww_merge, max_merge
from repro.rcds.client import _newest
from repro.rcds.records import MOVED, Entry, RCStore

FENCE = "fenced-below"
MERGES = (lww_merge, max_merge)

walls = st.floats(min_value=0.0, max_value=100.0,
                  allow_nan=False, allow_infinity=False)


def entries(n: int):
    """Strategy: *n* entries with pairwise-distinct stamps.

    Distinctness comes for free from unique origin ids — the stamp's
    final component — while walls and lamports are free to collide,
    which is exactly where a broken comparator would slip. A tombstone
    is a deletion or, one time in two, a shard handoff's moved marker.
    """
    one = st.tuples(walls, st.integers(min_value=0, max_value=20),
                    st.integers(), st.sampled_from(("live", "deleted", "moved")))
    return st.lists(one, min_size=n, max_size=n).map(lambda rows: [
        Entry(value=MOVED if d == "moved" else v, lamport=l, origin=f"s{i}",
              wall=w, deleted=d != "live")
        for i, (w, l, v, d) in enumerate(rows)
    ])


@given(entries(2))
def test_merge_commutative(es):
    a, b = es
    for merge in MERGES:
        assert merge(a, b) == merge(b, a)


@given(entries(3))
def test_merge_associative(es):
    a, b, c = es
    for merge in MERGES:
        assert merge(merge(a, b), c) == merge(a, merge(b, c))


@given(entries(1))
def test_merge_idempotent(es):
    (a,) = es
    for merge in MERGES:
        assert merge(a, a) == a


@given(entries(6), st.integers())
def test_lwwmap_fold_is_order_independent(es, shuffle_seed):
    """Folding any permutation of the same entries into the reference
    model yields the same register value — convergence, in miniature.
    An LWW register keeps the latest stamp; the fence keeps its highest
    value, which no deletion and no later, lower write can undo — only
    a handoff's moved marker, the register having left for its shard."""
    perm = list(es)
    random.Random(shuffle_seed).shuffle(perm)
    for key in ("k", FENCE):
        forward, shuffled = LwwMap(), LwwMap()
        for e in es:
            forward.apply("uri", key, e)
        for e in perm:
            shuffled.apply("uri", key, e)
        win = forward.get("uri", key)
        assert win == shuffled.get("uri", key)
        live = [e for e in es if not e.deleted]
        moved = [e for e in es if e.deleted and e.value == MOVED]
        if key == FENCE and moved:
            assert win == max(moved, key=lambda e: e.stamp())
        elif key == FENCE and live:
            assert not win.deleted
            assert win.value == max(e.value for e in live)
        else:
            assert win == max(es, key=lambda e: e.stamp())


# -- the real store against the model --------------------------------------

writes = st.lists(
    st.tuples(
        st.sampled_from(("rc-a", "rc-b", "rc-c")),     # accepting origin
        st.sampled_from(("uri:x", "uri:y")),           # register uri
        st.sampled_from(("state", "host", FENCE)),     # register key
        st.integers(min_value=0, max_value=99),        # value
        walls,                                         # accept timestamp
        st.sampled_from(("update", "delete", "move")),  # the operation
    ),
    min_size=1, max_size=30,
)


def _accept_all(ws):
    """Run each write at its origin replica; return (origins, records)."""
    origins = {o: RCStore(o) for o in ("rc-a", "rc-b", "rc-c")}
    records = []
    for origin, uri, key, value, wall, op in ws:
        store = origins[origin]
        if op == "move":
            records.append(store.mark_moved(uri, key, wall))
        else:
            records.extend(store.local_delete(uri, [key], wall) if op == "delete"
                           else store.local_update(uri, {key: value}, wall))
    return origins, records


@given(writes, st.integers())
@settings(max_examples=150)
def test_store_apply_is_permutation_invariant(ws, shuffle_seed):
    """Two fresh replicas fed the same records in different orders end
    up with identical registers — the convergence claim of §2.1."""
    _, records = _accept_all(ws)
    forward, shuffled = RCStore("rc-f"), RCStore("rc-s")
    perm = list(records)
    random.Random(shuffle_seed).shuffle(perm)
    forward.apply_remote(records)
    shuffled.apply_remote(perm)
    assert forward.data == shuffled.data
    assert forward.snapshot() == shuffled.snapshot()


@given(writes)
@settings(max_examples=150)
def test_store_registers_match_reference_model(ws):
    """After merging everything everywhere, every replica's register
    holds exactly the :class:`LwwMap` fold of all accepted entries —
    the store and the oracle's model agree on what LWW *means*."""
    origins, records = _accept_all(ws)
    model = LwwMap()
    for rec in records:
        model.apply(rec.uri, rec.key, rec.entry)
    for store in origins.values():
        store.apply_remote(records)
        for (uri, key), want in model.regs.items():
            assert store.data[uri][key] == want


@given(writes)
def test_store_resync_is_idempotent(ws):
    """Re-applying an already-merged record batch changes nothing (the
    version vector dedupes), so repeated anti-entropy rounds are safe."""
    _, records = _accept_all(ws)
    store = RCStore("rc-f")
    assert store.apply_remote(records) == len(records)
    before = {u: dict(b) for u, b in store.data.items()}
    assert store.apply_remote(records) == 0
    assert store.data == before


def test_import_keeps_a_higher_fence_with_an_older_stamp():
    """Shard handoff re-originates entries and orders them by stamp —
    except the fence, a max register: a higher fence stamped earlier
    still wins the import, and a lower one stamped later is refused."""
    store = RCStore("rc-a")
    store.local_update("urn:x", {FENCE: 5}, wall=10.0)
    high = Entry(value=9, lamport=1, origin="rc-z", wall=1.0)
    assert store.import_entry("urn:x", FENCE, high) is not None
    assert store.get("urn:x", FENCE) == 9
    low = Entry(value=7, lamport=50, origin="rc-z", wall=50.0)
    assert store.import_entry("urn:x", FENCE, low) is None
    assert store.get("urn:x", FENCE) == 9


def test_quorum_read_keeps_the_highest_fence():
    """A quorum read merges replica replies per key by the newest stamp,
    except the fence: a replica that has only a lower fence, written
    later, must not hide the higher one another replica holds."""
    high = {FENCE: {"value": 9, "wall": 1.0}, "state": {"value": "old", "wall": 1.0}}
    low = {FENCE: {"value": 7, "wall": 2.0}, "state": {"value": "new", "wall": 2.0}}
    for replies in ([high, low], [low, high]):
        merged = _newest(replies)
        assert merged[FENCE]["value"] == 9
        assert merged["state"]["value"] == "new"
