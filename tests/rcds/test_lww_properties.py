"""Property tests: LWW merge is a join, so replicas converge.

The convergence oracle in :mod:`repro.robust.oracles` mirrors every
replica through :func:`repro.robust.oracles.lww_merge` — these tests
prove that shared specification is a commutative, associative,
idempotent join over entries with distinct stamps, and that the real
:class:`~repro.rcds.records.RCStore` computes the same fold no matter
what order records arrive in. Stamps are unique by construction (the
origin id is the final tiebreak and every generated entry gets a
distinct one), matching production where two replicas can never mint
the same stamp.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.robust.oracles import LwwMap, lww_merge
from repro.rcds.records import Entry, RCStore

walls = st.floats(min_value=0.0, max_value=100.0,
                  allow_nan=False, allow_infinity=False)


def entries(n: int):
    """Strategy: *n* entries with pairwise-distinct stamps.

    Distinctness comes for free from unique origin ids — the stamp's
    final component — while walls and lamports are free to collide,
    which is exactly where a broken comparator would slip.
    """
    one = st.tuples(walls, st.integers(min_value=0, max_value=20),
                    st.integers(), st.booleans())
    return st.lists(one, min_size=n, max_size=n).map(lambda rows: [
        Entry(value=v, lamport=l, origin=f"s{i}", wall=w, deleted=d)
        for i, (w, l, v, d) in enumerate(rows)
    ])


@given(entries(2))
def test_merge_commutative(es):
    a, b = es
    assert lww_merge(a, b) == lww_merge(b, a)


@given(entries(3))
def test_merge_associative(es):
    a, b, c = es
    assert lww_merge(lww_merge(a, b), c) == lww_merge(a, lww_merge(b, c))


@given(entries(1))
def test_merge_idempotent(es):
    (a,) = es
    assert lww_merge(a, a) == a


@given(entries(6), st.integers())
def test_lwwmap_fold_is_order_independent(es, shuffle_seed):
    """Folding any permutation of the same entries into the reference
    model yields the same register value — convergence, in miniature."""
    forward, shuffled = LwwMap(), LwwMap()
    perm = list(es)
    random.Random(shuffle_seed).shuffle(perm)
    for e in es:
        forward.apply("uri", "k", e)
    for e in perm:
        shuffled.apply("uri", "k", e)
    assert forward.get("uri", "k") == shuffled.get("uri", "k")
    assert forward.get("uri", "k") == max(es, key=lambda e: e.stamp())


# -- the real store against the model --------------------------------------

writes = st.lists(
    st.tuples(
        st.sampled_from(("rc-a", "rc-b", "rc-c")),     # accepting origin
        st.sampled_from(("uri:x", "uri:y")),           # register uri
        st.sampled_from(("state", "host")),            # register key
        st.integers(min_value=0, max_value=99),        # value
        walls,                                         # accept timestamp
    ),
    min_size=1, max_size=30,
)


def _accept_all(ws):
    """Run each write at its origin replica; return (origins, records)."""
    origins = {o: RCStore(o) for o in ("rc-a", "rc-b", "rc-c")}
    records = []
    for origin, uri, key, value, wall in ws:
        records.extend(origins[origin].local_update(uri, {key: value}, wall))
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
