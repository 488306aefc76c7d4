"""The incremental snapshot fold: same result as a from-scratch dump, at
a cost that follows the write rate instead of the catalog size.

The first property is the lock on "every place ``RCStore.data`` mutates
marks the register dirty": after any op sequence (``durability_ops``,
plus in-place crash/recover so tracking also resumes from a restore)
the generation maintained fold by fold must equal one built from an
empty base over the final store. A mutant that skips the mark in
``gc_tombstones`` has to break it.
"""

import pytest

from repro.rcds.records import RCStore

from .durability_ops import DISK_KEY, Driver, durable_server

SEEDS = range(50)


def fold_both_ways(seed, steps=60):
    """Run a seeded sequence; return (incremental, from-scratch) generations."""
    host, server = durable_server(snapshot_every=1 + seed % 5)
    driver = Driver(server, seed)
    for _ in range(steps):
        driver.step()
        if driver.rng.random() < 0.05:
            host.crash()
            host.recover()
    server._fold()
    incremental = host.disk[DISK_KEY]["snapshot"]
    assert server._verify_generation(incremental)
    server.store.dirty = None               # no base: everything is dirty
    server._fold()
    return incremental, host.disk[DISK_KEY]["snapshot"]


def same_generation(a, b):
    return (a["entries"] == b["entries"]
            and a["header"]["count"] == b["header"]["count"] == len(a["entries"])
            and a["header"]["combined"] == b["header"]["combined"])


@pytest.mark.parametrize("seed", SEEDS)
def test_incremental_fold_equals_from_scratch(seed):
    incremental, scratch = fold_both_ways(seed)
    assert same_generation(incremental, scratch)


def test_mutant_that_skips_the_gc_mark_is_caught(monkeypatch):
    real_gc = RCStore.gc_tombstones

    def gc_without_mark(self, *args, **kw):
        dirty, self.dirty = self.dirty, None
        try:
            return real_gc(self, *args, **kw)
        finally:
            self.dirty = dirty

    monkeypatch.setattr(RCStore, "gc_tombstones", gc_without_mark)
    assert not all(same_generation(*fold_both_ways(seed)) for seed in SEEDS)


@pytest.mark.parametrize("registers", [500, 5000])
def test_steady_state_fold_cost_is_independent_of_store_size(registers):
    snapshot_every = 16
    host, server = durable_server(snapshot_every)
    store = server.store
    for i in range(registers):
        store.local_update(f"urn:bulk/{i}", {"k": i}, wall=1.0)
    server._fold()                          # settle onto a base generation
    metrics = server.sim.obs.metrics
    written = metrics.counter("rcds.snapshots").value
    folded = metrics.counter("rcds.snapshot_entries_folded").value
    assert (written, folded) == (server.snapshots_written,
                                 server.snapshot_entries_folded)

    # Steady state: overwrite, delete and collect a handful of names.
    collected = store.tombstones_collected
    for n in range(10 * snapshot_every):
        uri = f"urn:bulk/{n % 40}"
        if n % 7 == 3:
            store.local_delete(uri, ["k"], wall=2.0 + n)
        else:
            store.local_update(uri, {"k": -n}, wall=2.0 + n)
        if n % 50 == 49:
            store.gc_tombstones(dict(store.vector))
    collected = store.tombstones_collected - collected
    assert collected > 0

    snapshots = metrics.counter("rcds.snapshots").value - written
    entries = metrics.counter("rcds.snapshot_entries_folded").value - folded
    assert snapshots == 10
    assert entries <= snapshots * snapshot_every + collected
    stats = server.stats()
    assert stats["snapshots_written"] == server.snapshots_written
    assert stats["snapshot_entries_folded"] == server.snapshot_entries_folded


def tamper_value(entries):
    slot = ("u2", "k")
    entry_dict, leaf = entries[slot]
    entries[slot] = (dict(entry_dict, value="forged"), leaf)


def tamper_leaf_and_value(entries):
    slot = ("u2", "k")
    entry_dict, leaf = entries[slot]
    entries[slot] = (dict(entry_dict, value="forged"), leaf ^ 1)


def tamper_drop(entries):
    del entries[("u2", "k")]


def tamper_shape(entries):
    entries[("u2", "k")] = {"__bitrot__": 0.0}


@pytest.mark.parametrize("tamper", [tamper_value, tamper_leaf_and_value,
                                    tamper_drop, tamper_shape])
def test_restore_rejects_a_generation_with_a_rotted_entry(tamper):
    """The header seal alone is not trusted: every installed entry's leaf
    is recomputed, and the sum and count checked against the header."""
    host, server = durable_server(snapshot_every=4)
    store = server.store
    for i in range(1, 9):                       # two folds: u1-4, then u5-8
        store.local_update(f"u{i}", {"k": i}, wall=float(i))
    disk = host.disk[DISK_KEY]
    entries = disk["snapshot"]["entries"] = dict(disk["snapshot"]["entries"])
    tamper(entries)                             # current generation only

    host.crash()
    host.recover()

    assert server.snapshots_rejected == 1
    # Previous generation + both journals: nothing is lost.
    assert [store.get(f"u{i}", "k") for i in range(1, 9)] == list(range(1, 9))
    assert store.dirty is None                  # next fold starts from scratch
