"""Exhaustive crash points for the RC journal and snapshot rotation.

A seeded 200-step op mix (``durability_ops``) runs against one durable
server; after **every** journal write and every step, a fresh server
cold-starts from a copy of the disk as it stands and must come back to
the pre-crash registers. The second test repeats the run with the
``corrupt_ckpt_writes`` gray fault on for exactly one step, at every
position, crashing after every later step until two clean folds have
rewritten all four disk slots.
"""

import pytest

from .durability_ops import DISK_KEY, Driver, durable_server, recover_copy, registers

STEPS = 200
SEED = 20260928


def check_recovery(host, server, driver, snapshot_every, rot=None):
    """Cold-start a copy of the disk and compare it with the live store.

    *rot* is ``None`` for a clean run; otherwise ``(keys the rotted step
    wrote, folds it triggered)``.
    """
    disk = host.disk[DISK_KEY]
    back = recover_copy(host, snapshot_every)     # must never raise
    pre, got = registers(server.store), registers(back.store)
    rot_keys, rot_folds = rot or (set(), 0)

    assert back.snapshots_rejected <= 1
    replayed = list(disk["journal"])
    if back.snapshots_rejected or disk["snapshot"] is None:
        replayed += disk["journal_prev"]
    rotted = sum("__bitrot__" in rec["entry"] for rec in replayed)
    assert back.journal_skipped == rotted         # exactly the rotted ones
    if rot is None:
        assert back.snapshots_rejected == 0 and rotted == 0
    if rot_folds > 1:
        # Two consecutive rotted generations exceed the fault budget of a
        # two-generation scheme; surviving the restore is all we ask.
        return back

    for origin, seq in back.store.vector.items():
        assert seq <= server.store.vector.get(origin, 0)
    for slot in pre.keys() | got.keys():
        mine, theirs = pre.get(slot), got.get(slot)
        if mine == theirs:
            continue
        if slot in rot_keys and (
                mine is None or back.store.vector.get(mine.origin, 0) < mine.seq):
            # Lost to rot alone, and the vector does not claim the lost
            # record: the gap stalls knowledge there so anti-entropy
            # would refill it.
            continue
        # Otherwise only a tombstone GC dropped from memory may differ: a
        # restore can bring it back (or lose a re-installed copy of it);
        # the next maintenance pass collects it again either way.
        assert slot in driver.collected and None in (mine, theirs) \
            and (mine or theirs).deleted, (slot, mine, theirs)
    if rot is None:
        own = server.store.server_id
        assert back.store.vector.get(own, 0) == server.store.vector.get(own, 0)
    return back


@pytest.mark.parametrize("snapshot_every", [1, 3, 8])
def test_recovery_at_every_write_point(snapshot_every):
    host, server = durable_server(snapshot_every)
    driver = Driver(server, SEED)
    writes = []

    def after_write(record, journal=server.store.on_record):
        journal(record)
        check_recovery(host, server, driver, snapshot_every)
        writes.append(record.seq)

    server.store.on_record = after_write
    ops = set()
    for _ in range(STEPS):
        op, _keys = driver.step()
        ops.add(op)
        check_recovery(host, server, driver, snapshot_every)
    assert len(ops) == 8                          # whole alphabet exercised
    assert len(writes) > STEPS                    # mid-step write points too
    assert server.snapshots_written >= STEPS // (2 * snapshot_every)
    assert driver.collected                       # GC really dropped some


@pytest.mark.parametrize("snapshot_every", [1, 3, 8])
def test_one_rotted_step_at_every_position(snapshot_every):
    rejected = skipped = 0
    for position in range(1, STEPS + 1):
        host, server = durable_server(snapshot_every)
        driver = Driver(server, SEED)
        for _ in range(position - 1):
            driver.step()
        folds = server.snapshots_written
        host.corrupt_ckpt_writes = True
        _op, rot_keys = driver.step()
        host.corrupt_ckpt_writes = False
        rot = (rot_keys, server.snapshots_written - folds)
        clean_from = server.snapshots_written
        while True:
            back = check_recovery(host, server, driver, snapshot_every, rot)
            rejected += back.snapshots_rejected
            skipped += back.journal_skipped
            if driver.n == STEPS or server.snapshots_written >= clean_from + 2:
                break
            driver.step()
        if server.snapshots_written >= clean_from + 2:
            # Every slot rewritten since the fault: the rot is unreachable.
            assert back.snapshots_rejected == 0 and back.journal_skipped == 0
    assert rejected and skipped                   # both defences exercised
