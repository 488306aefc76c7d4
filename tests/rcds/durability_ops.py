"""Seeded op driver shared by the crash-point and fold-equivalence tests.

One durable :class:`RCServer` with no live peers; two bare ``RCStore``
"peers" originate records that the driver feeds in the way anti-entropy
would (full batches, gapped batches, snapshot catch-up). Every op is one
*step*; the alphabet covers every way ``RCStore.data`` can change:

``update`` / ``delete`` / ``import`` (local accepts), ``remote`` /
``gapped`` (``apply_remote``, the second with a record withheld until a
later batch), ``catchup`` (``install_entries`` + ``adopt_vector`` + the
persist ``_snapshot_catchup`` does), ``compact`` and ``gc``.

Accept stamps rise with the step number, and tombstones are collected
only while no withheld record is outstanding and after the peers have
caught up with the server, so nothing older than a collected tombstone
ever arrives afterwards — the peer-ack guard the real maintenance loop
gets from ``_stability``.
"""

import copy
import random

from repro.rcds import RCServer
from repro.rcds.records import Entry, RCStore

from ..transport.conftest import make_lan

DISK_KEY = "rcds:385"
URIS = [f"urn:n{i}" for i in range(8)]
KEYS = ("state", "host", "load")
OPS = ("update", "update", "update", "delete", "import", "remote", "remote",
       "gapped", "catchup", "compact", "gc")


def durable_server(snapshot_every, seed=0):
    _sim, _topo, hosts = make_lan(n_hosts=1, seed=seed)
    return hosts[0], RCServer(hosts[0], peers=[], snapshot_every=snapshot_every)


def registers(store):
    """Every register, tombstones included, as ``{(uri, key): Entry}``."""
    return {(uri, key): entry for uri, key, entry in store.state_entries()}


def recover_copy(host, snapshot_every):
    """Crash point: a fresh server cold-starts from a copy of *host*'s
    disk as it is right now. The running server is not disturbed."""
    _sim, _topo, hosts = make_lan(n_hosts=1, seed=0)
    hosts[0].disk[DISK_KEY] = copy.deepcopy(host.disk[DISK_KEY])
    return RCServer(hosts[0], peers=[], snapshot_every=snapshot_every)


class Driver:
    """Applies one seeded op per :meth:`step` to *server*."""

    def __init__(self, server, seed):
        self.server = server
        self.store = server.store
        self.rng = random.Random(seed)
        self.peers = [RCStore("rc-b:385"), RCStore("rc-c:385")]
        self.n = 0
        self.gapped = False
        #: Tombstones GC dropped from memory: a restore may bring them back.
        self.collected = set()

    def step(self):
        """Run one op; returns ``(op, keys it wrote)``."""
        self.n += 1
        op = self.rng.choice(OPS)
        if op == "gc" and self.gapped:
            op = "remote"       # heal the gap before collecting anything
        return op, getattr(self, "_" + op)(float(self.n))

    def _slot(self):
        return self.rng.choice(URIS), self.rng.choice(KEYS)

    def _update(self, wall):
        uri = self.rng.choice(URIS)
        keys = self.rng.sample(KEYS, self.rng.randint(1, 2))
        self.store.local_update(uri, {k: self.n for k in keys}, wall)
        return {(uri, k) for k in keys}

    def _delete(self, wall):
        uri = self.rng.choice(URIS)
        keys = None if self.rng.random() < 0.5 else [self.rng.choice(KEYS)]
        return {(uri, r.key)
                for r in self.store.local_delete(uri, keys, wall)}

    def _import(self, wall):
        uri, key = self._slot()
        foreign = Entry(value=f"moved-{self.n}", lamport=self.n,
                        origin="rc-z:385", wall=wall, seq=self.n)
        self.store.import_entry(uri, key, foreign)
        return {(uri, key)}

    def _originate(self, wall):
        peer = self.rng.choice(self.peers)
        for _ in range(self.rng.randint(1, 4)):
            uri, key = self._slot()
            if self.rng.random() < 0.25:
                peer.local_delete(uri, [key], wall)
            else:
                peer.local_update(uri, {key: f"{peer.server_id}-{self.n}"}, wall)
        return peer

    def _remote(self, wall, gap=False):
        have = self.store.digest()
        batch = self._originate(wall).missing_for(have)
        if gap and len(batch) > 1:
            del batch[self.rng.randrange(len(batch) - 1)]
            self.gapped = True
        else:
            # Full batches from every peer: any earlier gap is now filled.
            batch = [r for peer in self.peers for r in peer.missing_for(have)]
            self.gapped = False
        self.store.apply_remote(batch)
        return {(r.uri, r.key) for r in batch}

    def _gapped(self, wall):
        return self._remote(wall, gap=True)

    def _catchup(self, wall):
        peer = self._originate(wall)
        entries = peer.state_entries()
        self.store.install_entries(entries)
        self.store.adopt_vector(peer.digest())
        self.server._fold()     # what _snapshot_catchup does on its last page
        return {(uri, key) for uri, key, _ in entries}

    def _compact(self, wall):
        keep = self.rng.randint(0, 3)
        self.store.compact({o: s - keep for o, s in self.store.vector.items()})
        return set()

    def _gc(self, wall):
        # Collect only what every peer has acked: bring the peers level
        # first, so a later catch-up from one cannot resurrect a key.
        for peer in self.peers:
            peer.install_entries(self.store.state_entries())
            peer.adopt_vector(self.store.digest())
        before = {slot for slot, e in registers(self.store).items() if e.deleted}
        self.store.gc_tombstones(dict(self.store.vector))
        gone = before - set(registers(self.store))
        self.collected |= gone
        return gone
