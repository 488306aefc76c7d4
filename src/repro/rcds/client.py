"""Replica-set client for the RC servers.

Consistency levels trade availability against staleness, the RCDS design
point (§2.1: "When the semantics of the application permit, higher
availability can be obtained by using a consistency model which
sacrifices strict atomicity"):

* ``ONE`` — talk to any live replica (maximum availability; the SNIPE
  default for host/process metadata).
* ``QUORUM`` — read/write a majority, reads return the freshest copy.
* ``ALL`` — every replica must answer.
* ``MASTER`` — all writes go to replica 0 (the LDAP/MDS-style baseline
  for experiment E9; reads may use any replica).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.rcds.records import MAX_KEYS
from repro.robust import TIMEOUTS
from repro.robust.overload import BULK
from repro.robust.replicas import ReplicaClient

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.host import Host

ONE = "one"
QUORUM = "quorum"
ALL = "all"
MASTER = "master"


class ConsistencyError(Exception):
    """Not enough replicas answered to satisfy the consistency level."""


def _newest(replies: List[Dict[str, Dict[str, Any]]]) -> Dict[str, Dict[str, Any]]:
    """One name's assertions merged across replica replies: per key, the
    assertion with the newest ``wall`` stamp — the highest value for a
    max register (:data:`~repro.rcds.records.MAX_KEYS`)."""
    if len(replies) == 1:
        return replies[0]
    merged: Dict[str, Dict[str, Any]] = {}
    for assertions in replies:
        for key, info in assertions.items():
            cur = merged.get(key)
            if cur is None or (info["value"] > cur["value"] if key in MAX_KEYS
                               else info["wall"] > cur["wall"]):
                merged[key] = info
    return merged


class CatalogClient:
    """The catalog API (every call returns a sim process; use with
    ``yield``), once for the plain and the sharded client: a subclass
    supplies the ``_lookup``/``_lookup_many``/``_update``/``_delete``
    generators."""

    def lookup(self, uri: str, consistency: str = ONE, lane: str = BULK):
        return self.sim.process(
            self._lookup(uri, consistency, lane), name=f"rc.lookup:{uri}"
        )

    def lookup_many(self, uris: List[str], consistency: str = ONE, lane: str = BULK):
        """``{uri: assertions}`` for every name in *uris* (``{}`` for an
        unknown one) in one request per replica — the verb for readers
        that scan a whole prefix. ``[]`` sends nothing."""
        return self.sim.process(
            self._lookup_many(list(uris), consistency, lane), name="rc.lookup_many"
        )

    def update(self, uri: str, assertions: Dict[str, Any], consistency: str = ONE,
               lane: str = BULK):
        return self.sim.process(
            self._update(uri, assertions, consistency, lane), name=f"rc.update:{uri}"
        )

    def delete(self, uri: str, keys: Optional[List[str]] = None, consistency: str = ONE,
               lane: str = BULK):
        return self.sim.process(
            self._delete(uri, keys, consistency, lane), name=f"rc.delete:{uri}"
        )

    def get(self, uri: str, key: str, consistency: str = ONE, lane: str = BULK):
        """One assertion's value (or None)."""
        return self.sim.process(
            self._get(uri, key, consistency, lane), name=f"rc.get:{uri}"
        )

    def _get(self, uri: str, key: str, consistency: str, lane: str = BULK):
        assertions = yield self.lookup(uri, consistency, lane=lane)
        info = assertions.get(key)
        return info["value"] if info else None

    def set(self, uri: str, key: str, value: Any, consistency: str = ONE,
            lane: str = BULK):
        return self.update(uri, {key: value}, consistency, lane=lane)


class RCClient(CatalogClient, ReplicaClient):
    """Client-side access to a set of RC replicas from one host."""

    def __init__(
        self,
        host: "Host",
        replicas: List[Tuple[str, int]],
        secret: Optional[bytes] = None,
        rpc_timeout: Optional[float] = None,
    ) -> None:
        if not replicas:
            raise ValueError("RCClient needs at least one replica address")
        super().__init__(host, "rc", secret, counter="rcds.failovers")
        self.replicas = list(replicas)
        self.rpc_timeout = rpc_timeout if rpc_timeout is not None else TIMEOUTS["rc.call"]
        metrics = self.sim.obs.metrics
        self._m_lookup_latency = metrics.histogram("rcds.lookup_latency")
        self._m_update_latency = metrics.histogram("rcds.update_latency")

    # -- helpers --------------------------------------------------------------
    def _required(self, consistency: str) -> int:
        n = len(self.replicas)
        if consistency in (ONE, MASTER):
            return 1
        if consistency == QUORUM:
            return n // 2 + 1
        if consistency == ALL:
            return n
        raise ValueError(f"unknown consistency level {consistency!r}")

    def _candidate_order(self) -> List[Tuple[str, int]]:
        """Local replica first (closest-resource heuristic), then random;
        sick replicas last."""
        local = [r for r in self.replicas if r[0] == self.host.name]
        rest = [r for r in self.replicas if r[0] != self.host.name]
        self.rng.shuffle(rest)
        return self.sick_last(local + rest)

    def _fanout(self, method: str, need: int, targets: List[Tuple[str, int]],
                lane: str = BULK, **args):
        """Call *method* on successive replicas until *need* succeed."""
        args.update(timeout=self.rpc_timeout, lane=lane)

        def one_round(_attempt: int):
            done, _ = yield from self.walk(targets, method, args, need)
            if len(done) < need:
                raise ConsistencyError(
                    f"{method}: only {len(done)}/{need} replicas reachable"
                )
            return done

        return self.rounds(one_round, (ConsistencyError,), op=method)

    # -- the catalog verbs (generators; CatalogClient wraps them) -----------
    def _read(self, method: str, consistency: str, lane: str, **args):
        """The replies of enough replicas to satisfy *consistency*."""
        need = self._required(consistency)
        targets = self._candidate_order()
        t0 = self.sim.now
        results = yield from self._fanout(method, need, targets, lane=lane, **args)
        self._m_lookup_latency.observe(self.sim.now - t0)
        return [reply for _, reply in results]

    def _lookup(self, uri: str, consistency: str, lane: str = BULK):
        replies = yield from self._read("rc.lookup", consistency, lane, uri=uri)
        return _newest(replies)

    def _lookup_many(self, uris: List[str], consistency: str, lane: str = BULK):
        if not uris:
            return {}
        replies = yield from self._read("rc.lookup_many", consistency, lane, uris=uris)
        return {uri: _newest([reply[uri] for reply in replies]) for uri in uris}

    def _update(self, uri: str, assertions: Dict[str, Any], consistency: str,
                lane: str = BULK):
        t0 = self.sim.now
        result = yield from self._mutate(
            "rc.update", consistency, lane, uri=uri, assertions=assertions
        )
        self._m_update_latency.observe(self.sim.now - t0)
        return result

    def _delete(self, uri: str, keys: Optional[List[str]], consistency: str,
                lane: str = BULK):
        return self._mutate("rc.delete", consistency, lane, uri=uri, keys=keys)

    def _mutate(self, method: str, consistency: str, lane: str, **args):
        need = self._required(consistency)
        # MASTER is the single-master baseline: replica 0 only, no failover.
        targets = [self.replicas[0]] if consistency == MASTER else self._candidate_order()
        results = yield from self._fanout(method, need, targets, lane=lane, **args)
        return results[0][1]

    def query(self, prefix: str, lane: str = BULK,
              after: Optional[str] = None, limit: Optional[int] = None):
        """URIs under *prefix* from any reachable replica. ``after`` and
        ``limit`` page through large namespaces (see ``RCStore.query``)."""
        return self.sim.process(
            self._query(prefix, lane, after, limit), name=f"rc.query:{prefix}"
        )

    def _query(self, prefix: str, lane: str = BULK,
               after: Optional[str] = None, limit: Optional[int] = None):
        results = yield from self._fanout(
            "rc.query", 1, self._candidate_order(), lane=lane, prefix=prefix,
            after=after, limit=limit,
        )
        return results[0][1]
