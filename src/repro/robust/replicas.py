"""The replica-set client core: one failover discipline for every client.

SNIPE's availability story is replication everywhere — RC replicas
(§2.1), redundant RMs (§3.5), multi-location services (§5.7), the
closest file replica (§6) — and every client of a replicated service
needs the same machinery: find the replicas, try the healthy ones
first, walk on when a call fails, retry the whole round under a
:class:`~repro.robust.retry.RetryPolicy`. It lives here, once. A client
supplies only its own preference order among candidates (RC: local then
shuffled; RM: shuffled; files: topology distance), what counts as
success, and the exception it raises when a round comes up short.

A *candidate* is any tuple that starts ``(host, port)``; further fields
are the caller's (the file client carries the replica URL there).

Not in here, on purpose: bulk's weighted source striping
(``bulk/fetch.py``) spreads one object over many sources at once, and RM
host placement (``rm/selection.py``) scores hosts to run on — selection
policies, not try-one-then-the-next failover.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Sequence, Tuple

from repro.robust.overload import BULK
from repro.robust.retry import RetryPolicy
from repro.rpc import RpcClient, RpcError


def discover(rc, service: str, lane: str = BULK):
    """Generator: the sorted ``(host, port)`` locations *service*
    currently registers in the catalog (§5.2)."""
    # Imported here: repro.rcds.client itself builds on this module.
    from repro.rcds import uri

    assertions = yield rc.lookup(uri.service_urn(service), lane=lane)
    return uri.locations_of(assertions)


class ReplicaClient:
    """Base of every replicated-service client: what they all share."""

    def __init__(self, host, kind: str, secret: Optional[bytes] = None,
                 retry: Optional[RetryPolicy] = None, counter: Optional[str] = None) -> None:
        self.sim = host.sim
        self.host = host
        self.rpc = RpcClient(host, secret=secret)
        self.rng = host.sim.rng.stream(f"{kind}-client.{host.name}")
        #: A round that comes up short is retried (with backoff) under
        #: this policy; the default is one round, no retry.
        self.retry = retry or RetryPolicy.single()
        #: Candidates given up on in favour of the next one; *counter*
        #: names an obs counter that follows it.
        self.failovers = 0
        self._m_failovers = self.sim.obs.metrics.counter(counter) if counter else None

    def sick(self, host: str, port: int) -> bool:
        """Behind an open circuit breaker or a health-board quarantine?
        The board catches what the breaker can't: a replica that answers
        *some* traffic (heartbeats, the odd call) while failing most work."""
        return self.rpc.breaker_open(host, port) or self.host.health.is_quarantined(host)

    def sick_last(self, preferred: Sequence[Tuple]) -> list:
        """*preferred* — candidates in the caller's own order — with the
        sick ones moved behind the healthy, so a sick or zombie server is
        only tried once every healthy one failed.

        Deliberately no sort-by-score among the healthy: a continuously
        updated score herds every client onto the momentarily-best
        replica, which is worse under plain overload. Quarantine is a
        binary demotion; the caller's order survives on both sides of it.
        """
        healthy, sick = [], []
        for cand in preferred:
            (sick if self.sick(cand[0], cand[1]) else healthy).append(cand)
        return healthy + sick

    def walk(self, candidates: Sequence[Tuple], method: str, args: Dict[str, Any],
             need: int = 1, fatal: Optional[Callable] = None,
             accept: Optional[Callable] = None):
        """Generator: call *method* (``RpcClient.call`` keywords in
        *args*) on successive candidates until *need* have succeeded.

        Returns ``(done, errors)``: ``[(candidate, result)]`` — shorter
        than *need* if the candidates ran out, which the caller turns
        into its own exception — and ``[(candidate, why)]`` for those
        given up on. ``fatal(rpc_error)`` may return an exception that
        must not fail over (every replica would answer the same); it is
        raised at once. ``accept(candidate, result)`` may refuse a reply
        by returning the reason.
        """
        done, errors = [], []
        for cand in candidates:
            try:
                result = yield self.rpc.call(cand[0], cand[1], method, **args)
            except RpcError as exc:
                stop = fatal(exc) if fatal is not None else None
                if stop is not None:
                    raise stop from None
                why = exc
            else:
                why = accept(cand, result) if accept is not None else None
                if why is None:
                    done.append((cand, result))
                    if len(done) >= need:
                        break
                    continue
            self.failovers += 1
            if self._m_failovers is not None:
                self._m_failovers.inc()
            errors.append((cand, why))
        return done, errors

    def rounds(self, one_round: Callable[[int], Any], retry_on: Tuple[type, ...], op: str):
        """Generator: *one_round* (a discovery + walk) under the retry
        policy; raising one of *retry_on* means the round came up short."""
        return self.retry.run(self.sim, one_round, retry_on=retry_on, rng=self.rng, op=op)

    def close(self) -> None:
        self.rpc.close()
