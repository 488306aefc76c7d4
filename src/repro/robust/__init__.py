"""Robustness primitives: unified retries, overload control, chaos.

The paper promises "long-running, reliable, fault-tolerant" applications
(§1); this package holds the machinery the reproduction uses to *earn*
that adjective rather than assert it:

* :class:`RetryPolicy` — one retry discipline (exponential backoff,
  deterministic jitter, overall deadline budget, obs counters) shared by
  every client in the system instead of per-client ad-hoc loops.
* :mod:`repro.robust.overload` — adaptive per-destination timeouts,
  circuit breakers, and two-lane bounded ingress queues, so congestion
  and slow hosts degrade throughput instead of triggering false death
  declarations and respawn storms.
* :mod:`repro.robust.chaos` — one runner per fault scenario (host
  churn, partitions, overload, gray faults, partition heal, shard
  splits), run through :mod:`repro.robust.spine` under a seeded
  ``FaultEvent`` plan, watched by :mod:`repro.robust.oracles` and judged
  by their end-to-end checks after quiescence; the sites and loads it
  drives are :mod:`repro.robust.workloads`.
"""

from repro.robust.retry import RetryError, RetryPolicy

#: The one shared table of static call timeouts (virtual seconds). Every
#: client reads its default here instead of burying a literal at the call
#: site; under adaptive overload control these are the *cold-start*
#: values and the anchor for the per-destination floor
#: (``TIMEOUT_FLOOR_FACTOR * static``) — see ``repro.robust.overload``.
TIMEOUTS = {
    "rpc.default": 5.0,  # RpcClient.call fallback when no entry applies
    "daemon.call": 2.0,  # daemon control ops (spawn/fence/signal)
    "daemon.notify": 1.0,  # watcher death notifications (best-effort)
    "broker.refer": 5.0,  # daemon -> broker referral
    "rc.call": 1.0,  # RC lookup/update/delete/query per replica
    "rc.sync": 2.0,  # RC anti-entropy exchange
    "file.get": 2.0,  # file read per replica (closest-first failover)
    "file.put": 5.0,  # file write (bulk payload on the wire)
    "rm.request": 5.0,  # resource-manager allocation round
    "rm.migrate": 5.0,  # migration handoff
    "ctx.spawn": 2.0,  # SnipeContext spawn/migrate daemon calls
    "bulk.chunk": 2.5,  # bulk chunk fetch (> server-side SERVE_WAIT hold)
}

__all__ = ["RetryError", "RetryPolicy", "TIMEOUTS"]
