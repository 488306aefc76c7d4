"""Replicated processes and services (§5.7).

Two replication patterns from the paper:

1. *Replicated computational processes*: "a multicast group can be
   created to provide input to all of those processes. SNIPE metadata can
   then be created for the new pseudo-process … with the multicast group
   listed as the communications URL. All data sent to the pseudo-process
   will then be transmitted to each member of the group." — and, per the
   paper's caveat, with multiple senders there is *no ordering guarantee*
   across members.
2. *Multi-location services*: "a LIFN can be created for that service,
   and each of the service locations (URLs) associated with that LIFN.
   Any process attempting to communicate with that service will then see
   multiple service locations from which to choose."
"""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.rcds import uri as uri_mod
from repro.rcds.client import QUORUM, RCClient
from repro.robust.replicas import discover


def make_replicated_process(rc: RCClient, pseudo_name: str, group: str):
    """Create pseudo-process metadata routing its messages to *group*.

    Members must ``join_group(group)`` themselves; any ``ctx.send`` to the
    returned URN then fans out to every member. Returns a process (yield
    it) whose value is the pseudo-process URN.
    """
    urn = uri_mod.process_urn(pseudo_name)

    def create():
        yield rc.update(urn, {"kind": "replicated", "group": group}, QUORUM)
        return urn

    return rc.sim.process(create(), name=f"make-replicated:{pseudo_name}")


def make_replicated_service(rc: RCClient, service: str, locations: Sequence[Tuple[str, int]]):
    """Register a service reachable at several (host, port) locations.

    Returns a process whose value is the service URN.
    """
    urn = uri_mod.service_urn(service)

    def create():
        assertions = {f"location:{h}:{p}": True for h, p in locations}
        yield rc.update(urn, assertions, QUORUM)
        return urn

    return rc.sim.process(create(), name=f"make-service:{service}")


def service_locations(rc: RCClient, service: str):
    """Resolve a replicated service's current locations (a process)."""
    return rc.sim.process(discover(rc, service), name=f"service-locations:{service}")
