"""LIFNs: Location-Independent File Names (§5.2, ref [13]).

A LIFN names *content*; its RC metadata binds it to the set of concrete
locations (URLs) currently holding a replica, plus an optional content
hash for end-to-end integrity (§2.1). File servers add/remove bindings as
they create and delete replicas; clients resolve a LIFN and pick a
location (:class:`~repro.files.client.FileClient` reads the closest
resource first, §6).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.rcds import uri as uri_mod
from repro.rcds.client import QUORUM, RCClient

_LOC_PREFIX = "location:"


def _locations_of(assertions: Dict) -> List[str]:
    """The sorted location URLs one LIFN's assertions bind."""
    return sorted(
        key[len(_LOC_PREFIX):]
        for key, info in assertions.items()
        if key.startswith(_LOC_PREFIX) and info["value"]
    )


class LifnRegistry:
    """LIFN → locations bookkeeping on top of an :class:`RCClient`."""

    def __init__(self, rc: RCClient, consistency: str = QUORUM) -> None:
        self.rc = rc
        self.sim = rc.sim
        # QUORUM by default: bind-then-resolve must read its own writes
        # even before anti-entropy has run.
        self.consistency = consistency

    def bind(self, lifn: str, location_url: str, content_hash: Optional[str] = None,
             consistency: Optional[str] = None):
        """Register a replica location (process; yield it)."""
        assertions = {_LOC_PREFIX + location_url: True}
        if content_hash is not None:
            assertions["content-hash"] = content_hash
        return self.rc.update(
            uri_mod.lifn_name(lifn), assertions, consistency or self.consistency
        )

    def unbind(self, lifn: str, location_url: str):
        return self.rc.delete(
            uri_mod.lifn_name(lifn), [_LOC_PREFIX + location_url], self.consistency
        )

    def locations(self, lifn: str):
        """All current replica locations (process yielding list of URLs)."""
        return self.sim.process(self._locations(lifn), name=f"lifn.locations:{lifn}")

    def _locations(self, lifn: str) -> List[str]:
        assertions = yield self.rc.lookup(uri_mod.lifn_name(lifn), self.consistency)
        return _locations_of(assertions)

    def locations_many(self, lifns: List[str]):
        """``{lifn: locations}`` for every LIFN in one catalog read
        (process)."""
        return self.sim.process(self._locations_many(lifns), name="lifn.locations_many")

    def _locations_many(self, lifns: List[str]) -> Dict[str, List[str]]:
        names = {lifn: uri_mod.lifn_name(lifn) for lifn in lifns}
        found = yield self.rc.lookup_many(list(names.values()), self.consistency)
        return {lifn: _locations_of(found[name]) for lifn, name in names.items()}

    def content_hash(self, lifn: str):
        return self.rc.get(uri_mod.lifn_name(lifn), "content-hash", self.consistency)
