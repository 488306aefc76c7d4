"""Requester-side RM redundancy (§3.5).

RMs register under ``urn:snipe:svc:rm``; a client discovers the current
set and fails over between them — because RMs keep no private state,
any replica can serve any request, which is exactly what makes "redundant
resource management processes" (§3) work.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.daemon.tasks import TaskSpec
from repro.rcds.client import RCClient
from repro.rm.manager import AllocationError
from repro.robust import TIMEOUTS
from repro.robust.replicas import ReplicaClient, discover
from repro.robust.retry import RetryPolicy
from repro.rpc import RpcError

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.host import Host


class RmUnreachable(AllocationError):
    """No RM answered at all — transient, unlike a policy rejection."""


def _policy_rejection(exc: RpcError) -> Optional[AllocationError]:
    """A goal or placement refusal: every RM would say the same, so it
    must not fail over (nor retry)."""
    if "allocation goal" in str(exc) or "no host satisfies" in str(exc):
        return AllocationError(str(exc))
    return None


class RmClient(ReplicaClient):
    """Finds RMs via the catalog and issues requests with failover."""

    def __init__(
        self,
        host: "Host",
        rc: RCClient,
        secret: Optional[bytes] = None,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        # *retry* governs rounds over the discovered manager set: a round
        # that reaches no RM at all (RmUnreachable) is retried under it.
        super().__init__(host, "rm", secret, retry)
        self.rc = rc

    def _candidates(self):
        """Generator: the registered RMs in random order, sick ones last —
        try the healthy before spending the timeout budget on a probe."""
        managers: List[Tuple[str, int]] = yield from discover(self.rc, "rm")
        self.rng.shuffle(managers)
        return self.sick_last(managers)

    def request(self, spec: TaskSpec, owner: str = "anonymous",
                timeout: Optional[float] = None):
        """Ask any live RM to allocate/spawn per *spec* (a process)."""
        if timeout is None:
            timeout = TIMEOUTS["rm.request"]
        return self.sim.process(self._request(spec, owner, timeout), name="rm-request")

    def _request(self, spec: TaskSpec, owner: str, timeout: float):
        def one_round(_attempt: int):
            managers = yield from self._candidates()
            if not managers:
                raise RmUnreachable("no resource managers registered")
            done, errors = yield from self.walk(
                managers, "rm.request", {"timeout": timeout, "spec": spec, "owner": owner},
                fatal=_policy_rejection,
            )
            if done:
                return done[0][1]
            errors = [f"{rm[0]}:{rm[1]}: {exc}" for rm, exc in errors]
            raise RmUnreachable(f"no RM reachable: {errors}")

        return self.rounds(one_round, (RmUnreachable,), op="rm.request")

    def migrate(self, urn: str, to: Optional[str] = None,
                timeout: Optional[float] = None):
        """Ask any live RM to migrate *urn* (a process)."""
        if timeout is None:
            timeout = TIMEOUTS["rm.migrate"]
        return self.sim.process(self._migrate(urn, to, timeout), name=f"rm-migrate:{urn}")

    def _migrate(self, urn: str, to: Optional[str], timeout: float):
        managers = yield from self._candidates()
        done, errors = yield from self.walk(
            managers, "rm.migrate", {"timeout": timeout, "urn": urn, "to": to}
        )
        if done:
            return done[0][1]
        errors = [str(exc) for _, exc in errors]
        raise AllocationError(f"no RM could migrate {urn!r}: {errors}")
