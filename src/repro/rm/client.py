"""Requester-side RM redundancy (§3.5).

RMs register under ``urn:snipe:svc:rm``; a client discovers the current
set and fails over between them — because RMs keep no private state,
any replica can serve any request, which is exactly what makes "redundant
resource management processes" (§3) work.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.daemon.tasks import TaskSpec
from repro.rcds import uri as uri_mod
from repro.rcds.client import RCClient
from repro.rm.manager import AllocationError
from repro.robust import TIMEOUTS
from repro.robust.retry import RetryPolicy
from repro.rpc import RpcClient, RpcError

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.host import Host


class RmUnreachable(AllocationError):
    """No RM answered at all — transient, unlike a policy rejection."""


class RmClient:
    """Finds RMs via the catalog and issues requests with failover."""

    def __init__(
        self,
        host: "Host",
        rc: RCClient,
        secret: Optional[bytes] = None,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        self.sim = host.sim
        self.host = host
        self.rc = rc
        self._rpc = RpcClient(host, secret=secret)
        self._rng = host.sim.rng.stream(f"rm-client.{host.name}")
        self.failovers = 0
        #: Rounds over the discovered manager set; a round that reaches no
        #: RM at all (RmUnreachable) is retried under this policy. Policy
        #: rejections (goals, no suitable host) never retry — every RM
        #: would answer the same.
        self.retry = retry or RetryPolicy.single()

    def managers(self):
        """Registered RMs as (host, port) pairs (a process)."""
        return self.sim.process(self._managers(), name="rm-discover")

    def _managers(self) -> List[Tuple[str, int]]:
        assertions = yield self.rc.lookup(uri_mod.service_urn("rm"))
        return uri_mod.locations_of(assertions)

    def request(self, spec: TaskSpec, owner: str = "anonymous",
                timeout: Optional[float] = None):
        """Ask any live RM to allocate/spawn per *spec* (a process)."""
        if timeout is None:
            timeout = TIMEOUTS["rm.request"]
        return self.sim.process(self._request(spec, owner, timeout), name="rm-request")

    def _request(self, spec: TaskSpec, owner: str, timeout: float):
        def one_round(_attempt: int):
            managers = yield from self._managers()
            if not managers:
                raise RmUnreachable("no resource managers registered")
            self._rng.shuffle(managers)
            # Quarantined managers sink to the back of the round: try the
            # healthy ones before spending the timeout budget on a probe.
            managers.sort(key=lambda m: self._rpc.breaker_open(*m))
            errors = []
            for rm_host, rm_port in managers:
                try:
                    result = yield self._rpc.call(
                        rm_host, rm_port, "rm.request", timeout=timeout,
                        spec=spec, owner=owner,
                    )
                    return result
                except RpcError as exc:
                    if "allocation goal" in str(exc) or "no host satisfies" in str(exc):
                        # Policy rejection: every RM will say the same; give up.
                        raise AllocationError(str(exc)) from None
                    self.failovers += 1
                    errors.append(f"{rm_host}:{rm_port}: {exc}")
            raise RmUnreachable(f"no RM reachable: {errors}")

        return (
            yield from self.retry.run(
                self.sim, one_round, retry_on=(RmUnreachable,),
                rng=self._rng, op="rm.request",
            )
        )

    def migrate(self, urn: str, to: Optional[str] = None,
                timeout: Optional[float] = None):
        """Ask any live RM to migrate *urn* (a process)."""
        if timeout is None:
            timeout = TIMEOUTS["rm.migrate"]
        return self.sim.process(self._migrate(urn, to, timeout), name=f"rm-migrate:{urn}")

    def _migrate(self, urn: str, to: Optional[str], timeout: float):
        managers = yield from self._managers()
        self._rng.shuffle(managers)
        managers.sort(key=lambda m: self._rpc.breaker_open(*m))
        errors = []
        for rm_host, rm_port in managers:
            try:
                return (
                    yield self._rpc.call(
                        rm_host, rm_port, "rm.migrate", timeout=timeout, urn=urn, to=to
                    )
                )
            except RpcError as exc:
                self.failovers += 1
                errors.append(str(exc))
        raise AllocationError(f"no RM could migrate {urn!r}: {errors}")
