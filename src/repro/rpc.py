"""A small request/response RPC layer over SRUDP.

Every SNIPE service (RC servers, host daemons, resource managers, file
servers) speaks this: a request carries a method name, arguments, and an
optional HMAC tag (the 1998 RC servers used "SUN RPC with authentication
based on MD5 hashed shared secrets", §6); the response is matched by
request id. Sizes are charged from the canonical encoding of the
arguments so metadata traffic has realistic weight on the wire.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import GeneratorType
from typing import Any, Callable, Dict, Optional

from repro.robust import TIMEOUTS
from repro.robust.overload import BULK, CONTROL, AdaptiveTimeouts, BreakerBoard
from repro.security.hashes import canonical_bytes, hmac_tag, verify_hmac
from repro.sim.errors import Interrupt
from repro.sim.events import defuse, waker
from repro.transport.base import SendError
from repro.transport.srudp import SrudpEndpoint

#: Fixed per-call envelope overhead (method name, ids, tags).
ENVELOPE_BYTES = 48


class RpcError(Exception):
    """Remote fault, authentication failure, or no response."""


@dataclass
class Sized:
    """Handler return wrapper declaring the response's wire size.

    RPC normally charges the canonical encoding of the payload, but some
    results *represent* bulk data (a file's contents, a routed message
    body) whose declared size must be paid on the wire.
    """

    value: Any
    size: int


@dataclass
class Request:
    method: str
    args: Dict[str, Any]
    reply_port: int
    #: Drawn from the simulator's ``rpc.req`` sequence by the client, so
    #: same-seed runs see the same ids whatever else ran in the process.
    req_id: int
    auth: Optional[str] = None
    #: Priority lane: control-plane requests (leases, fencing, probes)
    #: jump bulk data in every ingress queue between caller and handler.
    lane: str = BULK
    #: The request was pinned to one path: the reply goes back to the
    #: address the request came from, so the call tests one round trip.
    pinned: bool = False


@dataclass
class Response:
    req_id: int
    ok: bool
    result: Any = None
    error: str = ""


def payload_size(obj: Any) -> int:
    """Bytes charged on the wire for an RPC payload."""
    try:
        return ENVELOPE_BYTES + len(canonical_bytes(obj))
    except Exception:
        return ENVELOPE_BYTES + 256  # unpicklable sentinel objects


class RpcServer:
    """Binds a port and dispatches requests to registered handlers.

    Handlers are plain functions ``fn(args_dict) -> result`` or generator
    functions that yield sim events and return the result (for handlers
    that must do I/O of their own). Exceptions become error responses.
    """

    def __init__(
        self,
        host,
        port: int,
        secret: Optional[bytes] = None,
        service_time: float = 0.0,
    ) -> None:
        self.sim = host.sim
        self.host = host
        self.port = port
        self.secret = secret
        self.service_time = service_time
        self.endpoint = SrudpEndpoint(host, port)
        self.handlers: Dict[str, Callable] = {}
        self.requests_served = 0
        self.auth_failures = 0
        self.requests_shed = 0
        self._m_served = self.sim.obs.metrics.counter("rpc.requests_served")
        self._m_shed = self.sim.obs.metrics.counter("rpc.requests_shed")
        # Server ingress is shed-oldest rather than backpressure: under
        # sustained overload the oldest queued bulk request belongs to a
        # caller that has already timed out, and burning service time on
        # it only steals capacity from requests that can still succeed.
        # Control-lane requests are never shed. The transport retains its
        # exactly-once bookkeeping — a shed request simply times out at
        # the client and is retried or failed over like any other loss.
        q = self.endpoint._rx_queue
        q.bulk_capacity = self.sim.overload.server_bulk_capacity
        q.shed_oldest = True
        q.on_shed = self._on_shed
        self._proc = self.sim.process(self._serve(), name=f"rpc:{host.name}:{port}")

    def register(self, method: str, fn: Callable) -> None:
        self.handlers[method] = fn

    def _on_shed(self, msg) -> None:
        self.requests_shed += 1
        self._m_shed.inc()

    def close(self) -> None:
        self.endpoint.close()
        if self._proc.is_alive:
            self._proc.interrupt("closed")

    def _serve(self):
        """Accept loop.

        With ``service_time == 0`` each request is handled in its own
        process (a threaded server) — necessary because handlers call
        *other* RPC servers (e.g. multicast routers flooding to peers) and
        serial handling would distributed-deadlock. A positive
        ``service_time`` instead models a single-threaded server with a
        fixed cost per request: the queueing bottleneck that experiment E4
        measures in the centralized resource manager.
        """
        try:
            while True:
                msg = yield self.endpoint.recv()
                req = msg.payload
                if not isinstance(req, Request):
                    continue
                if self.secret is not None:
                    body = {"method": req.method, "req_id": req.req_id}
                    if req.auth is None or not verify_hmac(self.secret, body, req.auth):
                        self.auth_failures += 1
                        self._reply(msg, Response(req.req_id, False, error="auth"))
                        continue
                handler = self.handlers.get(req.method)
                if handler is None:
                    self._reply(msg, Response(req.req_id, False, error=f"no method {req.method!r}"))
                    continue
                if self.service_time > 0:
                    # A single-threaded server's per-request cost is CPU:
                    # it stretches when the host is slowed (gray zombie —
                    # its NIC and heartbeats stay healthy, its work crawls).
                    speed = max(getattr(self.host, "cpu_speed", 1.0), 1e-9)
                    yield self.sim.timeout(self.service_time / speed)
                    yield from self._handle(msg, req, handler)
                else:
                    defuse(
                        self.sim.process(
                            self._handle(msg, req, handler),
                            name=f"rpc-handle:{req.method}",
                        )
                    )
        except Interrupt:
            return

    def _handle(self, msg, req: Request, handler: Callable):
        try:
            result = handler(req.args)
            if type(result) is GeneratorType:
                result = yield from result
            self.requests_served += 1
            self._m_served.inc()
            self._reply(msg, Response(req.req_id, True, result=result))
        except Exception as exc:  # handler fault -> error response
            self._reply(msg, Response(req.req_id, False, error=str(exc)))
        return None
        yield  # pragma: no cover - makes this a generator even if unreached

    def _reply(self, msg, response: Response) -> None:
        # Fire-and-forget: if the caller died meanwhile, the send fails and
        # that is fine — defuse keeps it from counting as an uncaught crash.
        size = payload_size(response.result)
        if isinstance(response.result, Sized):
            size = ENVELOPE_BYTES + response.result.size
            response = Response(response.req_id, response.ok,
                                result=response.result.value, error=response.error)
        req = msg.payload
        if req.pinned:
            sent = self.endpoint.send_via(msg.src_host, req.reply_port, response, size,
                                          msg.src_ip)
        else:
            sent = self.endpoint.send(msg.src_host, req.reply_port, response, size)
        defuse(sent)


class RpcClient:
    """Issues calls from one host; one instance may talk to many servers."""

    def __init__(self, host, port: Optional[int] = None, secret: Optional[bytes] = None) -> None:
        self.sim = host.sim
        self.host = host
        self.secret = secret
        self.endpoint = SrudpEndpoint(host, port if port is not None else host.ephemeral_port())
        self._waiting: Dict[int, Any] = {}
        self._metrics = self.sim.obs.metrics
        self._timeouts = AdaptiveTimeouts(self.sim.overload)
        self._breakers = BreakerBoard(self.sim, scope="rpc")
        self._m_control_latency = self._metrics.histogram("overload.control_latency")
        # Per-method error counters, memoized: the registry interns on a
        # sorted-tag key, which is too much string work for the per-call
        # hot path.
        self._m_errors: Dict[str, Any] = {}
        self._dispatcher = self.sim.process(self._dispatch(), name=f"rpc-client:{host.name}")

    def _error_counter(self, method: str):
        m = self._m_errors.get(method)
        if m is None:
            m = self._m_errors[method] = self._metrics.counter(
                "rpc.errors", method=method
            )
        return m

    def _dispatch(self):
        try:
            while True:
                msg = yield self.endpoint.recv()
                resp = msg.payload
                if isinstance(resp, Response):
                    ev = self._waiting.pop(resp.req_id, None)
                    if ev is not None and not ev.triggered:
                        ev.succeed(resp)
        except Interrupt:
            return

    def close(self) -> None:
        self.endpoint.close()
        if self._dispatcher.is_alive:
            self._dispatcher.interrupt("closed")

    def breaker_open(self, dst_host: str, dst_port: int) -> bool:
        """Is the destination currently quarantined? Clients use this to
        order failover candidates so they try healthy replicas first."""
        if not self.sim.overload.adaptive:
            return False
        return self._breakers.is_open((dst_host, dst_port))

    def call(
        self,
        dst_host: str,
        dst_port: int,
        method: str,
        timeout: Optional[float] = None,
        _size: Optional[int] = None,
        lane: str = BULK,
        via: Optional[str] = None,
        **args,
    ):
        """Process event yielding the result, or failing with RpcError.

        ``timeout`` is the *static* timeout: the cold-start value and the
        floor anchor for the per-destination adaptive estimate (None
        means the :data:`repro.robust.TIMEOUTS` default). ``_size``
        overrides the request's wire size (for calls carrying bulk
        payloads whose declared size exceeds their encoding).
        ``lane=CONTROL`` marks the call as control-plane: it jumps bulk
        traffic in every ingress queue and is never load-shed. ``via``
        pins the request to that one address of *dst_host* and the reply
        to the address it came from: the call tests one round trip over
        one path, waits exactly ``timeout``, and neither consults nor
        feeds the breakers, the adaptive timeouts or the health board —
        its outcome is evidence about that path, which only the caller
        can weigh.
        """
        if timeout is None:
            timeout = TIMEOUTS["rpc.default"]
        return self.sim.process(
            self._call(dst_host, dst_port, method, args, timeout, _size, lane, via),
            name=f"call:{method}@{dst_host}",
        )

    def _call(
        self,
        dst_host: str,
        dst_port: int,
        method: str,
        args: Dict[str, Any],
        timeout: float,
        _size: Optional[int] = None,
        lane: str = BULK,
        via: Optional[str] = None,
    ):
        config = self.sim.overload
        # A pinned call is a probe of one path: no feedback either way.
        feedback = via is None
        # The *requested* lane keeps feeding the control-latency histogram
        # even in the static baseline (lanes off), so E12 can compare what
        # happens to logically-control traffic with and without priority.
        requested_lane = lane
        if not config.adaptive:
            lane = BULK  # baseline: no priority classification anywhere
        bkey = (dst_host, dst_port)
        if feedback and config.adaptive and not self._breakers.allow(bkey):
            # Quarantined destination: fail fast so the caller's failover
            # moves on instead of burning its deadline on a sick replica.
            self._error_counter(method).inc()
            raise RpcError(f"{method}@{dst_host}:{dst_port}: circuit open")
        effective = (self._timeouts.timeout_for(dst_host, dst_port, method, timeout)
                     if feedback else timeout)
        req = Request(method=method, args=args, reply_port=self.endpoint.port,
                      req_id=self.sim.sequence("rpc.req"), lane=lane,
                      pinned=not feedback)
        if self.secret is not None:
            req.auth = hmac_tag(self.secret, {"method": method, "req_id": req.req_id})
        reply_ev = self.sim.event()
        self._waiting[req.req_id] = reply_ev
        t0 = self.sim.now
        try:
            wire = payload_size(args) if _size is None else ENVELOPE_BYTES + _size
            if feedback:
                send_ev = self.endpoint.send(dst_host, dst_port, req, wire)
            else:
                send_ev = self.endpoint.send_via(dst_host, dst_port, req, wire, via)
            defuse(send_ev)  # reaped below; must not count as uncaught
            # The send itself may fail (peer unreachable): watch both. The
            # deadline is a cancellable kernel timer: a timely reply (the
            # common case) cancels it with a flag write, and the dead
            # entry is discarded unseen when it reaches the heap head.
            wake = self.sim.event()
            fire = waker(wake)
            reply_ev.add_callback(fire)
            deadline = self.sim.schedule_timer(
                effective, fire, owner=f"call:{method}@{dst_host}"
            )
            yield wake
            deadline.cancel()
            if not reply_ev.triggered:
                self._error_counter(method).inc()
                if feedback:
                    self._timeouts.note_timeout(dst_host, dst_port, method, timeout)
                    self.host.health.note_outcome(dst_host, False, kind="rpc")
                if feedback and not send_ev.triggered:
                    # The request itself never finished arriving (no
                    # transport ack before the deadline). That is evidence
                    # against the chosen *path*, not just the peer — and
                    # the srudp sender may keep retrying past our deadline
                    # and never report the failure itself (a one-way link
                    # cut shorter than its retry budget heals before
                    # exhaustion), so feed per-iface steering here.
                    self.endpoint.paths.note_result(dst_host, False)
                if feedback and config.adaptive:
                    self._breakers.record(bkey, False)
                # Reap a send failure for a clearer error, if there is one.
                if send_ev.triggered and not send_ev.ok:
                    try:
                        send_ev.value
                    except SendError as exc:
                        raise RpcError(f"{method}@{dst_host}: {exc}") from None
                raise RpcError(
                    f"{method}@{dst_host}:{dst_port}: timed out after {effective}s"
                )
            resp = reply_ev.value
            rtt = self.sim.now - t0
            # Any response — even an application error — proves the
            # destination alive: the breaker quarantines sick *hosts*,
            # not failing requests. The health board is stricter: it
            # scores against the *static* SLO anchor, not the adaptive
            # deadline. A gray zombie answers every request eventually,
            # and the adaptive timeout legitimately stretches to keep
            # calls completing — if health graded against the stretched
            # deadline it would adapt right into the failure.
            if feedback:
                self._timeouts.observe(dst_host, dst_port, method, timeout, rtt)
                self.host.health.note_outcome(dst_host, rtt <= timeout, kind="rpc")
                if config.adaptive:
                    self._breakers.record(bkey, True)
            if not resp.ok:
                self._error_counter(method).inc()
                raise RpcError(f"{method}@{dst_host}: {resp.error}")
            if requested_lane == CONTROL:
                self._m_control_latency.observe(rtt)
            return resp.result
        finally:
            self._waiting.pop(req.req_id, None)
