"""Overload control: adaptive timeouts, circuit breakers, priority lanes.

SNIPE's target environment is the wide-area Internet, where the common
failure is not a clean crash but *congestion*: a host that is alive yet
slow. Under the PR-2 stack, overload and death were indistinguishable —
fixed 5 s RPC timeouts, a static SRUDP RTO, and unbounded receive queues
meant a saturated replica was hammered harder until its lease lapsed and
the Guardian respawned a perfectly healthy task. This module holds the
three primitives that separate "slow" from "dead":

* :class:`RttEstimator` — per-destination Jacobson/Karels smoothed RTT
  and variance (RFC 6298 style): ``rto = srtt + 4·rttvar``, doubled per
  consecutive timeout up to a cap. Timeouts *adapt* to the path instead
  of being a global constant, so congestion stretches patience rather
  than triggering retry storms.
* :class:`CircuitBreaker` — closed/open/half-open quarantine per
  destination. A replica failing more than ``failure_threshold`` of its
  recent window is left alone for ``open_for`` seconds (doubling while
  it stays sick), then probed with a single request before traffic is
  restored. Clients fail over to healthy candidates immediately instead
  of burning their deadline budget on a sick one.
* :class:`LaneStore` — a two-lane ingress queue. The control lane
  (lease heartbeats, fencing, guardian probes, RC anti-entropy) is never
  shed; the bulk lane is bounded and either backpressures the sender
  (transport mode: an unacknowledged segment is retransmitted, so
  nothing is silently lost) or sheds its oldest entry (RPC mode: the
  request would have timed out anyway, and dropping it *before* the
  server wastes service time on it is what keeps goodput up).

Everything is tunable per simulation through :class:`OverloadConfig`,
reached as the lazy ``sim.overload`` property; ``adaptive=False``
restores the static-timeout behaviour and is the E12 baseline flag.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Optional

from repro.sim.events import Event

#: Priority lanes. Control traffic keeps the failure detectors honest and
#: must survive saturation; bulk traffic is the load being controlled.
CONTROL = "control"
BULK = "bulk"

#: Methods that are control-plane regardless of what the caller says.
#: Server-side safety net: even a client that forgot to tag its call
#: cannot starve liveness probes, death notices or anti-entropy behind
#: bulk data.
CONTROL_METHODS = frozenset({"daemon.notify", "daemon.ping", "rc.sync"})


def lane_for_request(req: Any) -> str:
    """Classify an RPC request into a lane.

    An explicit ``req.lane`` wins; otherwise the method table decides.
    """
    lane = getattr(req, "lane", None)
    if lane == CONTROL:
        return CONTROL
    if getattr(req, "method", None) in CONTROL_METHODS:
        return CONTROL
    return BULK


#: Adaptive RPC timeouts never drop below this fraction of the static
#: default (guards against a lucky fast sample starving slow methods)...
TIMEOUT_FLOOR_FACTOR = 0.5
#: ...and never exceed this, however congested the path looks.
MAX_TIMEOUT = 30.0
#: Bulk-lane bound for transport rx queues (backpressure beyond this).
TRANSPORT_RX_CAPACITY = 512


@dataclass
class OverloadConfig:
    """Per-simulation overload-control settings (see ``sim.overload``).

    ``adaptive=False`` is the E12 static baseline: every timeout frozen at
    its static default, no circuit breakers (no quarantine), and every RPC
    issued on the bulk lane (priority classification off). The bounded
    queues stay either way.
    """

    adaptive: bool = True
    #: Bulk-lane bound for RPC servers (shed-oldest beyond this).
    server_bulk_capacity: int = 256


class RttEstimator:
    """Jacobson/Karels RTT estimation with exponential timeout backoff.

    First sample initialises ``srtt = rtt, rttvar = rtt/2``; thereafter
    ``rttvar = 0.75·rttvar + 0.25·|srtt − rtt|`` then
    ``srtt = 0.875·srtt + 0.125·rtt`` (RFC 6298 §2). The retransmission
    timeout is ``srtt + 4·rttvar`` clamped to ``[min_rto, max_rto]`` and
    doubled per consecutive loss (``backoff()``); any fresh sample resets
    the backoff.
    """

    __slots__ = ("initial_rto", "min_rto", "max_rto", "srtt", "rttvar", "samples", "_shift")

    def __init__(
        self,
        initial_rto: float = 0.05,
        min_rto: float = 0.002,
        max_rto: float = 2.0,
    ) -> None:
        self.initial_rto = initial_rto
        self.min_rto = min_rto
        self.max_rto = max_rto
        self.srtt = 0.0
        self.rttvar = 0.0
        self.samples = 0
        self._shift = 0  # consecutive-timeout exponent

    @property
    def cold(self) -> bool:
        """True until the first RTT sample arrives."""
        return self.samples == 0

    def observe(self, rtt: float) -> None:
        """Feed one round-trip sample; resets any timeout backoff."""
        if rtt < 0:
            return
        if self.samples == 0:
            self.srtt = rtt
            self.rttvar = rtt / 2.0
        else:
            self.rttvar = 0.75 * self.rttvar + 0.25 * abs(self.srtt - rtt)
            self.srtt = 0.875 * self.srtt + 0.125 * rtt
        self.samples += 1
        self._shift = 0

    def backoff(self) -> None:
        """Note one timeout: double the next RTO (capped by ``max_rto``)."""
        if self._shift < 16:  # 2**16 already saturates any sane cap
            self._shift += 1

    def rto(self) -> float:
        """Current retransmission timeout."""
        base = self.initial_rto if self.samples == 0 else self.srtt + 4.0 * self.rttvar
        base = max(self.min_rto, base)
        return min(self.max_rto, base * (1 << self._shift))


#: Circuit breaker states.
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


class CircuitBreaker:
    """Closed/open/half-open quarantine over a sliding outcome window.

    The breaker sees only call *outcomes* (``record``) and admission
    questions (``allow``); time is passed in explicitly so transports can
    use it without touching the obs layer. While CLOSED, outcomes feed a
    window of the last ``window`` calls; once at least ``min_samples``
    are present and the failure fraction reaches ``failure_threshold``
    the breaker OPENs for ``open_for`` seconds (doubling per consecutive
    open, capped at ``max_open``). After that it goes HALF_OPEN and
    admits exactly one probe; a success recloses (and resets the open
    duration), a failure reopens.
    """

    __slots__ = (
        "window",
        "min_samples",
        "failure_threshold",
        "base_open_for",
        "max_open",
        "state",
        "opened_at",
        "open_for",
        "opens",
        "_outcomes",
        "_failures",
        "_probing",
        "on_transition",
    )

    def __init__(
        self,
        window: int = 16,
        min_samples: int = 4,
        failure_threshold: float = 0.5,
        open_for: float = 1.0,
        max_open: float = 30.0,
        on_transition: Optional[Callable[[str, str], None]] = None,
    ) -> None:
        self.window = window
        self.min_samples = min_samples
        self.failure_threshold = failure_threshold
        self.base_open_for = open_for
        self.max_open = max_open
        self.state = CLOSED
        self.opened_at = 0.0
        self.open_for = open_for
        self.opens = 0  # total times this breaker tripped
        self._outcomes: Deque[bool] = deque(maxlen=window)
        self._failures = 0  # count of False in _outcomes
        self._probing = False
        self.on_transition = on_transition

    def _move(self, state: str) -> None:
        old, self.state = self.state, state
        if old != state and self.on_transition is not None:
            self.on_transition(old, state)

    def allow(self, now: float) -> bool:
        """May a call be issued to this destination right now?"""
        if self.state == CLOSED:
            return True
        if self.state == OPEN:
            if now - self.opened_at < self.open_for:
                return False
            self._move(HALF_OPEN)
            self._probing = False
        # HALF_OPEN: admit a single probe at a time.
        if self._probing:
            return False
        self._probing = True
        return True

    def record(self, ok: bool, now: float) -> None:
        """Report the outcome of an admitted call."""
        outcomes = self._outcomes
        if ok and not self._failures and self.state == CLOSED:
            # No failure in the window, so no trip (thresholds are
            # positive): the success only joins the window.
            outcomes.append(True)
            return
        if self.state == HALF_OPEN:
            self._probing = False
            if ok:
                # The window has been empty since the trip.
                self.open_for = self.base_open_for
                self._move(CLOSED)
            else:
                self._trip(now, redouble=True)
            return
        if self.state == OPEN:
            # A straggler from before the trip; the probe decides, not it.
            return
        if len(outcomes) == self.window and not outcomes[0]:
            self._failures -= 1  # the append below evicts a failure
        outcomes.append(ok)
        if not ok:
            self._failures += 1
        if len(outcomes) < self.min_samples:
            return
        if self._failures / len(outcomes) >= self.failure_threshold:
            self.open_for = self.base_open_for
            self._trip(now, redouble=False)

    def _trip(self, now: float, redouble: bool) -> None:
        if redouble:
            self.open_for = min(self.max_open, self.open_for * 2)
        self.opened_at = now
        self.opens += 1
        self._outcomes.clear()
        self._failures = 0
        self._probing = False
        self._move(OPEN)


class BreakerBoard:
    """A keyed family of breakers sharing one configuration.

    Clients key by destination (host, port); the path selector keys by
    (destination, interface). Obs counters are tagged with the board's
    ``scope`` so a report can tell RPC quarantine from path quarantine.
    """

    def __init__(self, sim, scope: str, **breaker_kwargs: Any) -> None:
        self.sim = sim
        self.scope = scope
        self.kwargs = breaker_kwargs
        self._breakers: dict = {}
        #: Optional ``(key, old, new)`` hook run on every state change.
        self.on_transition: Optional[Callable[[Any, str, str], None]] = None
        metrics = sim.obs.metrics
        self._m_opened = metrics.counter("robust.breaker_opened", scope=scope)
        self._m_rejected = metrics.counter("robust.breaker_rejected", scope=scope)

    def breaker(self, key: Any) -> CircuitBreaker:
        br = self._breakers.get(key)
        if br is None:

            def transition(old: str, new: str) -> None:
                if new == OPEN:
                    self._m_opened.inc()
                if self.on_transition is not None:
                    self.on_transition(key, old, new)

            br = CircuitBreaker(on_transition=transition, **self.kwargs)
            self._breakers[key] = br
        return br

    def allow(self, key: Any) -> bool:
        """Admission check; counts a rejection when the answer is no."""
        if not self.breaker(key).allow(self.sim.now):
            self._m_rejected.inc()
            return False
        return True

    def record(self, key: Any, ok: bool) -> None:
        br = self.breaker(key)
        if br.state == OPEN and self.sim.now - br.opened_at >= br.open_for:
            # Users that only peek via is_open (the path selector) never
            # call allow(); a due breaker treats this outcome as its probe.
            br.allow(self.sim.now)
        br.record(ok, self.sim.now)

    def due_at(self, key: Any) -> Optional[float]:
        """When an OPEN breaker becomes due for its probe (None unless
        OPEN). Lets peek-only users expire caches built around it."""
        br = self._breakers.get(key)
        if br is None or br.state != OPEN:
            return None
        return br.opened_at + br.open_for

    def is_open(self, key: Any) -> bool:
        """Non-mutating peek: is this destination currently quarantined?
        (OPEN and not yet due for a probe — a due breaker counts as
        available so candidate ordering lets the probe happen.)"""
        br = self._breakers.get(key)
        if br is None or br.state == CLOSED:
            return False
        if br.state == HALF_OPEN:
            return br._probing
        return self.sim.now - br.opened_at < br.open_for


class LaneStore:
    """Two-priority ingress queue: an unbounded control lane over a
    bounded bulk lane.

    ``get()`` always drains control before bulk. The bulk lane bound is
    enforced one of two ways:

    * **backpressure** (``shed_oldest=False``, transports): ``try_put``
      returns False and the caller withholds its ACK, so the sender's
      reliability machinery retransmits — nothing is silently lost.
    * **shed-oldest** (``shed_oldest=True``, RPC servers): the oldest
      queued bulk item is evicted through ``on_shed`` and the new one
      admitted. Under sustained overload the oldest request is the one
      whose caller has already given up; serving it would be pure waste.

    Control items are always admitted: they are tiny, rare, and the whole
    point of the lane is that saturation cannot delay them behind data.
    """

    def __init__(
        self,
        sim,
        bulk_capacity: float = float("inf"),
        shed_oldest: bool = False,
        on_shed: Optional[Callable[[Any], None]] = None,
    ) -> None:
        self.sim = sim
        self.bulk_capacity = bulk_capacity
        self.shed_oldest = shed_oldest
        self.on_shed = on_shed
        self.control: Deque[Any] = deque()
        self.bulk: Deque[Any] = deque()
        self.sheds = 0
        self.rejected = 0
        self._getters: Deque[Event] = deque()

    def __len__(self) -> int:
        return len(self.control) + len(self.bulk)

    @property
    def bulk_full(self) -> bool:
        return len(self.bulk) >= self.bulk_capacity

    def try_put(self, item: Any, lane: str = BULK) -> bool:
        """Admit *item*; False only in backpressure mode with a full bulk
        lane and no waiting consumer."""
        if self._getters:
            # Direct handoff: a waiting consumer takes it immediately,
            # whatever the lane — the queue never actually forms.
            self._getters.popleft().succeed(item)
            return True
        if lane == CONTROL:
            self.control.append(item)
            return True
        if self.bulk_full:
            if not self.shed_oldest:
                self.rejected += 1
                return False
            victim = self.bulk.popleft()
            self.sheds += 1
            if self.on_shed is not None:
                self.on_shed(victim)
        self.bulk.append(item)
        return True

    def get(self) -> Event:
        """Event yielding the next item, control lane first."""
        ev = Event(self.sim)
        if self.control:
            ev.succeed(self.control.popleft())
        elif self.bulk:
            ev.succeed(self.bulk.popleft())
        else:
            self._getters.append(ev)
        return ev


@dataclass
class AdaptiveTimeouts:
    """Per-destination call-timeout estimation for an RPC client.

    Wraps a family of :class:`RttEstimator` instances keyed by
    (destination, port, method): RPC latency is method-shaped (service
    time + payload), so estimates are never pooled across methods. The
    *static* timeout (caller argument or the :data:`repro.robust.TIMEOUTS`
    default) is both the cold-start value and the anchor for the floor:
    an adaptive timeout lives in ``[floor_factor·static, max_timeout]``.
    """

    config: OverloadConfig
    estimators: dict = field(default_factory=dict)

    def _est(self, dst_host: str, dst_port: int, method: str,
             static: float) -> RttEstimator:
        key = (dst_host, dst_port, method)
        est = self.estimators.get(key)
        if est is None:
            est = self.estimators[key] = RttEstimator(
                initial_rto=static,
                min_rto=static * TIMEOUT_FLOOR_FACTOR,
                max_rto=MAX_TIMEOUT,
            )
        return est

    def timeout_for(self, dst_host: str, dst_port: int, method: str, static: float) -> float:
        if not self.config.adaptive:
            return static
        return self._est(dst_host, dst_port, method, static).rto()

    def observe(self, dst_host: str, dst_port: int, method: str, static: float, rtt: float):
        if self.config.adaptive:
            self._est(dst_host, dst_port, method, static).observe(rtt)

    def note_timeout(self, dst_host: str, dst_port: int, method: str, static: float):
        if self.config.adaptive:
            self._est(dst_host, dst_port, method, static).backoff()
