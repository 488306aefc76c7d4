"""Differential health scoring per (peer, iface).

Lease heartbeats answer "is the host's daemon alive?"; they say nothing
about whether the host is *doing work*. Gray failures — one-way links,
lossy paths, bit-flipping NICs, hosts whose CPU has crawled to a halt —
produce *zombies*: peers that heartbeat perfectly while failing every
request sent to them. The classic heartbeat detector keeps routing work
at them; goodput collapses.

The :class:`HealthBoard` closes that gap. Each host owns one
(``host.health``), fed by the layers that actually observe outcomes:

* ``rpc``    — RpcClient call completed vs timed out,
* ``srudp``  — transport-level message delivery vs retransmit exhaustion,
* ``digest`` — end-to-end payload digest verification results,
* ``heartbeat`` — lease-refresh outcomes, when a caller reports them.

Each (peer, iface) cell keeps one EWMA success rate per kind; the health
score is the sample-weighted combination

    score = sum(w_k * ewma_k) / sum(w_k)   over kinds with samples,

with weights rpc 0.4, srudp 0.3, digest 0.2, heartbeat 0.1 and an
optimistic prior of 1.0 (unknown peers are healthy). *Application-level*
kinds (rpc, digest) trump *transport-level* kinds (srudp, heartbeat):
when a cell has application samples, only those enter the combination.
This is the differential insight made arithmetic — a zombie's NIC acks
every frame and its daemon answers every heartbeat, so averaging the
healthy transport signals in would put a floor under the score that no
amount of failed work could break through. Transport kinds fill in only
where no application evidence exists (e.g. the per-iface cells that
steer the path selector, fed purely by srudp outcomes). A peer whose score
falls below ``QUARANTINE_BELOW`` is *quarantined* — demoted by the path
selector, sunk to the back of RC/file candidate orders, penalised in RM
placement — until either its score recovers above ``RECOVER_ABOVE`` or a
``probation`` window elapses and it earns another chance. Hysteresis
plus probation means one lost frame never flaps a peer, and a recovered
peer is re-admitted without an operator.

``HealthBoard.differential_enabled = False`` (the ``naive-health``
seeded bug / the E15 baseline) collapses the detector back to
heartbeat-only: every score reads 1.0, nothing is ever quarantined, and
the Guardian's probe-before-death check is disabled — exactly the
detector this module exists to replace.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator

#: Relative weight of each outcome kind in the combined score. Kinds
#: with no samples for a cell drop out and the rest renormalise.
KIND_WEIGHTS = {"rpc": 0.4, "srudp": 0.3, "digest": 0.2, "heartbeat": 0.1}

#: Kinds that measure *work* rather than *delivery*. When present they
#: exclude the transport kinds from the score — see the module docstring.
APP_KINDS = frozenset({"rpc", "digest"})

#: Hysteresis band: a cell with enough samples is quarantined when its
#: score falls below ``QUARANTINE_BELOW`` and released above
#: ``RECOVER_ABOVE``.
QUARANTINE_BELOW = 0.35
RECOVER_ABOVE = 0.7


class _Cell:
    """One (peer, iface) cell: an EWMA success rate per kind (optimistic
    prior 1.0, kinds in first-seen order), the total sample count, and
    ``clean`` — True until the first failure, so every rate is still
    exactly 1.0 while it holds."""

    __slots__ = ("rates", "samples", "clean")

    def __init__(self) -> None:
        self.rates: Dict[str, float] = {}
        self.samples = 0
        self.clean = True


class HealthBoard:
    """One host's differential health scores, keyed (peer_host, iface).

    Each host owns a board (``host.health``) fed only by *its own*
    observed outcomes — there is no shared scoreboard in a real
    distributed system, and a partitioned host's bad experience must
    not quarantine a peer for everyone else. ``iface`` is the sender's
    NIC iface name chosen by the path selector, or ``"*"`` for the
    per-peer aggregate; every per-iface observation also feeds the
    aggregate, so consumers that don't track paths still benefit.
    """

    #: Class-level bug hook (``--bug naive-health``): when False the
    #: board scores everything 1.0 and quarantines nothing.
    differential_enabled = True

    def __init__(
        self,
        sim: Optional["Simulator"] = None,
        owner: str = "",
        alpha: float = 0.2,
        min_samples: int = 4,
        probation: float = 10.0,
    ) -> None:
        self.sim = sim
        self.owner = owner
        self.alpha = alpha
        self.min_samples = min_samples
        self.probation = probation
        #: Instance-level switch: the E15 baseline runs with the board
        #: present but disabled (heartbeat-only detector).
        self.enabled = True
        self._cells: Dict[Tuple[str, str], _Cell] = {}
        #: key -> quarantine entry time (hysteresis state).
        self._quarantined: Dict[Tuple[str, str], float] = {}
        #: (t, peer, iface, "quarantine"|"release") — E15 reads detection
        #: latency straight off this.
        self.transitions: List[Tuple[float, str, str, str]] = []

    # -- feeding -----------------------------------------------------------
    def note_outcome(self, peer: str, ok: bool, kind: str = "rpc",
                     iface: str = "*") -> None:
        """Record one application-level outcome against *peer*."""
        if not self._active():
            return
        cells = self._cells
        for key in ((peer, "*"),) if iface == "*" else ((peer, "*"), (peer, iface)):
            cell = cells.get(key)
            if cell is None:
                cell = cells[key] = _Cell()
            cell.samples += 1
            if ok and cell.clean:
                # A clean cell scores exactly 1.0, so it was never
                # quarantined (that takes a score below the threshold)
                # and a success keeps it so: only the counts move.
                cell.rates[kind] = 1.0
                continue
            rates = cell.rates
            value = rates.get(kind, 1.0)
            rates[kind] = value + self.alpha * ((1.0 if ok else 0.0) - value)
            if not ok:
                cell.clean = False
            self._reconsider(key, cell)

    # -- reading -----------------------------------------------------------
    def _active(self) -> bool:
        return self.enabled and type(self).differential_enabled

    def score(self, peer: str, iface: str = "*") -> float:
        """Combined health in [0, 1]; 1.0 for unknown/disabled."""
        if not self._active():
            return 1.0
        cell = self._cells.get((peer, iface))
        if cell is None and iface != "*":
            cell = self._cells.get((peer, "*"))
        if cell is None:
            return 1.0
        return self._score_cell(cell.rates)

    @staticmethod
    def _score_cell(rates: Dict[str, float]) -> float:
        has_app = any(kind in APP_KINDS for kind in rates)
        num = den = 0.0
        for kind, value in rates.items():
            if has_app and kind not in APP_KINDS:
                continue
            w = KIND_WEIGHTS.get(kind, 0.1)
            num += w * value
            den += w
        return num / den if den else 1.0

    def is_quarantined(self, peer: str, iface: Optional[str] = None) -> bool:
        """True while the peer (or one of its paths) is sin-binned.

        After ``probation`` seconds the peer earns another chance: the
        flag clears even though the score is still low, so traffic
        re-probes it and either recovers it or re-quarantines it fast.
        """
        if not self._quarantined or not self._active():
            return False
        keys = [(peer, "*")] if iface is None else [(peer, iface), (peer, "*")]
        now = self.sim.now if self.sim is not None else 0.0
        for key in keys:
            t0 = self._quarantined.get(key)
            if t0 is not None and now - t0 < self.probation:
                return True
        return False

    def iface_quarantined(self, peer: str, iface: str) -> bool:
        """True while this *specific* (peer, iface) path is sin-binned.

        Unlike :meth:`is_quarantined` this never falls back to the
        aggregate cell: the path selector compares sibling interfaces to
        the same peer, and a peer-wide quarantine (driven by rpc
        outcomes, which carry no iface) must not condemn every path at
        once — that would erase exactly the differential the selector
        steers by.
        """
        if not self._quarantined or not self._active():
            return False
        now = self.sim.now if self.sim is not None else 0.0
        t0 = self._quarantined.get((peer, iface))
        return t0 is not None and now - t0 < self.probation

    # -- hysteresis --------------------------------------------------------
    def _reconsider(self, key: Tuple[str, str], cell: _Cell) -> None:
        score = self._score_cell(cell.rates)
        now = self.sim.now if self.sim is not None else 0.0
        t0 = self._quarantined.get(key)
        if t0 is None:
            if score < QUARANTINE_BELOW and cell.samples >= self.min_samples:
                self._quarantined[key] = now
                self._transition(now, key, "quarantine", score)
        elif score > RECOVER_ABOVE:
            del self._quarantined[key]
            self._transition(now, key, "release", score)

    def _transition(self, now: float, key: Tuple[str, str], what: str,
                    score: float) -> None:
        peer, iface = key
        self.transitions.append((now, peer, iface, what))
        if self.sim is None:
            return
        self.sim.obs.metrics.counter(f"health.{what}").inc()
        tracer = self.sim.obs.tracer
        if tracer.enabled:
            tracer.event(f"health.{what}", owner=self.owner, peer=peer,
                         iface=iface, score=round(score, 4))
        probes = self.sim.probes
        if probes is not None:
            probes.emit(f"health.{what}", owner=self.owner, peer=peer,
                        iface=iface, score=score)

    def first_quarantine_of(self, peer: str) -> Optional[float]:
        """Time the peer's aggregate cell first entered quarantine."""
        for t, p, iface, what in self.transitions:
            if p == peer and what == "quarantine":
                return t
        return None
