"""Differential tests for the robust layer's no-change fast paths.

A success on a *clean* health cell (every rate exactly 1.0) with nothing
quarantined only bumps counts, and a success on a failure-free CLOSED
breaker is one append: both skip the re-scoring and re-summing the
original code did on every outcome. These tests pin that the shortcut
is exact. :class:`ReferenceHealthBoard` and :class:`ReferenceBreaker`
are the classes as they were before the fast paths — every outcome
re-scored the cell and re-summed its samples, every ``record``
re-summed the window — and random outcome streams must leave old and
new in the same observable state after every step: scores (compared
with ``==``, not approximately), quarantine flags, transitions and
their times, breaker states, trip counts and probe-due times.
"""

from __future__ import annotations

from collections import deque

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.robust.health import APP_KINDS, KIND_WEIGHTS, HealthBoard
from repro.robust.overload import CLOSED, HALF_OPEN, OPEN, BreakerBoard
from repro.sim import Simulator


class _Rate:
    __slots__ = ("value", "samples")

    def __init__(self) -> None:
        self.value = 1.0
        self.samples = 0

    def note(self, ok, alpha):
        self.value += alpha * ((1.0 if ok else 0.0) - self.value)
        self.samples += 1


class ReferenceHealthBoard:
    """The health board before the fast path: re-score on every note."""

    def __init__(self, sim, alpha=0.2, quarantine_below=0.35,
                 recover_above=0.7, min_samples=4, probation=10.0):
        self.sim = sim
        self.alpha = alpha
        self.quarantine_below = quarantine_below
        self.recover_above = recover_above
        self.min_samples = min_samples
        self.probation = probation
        self._cells = {}
        self._quarantined = {}
        self.transitions = []

    def note_outcome(self, peer, ok, kind="rpc", iface="*"):
        self._note_cell((peer, "*"), ok, kind)
        if iface != "*":
            self._note_cell((peer, iface), ok, kind)

    def _note_cell(self, key, ok, kind):
        cell = self._cells.get(key)
        if cell is None:
            cell = self._cells[key] = {}
        rate = cell.get(kind)
        if rate is None:
            rate = cell[kind] = _Rate()
        rate.note(ok, self.alpha)
        self._reconsider(key, cell)

    def score(self, peer, iface="*"):
        cell = self._cells.get((peer, iface))
        if cell is None and iface != "*":
            cell = self._cells.get((peer, "*"))
        if not cell:
            return 1.0
        return self._score_cell(cell)

    @staticmethod
    def _score_cell(cell):
        has_app = any(
            rate.samples and kind in APP_KINDS for kind, rate in cell.items()
        )
        num = den = 0.0
        for kind, rate in cell.items():
            if rate.samples == 0:
                continue
            if has_app and kind not in APP_KINDS:
                continue
            w = KIND_WEIGHTS.get(kind, 0.1)
            num += w * rate.value
            den += w
        return num / den if den else 1.0

    def is_quarantined(self, peer, iface=None):
        if not self._quarantined:
            return False
        keys = [(peer, "*")] if iface is None else [(peer, iface), (peer, "*")]
        for key in keys:
            t0 = self._quarantined.get(key)
            if t0 is not None and self.sim.now - t0 < self.probation:
                return True
        return False

    def iface_quarantined(self, peer, iface):
        if not self._quarantined:
            return False
        t0 = self._quarantined.get((peer, iface))
        return t0 is not None and self.sim.now - t0 < self.probation

    def _reconsider(self, key, cell):
        score = self._score_cell(cell)
        now = self.sim.now
        t0 = self._quarantined.get(key)
        if t0 is None:
            samples = sum(r.samples for r in cell.values())
            if score < self.quarantine_below and samples >= self.min_samples:
                self._quarantined[key] = now
                self.transitions.append((now, key[0], key[1], "quarantine"))
        elif score > self.recover_above:
            del self._quarantined[key]
            self.transitions.append((now, key[0], key[1], "release"))


class ReferenceBreaker:
    """The circuit breaker before the running failure count: every
    ``record`` re-sums the whole window."""

    def __init__(self, window=16, min_samples=4, failure_threshold=0.5,
                 open_for=1.0, max_open=30.0):
        self.window = window
        self.min_samples = min_samples
        self.failure_threshold = failure_threshold
        self.base_open_for = open_for
        self.max_open = max_open
        self.state = CLOSED
        self.opened_at = 0.0
        self.open_for = open_for
        self.opens = 0
        self._outcomes = deque(maxlen=window)
        self._probing = False

    def allow(self, now):
        if self.state == CLOSED:
            return True
        if self.state == OPEN:
            if now - self.opened_at < self.open_for:
                return False
            self.state = HALF_OPEN
            self._probing = False
        if self._probing:
            return False
        self._probing = True
        return True

    def record(self, ok, now):
        if self.state == HALF_OPEN:
            self._probing = False
            if ok:
                self.open_for = self.base_open_for
                self._outcomes.clear()
                self.state = CLOSED
            else:
                self._trip(now, redouble=True)
            return
        if self.state == OPEN:
            return
        self._outcomes.append(ok)
        if len(self._outcomes) < self.min_samples:
            return
        failures = sum(1 for o in self._outcomes if not o)
        if failures / len(self._outcomes) >= self.failure_threshold:
            self.open_for = self.base_open_for
            self._trip(now, redouble=False)

    def _trip(self, now, redouble):
        if redouble:
            self.open_for = min(self.max_open, self.open_for * 2)
        self.opened_at = now
        self.opens += 1
        self._outcomes.clear()
        self._probing = False
        self.state = OPEN


class ReferenceBreakerBoard(BreakerBoard):
    """The board as it is, over :class:`ReferenceBreaker` instances."""

    def breaker(self, key):
        br = self._breakers.get(key)
        if br is None:
            br = self._breakers[key] = ReferenceBreaker(**self.kwargs)
        return br


def _advance(sim, dt):
    sim.run(until=sim.now + dt)  # nothing is scheduled: only the clock moves


PEERS = ("a", "b")
IFACES = ("*", "eth0", "eth1")
KINDS = (*KIND_WEIGHTS, "other")

#: One health step: a run of identical outcomes, or a clock jump —
#: sub-second, or straddling the 10 s probation window.
_HEALTH_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("note"), st.sampled_from(PEERS), st.booleans(),
                  st.sampled_from(KINDS), st.sampled_from(IFACES),
                  st.integers(1, 8)),
        st.tuples(st.just("wait"),
                  st.one_of(st.floats(0.0, 1.0), st.floats(8.0, 12.0))),
    ),
    min_size=1,
    max_size=40,
)


def _health_view(board):
    view = [list(board.transitions)]
    for peer in PEERS:
        view.append(board.is_quarantined(peer))
        for iface in IFACES:
            view.append(board.score(peer, iface))
            view.append(board.is_quarantined(peer, iface))
            view.append(board.iface_quarantined(peer, iface))
    return view


@settings(max_examples=300, deadline=None)
@given(_HEALTH_OPS)
def test_health_fast_path_matches_reference(ops):
    sim = Simulator(seed=1)
    new = HealthBoard(sim, owner="t")
    ref = ReferenceHealthBoard(sim)
    for op in ops:
        if op[0] == "wait":
            _advance(sim, op[1])
            assert _health_view(new) == _health_view(ref)
            continue
        _, peer, ok, kind, iface, n = op
        for _ in range(n):
            new.note_outcome(peer, ok, kind=kind, iface=iface)
            ref.note_outcome(peer, ok, kind=kind, iface=iface)
            assert _health_view(new) == _health_view(ref)


KEYS = ("x", "y")

#: One breaker step: an admission check, a run of identical outcomes,
#: or a clock jump (open windows are 0.5–4 s, doubling while sick).
_BREAKER_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("allow"), st.sampled_from(KEYS)),
        st.tuples(st.just("record"), st.sampled_from(KEYS), st.booleans(),
                  st.integers(1, 10)),
        st.tuples(st.just("wait"), st.floats(0.0, 5.0)),
    ),
    min_size=1,
    max_size=50,
)

_BREAKER_CONFIGS = st.integers(1, 10).flatmap(
    lambda window: st.fixed_dictionaries({
        "window": st.just(window),
        "min_samples": st.integers(1, window),
        "failure_threshold": st.sampled_from((0.1, 0.25, 0.5, 0.75, 1.0)),
        "open_for": st.sampled_from((0.5, 1.0, 2.0)),
        "max_open": st.sampled_from((4.0, 30.0)),
    })
)


def _breaker_view(board):
    view = []
    for key in KEYS:
        br = board._breakers.get(key)
        if br is not None:
            view.append((br.state, br.opens, br.open_for, br.opened_at,
                         br._probing, list(br._outcomes)))
        view.append((board.is_open(key), board.due_at(key)))
    return view


@settings(max_examples=300, deadline=None)
@given(_BREAKER_CONFIGS, _BREAKER_OPS)
def test_breaker_fast_path_matches_reference(config, ops):
    sim = Simulator(seed=1)
    new = BreakerBoard(sim, scope="new", **config)
    ref = ReferenceBreakerBoard(sim, scope="ref", **config)
    for op in ops:
        if op[0] == "wait":
            _advance(sim, op[1])
        elif op[0] == "allow":
            assert new.allow(op[1]) == ref.allow(op[1])
        else:
            _, key, ok, n = op
            for _ in range(n):
                new.record(key, ok)
                ref.record(key, ok)
                assert _breaker_view(new) == _breaker_view(ref)
        assert _breaker_view(new) == _breaker_view(ref)
