"""Property tests: LWW under skewed and regressing wall clocks.

The catalog's last-writer-wins stamp is ``(wall, lamport, origin)``
(:meth:`repro.rcds.records.Entry.stamp`) and ``wall`` comes from the
*accepting server's* clock — which the gray-fault injector can skew by a
fixed offset or even run backwards. These tests pin down exactly what
clock skew can and cannot break:

* **Convergence is clock-independent.** The merge is a total order over
  distinct stamps, so replicas agree on a winner no matter how wrong the
  walls are — skew changes *which* write wins, never *whether* replicas
  converge. (Hybrid-logical-clock literature calls this the split
  between convergence and external consistency.)
* **The staleness bound.** If every clock is within ``±D`` of true time,
  the winning write's *true* write time is at least ``t_max - 2D`` where
  ``t_max`` is the true time of the latest write: a fast clock can
  promote a write at most ``D`` old-looking seconds, a slow clock demote
  one by at most ``D``, and the two add. A write can only be shadowed by
  one less than ``2D`` older — never by ancient history.
* **Regression shadows until the clock re-passes.** A writer whose clock
  jumps backwards has its newer writes (higher lamport) lose to its own
  older ones until its wall climbs back past the old maximum — the
  shadow window is bounded by the regression amount, and the first write
  stamped beyond the old wall wins again.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.robust.oracles import LwwMap, lww_merge
from repro.rcds.records import Entry

#: Maximum clock error ("±D") used by the staleness-bound property —
#: matches the worst skew the gray chaos plan injects (30 s).
MAX_SKEW = 30.0

true_times = st.lists(
    st.floats(min_value=0.0, max_value=1000.0,
              allow_nan=False, allow_infinity=False),
    min_size=1, max_size=12,
)
origin_ids = st.integers(min_value=0, max_value=3)
offsets = st.lists(
    st.floats(min_value=-MAX_SKEW, max_value=MAX_SKEW,
              allow_nan=False, allow_infinity=False),
    min_size=4, max_size=4,
)


def skewed_history(times, origins, offs):
    """Entries for writes at true times *times*, each accepted by origin
    ``s<origins[i]>`` whose clock is off by ``offs[origins[i]]``.

    Lamports increase per origin, so stamps are distinct by
    construction (same guarantee the real store's counter provides).
    """
    lamports = {}
    out = []
    for i, t in enumerate(times):
        o = origins[i % len(origins)]
        lamports[o] = lamports.get(o, 0) + 1
        out.append((t, Entry(value=i, lamport=lamports[o], origin=f"s{o}",
                             wall=t + offs[o], deleted=False)))
    return out


@settings(max_examples=200)
@given(true_times, st.lists(origin_ids, min_size=1, max_size=12), offsets)
def test_winner_is_at_most_two_skews_stale(times, origins, offs):
    """With every clock within ±D of true time, the LWW winner's true
    write time is >= t_max - 2D: bounded staleness, not unbounded."""
    history = skewed_history(times, origins, offs)
    t_winner, _ = max(history, key=lambda pair: pair[1].stamp())
    t_max = max(t for t, _ in history)
    assert t_winner >= t_max - 2 * MAX_SKEW - 1e-9


@settings(max_examples=200)
@given(true_times, st.lists(origin_ids, min_size=1, max_size=12), offsets,
       st.integers())
def test_convergence_survives_skew(times, origins, offs, shuffle_seed):
    """Replicas folding any permutation of skew-stamped writes agree —
    wrong clocks pick a different winner, never a different winner *per
    replica*."""
    entries = [e for _, e in skewed_history(times, origins, offs)]
    perm = list(entries)
    random.Random(shuffle_seed).shuffle(perm)
    forward, shuffled = LwwMap(), LwwMap()
    for e in entries:
        forward.apply("uri", "k", e)
    for e in perm:
        shuffled.apply("uri", "k", e)
    assert forward.get("uri", "k") == shuffled.get("uri", "k")


@settings(max_examples=200)
@given(
    st.floats(min_value=0.0, max_value=1000.0,
              allow_nan=False, allow_infinity=False),
    st.floats(min_value=1e-6, max_value=MAX_SKEW,
              allow_nan=False, allow_infinity=False),
)
def test_regression_shadow_ends_when_clock_repasses(wall, regression):
    """A writer's post-regression writes lose to its own pre-regression
    write (higher lamport notwithstanding) — and the first write stamped
    past the old wall maximum wins again, ending the shadow."""
    before = Entry(value="old", lamport=1, origin="a", wall=wall, deleted=False)
    during = Entry(value="shadowed", lamport=2, origin="a",
                   wall=wall - regression, deleted=False)
    # The clock jumped back: the newer write (by lamport, i.e. by real
    # causality) is shadowed by the older one.
    assert lww_merge(before, during) is before
    # Once the wall climbs past the old maximum, causality wins again.
    after = Entry(value="new", lamport=3, origin="a",
                  wall=wall + 1e-6, deleted=False)
    assert lww_merge(lww_merge(before, during), after) is after


@settings(max_examples=200)
@given(true_times, st.lists(origin_ids, min_size=1, max_size=12), offsets,
       st.integers())
def test_merge_agrees_with_fold_under_skew(times, origins, offs, shuffle_seed):
    """Pairwise merging in any order equals the fold: the join-semilattice
    properties that make anti-entropy safe hold for skewed stamps too."""
    entries = [e for _, e in skewed_history(times, origins, offs)]
    perm = list(entries)
    random.Random(shuffle_seed).shuffle(perm)
    acc = perm[0]
    for e in perm[1:]:
        acc = lww_merge(acc, e)
    assert acc == max(entries, key=lambda e: e.stamp())
