"""Property tests: the shard router is a partition, splits are monotone.

The shard map's safety story rests on three structural facts the check
oracles and the client facade assume without re-checking:

* **Exactly one owner** — at any epoch, every URN matches exactly one
  longest owned prefix, so routing is a total function onto shard ids
  (the matching prefixes always form a nested chain).
* **Monotone splits** — a split only ever moves a name from the split
  shard to one of its children; no name moves sideways between
  unrelated shards, which is what lets per-shard convergence checks
  reason about split boundaries.
* **Deterministic router** — routing is a pure function of the
  serialized map: any replica or client that deserializes the same
  epoch routes every name identically.
* **Same owner as the linear scan** — the prefix-index router returns,
  for every name, the shard the plain scan over every prefix of every
  shard picks (kept here verbatim as the reference).

Maps are generated the way production evolves them — an initial carve
plus a random sequence of ``plan_split``/``with_split`` steps over
random name populations — so the properties quantify over reachable
maps, not arbitrary prefix soups.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rcds.shard.map import ROOT_SID, ShardInfo, ShardMap, plan_split

#: Small alphabet so generated names collide into shared prefixes often
#: (the interesting case for a radix router).
names_st = st.text(alphabet="abc/", min_size=0, max_size=8).map(
    lambda s: "s://" + s)


@st.composite
def evolutions(draw):
    """A reachable map evolution: ``(steps, names)`` where each step is
    ``(map_before, split_sid, child_sids, map_after)`` and the final
    element of the last step is the current map."""
    names = draw(st.lists(names_st, min_size=2, max_size=32, unique=True))
    m = ShardMap.initial([("r0", 385)]).with_shard(
        "app", ("s://",), (("n0", 1400),), parent=ROOT_SID)
    steps = []
    for i in range(draw(st.integers(min_value=0, max_value=4))):
        sid = draw(st.sampled_from(sorted(m.shards)))
        if sid == ROOT_SID:
            continue
        info = m.shards[sid]
        prefix = draw(st.sampled_from(sorted(info.prefixes)))
        owned = [n for n in names
                 if m.route(n) == sid and n.startswith(prefix)]
        groups = plan_split(prefix, owned,
                            fanout=draw(st.integers(min_value=2, max_value=3)))
        if not groups:
            continue
        children = [(f"{sid}.{i}{chr(ord('a') + j)}", g, (("n0", 1500 + i),))
                    for j, g in enumerate(groups)]
        after = m.with_split(sid, children)
        steps.append((m, sid, [c[0] for c in children], after))
        m = after
    return steps, names, m


@given(evolutions())
def test_exactly_one_owner_per_name_per_epoch(ev):
    """Every name has exactly one longest matching prefix, the matching
    prefixes form a chain, and route() returns that unique owner."""
    _steps, names, m = ev
    for uri in names:
        matches = [(p, sid) for sid, info in m.shards.items()
                   for p in info.prefixes if uri.startswith(p)]
        assert matches, f"{uri!r} matched no shard (root owns '')"
        # Matching prefixes of one string are nested: sorting by length
        # must give a chain under startswith.
        ordered = sorted(p for p, _ in matches)
        for shorter, longer in zip(ordered, ordered[1:]):
            assert longer.startswith(shorter)
        best_len = max(len(p) for p, _ in matches)
        owners = {sid for p, sid in matches if len(p) == best_len}
        assert len(owners) == 1
        assert m.route(uri) == owners.pop()


@given(evolutions())
def test_splits_are_monotone(ev):
    """Across every split in the evolution, a name either keeps its
    owner or moves to a child of the shard that split — never sideways."""
    steps, names, _m = ev
    for before, sid, child_sids, after in steps:
        for uri in names:
            src, dst = before.route(uri), after.route(uri)
            if dst != src:
                assert src == sid, (
                    f"{uri!r} moved {src} -> {dst} in a split of {sid}")
                assert dst in child_sids
        # Child prefixes strictly extend a prefix of the split shard.
        parent_prefixes = before.shards[sid].prefixes
        for child_sid in child_sids:
            for p in after.shards[child_sid].prefixes:
                assert any(p.startswith(pp) and p != pp
                           for pp in parent_prefixes)


@given(evolutions())
def test_router_is_deterministic_across_serialization(ev):
    """from_dict(to_dict(m)) is the same router: same epoch, same owner
    for every name — what makes every client/replica holding one epoch
    route identically."""
    _steps, names, m = ev
    clone = ShardMap.from_dict(m.to_dict())
    assert clone.epoch == m.epoch
    assert sorted(clone.shards) == sorted(m.shards)
    for uri in names:
        assert clone.route(uri) == m.route(uri) == m.route(uri)


@given(st.text(alphabet="abc/", min_size=0, max_size=4),
       st.lists(names_st, min_size=0, max_size=32))
@settings(max_examples=200)
def test_plan_split_buckets_partition_the_branching_names(prefix, names):
    """plan_split's child prefixes strictly extend the parent prefix and
    bucket the branching names disjointly (a name matches at most one
    child; names equal to the common path stay with the parent)."""
    prefix = "s://" + prefix
    groups = plan_split(prefix, names, fanout=2)
    child_prefixes = [p for g in groups for p in g]
    for p in child_prefixes:
        assert p.startswith(prefix) and p != prefix
    # Disjoint buckets: the branching characters are partitioned.
    assert len(set(child_prefixes)) == len(child_prefixes)
    for n in set(names):
        owners = [p for p in child_prefixes if n.startswith(p)]
        assert len(owners) <= 1
    if groups:
        # A split that happened has at least two buckets to route to.
        assert len(groups) >= 2
        covered = sum(1 for n in set(names)
                      if any(n.startswith(p) for p in child_prefixes))
        assert covered >= 2  # both sides of the branch are populated


def reference_route(m, uri):
    """The router as a linear scan: every prefix of every shard, the
    longest match wins."""
    best_sid, best_len = ROOT_SID, -1
    for sid, info in m.shards.items():
        for p in info.prefixes:
            if len(p) > best_len and uri.startswith(p):
                best_sid, best_len = sid, len(p)
    return best_sid


def _probe_names(m, names):
    """The given names plus the edge cases of every owned prefix: the
    prefix itself, the prefix cut one short, one longer, and ``""``."""
    out = set(names) | {""}
    for info in m.shards.values():
        for p in info.prefixes:
            out.update((p, p[:-1], p + "a", p + "/"))
    return sorted(out)


@given(evolutions())
def test_prefix_index_routes_like_the_linear_scan_on_evolved_maps(ev):
    _steps, names, m = ev
    for uri in _probe_names(m, names):
        assert m.route(uri) == reference_route(m, uri), uri


@st.composite
def wide_maps(draw):
    """Flat maps of up to 64 shards whose prefixes have many different
    lengths — nested ones included — so the router probes several lengths
    and must keep the longest hit."""
    prefixes = draw(st.lists(st.text(alphabet="abc/", min_size=1, max_size=6),
                             min_size=0, max_size=96, unique=True))
    n_shards = draw(st.integers(min_value=1, max_value=64))
    owned = {}
    for i, p in enumerate(prefixes):
        owned.setdefault(f"s{i % n_shards}", []).append(p)
    shards = [ShardInfo(ROOT_SID, ("",), (("r0", 385),))]
    shards += [ShardInfo(sid, tuple(ps), (("n0", 1400),))
               for sid, ps in owned.items()]
    return ShardMap(1, shards)


@given(wide_maps(), st.lists(st.text(alphabet="abc/", max_size=8),
                             max_size=32))
def test_prefix_index_routes_like_the_linear_scan_on_wide_maps(m, names):
    for uri in _probe_names(m, names):
        assert m.route(uri) == reference_route(m, uri), uri
