"""The epoch-numbered shard map and the prefix router.

A shard owns a set of literal URI prefixes; the *root* shard owns the
empty prefix, so every name has an owner. Routing is longest-prefix
match: of all shard prefixes that prefix a name, the longest wins.
Because any two prefixes of the same string are nested, the matching
prefixes always form a chain — uniqueness of the longest match is
structural, not a tiebreak (the Hypothesis suite pins this).

The map is immutable and versioned by a monotonically increasing
*epoch*. Every change — a split, a replica-set change — produces a new
map at ``epoch + 1``, published to the root replica group under
:data:`MAP_URI` and pushed to the affected shard servers. Splits are
*monotone*: a child shard's prefixes strictly extend one of its
parent's prefixes, so a name only ever moves to a child of its former
shard — never sideways. That invariant is what lets the check oracles
scope convergence per shard and reason about split boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

#: Catalog name the serialized map is published under (owned by root).
MAP_URI = "snipe://shard/map"

#: Assertion key holding the serialized map.
MAP_KEY = "map"

#: Shard id of the root directory shard (owns the empty prefix).
ROOT_SID = "root"


@dataclass(frozen=True)
class ShardInfo:
    """One shard: its owned prefixes and its replica group."""

    sid: str
    prefixes: Tuple[str, ...]
    replicas: Tuple[Tuple[str, int], ...]
    #: Shard this one was split out of (None for root / initial shards).
    parent: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "prefixes": list(self.prefixes),
            "replicas": [list(r) for r in self.replicas],
            "parent": self.parent,
        }


class ShardMap:
    """Immutable prefix → shard assignment at one epoch."""

    def __init__(self, epoch: int, shards: Iterable[ShardInfo]) -> None:
        self.epoch = epoch
        self.shards: Dict[str, ShardInfo] = {s.sid: s for s in shards}
        seen: Dict[str, str] = {}
        for info in self.shards.values():
            for p in info.prefixes:
                if p in seen:
                    raise ValueError(
                        f"prefix {p!r} owned by both {seen[p]!r} and {info.sid!r}")
                seen[p] = info.sid
        if ROOT_SID not in self.shards or "" not in self.shards[ROOT_SID].prefixes:
            raise ValueError("shard map needs a root shard owning the empty prefix")

    @classmethod
    def initial(cls, root_replicas: Sequence[Tuple[str, int]]) -> "ShardMap":
        """Epoch-0 map: the root group owns everything (the un-sharded
        catalog, as a degenerate one-shard federation)."""
        return cls(0, [ShardInfo(ROOT_SID, ("",),
                                 tuple(tuple(r) for r in root_replicas))])

    # -- routing ------------------------------------------------------------
    def route(self, uri: str) -> str:
        """Shard id owning *uri*: the longest matching prefix wins."""
        best_sid, best_len = ROOT_SID, -1
        for sid, info in self.shards.items():
            for p in info.prefixes:
                if len(p) > best_len and uri.startswith(p):
                    best_sid, best_len = sid, len(p)
        return best_sid

    def owner(self, uri: str) -> ShardInfo:
        return self.shards[self.route(uri)]

    def shards_for_prefix(self, prefix: str) -> List[ShardInfo]:
        """Shards whose ownership can intersect a prefix query — the
        scatter set. A shard qualifies if one of its prefixes extends the
        query prefix or vice versa."""
        out = []
        for info in self.shards.values():
            if any(p.startswith(prefix) or prefix.startswith(p)
                   for p in info.prefixes):
                out.append(info)
        return sorted(out, key=lambda s: s.sid)

    # -- evolution (each returns a new map at epoch + 1) --------------------
    def with_split(self, sid: str,
                   children: Sequence[Tuple[str, Tuple[str, ...],
                                            Sequence[Tuple[str, int]]]]) -> "ShardMap":
        """Split *sid*: add child shards whose prefixes strictly extend
        the parent's. The parent keeps its own prefixes (it remains the
        residual owner of names the children's prefixes don't cover)."""
        parent = self.shards[sid]
        for child_sid, prefixes, _ in children:
            if child_sid in self.shards:
                raise ValueError(f"shard id {child_sid!r} already in map")
            for p in prefixes:
                if not any(p.startswith(pp) and p != pp for pp in parent.prefixes):
                    raise ValueError(
                        f"child prefix {p!r} does not extend a prefix of {sid!r}")
        shards = list(self.shards.values())
        shards += [ShardInfo(child_sid, tuple(prefixes),
                             tuple(tuple(r) for r in replicas), parent=sid)
                   for child_sid, prefixes, replicas in children]
        return ShardMap(self.epoch + 1, shards)

    def with_shard(self, sid: str, prefixes: Sequence[str],
                   replicas: Sequence[Tuple[str, int]],
                   parent: Optional[str] = None) -> "ShardMap":
        """Add a pre-planned shard (initial namespace carve-out)."""
        shards = list(self.shards.values())
        shards.append(ShardInfo(sid, tuple(prefixes),
                                tuple(tuple(r) for r in replicas), parent=parent))
        return ShardMap(self.epoch + 1, shards)

    # -- serialization ------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {"epoch": self.epoch,
                "shards": {sid: info.to_dict()
                           for sid, info in sorted(self.shards.items())}}

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "ShardMap":
        shards = [
            ShardInfo(sid, tuple(info["prefixes"]),
                      tuple(tuple(r) for r in info["replicas"]),
                      info.get("parent"))
            for sid, info in d["shards"].items()
        ]
        return cls(int(d["epoch"]), shards)


def plan_split(prefix: str, names: Sequence[str],
               fanout: int = 2) -> List[Tuple[str, ...]]:
    """Deterministic split plan for the names under one owned prefix.

    Walks the radix structure of the (sorted) names: first extends
    *prefix* along the common path (so ``urn:snipe:proc:w-`` splits at
    the character that actually varies, not at ``u``), then buckets the
    branching characters into at most *fanout* contiguous, count-
    balanced groups. Each returned group is a tuple of literal child
    prefixes — all strictly extending *prefix*, which is the monotone-
    split invariant the router properties pin. Returns ``[]`` when the
    names cannot be split (fewer than two branches)."""
    candidates = sorted(n for n in set(names)
                        if n.startswith(prefix) and len(n) > len(prefix))
    if len(candidates) < 2:
        return []
    # Extend along the common path until the names branch.
    base = candidates[0]
    for n in candidates[1:]:
        limit = min(len(base), len(n))
        i = 0
        while i < limit and base[i] == n[i]:
            i += 1
        base = base[:i]
    # Names equal to the common path itself stay with the parent residual.
    branching = [n for n in candidates if len(n) > len(base)]
    counts: Dict[str, int] = {}
    for n in branching:
        ch = n[len(base)]
        counts[ch] = counts.get(ch, 0) + 1
    chars = sorted(counts)
    if len(chars) < 2:
        return []
    fanout = max(1, min(fanout, len(chars)))
    target = len(branching) / fanout
    groups: List[Tuple[str, ...]] = []
    current: List[str] = []
    acc = 0
    remaining = len(chars)
    for ch in chars:
        current.append(base + ch)
        acc += counts[ch]
        remaining -= 1
        # Close the bucket once it reaches its share — but never strand
        # more chars than there are buckets left to hold them.
        if (acc >= target and len(groups) < fanout - 1) or remaining == 0:
            groups.append(tuple(current))
            current, acc = [], 0
        elif remaining <= (fanout - 1 - len(groups)):
            groups.append(tuple(current))
            current, acc = [], 0
    if current:
        groups.append(tuple(current))
    return groups
