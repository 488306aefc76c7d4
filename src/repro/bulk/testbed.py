"""Canned rack topology for bulk-plane benchmarks, chaos, and checking.

One backbone segment carries the root (origin) host; each rack is its
own segment behind a forwarding gateway, with the member hosts attached
only to the rack. That is exactly the shape where the relay tree wins:
a naive root-unicast pushes every copy across the backbone, while the
tree crosses it once per rack and fans out inside the rack segments.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.bulk.chunks import DEFAULT_CHUNK_SIZE
from repro.core.environment import SnipeEnvironment


def build_bulk_site(
    seed: int = 0,
    racks: int = 4,
    per_rack: int = 4,
    settle: float = 1.0,
) -> Tuple[SnipeEnvironment, str, List[str]]:
    """Build the rack site; returns ``(env, root, dests)``.

    ``racks * per_rack`` member hosts are the distribution destinations;
    the root on the backbone is the origin. Every host (root + members)
    gets a bulk service.
    """
    env = SnipeEnvironment(seed=seed)
    env.add_segment("backbone")
    root = "root"
    env.add_host(root, segments=["backbone"])
    dests: List[str] = []
    for r in range(racks):
        seg = f"rack{r}"
        env.add_segment(seg)
        env.add_host(f"g{r}", segments=["backbone", seg], forwarding=True)
        for j in range(per_rack):
            name = f"m{r}-{j}"
            env.add_host(name, segments=[seg])
            dests.append(name)
    env.add_rc_servers([root])
    env.add_bulk_service(root)
    for d in dests:
        env.add_bulk_service(d)
    if settle > 0:
        env.settle(settle)
    return env, root, dests


def make_payload(total_bytes: int, chunk_size: int = DEFAULT_CHUNK_SIZE) -> bytes:
    """A payload whose chunks all have distinct digests, built cheaply."""
    out = bytearray()
    i = 0
    while len(out) < total_bytes:
        out.extend(bytes([i % 251]) * min(chunk_size, total_bytes - len(out)))
        i += 1
    return bytes(out)
