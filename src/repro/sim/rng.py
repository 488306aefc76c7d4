"""Named, independently seeded random streams.

Every stochastic component draws from its own named stream so that adding
a new component (or reordering draws inside one) never perturbs the others.
Streams are derived from the master seed with a stable hash of the name,
so runs are reproducible across processes and Python versions.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict


def _derive_seed(master: int, name: str) -> int:
    digest = hashlib.sha256(f"{master}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


class RngRegistry:
    """Factory and cache for named :class:`random.Random` streams."""

    def __init__(self, master_seed: int) -> None:
        self.master_seed = master_seed
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """The stream for *name*, created (deterministically) on first use."""
        rng = self._streams.get(name)
        if rng is None:
            rng = random.Random(_derive_seed(self.master_seed, name))
            self._streams[name] = rng
        return rng

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<RngRegistry seed={self.master_seed} streams={sorted(self._streams)}>"
