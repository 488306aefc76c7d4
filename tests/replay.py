"""Replay fingerprints: the one definition of "the same run".

A run's fingerprint is its whole report dict plus every
``ProbeBus.emit`` as ``(virtual time, kind, frozen fields)``; for the
transport demo (``demo/<seed>``, no harness and no probe bus) the
"report" is the kernel's end state: virtual end time, events scheduled
and the full metrics snapshot. ``tests/test_replay_golden.py`` compares
it against the digests committed in ``baselines/replay-digests.json`` —
the lock on kernel, product and harness refactors alike
(``scripts/regolden.py`` is the only writer of that file).

The harness entry points are looked up *by name* in
``repro.robust.chaos`` / ``repro.check`` rather than through the
scenario table, so the golden test also runs against an older ``src/``
(``PYTHONPATH=<parent checkout>/src``) — that is how a refactor proves
it reproduced the digests instead of redefining them.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

GOLDEN_PATH = Path(__file__).resolve().parents[1] / "baselines" / "replay-digests.json"

#: Probes per block digest: a mismatch is localised to this many probes.
BLOCK = 32

#: ``chaos/<name>`` -> (entry point in ``repro.robust.chaos``, kwargs).
#: The six scenarios at default parameters, then the flag paths the
#: benches and CI rely on (E12 static, E15 heartbeat-only, E16
#: unbounded, the blackout restore).
CHAOS_RUNS: Dict[str, Tuple[str, Dict]] = {
    "faults": ("run_chaos", {}),
    "overload": ("run_overload", {}),
    "bulk": ("run_bulk_chaos", {}),
    "gray": ("run_gray", {}),
    "heal": ("run_partition_heal", {}),
    "shard": ("run_shard_chaos", {}),
    "overload-static": ("run_overload", {"adaptive": False}),
    "gray-heartbeat-only": ("run_gray", {"differential": False}),
    "heal-unbounded": ("run_partition_heal", {"bounded": False}),
    "heal-blackout": ("run_partition_heal", {"blackout": True}),
}
SCENARIOS = ("faults", "overload", "bulk", "gray", "heal", "shard")
FULL_SEEDS = range(1, 11)
VARIANT_SEEDS = range(1, 4)


def all_keys() -> List[str]:
    """Every key the golden file must hold: ``<harness>/<run>/<seed>``,
    plus ``demo/<seed>`` for the harness-less transport demo."""
    keys = [f"demo/{seed}" for seed in FULL_SEEDS]
    for name in CHAOS_RUNS:
        seeds = FULL_SEEDS if name in SCENARIOS else VARIANT_SEEDS
        keys += [f"chaos/{name}/{seed}" for seed in seeds]
    keys += [f"check/{name}/{seed}" for name in SCENARIOS for seed in FULL_SEEDS]
    return keys


def freeze(obj):
    """Deterministic, comparison-friendly form of a report/probe value.

    Atoms pass through; containers recurse; anything else must have an
    address-free repr (asserted) so two separate runs can be compared.
    """
    if isinstance(obj, (str, int, float, bool, type(None))):
        return obj
    if isinstance(obj, dict):
        return {str(k): freeze(v) for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if isinstance(obj, (list, tuple)):
        return [freeze(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted(repr(v) for v in obj)
    r = repr(obj)
    assert "0x" not in r, f"address-dependent repr in fingerprint: {r}"
    return r


def fingerprint(obj) -> str:
    return json.dumps(freeze(obj), sort_keys=True)


@contextmanager
def recording() -> Iterator[List]:
    """Record every probe emission as (virtual time, kind, fields).

    Wraps ``ProbeBus.emit`` (the runners build their own buses, so a
    plain ``subscribe`` can't see them) and tracks the most recently
    created Simulator to timestamp each emission in virtual time.
    """
    from repro.robust.spine import ProbeBus
    from repro.sim.kernel import Simulator

    records: List = []
    sims: List = []
    orig_init, orig_emit = Simulator.__init__, ProbeBus.emit

    def tracking_init(self, *args, **kwargs):
        orig_init(self, *args, **kwargs)
        sims.append(self)

    def recording_emit(self, kind, **fields):
        now = sims[-1].now if sims else 0.0
        records.append((now, kind, freeze(fields)))
        orig_emit(self, kind, **fields)

    Simulator.__init__, ProbeBus.emit = tracking_init, recording_emit
    try:
        yield records
    finally:
        Simulator.__init__, ProbeBus.emit = orig_init, orig_emit


def run_key(key: str) -> Dict:
    """Run the harness a golden *key* names; returns the un-hashed
    fingerprint ``{"report": ..., "probes": [...]}`` (frozen)."""
    harness, _, rest = key.partition("/")
    name, _, seed = rest.rpartition("/")  # name is "" for demo/<seed>
    with recording() as records:
        if harness == "demo":
            from repro.obs.cli import demo_scenario

            sim = demo_scenario(seed=int(seed))
            report = {"now": sim.now, "eid": sim._eid,
                      "metrics": sim.obs.metrics.snapshot()}
        elif harness == "chaos":
            import repro.robust.chaos as chaos

            fn, kwargs = CHAOS_RUNS[name]
            report = getattr(chaos, fn)(int(seed), **kwargs)
        else:
            from repro.check import run_check

            report = run_check(scenario=name, seed=int(seed))
        return freeze({"report": report, "probes": list(records)})


def _short(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:12]


def digest(fp: Dict) -> Dict:
    """The committed form of a fingerprint: the SHA-256 of the whole
    thing (the lock), plus short per-report-field and per-probe-block
    digests whose only job is to say *where* a mismatch is."""
    probes = fp["probes"]
    return {
        "sha256": hashlib.sha256(
            json.dumps(fp, sort_keys=True).encode()).hexdigest(),
        "report": {k: _short(v) for k, v in fp["report"].items()},
        "probes": len(probes),
        "blocks": [_short(probes[i:i + BLOCK]) for i in range(0, len(probes), BLOCK)],
    }


def explain(key: str, golden: Dict, fp: Dict) -> str:
    """Name the first thing that differs between *golden* and a fresh run."""
    got = digest(fp)
    lines = [f"replay digest mismatch for {key}"]
    fields = sorted(set(golden["report"]) | set(got["report"]))
    bad = [f for f in fields if golden["report"].get(f) != got["report"].get(f)]
    for f in bad:
        if f not in got["report"]:
            lines.append(f"  report field {f!r} is gone")
        elif f not in golden["report"]:
            lines.append(f"  report field {f!r} is new: {fp['report'][f]!r}")
        else:
            lines.append(f"  report field {f!r} differs; now {fp['report'][f]!r}"[:400])
    for i, (a, b) in enumerate(zip(golden["blocks"], got["blocks"])):
        if a != b:
            lo = i * BLOCK
            hi = min(lo + BLOCK, got["probes"])
            lines.append(f"  probe stream first diverges in probes [{lo}, {hi}); "
                         f"the run's start of that block: {fp['probes'][lo:lo + 3]!r}"[:600])
            break
    if golden["probes"] != got["probes"]:
        lines.append(f"  probe count {golden['probes']} -> {got['probes']}")
    if len(lines) == 1:
        lines.append("  (whole-run hash differs but no field/block digest does)")
    return "\n".join(lines)


def load_golden() -> Dict[str, Dict]:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)["digests"]
