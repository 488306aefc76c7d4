#!/usr/bin/env python
"""Regenerate ``baselines/replay-digests.json`` — the only writer of it.

    python scripts/regolden.py                 # every key (~5 min)
    python scripts/regolden.py 'chaos/heal*'   # only matching keys, merged
    python scripts/regolden.py --dump chaos/gray/3 > gray3.json

Re-golden only when a run's behaviour changed *on purpose* and you can
say why (see ``baselines/README.md``); a harness refactor must reproduce
the committed digests, not replace them. The script therefore refuses
to write while ``src/`` has uncommitted changes: the digests in git
must describe a ``src/`` that is in git. ``--dump`` writes nothing — it
prints one key's un-hashed fingerprint, so the same key dumped from two
checkouts can be diffed when the golden test names a mismatch.
"""

from __future__ import annotations

import argparse
import fnmatch
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from tests.replay import GOLDEN_PATH, all_keys, digest, run_key  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("patterns", nargs="*", default=["*"],
                    help="glob(s) over keys like chaos/faults/1 (default: all)")
    ap.add_argument("--dump", metavar="KEY",
                    help="print KEY's un-hashed fingerprint and exit")
    args = ap.parse_args()
    if args.dump:
        json.dump(run_key(args.dump), sys.stdout, indent=1, sort_keys=True)
        return 0
    dirty = subprocess.run(["git", "status", "--porcelain", "--", "src"],
                           cwd=ROOT, capture_output=True, text=True, check=True).stdout
    if dirty.strip():
        print("refusing to re-golden: src/ has uncommitted changes\n" + dirty,
              file=sys.stderr)
        return 2
    keys = [k for k in all_keys()
            if any(fnmatch.fnmatch(k, p) for p in args.patterns)]
    digests = {}
    if GOLDEN_PATH.exists() and args.patterns != ["*"]:
        digests = json.loads(GOLDEN_PATH.read_text())["digests"]
    for i, key in enumerate(keys, 1):
        digests[key] = digest(run_key(key))
        print(f"[{i}/{len(keys)}] {key} {digests[key]['sha256'][:16]} "
              f"({digests[key]['probes']} probes)", flush=True)
    GOLDEN_PATH.write_text(json.dumps(
        {"version": 1, "digests": {k: digests[k] for k in sorted(digests)}},
        indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
