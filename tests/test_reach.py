"""Every function that no run calls has a reason.

``scripts/reach.py`` runs every gate under a call collector and writes
``baselines/unreached.txt``, the ``path:qualname`` of each ``def`` in
``src/`` that none of them ever entered. Code that nothing reaches is
either dead — and goes — or kept on purpose, with the reason in
DESIGN.md's "Unreached on purpose" table. A row names its functions as
backticked ``fnmatch`` patterns, so one reason can cover a family
(``*.__repr__``). This test fails on a listed function that no row
covers, and on a row that covers no listed function: the list and the
table move together.
"""

import re
from fnmatch import fnmatchcase
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
UNREACHED = ROOT / "baselines" / "unreached.txt"
HEADING = "## Unreached on purpose"


def _reasons():
    """``pattern -> reason`` for every row of DESIGN.md's table."""
    section = (ROOT / "DESIGN.md").read_text().split(HEADING, 1)[1].split("\n## ", 1)[0]
    reasons = {}
    for line in section.splitlines():
        if line.startswith("| `"):
            names, reason = line.strip().strip("|").split("|", 1)
            for pattern in re.findall(r"`([^`]+)`", names):
                reasons[pattern] = reason.strip(" |")
    return reasons


def test_every_unreached_function_has_a_reason():
    listed = UNREACHED.read_text().splitlines()
    assert listed == sorted(set(listed)), "unreached.txt is written sorted, once each"
    reasons = _reasons()
    unexplained = [n for n in listed if not any(fnmatchcase(n, p) for p in reasons)]
    assert unexplained == [], "reach them from a test, delete them, or give a reason"
    stale = [p for p in reasons if not any(fnmatchcase(n, p) for n in listed)]
    assert stale == [], "rows for functions that are reached now, or gone"
    assert all(reasons.values())
