"""Suite-wide fixtures."""

import pytest

from tests.replay import recording


@pytest.fixture
def probe_recorder():
    """Every probe emitted while the test runs, as a live list of
    ``(virtual time, kind, frozen fields)`` — see ``tests/replay.py``."""
    with recording() as records:
        yield records
