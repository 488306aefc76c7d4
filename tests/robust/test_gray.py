"""End-to-end gray-failure scenario (E15's engine).

One full seeded run each way: the differential detector must pass
every gray check and detect the zombie within E15's bound; the
heartbeat-only baseline must visibly exhibit the gray failure modes
(never detecting the zombie, falsely killing hosts whose only crime is
a delayed heartbeat). Both are multi-fault 40 s
simulations, hence the slow marker — CI runs them in the chaos job's
sweep, not tier-1.
"""

import pytest

from repro.robust.chaos import run_gray

pytestmark = pytest.mark.slow


def test_gray_differential_seed1_passes_all_criteria():
    report = run_gray(1, flight=False)
    assert report["ok"], report["violations"]
    assert report["false_lease_deaths"] == 0
    assert report["corrupt_delivered"] == 0
    assert report["rx_corrupt_dropped"] > 0      # the corruptor did fire
    assert report["detection_s"] is not None and report["detection_s"] < 5.0
    assert report["probe_saved"] > 0             # lapsed leases were probed


def test_gray_heartbeat_only_baseline_exhibits_the_failure():
    report = run_gray(1, differential=False, flight=False)
    # The baseline never quarantines the zombie...
    assert report["detection_s"] is None
    # ...and declares healthy hosts dead off their lapsed leases.
    assert report["false_lease_deaths"] > 0
    assert report["probe_saved"] == 0
