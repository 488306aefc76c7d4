"""Experiment builders: one module per experiment in EXPERIMENTS.md.

Each builder sets its workload up on the simulator, runs it, and returns
named tables of plain-dict rows — the paper's tables and series.
:mod:`repro.bench.manifest` declares every experiment once (builders,
sizes, paper-shape check) and holds the one runner,
``python -m repro experiments``.
"""

from repro.bench.topologies import dual_media_pair, two_mpp_site, wan_site

__all__ = ["dual_media_pair", "two_mpp_site", "wan_site"]
