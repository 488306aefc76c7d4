"""Experiment builders and the manifest that declares them.

A builder sets its workload up on the simulator, runs it, and returns
named tables of plain-dict rows — the paper's tables and series.
:mod:`repro.bench.manifest` declares every experiment once (builders or
scenario sweeps, sizes, paper-shape check) and holds the one runner,
``python -m repro experiments``.
"""
