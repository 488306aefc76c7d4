"""perfbench: the repo's one benchmark.

Five fixed-work workloads on the deterministic simulator, two clocks
(host seconds spent simulating, virtual seconds of the modelled system)
and layer-attributed numbers measured from outside the product code.
See ``perfbench/README.md`` for the metric glossary and how to run it.
"""
