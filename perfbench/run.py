"""perfbench command line.

``python3 perfbench/run.py`` runs all five workloads, each in a fresh
subprocess, and prints every end-to-end metric by name with its unit.
``--workload W`` runs one workload in this process and prints, as the
last line of standard output, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics, or
with ``--trace 1`` the per-layer ones). See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
LEDGER = os.path.join(HERE, "ledger.jsonl")

#: The end-to-end metrics ``BENCHMARK.json`` bounds, in print order. The
#: other two the table shows (``virt_op_p99_ms``, ``ops_failed_ratio``)
#: travel with the per-layer set: the first exists only where n >= 1000,
#: the second is 0 on a healthy run, and a bounded metric may be neither.
CONTRACT_END_TO_END = ("setup_s", "wall_s", "peak_rss_mb", "virt_makespan_s", "virt_op_p50_ms")


def _bootstrap() -> None:
    """Make ``repro`` (under ``src/``) and ``perfbench`` importable."""
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        sys.exit("perfbench: src/repro not found next to perfbench/; run from a checkout "
                 "of the repository")
    for path in (src, ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def print_end_to_end(result: Dict[str, Any]) -> None:
    from perfbench.harness import P99_MIN_N

    e2e = result["end_to_end"]
    print(f"== {result['workload']}  seed={result['seed']}  "
          f"repeats={e2e['wall_s']['n']}{'  (quick sizes)' if result['quick'] else ''} ==")
    for name, row in e2e.items():
        if "median" in row:
            detail = (f"median of n={row['n']}  q1={_fmt(row['q1'])}  q3={_fmt(row['q3'])}")
            value = row["median"]
        else:
            detail = f"n={row['n']}" if "n" in row else ""
            value = row["value"]
        if name == "virt_op_p99_ms" and row["n"] < P99_MIN_N:
            print(f"  {name:18s} {'omitted':>12s} {row['unit']:6s} {row['clock']:8s} "
                  f"n={row['n']} < {P99_MIN_N}: the slowest part sets virt_makespan_s")
            continue
        if name == "ops_failed_ratio":
            detail = f"{result['failed']} of {result['attempted']} ops"
        print(f"  {name:18s} {_fmt(value):>12s} {row['unit']:6s} {row['clock']:8s} {detail}")
    for problem in result["problems"]:
        print(f"  CHECK FAILED: {problem}")
    if not result["problems"]:
        print("  checks: all outputs correct")


def print_per_layer(metrics: Dict[str, float], units: Dict[str, Any], title: str) -> None:
    print(f"-- {title} --")
    for name, value in metrics.items():
        print(f"  {name:42s} {_fmt(value):>14s} {units[name][0]}")


def run_one(args) -> int:
    """One workload in this process; the contract's single-run mode."""
    from perfbench import harness, layers, probes
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    result = harness.run_repeats(workload, args.seed, args.seconds, args.quick)
    print_end_to_end(result)
    per_layer: Dict[str, float] = {}
    if args.traced:
        traced = layers.traced_pass(workload, args.seed, args.quick, result)
        result["problems"] += traced["problems"]
        result["correct"] = not result["problems"]
        per_layer.update(traced["metrics"])
        print_per_layer(traced["metrics"], layers.TRACED_METRICS,
                        f"traced pass ({_fmt(traced['traced_wall_s'])} s traced wall)")
        for problem in traced["problems"]:
            print(f"  CHECK FAILED: {problem}")
        unmapped = traced["spans"]["unmapped_process_names"]
        if unmapped:
            print(f"  process names with no layer (counted as other): {unmapped}")
        os.makedirs(OUT_DIR, exist_ok=True)
        with open(os.path.join(OUT_DIR, f"spans-{workload.name}.json"), "w") as fh:
            json.dump(traced["spans"], fh)
    if args.probes:
        probed = probes.run_probes(repeats=1 if args.quick else probes.REPEATS)
        per_layer.update(probed)
        print_per_layer(probed, probes.PROBE_METRICS, "layer probes")
    result["per_layer"] = per_layer
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(result, fh, indent=1, sort_keys=True)
    if args.trace:
        metrics = {name: {"value": per_layer[name], "unit": unit}
                   for name, (unit, _better) in {**layers.TRACED_METRICS,
                                                 **probes.PROBE_METRICS}.items()}
    else:
        metrics = {name: {"value": harness.value_of(result["end_to_end"][name]),
                          "unit": result["end_to_end"][name]["unit"]}
                   for name in CONTRACT_END_TO_END}
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if result["correct"] else 1


def _git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def ledger_row(result: Dict[str, Any], commit: str) -> Dict[str, Any]:
    from perfbench import harness

    row = {"commit": commit, "workload": result["workload"], "seed": result["seed"],
           "recorded_at": time.strftime("%Y-%m-%d"),
           "probe.calib_spin_s": result["per_layer"]["probe.calib_spin_s"],
           "sim.wall_per_event_us": result["per_layer"]["sim.wall_per_event_us"]}
    row.update({name: harness.value_of(m) for name, m in result["end_to_end"].items()
                if name != "virt_op_p99_ms" or m["n"] >= harness.P99_MIN_N})
    return row


def run_all(args) -> int:
    """Every workload, each in a fresh subprocess so ``peak_rss_mb`` is
    per workload; probes run once, in a process of their own."""
    from perfbench import probes
    from perfbench.workloads import WORKLOADS

    os.makedirs(OUT_DIR, exist_ok=True)
    traced = args.traced or args.record
    results: List[Dict[str, Any]] = []
    status = 0
    for name in WORKLOADS:
        path = os.path.join(OUT_DIR, f"result-{name}.json")
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--json", path]
        cmd += ["--traced"] if traced else []
        cmd += ["--quick"] if args.quick else []
        done = subprocess.run(cmd, capture_output=True, text=True)
        # The child's last line is the machine-readable result; the rest
        # is the table a person reads.
        table = done.stdout.splitlines()[:-1]
        print("\n".join(table))
        sys.stderr.write(done.stderr)
        status = status or done.returncode
        if os.path.exists(path):
            with open(path) as fh:
                results.append(json.load(fh))
    probed: Dict[str, float] = {}
    if args.probes or args.record:
        probed = probes.run_probes() if args.probes else probes.calib_spin()
        print_per_layer(probed, probes.PROBE_METRICS, "layer probes")
    for result in results:
        result["per_layer"].update(probed)
    if args.json:
        with open(args.json, "w") as fh:
            json.dump({"results": results}, fh, indent=1, sort_keys=True)
    if args.record and status == 0:
        commit = _git_commit()
        with open(LEDGER, "a") as fh:
            for result in results:
                fh.write(json.dumps(ledger_row(result, commit), sort_keys=True) + "\n")
        print(f"recorded {len(results)} rows in {os.path.relpath(LEDGER, ROOT)}")
    print("perfbench: " + ("all checks passed" if status == 0 else "CHECKS FAILED"))
    return status


def main(argv: Optional[List[str]] = None) -> int:
    _bootstrap()
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS),
                        help="run one workload in this process (default: all, one "
                             "subprocess each)")
    parser.add_argument("--seed", type=int, default=1, help="workload seed (default 1)")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measured-phase seconds to accumulate; at least 5 and at most 9 "
                             "repeats are made whatever this says (default 10)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = --traced --probes, and the last line carries the per-layer "
                             "metrics instead of the end-to-end ones")
    parser.add_argument("--traced", action="store_true",
                        help="add the traced pass (one extra repeat) for per-layer numbers")
    parser.add_argument("--probes", action="store_true", help="add the layer probes")
    parser.add_argument("--quick", action="store_true", help="small sizes, for the tests")
    parser.add_argument("--json", metavar="FILE", help="also write the full result here")
    parser.add_argument("--record", action="store_true",
                        help="append one row per workload to perfbench/ledger.jsonl")
    args = parser.parse_args(argv)
    if args.trace:
        args.traced = args.probes = True
    if args.workload is None:
        if args.trace:
            parser.error("--trace 1 needs --workload")
        return run_all(args)
    if args.record:
        parser.error("--record applies to a run of all workloads")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
