"""Compare perfbench results: ``agree`` and ``pair``.

``agree A.json B.json`` checks two result sets of one commit against the
bounds in ``BENCHMARK.json``: host-clock metrics within their bound of
each other, virtual-clock metrics, counts and ``ops_failed_ratio``
exactly equal (the simulator is deterministic, so any difference there
is a behaviour change, not noise).

``pair --base REF --head REF`` measures two commits with this
benchmark's code on both sides: at least ten alternating pairs per
workload, and per metric x workload row both medians and quartiles, the
share of pairs the head won, the ratio with its base, and a verdict by
the rule in the choosing-metrics guide, section 8.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PAIR_DIR = os.path.join(HERE, "out", "pair")
if ROOT not in sys.path:  # run as a script: make the perfbench package importable
    sys.path.insert(0, ROOT)

from perfbench.harness import P99_MIN_N, value_of  # noqa: E402

#: End-to-end metrics on the host clock; every other one must match exactly.
HOST_METRICS = ("setup_s", "wall_s", "peak_rss_mb")
#: Two host times closer than this are the same time: a set-up phase of
#: 80 ms moves by a quarter with nothing but collector timing.
HOST_FLOOR_S = 0.05
#: Bound used for ``ops_failed_ratio`` and the virtual p99: any increase.
EXACT = 0.0
MIN_PAIRS = 10


def load_benchmark() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def load_bounds() -> Dict[str, float]:
    return {m["name"]: m["bound"] for m in load_benchmark()["end_to_end"]}


def load_results(path: str) -> Dict[str, Dict[str, Any]]:
    """Results keyed by workload, from ``run.py --json`` (one or all)."""
    with open(path) as fh:
        doc = json.load(fh)
    return {r["workload"]: r for r in doc.get("results", [doc])}


# -- agree ---------------------------------------------------------------------
def agree(a_path: str, b_path: str) -> int:
    bounds = load_bounds()
    # Per-layer counts come from a deterministic simulator too.
    exact_layer = {m["name"] for m in load_benchmark()["per_layer"]
                   if m["unit"] in ("count", "B")}
    a_set, b_set = load_results(a_path), load_results(b_path)
    failures = 0
    for workload in sorted(set(a_set) | set(b_set)):
        if workload not in a_set or workload not in b_set:
            print(f"{workload}: present in only one result set")
            failures += 1
            continue
        a, b = a_set[workload], b_set[workload]
        if a["seed"] != b["seed"] or a["quick"] != b["quick"]:
            print(f"{workload}: seeds or sizes differ; exact comparison is meaningless")
            failures += 1
            continue
        for name in a["end_to_end"]:
            va, vb = value_of(a["end_to_end"][name]), value_of(b["end_to_end"][name])
            if name in HOST_METRICS:
                gap = abs(va - vb) / min(va, vb)
                ok = gap <= bounds[name] or (name.endswith("_s") and abs(va - vb) < HOST_FLOOR_S)
                note = f"{gap:.1%} apart, bound {bounds[name]:.0%}"
            else:
                ok = va == vb
                note = "exactly equal" if ok else "DIFFER (must be exactly equal)"
            failures += not ok
            print(f"{'ok  ' if ok else 'FAIL'} {workload:26s} {name:18s} {va:.6g} vs {vb:.6g}  {note}")
        same = (a["virtual_digest"] == b["virtual_digest"]
                and (a["attempted"], a["failed"]) == (b["attempted"], b["failed"]))
        failures += not same
        print(f"{'ok  ' if same else 'FAIL'} {workload:26s} every op latency and count "
              f"{'identical' if same else 'DIFFERS'}")
        for name in sorted(exact_layer & set(a["per_layer"]) & set(b["per_layer"])):
            if a["per_layer"][name] != b["per_layer"][name]:
                failures += 1
                print(f"FAIL {workload:26s} {name:18s} {a['per_layer'][name]:.6g} vs "
                      f"{b['per_layer'][name]:.6g}  counts must be exactly equal")
    print("agree: " + ("the two result sets agree" if not failures
                       else f"{failures} disagreements"))
    return 1 if failures else 0


# -- pair ----------------------------------------------------------------------
def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base: Sequence[float], head: Sequence[float], bound: float) -> Dict[str, Any]:
    """Judge one lower-is-better metric on one workload from paired runs.

    *improved*: the head wins at least nine tenths of the pairs (ties
    count for neither) and the medians differ by more than the distance
    between the base's own quartiles. *regressed*: the head's median is
    worse than the base's by more than *bound*. *unresolved*: the base's
    own spread is wider than the bound and the head did not beat the
    base on every run. Otherwise *unchanged*.
    """
    b1, bm, b3 = quartiles(base)
    h1, hm, h3 = quartiles(head)
    wins = sum(h < b for b, h in zip(base, head))
    losses = sum(h > b for b, h in zip(base, head))
    win_share = wins / len(base)
    iqr = b3 - b1
    if hm > bm * (1 + bound) or (bound == EXACT and hm > bm):
        call = "regressed"
    elif win_share >= 0.9 and bm - hm > iqr:
        call = "improved"
    elif iqr > bound * bm and not max(head) < min(base) and (wins or losses):
        call = "unresolved"
    else:
        call = "unchanged"
    return {"base_median": bm, "base_q1": b1, "base_q3": b3,
            "head_median": hm, "head_q1": h1, "head_q3": h3,
            "win_share": win_share, "ratio": hm / bm if bm else float("nan"),
            "verdict": call}


def _materialise(ref: str, side: str) -> str:
    """Check *ref* out under ``perfbench/out/pair/<side>`` and lay this
    benchmark's own code over it, so both sides run identical benchmark
    code and settings."""
    dest = os.path.join(PAIR_DIR, side)
    shutil.rmtree(dest, ignore_errors=True)
    os.makedirs(dest)
    archive = subprocess.run(["git", "archive", ref], cwd=ROOT, capture_output=True, check=True)
    subprocess.run(["tar", "-x", "-C", dest], input=archive.stdout, check=True)
    shutil.rmtree(os.path.join(dest, "perfbench"), ignore_errors=True)
    shutil.copytree(HERE, os.path.join(dest, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), dest)
    return dest


def _measure(tree: str, workload: str, seed: int, quick: bool) -> Dict[str, Any]:
    out = os.path.join(tree, "perfbench", "out")
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, "pair-result.json")
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--json", path] + (["--quick"] if quick else [])
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if done.returncode:
        raise RuntimeError(f"{workload} seed {seed} failed in {tree}:\n{done.stdout}{done.stderr}")
    with open(path) as fh:
        return json.load(fh)


def pair(base_ref: str, head_ref: str, pairs: int, seed_start: int,
         workloads: Optional[List[str]], quick: bool) -> int:
    if pairs < MIN_PAIRS:
        print(f"pair: {pairs} pairs is fewer than the {MIN_PAIRS} a verdict needs")
        return 2
    bounds = {**load_bounds(), "virt_op_p99_ms": EXACT, "ops_failed_ratio": EXACT}
    trees = {"base": _materialise(base_ref, "base"), "head": _materialise(head_ref, "head")}
    if workloads is None:
        workloads = [w["name"] for w in load_benchmark()["workloads"]]
    regressed = 0
    print(f"pair: base={base_ref} head={head_ref} pairs={pairs} seeds={seed_start}.."
          f"{seed_start + pairs - 1}; every metric is lower-is-better; ratio = head/base")
    for workload in workloads:
        runs: Dict[str, List[Dict[str, Any]]] = {"base": [], "head": []}
        for i in range(pairs):
            # Alternate which side runs first, so drift hits both alike.
            for side in (("base", "head") if i % 2 == 0 else ("head", "base")):
                runs[side].append(_measure(trees[side], workload, seed_start + i, quick))
        for name, row in runs["base"][0]["end_to_end"].items():
            if name == "virt_op_p99_ms" and row["n"] < P99_MIN_N:
                continue
            series = {side: [value_of(r["end_to_end"][name]) for r in rs]
                      for side, rs in runs.items()}
            v = verdict(series["base"], series["head"], bounds[name])
            regressed += v["verdict"] == "regressed"
            print(f"{workload:26s} {name:18s} base {v['base_median']:.6g} "
                  f"[{v['base_q1']:.6g}, {v['base_q3']:.6g}]  head {v['head_median']:.6g} "
                  f"[{v['head_q1']:.6g}, {v['head_q3']:.6g}]  wins {v['win_share']:.0%}  "
                  f"ratio {v['ratio']:.4f} of {v['base_median']:.6g}  {v['verdict']}")
    print("pair: " + (f"{regressed} metric x workload rows regressed" if regressed
                      else "no row regressed"))
    return 1 if regressed else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/compare.py",
                                     description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    p_agree = sub.add_parser("agree", help="do two result sets of one commit agree?")
    p_agree.add_argument("a")
    p_agree.add_argument("b")
    p_pair = sub.add_parser("pair", help="alternating paired runs of two commits")
    p_pair.add_argument("--base", required=True, help="git ref of the parent")
    p_pair.add_argument("--head", required=True, help="git ref of the change")
    p_pair.add_argument("--pairs", type=int, default=MIN_PAIRS)
    p_pair.add_argument("--seed-start", type=int, default=1,
                        help="first seed; pair i uses seed-start + i on both sides")
    p_pair.add_argument("--workload", action="append",
                        help="limit to this workload (repeatable)")
    p_pair.add_argument("--quick", action="store_true", help="small sizes (smoke test only)")
    args = parser.parse_args(argv)
    if args.cmd == "agree":
        return agree(args.a, args.b)
    return pair(args.base, args.head, args.pairs, args.seed_start, args.workload, args.quick)


if __name__ == "__main__":
    sys.exit(main())
