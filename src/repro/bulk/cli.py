"""``python -m repro bulk`` — drive the bulk-data distribution plane.

One subcommand:

* ``tree`` — show the relay tree the distributor would build for a
  site (who pulls from whom, and each host's child count), then run
  one tree distribution and print the per-destination outcome, the
  catalog lookups served during the run and the object copies each NIC
  sent, root first — a quick way to see the
  pipeline, swarm announcements, digest verification and the per-NIC
  load at work.

The unicast-vs-tree measurement is experiment E13:
``python -m repro experiments E13``.
"""

from __future__ import annotations

import argparse
from typing import List, Optional

from repro.bench.e13_bulk import CHUNK
from repro.bulk.distribute import build_relay_tree
from repro.bulk.testbed import build_bulk_site, make_payload


def _cmd_tree(args) -> int:
    env, root, dests = build_bulk_site(seed=args.seed, racks=args.racks,
                                       per_rack=args.per_rack)
    parents = build_relay_tree(env.topology, root, dests, fanout=args.fanout)
    children: dict = {}
    for d, p in parents.items():
        children.setdefault(p, []).append(d)

    def show(node: str, indent: int) -> None:
        mark = " (root)" if node == root else ""
        kids = sorted(children.get(node, []))
        print(f"  {'  ' * indent}{node}{mark} children={len(kids)}")
        for c in kids:
            show(c, indent + 1)

    print(f"relay tree: {args.racks} racks x {args.per_rack} hosts, "
          f"fanout {args.fanout}")
    show(root, 0)

    payload = make_payload(args.object_kb * 1024, CHUNK)
    dist = env.bulk_distributor(root, fanout=args.fanout)
    proc = dist.distribute("demo", payload, dests, chunk_size=CHUNK,
                           strategy="tree", deadline=60.0)
    hosts = [root] + sorted(h for h in env.topology.hosts if h != root)
    nics = [(f"{h}:{i}", nic) for h in hosts
            for i, nic in sorted(env.topology.hosts[h].nics.items())]
    tx0 = [nic.tx_bytes for _, nic in nics]
    lookups = env.sim.obs.metrics.counter("rcds.lookups")
    lookups0 = lookups.value
    report = env.run(until=proc)
    print(f"\ndistributed {report['bytes'] / 1024:.0f} KiB "
          f"({report['nchunks']} chunks) to "
          f"{report['completed']}/{report['hosts']} hosts in "
          f"{report['elapsed']:.2f}s "
          f"({report['aggregate_goodput'] / 1e6:.2f} MB/s aggregate)")
    for d in sorted(report["per_dest"]):
        r = report["per_dest"][d]
        srcs = ", ".join(
            f"{h[0] if isinstance(h, tuple) else h}:{b / 1024:.0f}KiB"
            for h, b in sorted(r.get("bytes_by_source", {}).items())
        )
        print(f"  {d:8s} ok={r.get('ok')} "
              f"verified={r.get('hash_ok')} "
              f"retries={r.get('chunk_retries', 0)} from [{srcs}]")
    # Per-NIC load: the busiest uplink bounds the makespan. The root's
    # share includes the catalog replies behind the lookups counted here.
    print(f"\ncatalog lookups served: {lookups.value - lookups0:.0f}")
    print("tx object copies per NIC (bytes sent / object size):")
    for (label, nic), before in zip(nics, tx0):
        print(f"  {label:10s} {(nic.tx_bytes - before) / report['bytes']:.2f}")
    return 0 if report["completed"] == len(dests) else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro bulk",
                                     description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    p_tree = sub.add_parser("tree", help="show the relay tree, run one fan-out")
    p_tree.add_argument("--racks", type=int, default=4)
    p_tree.add_argument("--per-rack", type=int, default=4)
    p_tree.add_argument("--fanout", type=int, default=2)
    p_tree.add_argument("--object-kb", type=int, default=512)
    p_tree.add_argument("--seed", type=int, default=1)
    return _cmd_tree(parser.parse_args(argv))


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
