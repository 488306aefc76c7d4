"""E6 — zero message loss during migration (§5.6).

    "Processes with open communications are guaranteed no loss of data
    while migration is in progress."

Workload: a streamer sends a numbered message every 50 ms to a collector
that migrates between hosts k times mid-stream. We count losses,
duplicates, and reorderings at the application level, and measure each
migration's service pause (last message consumed before the hop → first
consumed after).

Expected: 0 lost, 0 duplicated for every hop count; pauses bounded by
checkpoint + respawn + re-registration (well under a second here).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.bench.table import Tables
from repro.core.environment import SnipeEnvironment
from repro.daemon.tasks import TaskSpec


def migration_loss(
    hop_counts: Sequence[int] = (0, 1, 2, 3),
    n_msgs: int = 60,
    horizon: float = 600.0,
    seed: int = 0,
) -> Tables:
    """Table ``migration``, rows {hops, sent, received, lost, duplicated, reordered,
    max_pause_ms} per hop count. *horizon* is how long each site runs
    (virtual seconds) — far past the stream's end, so a late message
    would still be counted."""
    rows: List[Dict] = []
    for hops in hop_counts:
        env = SnipeEnvironment.lan_site(n_hosts=max(4, hops + 2), seed=seed, mcast=False)
        received: List[int] = []
        consume_times: List[float] = []
        hop_times: List[float] = []

        @env.program("collector")
        def collector(ctx, total, hop_at):
            got = ctx.checkpoint_state.get("got", 0)
            hops_done = ctx.checkpoint_state.get("hops_done", 0)
            while got < total:
                msg = yield ctx.recv(tag="data")
                received.append(msg.payload)
                consume_times.append(ctx.sim.now)
                got += 1
                ctx.checkpoint_state["got"] = got
                target_hop = hop_at.get(got)
                if target_hop is not None and hops_done == target_hop:
                    ctx.checkpoint_state["hops_done"] = hops_done + 1
                    hop_times.append(ctx.sim.now)
                    dest = f"h{(target_hop % (len(ctx.host.topology.hosts) - 1)) + 1}"
                    if (yield ctx.migrate(dest)):
                        return "migrated"
                    hops_done += 1
            return "complete"

        @env.program("streamer")
        def streamer(ctx, dst, total, interval):
            for i in range(total):
                yield ctx.send(dst, i, tag="data")
                yield ctx.sleep(interval)
            return "streamed"

        hop_at = {
            (i + 1) * n_msgs // (hops + 1): i for i in range(hops)
        }
        info = env.spawn(
            TaskSpec(program="collector", params={"total": n_msgs, "hop_at": hop_at}),
            on="h0",
        )
        env.settle(0.5)
        env.spawn(
            TaskSpec(
                program="streamer",
                params={"dst": info.urn, "total": n_msgs, "interval": 0.05},
            ),
            on=f"h{max(1, hops + 1)}",
        )
        env.run(until=horizon)
        lost = n_msgs - len(set(received))
        duplicated = len(received) - len(set(received))
        reordered = sum(1 for a, b in zip(received, received[1:]) if b < a)
        # Pause: longest consumption gap that brackets a migration.
        max_pause = 0.0
        for t_hop in hop_times:
            after = [t for t in consume_times if t > t_hop]
            if after:
                max_pause = max(max_pause, min(after) - t_hop)
        rows.append(
            {
                "hops": hops,
                "sent": n_msgs,
                "received": len(received),
                "lost": lost,
                "duplicated": duplicated,
                "reordered": reordered,
                "max_pause_ms": max_pause * 1e3,
            }
        )
    return {"migration": rows}
