"""E7 — multicast fault tolerance via majority registration (§5.4).

    "each process wishing to participate in a multicast group may
    register its membership in the group with multiple multicast
    routers… This is intended to ensure that there is at least one path
    from the sending process to each recipient process."

Workload: N member tasks join a group over a LAN+WAN site; we kill f of
the R routers, then multicast a message and count which surviving
members receive it. Two disciplines: SNIPE's majority registration /
majority send, and a single-router baseline.

Expected: majority discipline delivers to 100 % of surviving members for
any f < ⌈R/2⌉; the single-router baseline loses every member whose one
router died.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.bench.table import Tables
from repro.core.environment import SnipeEnvironment
from repro.daemon.mcast import MAJORITY, SINGLE
from repro.daemon.tasks import TaskSpec


def mcast_fault_tolerance(
    n_members: int = 8,
    router_kills: Sequence[int] = (0, 1, 2),
    seed: int = 0,
) -> Tables:
    """Table ``delivery``, rows {mode, routers, killed, members_alive,
    delivered, delivery_rate}."""
    rows: List[Dict] = []
    for mode in (MAJORITY, SINGLE):
        for kills in router_kills:
            env = SnipeEnvironment.lan_site(n_hosts=n_members, n_rc=3, seed=seed)
            delivered: List[str] = []

            @env.program("member")
            def member(ctx, name, join_mode, delay):
                # Joins are staggered so the router set stabilises at the
                # election target; simultaneous first joins would make
                # every host elect itself (an interesting but different
                # regime — see router_density_ablation).
                yield ctx.sleep(delay)
                yield ctx.join_group("alerts", mode=join_mode)
                msg = yield ctx.recv_group("alerts")
                delivered.append(name)
                return msg.payload

            @env.program("publisher")
            def publisher(ctx):
                yield ctx.join_group("alerts")
                yield ctx.sleep(2.0)
                n = yield ctx.send_group("alerts", {"warning": "storm"})
                return n

            for i in range(n_members - 1):
                env.spawn(
                    TaskSpec(
                        program="member",
                        params={"name": f"m{i}", "join_mode": mode, "delay": i * 0.5},
                    ),
                    on=f"h{i}",
                )
            env.settle(0.5 * n_members + 2.0)
            routers = sorted(
                name for name, d in env.daemons.items() if "alerts" in d.mcast.router_state
            )
            for victim in routers[:kills]:
                env.topology.hosts[victim].crash()
            alive_members = [
                f"m{i}" for i in range(n_members - 1)
                if env.topology.hosts[f"h{i}"].up
            ]
            env.spawn(TaskSpec(program="publisher"), on=f"h{n_members - 1}")
            env.run(until=env.sim.now + 20.0)
            got = [m for m in delivered if m in alive_members]
            rows.append(
                {
                    "mode": mode,
                    "routers": len(routers),
                    "killed": kills,
                    "members_alive": len(alive_members),
                    "delivered": len(got),
                    "delivery_rate": len(got) / len(alive_members) if alive_members else 0.0,
                }
            )
    return {"delivery": rows}


def router_density_ablation(
    min_routers_options: Sequence[int] = (1, 3, 5),
    n_members: int = 10,
    seed: int = 0,
) -> Tables:
    """Ablation: §5.4's election density. More routers ⇒ more relay
    traffic but survival of more simultaneous failures."""
    rows: List[Dict] = []
    for min_routers in min_routers_options:
        env = SnipeEnvironment.lan_site(n_hosts=n_members, n_rc=3, seed=seed)
        for daemon in env.daemons.values():
            daemon.mcast.min_routers = min_routers
        delivered = []

        @env.program("member")
        def member(ctx, name):
            yield ctx.join_group("g")
            yield ctx.recv_group("g")
            delivered.append(name)
            return "ok"

        @env.program("publisher")
        def publisher(ctx):
            yield ctx.join_group("g")
            yield ctx.sleep(2.0)
            yield ctx.send_group("g", "data")
            return "sent"

        for i in range(n_members - 1):
            env.spawn(TaskSpec(program="member", params={"name": f"m{i}"}), on=f"h{i}")
        env.settle(2.0)
        routers = [name for name, d in env.daemons.items() if "g" in d.mcast.router_state]
        env.spawn(TaskSpec(program="publisher"), on=f"h{n_members - 1}")
        env.run(until=env.sim.now + 20.0)
        relays = sum(d.mcast.relays for d in env.daemons.values())
        rows.append(
            {
                "min_routers": min_routers,
                "elected": len(routers),
                "delivered": len(delivered),
                "relay_ops": relays,
            }
        )
    return {"density": rows}
