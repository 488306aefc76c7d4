"""E11 — recovery MTTR: lease-based detection plus checkpoint restart.

    "... automatic restart of registered processes from checkpoints"
    (§5.2.3, §5.6)

Scenario: a checkpointing worker runs on a host that crashes at a known
instant. A Guardian detects the death when the host's heartbeat lease
lapses, fetches the latest checkpoint from the file service, and
respawns the task (with a higher incarnation) on a live host.

Measured, per lease TTL: time from the crash to detection
(``detect_s``) and to the respawned successor being registered
(``mttr_s``).  Both are bounded by the failure-detection window —

    bound = lease_ttl + scan_interval + grace + probe_timeout + slack

where probe_timeout is the Guardian's one confirmation round (every
interface of the suspect pinged at once) and slack covers checkpoint
fetch + RM placement + spawn.  Shorter
leases buy faster recovery at the price of more heartbeat traffic; the
table makes that dial visible.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.bench.table import Tables
from repro.core.checkpoint import checkpoint_to_files
from repro.core.environment import SnipeEnvironment
from repro.daemon.tasks import TaskSpec, TaskState
from repro.guardian.guardian import PROBE_TIMEOUT

#: Guardian scan cadence / post-lease grace used by the site below.
SCAN_INTERVAL = 1.0
GRACE = 0.5
#: Budget for checkpoint fetch + placement + respawn after detection.
SPAWN_SLACK = 3.0


def _site(lease_ttl: float, seed: int) -> SnipeEnvironment:
    env = SnipeEnvironment(seed=seed)
    env.add_segment("lan")
    for i in range(5):
        env.add_host(f"h{i}", segments=["lan"])
    env.add_rc_servers(["h0", "h1", "h2"])
    for i in range(5):
        env.boot_daemon(f"h{i}", lease_ttl=lease_ttl)
    env.add_rm("h0")
    env.add_file_server("h0")
    env.add_file_server("h1")
    env.add_guardian("h1", scan_interval=SCAN_INTERVAL, grace=GRACE)
    env.add_guardian("h2", scan_interval=SCAN_INTERVAL, grace=GRACE)

    @env.program("worker")
    def worker(ctx, total, ckpt_every):
        i = ctx.checkpoint_state.get("i", 0)
        if i == 0:
            yield checkpoint_to_files(ctx)
        while i < total:
            yield ctx.compute(0.2)
            i += 1
            ctx.checkpoint_state["i"] = i
            if i % ckpt_every == 0:
                yield checkpoint_to_files(ctx)
        return i

    env.settle(2.0)
    return env


def recovery_mttr(lease_ttls: Sequence[float] = (1.5, 3.0, 6.0),
                  seed: int = 7) -> Tables:
    """One crash-and-recover episode per lease TTL; table ``mttr``."""
    rows: List[Dict] = []
    for lease_ttl in lease_ttls:
        env = _site(lease_ttl, seed=seed)
        work = env.spawn(
            TaskSpec(program="worker", params={"total": 40, "ckpt_every": 5}),
            on="h4",
        )
        crash_at = env.sim.now + 2.0
        env.failures.host_down_at(crash_at, "h4")
        env.run(until=crash_at + 60.0)

        recs = [r for g in env.guardians.values() for r in g.recoveries
                if r["urn"] == work.urn]
        assert len(recs) == 1, f"lease_ttl={lease_ttl}: {recs}"
        rec = recs[0]
        revived = env.daemons[rec["to"]].tasks[work.urn]
        assert revived.state == TaskState.EXITED and revived.exit_value == 40
        detect_s = rec["detected_at"] - crash_at
        mttr_s = rec["recovered_at"] - crash_at
        bound_s = lease_ttl + SCAN_INTERVAL + GRACE + PROBE_TIMEOUT + SPAWN_SLACK
        rows.append({
            "lease_ttl_s": lease_ttl,
            "detect_s": round(detect_s, 3),
            "mttr_s": round(mttr_s, 3),
            "bound_s": round(bound_s, 3),
            "within_bound": mttr_s <= bound_s,
        })
    return {"mttr": rows}
