"""E2 — MPI_Connect vs PVMPI point-to-point performance (§6.1).

    "This system proved easier to maintain (no virtual machine to
    disappear) and also offered a slightly higher point-to-point
    communication performance."

Two MPI applications on two MPPs exchange ping-pongs across the WAN,
once bridged through PVM (task → pvmd → pvmd → task, plus the loopback
copies into and out of the daemons) and once through SNIPE (direct
task-to-task SRUDP). Expected: MPI_Connect wins by a modest factor at
every size — "slightly higher", not an order of magnitude.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.bench.table import Tables
from repro.bench.topologies import two_mpp_site
from repro.mpi import MpiConnectBridge, MpiJob, PvmpiBridge

DEFAULT_SIZES = [1_024, 16_384, 131_072, 1_048_576]


def _pingpong(site, bridges, size: int, n_msgs: int):
    """Measured inter-MPP ping-pong between rank 0 of each application."""
    sim = site["sim"]
    rtts: List[float] = []

    def app_a(mpi):
        bridge = bridges["A"]
        yield bridge.register()
        remote = yield bridge.connect("B")
        # Warm-up exchange, then measured rounds.
        for i in range(n_msgs + 1):
            t0 = sim.now
            yield bridge.send(0, remote, 0, None, tag=1, size=size)
            yield bridge.recv(0, tag=2)
            if i > 0:
                rtts.append(sim.now - t0)
        return "done"

    def app_b(mpi):
        bridge = bridges["B"]
        yield bridge.register()
        remote = yield bridge.connect("A")
        for _ in range(n_msgs + 1):
            yield bridge.recv(0, tag=1)
            yield bridge.send(0, remote, 0, None, tag=2, size=size)
        return "done"

    job_a = MpiJob(sim, site["mpp_a"][:1], app_a, name="A")
    job_b = MpiJob(sim, site["mpp_b"][:1], app_b, name="B")
    bridges["A"] = bridges["make"](site, job_a, "A")
    bridges["B"] = bridges["make"](site, job_b, "B")
    sim.run(until=sim.all_of([job_a.procs[0], job_b.procs[0]]))
    return rtts


def mpiconnect_vs_pvmpi(
    sizes: Optional[Sequence[int]] = None, n_msgs: int = 4, seed: int = 0
) -> Tables:
    """Table ``pingpong``, rows {bridge, size, rtt_ms, bandwidth_mbps} for
    both systems; table ``speedup``, the per-size ratio."""
    sizes = list(sizes or DEFAULT_SIZES)
    rows: List[Dict] = []
    for size in sizes:
        site = two_mpp_site(nodes_per_mpp=2, seed=seed)
        bridges = {"make": lambda s, job, name: PvmpiBridge(job, s["pvmds"], name)}
        p_rtts = _pingpong(site, bridges, size, n_msgs)

        site = two_mpp_site(nodes_per_mpp=2, seed=seed, pvm=False)
        bridges = {
            "make": lambda s, job, name: MpiConnectBridge(job, s["rc_replicas"], name)
        }
        m_rtts = _pingpong(site, bridges, size, n_msgs)

        for name, rtts in (("pvmpi", p_rtts), ("mpi_connect", m_rtts)):
            best = min(rtts)
            rows.append(
                {
                    "bridge": name,
                    "size": size,
                    "rtt_ms": best * 1e3,
                    # One-way bandwidth from half the round trip.
                    "bandwidth_mbps": size / (best / 2) / 1e6,
                }
            )
    return {"pingpong": rows, "speedup": _speedup(rows)}


def _speedup(rows: List[Dict]) -> List[Dict]:
    """Per-size MPI_Connect/PVMPI speedup factors (should be >1, modest)."""
    by_size: Dict[int, Dict[str, float]] = {}
    for row in rows:
        by_size.setdefault(row["size"], {})[row["bridge"]] = row["rtt_ms"]
    return [
        {
            "size": size,
            "pvmpi_rtt_ms": pair["pvmpi"],
            "mpi_connect_rtt_ms": pair["mpi_connect"],
            "speedup": pair["pvmpi"] / pair["mpi_connect"],
        }
        for size, pair in sorted(by_size.items())
        if "pvmpi" in pair and "mpi_connect" in pair
    ]
