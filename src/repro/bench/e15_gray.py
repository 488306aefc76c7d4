"""E15 — gray-failure detection: differential health vs heartbeat-only.

The gray chaos scenario (:func:`repro.robust.chaos.run_gray`) drives the
dual-homed chaos site through four simultaneous gray faults — a zombie
RC replica (CPU crawls, daemon heartbeats fine), a worker with ~30s of
clock skew, a bit-flipping segment, and a one-way core link cut — while
closed-loop catalog sessions measure goodput. None of the faults is
fail-stop; the lease detector alone cannot see any of them.

Each seed runs twice:

* **differential** — health boards score rpc/srudp/digest/heartbeat
  outcomes per (peer, iface), quarantine crossing peers, steer the path
  selector, and gate the Guardian's probe-before-death;
* **heartbeat-only** — the boards are inert and the Guardian trusts a
  lapsed lease without probing: the classic fail-stop detector.

Reported per (config, seed): goodput inside the zombie window, the
latency from zombie onset to its first quarantine, false lease-inferred
deaths, deaths averted by probe-before-death, and corruption accounting.
The experiment's claims: the differential detector quarantines the
zombie in seconds, declares **zero** false deaths where the baseline
declares many (every host stays up the whole run), and holds at least
``2x`` the baseline's goodput through the zombie window — detection
quality is goodput, not just alarms.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.bench.table import Tables, mean

#: (config name, differential detector on?).
CONFIGS = (("differential", True), ("heartbeat-only", False))


def gray_goodput(seeds: Sequence[int] = (1, 2, 3),
                 duration: float = 40.0) -> Tables:
    """Run the E15 matrix: table ``runs``, one metrics row per (config,
    seed); table ``summary``, the cross-seed aggregates."""
    from repro.robust.chaos import run_gray

    rows: List[Dict] = []
    for cname, differential in CONFIGS:
        for seed in seeds:
            report = run_gray(seed, duration=duration,
                              differential=differential, flight=False)
            det = report["detection_s"]
            rows.append({
                "config": cname,
                "seed": seed,
                "goodput_ops_s": round(report["goodput_ops_s"], 2),
                "detection_s": round(det, 2) if det is not None else None,
                "false_lease_deaths": report["false_lease_deaths"],
                "deaths_declared": report["deaths_declared"],
                "probe_saved": report["probe_saved"],
                "ckpt_rejected": report["ckpt_rejected"],
                "corrupt_dropped": report["rx_corrupt_dropped"],
                "corrupt_delivered": report["corrupt_delivered"],
                "ops_ok": report["ops_ok"],
                "ops_failed": report["ops_failed"],
                "sessions": report["sessions"],
                "completed_ok": report["ok"] if differential else None,
            })
    return {"runs": rows, "summary": [_summary(rows)]}


def _summary(rows: List[Dict]) -> Dict:
    """Cross-seed aggregates and the headline goodput ratio."""
    by = {c: [r for r in rows if r["config"] == c] for c, _ in CONFIGS}
    diff, base = by["differential"], by["heartbeat-only"]
    g_diff = mean([r["goodput_ops_s"] for r in diff])
    g_base = mean([r["goodput_ops_s"] for r in base])
    return {
        "goodput_differential_ops_s": round(g_diff, 2) if g_diff else None,
        "goodput_heartbeat_only_ops_s": round(g_base, 2) if g_base else None,
        "goodput_ratio": (round(g_diff / g_base, 2)
                          if g_diff and g_base else None),
        "detection_s_mean": round(
            mean([r["detection_s"] for r in diff]) or 0.0, 2),
        "false_deaths_differential": sum(r["false_lease_deaths"] for r in diff),
        "false_deaths_heartbeat_only": sum(r["false_lease_deaths"] for r in base),
    }
