"""Checkpoint/restart via the file service (§5.6).

    "Temporary storage of state is provided by the SNIPE file servers."

A task's ``checkpoint_state`` (which, for playground tasks, includes the
whole VM image) can be written to the replicated file service under a
LIFN and later restarted on any suitable host — surviving even the
death of the original host, which in-band migration cannot.

Checkpoints are *digest-verified* and *versioned*: each record carries a
content hash computed before it leaves the writer, and successive
checkpoints go to fresh versioned LIFNs with the task's RC record
rotating ``checkpoint-lifn`` / ``checkpoint-prev-lifn`` pointers. A
gray storage fault that corrupts a checkpoint on its way to disk is
therefore detected at restart time (the digest no longer matches) and
recovery falls back to the previous good version instead of silently
respawning from garbage — or, worse, crash-looping on an unreadable
record while the one-before-last sits there intact.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.daemon.daemon import DAEMON_PORT
from repro.daemon.tasks import TaskSpec
from repro.files.client import FileClient
from repro.rcds.client import QUORUM
from repro.rpc import RpcClient, payload_size
from repro.security.hashes import content_hash
from repro.sim.events import defuse

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.process import SnipeContext
    from repro.net.host import Host
    from repro.rcds.client import RCClient


class CheckpointCorrupt(Exception):
    """A checkpoint record failed digest verification."""


def checkpoint_lifn(urn: str, version: Optional[int] = None) -> str:
    """Checkpoint file name for a process URN.

    Without *version* this is the task's base name (useful for tests and
    ad-hoc writes); :func:`checkpoint_to_files` writes versioned names so
    a corrupt write never destroys the last good checkpoint.
    """
    name = urn.rsplit(":", 1)[-1]
    if version is None:
        return f"checkpoints/{name}.ckpt"
    return f"checkpoints/{name}.v{version}.ckpt"


def record_digest(record: dict) -> str:
    """Content hash of a checkpoint record, excluding the digest itself."""
    return content_hash({k: v for k, v in record.items() if k != "digest"})


def seal_record(record: dict, host=None, scramble_key: str = "state") -> dict:
    """Stamp a content digest on *record* (in place) and model the
    ``corrupt_ckpt_writes`` gray fault: when *host* is under it, the
    *scramble_key* field is scrambled **after** digesting — the
    in-memory record was fine, the bytes that landed are not — so the
    reader's digest check is what catches the rot.

    Shared by the file-service checkpoint writer and the RC catalog's
    durable snapshot/journal, so both storage paths fail the same way.
    """
    record["digest"] = record_digest(record)
    if host is not None and getattr(host, "corrupt_ckpt_writes", False):
        record[scramble_key] = {"__bitrot__": host.sim.now}
    return record


def verify_checkpoint_record(record: dict) -> bool:
    """True iff the record's embedded digest matches its content.

    Records without a digest (written by pre-digest code or hand-rolled
    tests) are accepted: verification can only vouch for records whose
    writer stamped one.
    """
    if not isinstance(record, dict):
        return False
    digest = record.get("digest")
    if digest is None:
        return True
    try:
        return record_digest(record) == digest
    except Exception:
        return False


def spec_from_record(record: dict) -> TaskSpec:
    """Reconstruct a spawnable :class:`TaskSpec` from a checkpoint record,
    under the task's own URN.

    Used by :func:`restart_from_files` and by the Guardian when it
    respawns a dead task on a fresh host.
    """
    return TaskSpec(
        program=record["program"],
        params=record["params"],
        arch=record["arch"],
        os=record["os"],
        min_memory=record["min_memory"],
        cpu_quota=record["cpu_quota"],
        memory_quota=record["memory_quota"],
        mobile_code=record["mobile_code"],
        owner=record["owner"],
        initial_state=dict(record["state"]),
        urn_override=record["urn"],
    )


def checkpoint_to_files(ctx: "SnipeContext", lifn: Optional[str] = None, replicas: int = 2):
    """Write this task's checkpoint to the file service (a process).

    The stored record carries everything needed to respawn: the spec's
    program/params/requirements and the application state. The write goes
    synchronously to up to *replicas* file servers — a checkpoint that
    only exists on the host about to die is no checkpoint at all.
    Returns the LIFN used.

    Each call writes a *fresh versioned* LIFN and rotates the task's
    ``checkpoint-lifn`` / ``checkpoint-prev-lifn`` catalog pointers, so
    the previous good checkpoint survives a corrupting write. The record
    embeds a content digest (stamped before the bytes leave this host);
    if the host is under a ``corrupt_ckpt_writes`` gray fault the state
    is scrambled *after* digesting, exactly as bit-rot between memory
    and disk would leave it.
    """
    if lifn is None:
        version = ctx.sim.sequence(f"ckpt:{ctx.urn}")
        lifn = checkpoint_lifn(ctx.urn, version=version)
    spec = ctx.info.spec
    record = {
        "urn": ctx.urn,
        "program": spec.program,
        "params": spec.params,
        "arch": spec.arch,
        "os": spec.os,
        "min_memory": spec.min_memory,
        "cpu_quota": spec.cpu_quota,
        "memory_quota": spec.memory_quota,
        "mobile_code": spec.mobile_code,
        "owner": spec.owner,
        "state": dict(ctx.checkpoint_state),
        "taken_at": ctx.sim.now,
    }
    seal_record(record, ctx.host, scramble_key="state")
    if getattr(ctx.host, "corrupt_ckpt_writes", False):
        tracer = ctx.sim.obs.tracer
        if tracer.enabled:
            tracer.event("ckpt.corrupt_write", urn=ctx.urn, lifn=lifn)

    def go():
        fc = FileClient(ctx.host, ctx.rc)
        servers = yield fc.file_servers()
        # Local server first (cheap), then others for durability.
        servers.sort(key=lambda s: (s[0] != ctx.host.name, s[0]))
        written = 0
        size = payload_size(record)
        for server in servers:
            if written >= replicas:
                break
            try:
                yield fc.write(lifn, record, size, server=server)
                written += 1
            except Exception:
                continue
        if written == 0:
            raise RuntimeError(f"checkpoint {lifn!r}: no file server reachable")
        # Register the checkpoint in the process's own metadata so a
        # resource manager or Guardian can find it after the host dies.
        # The outgoing current pointer becomes the previous-good pointer:
        # a Guardian that rejects the new record on digest grounds falls
        # back to it.
        assertions = {"checkpoint-lifn": lifn, "checkpoint-at": ctx.sim.now}
        prev = getattr(ctx, "_ckpt_lifn", None)
        if prev is not None and prev != lifn:
            assertions["checkpoint-prev-lifn"] = prev
        # Quorum write: a versioned pointer registered only on the local
        # replica dies with the host — the one failure checkpoints exist
        # to survive. Fall back to ONE if no quorum is reachable (a
        # slightly stale pointer beats no checkpoint at all).
        try:
            yield ctx.rc.update(ctx.urn, assertions, consistency=QUORUM)
        except Exception:
            yield ctx.rc.update(ctx.urn, assertions)
        ctx._ckpt_lifn = lifn
        # A checkpointed task is recoverable — from now on a Guardian may
        # respawn it, so watch for the fence that would make us a zombie.
        if hasattr(ctx, "enable_supervision"):
            ctx.enable_supervision()
        return lifn

    # Defused: a task killed mid-checkpoint leaves the write running with
    # nobody waiting on it. If that orphan then fails, recovery already
    # falls back on the previous checkpoint, so the failure must not
    # abort the run as an uncaught crash; a live caller still gets it.
    return defuse(ctx.sim.process(go(), name=f"ckpt:{ctx.urn}"))


def restart_from_files(host: "Host", rc: "RCClient", lifn: str):
    """Restart a checkpointed task on *host* from its stored state.

    Returns a process yielding the task's URN. The restarted task
    resumes from ``checkpoint_state`` exactly as a migrated one would.
    """

    def go():
        fc = FileClient(host, rc)
        got = yield fc.read(lifn)
        record = got["payload"]
        if not verify_checkpoint_record(record):
            host.sim.obs.metrics.counter("ckpt.verify_failures").inc()
            raise CheckpointCorrupt(f"checkpoint {lifn!r} failed digest verification")
        spec = spec_from_record(record)
        client = RpcClient(host)
        try:
            result = yield client.call(
                host.name, DAEMON_PORT, "daemon.spawn", spec=spec, direct=True
            )
        finally:
            client.close()
        return result["urn"]

    return host.sim.process(go(), name=f"restart:{lifn}")
