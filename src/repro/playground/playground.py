"""The playground proper: verify, confine, meter, run (§3.6, §5.8).

Flow for ``spec.mobile_code = <lifn>``:

1. **download** the code bundle from the replicated file service (the
   read verifies the LIFN's content hash — integrity);
2. **verify authenticity**: the bundle is signed; the signer must be
   trusted for the "sign-code" purpose in this playground's policy;
3. **verify rights**: the rights the code *declares* must be within what
   this playground *grants* that signer;
4. **run confined**: SnipeScript in the VM, in slices charged to the
   task's CPU account, with step/memory quotas and a syscall table
   containing exactly the granted rights. Violations are logged with the
   daemon (§3.6 "logging access violations and excess resource use").

VM snapshots land in the task's ``checkpoint_state`` after every slice,
so mobile code is checkpointable and migratable for free — the §5.8
"hooks for checkpointing, restart, and process migration".
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple

from repro.daemon.daemon import SnipeDaemon, SpawnError
from repro.daemon.tasks import QuotaExceeded, TaskInfo, TaskSpec, new_task_urn
from repro.files.client import FileClient, FileError
from repro.playground.lang import CompileError, compile_source
from repro.playground.vm import SnipeVM, VmError, VmQuotaError
from repro.rcds import uri as uri_mod
from repro.security.hashes import canonical_bytes
from repro.security.keys import KeyPair, sign, verify
from repro.security.trust import TrustPolicy
from repro.sim.events import defuse

#: VM instructions run between two flushes of queued side effects, and
#: the simulated CPU seconds one instruction costs.
SLICE_STEPS, SEC_PER_STEP = 2000, 1e-6
#: Instruction and memory-cell budgets of a spec that sets no quota.
DEFAULT_MAX_STEPS, DEFAULT_MAX_CELLS = 10_000_000, 100_000

class CodeVerificationError(Exception):
    """Bad signature, untrusted signer, or rights exceeding the grant."""


def sign_mobile_code(
    source: str, signer_urn: str, signer_keys: KeyPair, rights: Tuple[str, ...] = ()
) -> Dict[str, Any]:
    """Produce a signed code bundle suitable for a file server."""
    body = canonical_bytes(
        {"source": source, "signer": signer_urn, "rights": tuple(rights)}
    )
    return {
        "source": source,
        "signer": signer_urn,
        "rights": tuple(rights),
        "signature": sign(signer_keys, body),
    }


class Playground:
    """Per-host mobile-code executor, attached to the host's daemon."""

    def __init__(
        self,
        daemon: SnipeDaemon,
        trust: TrustPolicy,
        grants: Optional[Dict[str, Set[str]]] = None,
    ) -> None:
        self.daemon = daemon
        self.sim = daemon.sim
        self.host = daemon.host
        self.trust = trust
        #: signer URN -> set of rights this playground grants that signer.
        self.grants = grants or {}
        self.files = FileClient(daemon.host, daemon.rc)
        self.runs = 0
        self.rejections = 0
        daemon.playground = self
        if daemon.rc is not None:
            # Advertise capabilities in RC metadata (§5.8: "a playground's
            # capabilities are therefore advertised as RCDS metadata").
            defuse(
                self.sim.process(self._advertise(), name=f"pg-adv:{self.host.name}")
            )

    def _advertise(self):
        yield self.daemon.rc.update(
            uri_mod.host_url(self.host.name),
            {
                "playground": {
                    "languages": ["snipescript"],
                    "quotas": True,
                    "checkpointing": True,
                }
            },
        )

    # -- verification ---------------------------------------------------------
    def verify_bundle(self, bundle: Dict[str, Any]) -> None:
        """Authenticity + rights checks; raises on any failure."""
        signer = bundle.get("signer")
        rights = tuple(bundle.get("rights", ()))
        body = canonical_bytes(
            {"source": bundle.get("source"), "signer": signer, "rights": rights}
        )
        if not self.trust.trusts(signer, "sign-code"):
            self.rejections += 1
            raise CodeVerificationError(f"signer {signer!r} not trusted for sign-code")
        key = self.trust.anchor_key(signer)
        if key is None or not verify(key, body, bundle.get("signature", 0)):
            self.rejections += 1
            raise CodeVerificationError(f"signature from {signer!r} invalid")
        granted = self.grants.get(signer, set())
        excess = set(rights) - granted
        if excess:
            self.rejections += 1
            raise CodeVerificationError(
                f"code requests rights {sorted(excess)} beyond the grant"
            )

    # -- spawn path (called by the daemon) -------------------------------------
    def spawn_mobile(self, spec: TaskSpec) -> TaskInfo:
        info = TaskInfo(
            urn=new_task_urn(spec, self.host.name, sim=self.sim),
            spec=spec,
            host=self.host.name,
            started_at=self.sim.now,
        )
        ctx = self.daemon.context_factory(self.daemon, info)
        self.daemon._launch(info, ctx, self._run_mobile(ctx, spec))
        return info

    # -- execution -------------------------------------------------------------
    def _syscall_table(self, ctx, rights: Set[str], outbox: List) -> Dict[str, Any]:
        """Host calls available to the VM, gated on granted rights.

        Side-effecting calls queue their effect; the run loop flushes the
        queue between slices (syscalls themselves must be synchronous).
        """
        table: Dict[str, Any] = {
            "hostname": lambda: self.host.name,
        }
        if "clock" in rights:
            table["now"] = lambda: self.sim.now
        if "metadata" in rights:
            table["publish"] = lambda k, v: (outbox.append(("publish", k, v)), 0)[1]
        if "net" in rights:
            table["send"] = lambda dst, payload: (
                outbox.append(("send", dst, payload)),
                0,
            )[1]

        def denied(name):
            def call(*_args):
                self.daemon.log_violation(ctx.urn, f"syscall:{name}")
                raise VmError(f"syscall {name!r} denied: missing right")

            return call

        for name, right in (("now", "clock"), ("publish", "metadata"), ("send", "net")):
            if name not in table:
                table[name] = denied(name)
        return table

    def _run_mobile(self, ctx, spec: TaskSpec):
        # 1-2-3: download, verify, check rights.
        try:
            result = yield self.files.read(spec.mobile_code)
        except FileError as exc:
            raise SpawnError(f"mobile code {spec.mobile_code!r}: {exc}") from None
        bundle = result["payload"]
        self.verify_bundle(bundle)
        rights = set(bundle.get("rights", ()))
        try:
            code = compile_source(bundle["source"])
        except CompileError as exc:
            raise SpawnError(f"mobile code does not compile: {exc}") from None
        # 4: confine and meter.
        max_steps = DEFAULT_MAX_STEPS
        if spec.cpu_quota is not None:
            max_steps = int(spec.cpu_quota / SEC_PER_STEP)
        max_cells = DEFAULT_MAX_CELLS
        if spec.memory_quota is not None:
            max_cells = int(spec.memory_quota)
        outbox: List = []
        vm = SnipeVM(code, max_steps=max_steps, max_cells=max_cells,
                     syscalls=self._syscall_table(ctx, rights, outbox))
        snap = ctx.checkpoint_state.get("vm")
        if snap is not None:
            vm.restore(snap)  # resuming after migration/restart
        self.runs += 1
        while True:
            try:
                done = vm.run(max_slice=SLICE_STEPS)
            except VmQuotaError as exc:
                self.daemon.log_violation(ctx.urn, "vm-quota")
                raise QuotaExceeded(f"{ctx.urn}: {exc}") from None
            ctx.checkpoint_state["vm"] = vm.snapshot()
            # Flush queued side effects between slices.
            while outbox:
                effect = outbox.pop(0)
                if effect[0] == "publish":
                    yield ctx.publish({effect[1]: effect[2]})
                elif effect[0] == "send":
                    yield ctx.send(effect[1], effect[2], tag="mobile")
            if done:
                break
            yield ctx.compute(SLICE_STEPS * SEC_PER_STEP)
        results_to = spec.params.get("results_to")
        if results_to:
            yield ctx.send(results_to, list(vm.output), tag="mobile-results")
        return list(vm.output)
