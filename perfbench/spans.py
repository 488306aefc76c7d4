"""Span recorder and layer boundaries for the traced pass.

Nothing here is compiled into the product. For one extra repeat the
benchmark wraps, at run time and by public name only, the calls that
cross into each layer (the ``LAYER_BOUNDARIES`` table), the generator
bodies the kernel resumes (through ``Simulator.process``, attributed by
process-name prefix), wheel-timer callbacks, RPC handlers and
port-binding handlers. Every wrapped call records one span — name,
start, end, parent — into in-memory arrays; a layer's *self* time is its
spans' duration minus the part their child spans cover, so the layers
partition the measured phase and what nothing claims is reported as
``other``, not hidden.

A boundary that no longer exists fails the traced pass by name instead
of silently reporting zero.
"""

from __future__ import annotations

import importlib
import sys
from array import array
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: Layer names (package names), in the order they are reported.
LAYERS = (
    "sim", "net", "transport.srudp", "transport.stream", "rpc",
    "rcds.client", "rcds.records", "rcds.server", "rcds.shard",
    "bulk", "security", "core", "daemon", "guardian", "rm", "files", "robust", "obs",
    "other",
)

#: (module, class or None, attribute, layer): calls wrapped as-is.
LAYER_BOUNDARIES: Tuple[Tuple[str, Optional[str], str, str], ...] = (
    ("repro.sim.kernel", "Simulator", "run", "sim"),
    ("repro.sim.kernel", "Simulator", "step", "sim"),
    ("repro.net.nic", "NIC", "send", "net"),
    ("repro.net.nic", "NIC", "receive", "net"),
    ("repro.net.segment", "Segment", "propagate", "net"),
    ("repro.net.host", "Host", "deliver", "net"),
    ("repro.net.topology", "Topology", "route", "net"),
    ("repro.transport.srudp", "SrudpEndpoint", "send", "transport.srudp"),
    ("repro.transport.stream", "StreamEndpoint", "send", "transport.stream"),
    ("repro.rpc", "RpcClient", "call", "rpc"),
    ("repro.rcds.records", "RCStore", "local_update", "rcds.records"),
    ("repro.rcds.records", "RCStore", "local_delete", "rcds.records"),
    ("repro.rcds.records", "RCStore", "apply_remote", "rcds.records"),
    ("repro.rcds.records", "RCStore", "lookup", "rcds.records"),
    ("repro.rcds.records", "RCStore", "query", "rcds.records"),
    ("repro.rcds.records", "RCStore", "install_entries", "rcds.records"),
    ("repro.rcds.records", "RCStore", "compact", "rcds.records"),
    ("repro.rcds.shard.map", "ShardMap", "route", "rcds.shard"),
    ("repro.bulk.chunks", None, "split_chunks", "bulk"),
    ("repro.bulk.chunks", None, "chunk_digests", "bulk"),
    ("repro.bulk.chunks", "ChunkMap", "from_assertions", "bulk"),
    ("repro.core.checkpoint", None, "seal_record", "core"),
    ("repro.core.checkpoint", None, "verify_checkpoint_record", "core"),
    ("repro.security.hashes", None, "canonical_bytes", "security"),
    ("repro.security.hashes", None, "content_hash", "security"),
    ("repro.security.hashes", None, "hmac_tag", "security"),
    ("repro.security.hashes", None, "verify_hmac", "security"),
    ("repro.robust.overload", "AdaptiveTimeouts", "timeout_for", "robust"),
    ("repro.robust.overload", "AdaptiveTimeouts", "observe", "robust"),
    ("repro.robust.overload", "BreakerBoard", "allow", "robust"),
    ("repro.robust.overload", "BreakerBoard", "record", "robust"),
    ("repro.robust.overload", "LaneStore", "try_put", "robust"),
    ("repro.robust.health", "HealthBoard", "note_outcome", "robust"),
    ("repro.obs.metrics", "Histogram", "observe", "obs"),
    ("repro.obs.tracing", "Tracer", "event", "obs"),
)

#: Process-name / timer-owner prefix -> layer, longest prefix wins. These
#: are the names ``KernelProfiler`` parses into subsystems; generator
#: bodies have no other public handle.
PROCESS_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("nic", "net"), ("fail:", "net"), ("churn", "net"),
    ("srudp", "transport.srudp"), ("tcp", "transport.stream"),
    ("rpc", "rpc"), ("call:", "rpc"),
    ("rc.", "rcds.client"), ("lifn.", "rcds.client"), ("service-locations", "rcds.client"),
    ("rc-sync", "rcds.server"), ("rc-compact", "rcds.server"), ("rc:", "rcds.server"),
    ("rc-shard", "rcds.shard"), ("shard-", "rcds.shard"),
    ("bulk", "bulk"),
    ("ctx-", "core"), ("ckpt", "core"), ("task:", "core"), ("compute", "core"),
    ("fence-watch", "core"), ("restart", "core"), ("migrate", "core"), ("relay", "core"),
    ("watch", "core"),
    ("daemon", "daemon"), ("notify", "daemon"), ("mcast", "daemon"),
    ("guardian", "guardian"),
    ("rm-", "rm"),
    ("fs-", "files"), ("fread", "files"), ("fwrite", "files"), ("repl", "files"),
    ("source", "files"), ("sink", "files"),
    ("pb-", "other"),
)

#: Module prefix of an RPC handler -> layer.
HANDLER_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("repro.rcds.shard", "rcds.shard"), ("repro.rcds", "rcds.server"),
    ("repro.bulk", "bulk"), ("repro.daemon", "daemon"), ("repro.guardian", "guardian"),
    ("repro.rm", "rm"), ("repro.files", "files"), ("repro.core", "core"),
)

#: Transport protocol of a port binding -> layer of its frame handler.
PROTO_LAYERS = {"srudp": "transport.srudp", "tcp": "transport.stream"}


def _by_prefix(table: Sequence[Tuple[str, str]], text: str) -> Optional[str]:
    best, best_len = None, -1
    for prefix, layer in table:
        if len(prefix) > best_len and text.startswith(prefix):
            best, best_len = layer, len(prefix)
    return best


def self_times(names: Sequence[Any], starts: Sequence[float], ends: Sequence[float],
               parents: Sequence[int]) -> Dict[Any, Dict[str, float]]:
    """Per span name: count, total and self seconds.

    *parents* holds each span's parent index (-1 for a root). Spans obey
    stack discipline (a child lies inside its parent and siblings do not
    overlap), so self = duration - sum of direct children's durations.
    """
    covered = [0.0] * len(starts)
    for i, parent in enumerate(parents):
        if parent >= 0:
            covered[parent] += ends[i] - starts[i]
    out: Dict[Any, Dict[str, float]] = {}
    for i, name in enumerate(names):
        row = out.get(name)
        if row is None:
            row = out[name] = {"count": 0, "total_s": 0.0, "self_s": 0.0}
        duration = ends[i] - starts[i]
        row["count"] += 1
        row["total_s"] += duration
        row["self_s"] += duration - covered[i]
    return out


class Recorder:
    """In-memory span store plus the handful of counts only a wrapper at
    the boundary can take."""

    def __init__(self) -> None:
        self.on = False
        self.names: List[str] = []
        self.layers: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self._stack: List[int] = []
        #: Bytes handed to a transport ``send`` for another host (application
        #: payload that has to cross a wire).
        self.app_bytes = 0
        #: ``Topology.route`` calls that had to compute (cache misses);
        #: counted whenever the wrappers are installed, set-up included.
        self.route_computes = 0
        #: Process / timer names no PROCESS_LAYERS prefix matched.
        self.unmapped: List[str] = []

    def span_id(self, name: str, layer: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
        return nid

    def begin(self, nid: int) -> int:
        idx = len(self.start)
        stack = self._stack
        self.name_id.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.end.append(0.0)
        stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    # -- results ------------------------------------------------------------
    def by_name(self) -> Dict[str, Dict[str, float]]:
        rows = self_times(self.name_id, self.start, self.end, self.parent)
        return {self.names[nid]: {**row, "layer": self.layers[nid]}
                for nid, row in rows.items()}

    @staticmethod
    def layer_self_s(by_name: Dict[str, Dict[str, float]]) -> Dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for row in by_name.values():
            out[row["layer"]] += row["self_s"]
        return out

    def dump(self, by_name: Dict[str, Dict[str, float]], limit: int = 50_000) -> Dict[str, Any]:
        """JSON-ready: the per-name table and the first *limit* raw spans."""
        n = min(limit, len(self.start))
        return {
            "spans_recorded": len(self.start),
            "by_name": by_name,
            "unmapped_process_names": self.unmapped,
            "spans": [[self.names[self.name_id[i]], self.start[i], self.end[i], self.parent[i]]
                      for i in range(n)],
        }


def _traced_gen(rec: Recorder, nid: int, gen):
    """Drive *gen*, recording one span per resume while tracing is on."""
    value: Any = None
    exc: Optional[BaseException] = None
    while True:
        idx = rec.begin(nid) if rec.on else -1
        try:
            item = gen.send(value) if exc is None else gen.throw(exc)
        except StopIteration as stop:
            return stop.value
        finally:
            if idx >= 0:
                rec.finish(idx)
        try:
            value, exc = (yield item), None
        except BaseException as thrown:  # Interrupt, GeneratorExit: pass through
            exc = thrown


def _plain(rec: Recorder, nid: int, fn: Callable) -> Callable:
    def wrapper(*args, **kwargs):
        if not rec.on:
            return fn(*args, **kwargs)
        idx = rec.begin(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.finish(idx)

    wrapper.__wrapped__ = fn
    return wrapper


class Installer:
    """Installs every wrapper, and puts every original back."""

    def __init__(self, rec: Recorder) -> None:
        self.rec = rec
        self._undo: List[Callable[[], None]] = []
        self._heads: Dict[Tuple[str, str], int] = {}

    # -- plumbing -----------------------------------------------------------
    @staticmethod
    def _resolve(module: str, cls: Optional[str], attr: str):
        where = f"{module}.{cls + '.' if cls else ''}{attr}"
        try:
            owner = importlib.import_module(module)
            if cls is not None:
                owner = getattr(owner, cls)
            raw = vars(owner)[attr]
        except (ImportError, AttributeError, KeyError):
            raise LookupError(f"perfbench: layer boundary {where} is missing") from None
        return owner, raw, where

    def _set(self, owner, attr: str, new, old) -> None:
        setattr(owner, attr, new)
        self._undo.append(lambda: setattr(owner, attr, old))

    def _rebind_everywhere(self, old, new) -> None:
        """Module-level functions are imported by name into their users;
        swap every such binding inside the product and the benchmark."""
        for name, module in list(sys.modules.items()):
            if module is None or not name.startswith(("repro", "perfbench")):
                continue
            for attr, value in list(vars(module).items()):
                if value is old:
                    self._set(module, attr, new, old)

    def _wrap_method(self, module: str, cls: str, attr: str,
                     make: Callable[[Callable], Callable]) -> None:
        owner, raw, _where = self._resolve(module, cls, attr)
        if isinstance(raw, (classmethod, staticmethod)):
            new = type(raw)(make(raw.__func__))
        else:
            new = make(raw)
        self._set(owner, attr, new, raw)

    # -- the wrappers -------------------------------------------------------
    def install(self) -> "Installer":
        rec = self.rec
        for module, cls, attr, layer in LAYER_BOUNDARIES:
            nid = rec.span_id(f"{cls + '.' if cls else ''}{attr}", layer)
            if cls is None:
                _owner, raw, _where = self._resolve(module, None, attr)
                self._rebind_everywhere(raw, _plain(rec, nid, raw))
            else:
                self._wrap_method(module, cls, attr, lambda fn, nid=nid: _plain(rec, nid, fn))
        self._install_process_and_timers()
        self._install_rpc_handlers()
        self._install_binding_handlers()
        self._install_counts()
        return self

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def _process_layer(self, kind: str, name: str) -> int:
        """Span id for a process or timer owner: its name up to the first
        colon, trailing digits dropped (``bulk-w3:obj`` -> ``bulk-w``)."""
        head = name.split(":", 1)[0].rstrip("0123456789")
        nid = self._heads.get((kind, head))
        if nid is None:
            layer = _by_prefix(PROCESS_LAYERS, head + ":")
            if layer is None:
                layer = "other"
                self.rec.unmapped.append(head)
            nid = self._heads[kind, head] = self.rec.span_id(f"{kind}:{head}", layer)
        return nid

    def _install_process_and_timers(self) -> None:
        rec = self.rec

        def make_process(orig):
            def process(sim, gen, name=""):
                label = name or getattr(gen, "__name__", "process")
                if hasattr(gen, "send") and hasattr(gen, "throw"):
                    gen = _traced_gen(rec, self._process_layer("proc", label), gen)
                return orig(sim, gen, name=label)
            return process

        def make_timer(orig):
            def schedule_timer(sim, delay, fn, owner=""):
                nid = self._process_layer("timer", owner or "timer")
                return orig(sim, delay, _plain(rec, nid, fn), owner)
            return schedule_timer

        self._wrap_method("repro.sim.kernel", "Simulator", "process", make_process)
        self._wrap_method("repro.sim.kernel", "Simulator", "schedule_timer", make_timer)

    def _install_rpc_handlers(self) -> None:
        rec = self.rec

        def make_register(orig):
            def register(server, method, fn):
                layer = _by_prefix(HANDLER_LAYERS, getattr(fn, "__module__", "") or "") or "other"
                nid = rec.span_id(f"rpc-handler:{method}", layer)

                def handler(args):
                    if not rec.on:
                        return fn(args)
                    idx = rec.begin(nid)
                    try:
                        result = fn(args)
                    finally:
                        rec.finish(idx)
                    if hasattr(result, "send") and hasattr(result, "throw"):
                        return _traced_gen(rec, nid, result)
                    return result

                return orig(server, method, handler)
            return register

        self._wrap_method("repro.rpc", "RpcServer", "register", make_register)

    def _install_binding_handlers(self) -> None:
        """Frame handlers are assigned to the binding ``Host.bind``
        returns; hand out bindings whose ``handler`` attribute wraps
        whatever is assigned to it."""
        rec = self.rec
        _owner, binding_cls, _where = self._resolve("repro.net.host", None, "PortBinding")

        class TracedBinding(binding_cls):
            @property
            def handler(self):
                return self.__dict__.get("_traced_handler")

            @handler.setter
            def handler(self, fn):
                if fn is not None:
                    layer = PROTO_LAYERS.get(self.proto, "other")
                    fn = _plain(rec, rec.span_id(f"rx:{self.proto}", layer), fn)
                self.__dict__["_traced_handler"] = fn

        def make_bind(orig):
            def bind(host, proto, port):
                binding = orig(host, proto, port)
                binding.__class__ = TracedBinding
                return binding
            return bind

        self._wrap_method("repro.net.host", "Host", "bind", make_bind)

    def _install_counts(self) -> None:
        rec = self.rec
        seen: set = set()

        def make_route(orig):
            def route(topo, src_host, dst_host):
                key = (id(topo), src_host, dst_host)
                if key not in seen:
                    seen.add(key)
                    rec.route_computes += 1
                return orig(topo, src_host, dst_host)
            return route

        def make_bump(orig):
            def bump_version(topo):
                seen.clear()  # the route cache is keyed on the version
                return orig(topo)
            return bump_version

        def make_send(orig):
            def send(endpoint, dst_host, dst_port, payload, size):
                # Host-local sends never reach a wire; counting them would
                # push the payload ratio above 1.
                if rec.on and dst_host != endpoint.host.name:
                    rec.app_bytes += size
                return orig(endpoint, dst_host, dst_port, payload, size)
            return send

        # Applied on top of the span wrappers already installed above.
        self._wrap_method("repro.net.topology", "Topology", "route", make_route)
        self._wrap_method("repro.net.topology", "Topology", "bump_version", make_bump)
        self._wrap_method("repro.transport.srudp", "SrudpEndpoint", "send", make_send)
        self._wrap_method("repro.transport.stream", "StreamEndpoint", "send", make_send)
