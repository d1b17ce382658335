"""Outside-in per-layer tracing of one run.

The tracer wraps each layer's public entry points from outside the
program: class attributes are replaced before the cluster is built (so
the bound methods the fast paths capture at wiring time are the wrapped
ones), and each daemon's ``wire_sink`` is wrapped after wiring, before
the run.  Spans nest on one stack; a span's self time is its duration
minus the durations of the wrapped spans it directly contains, so the
self times of all spans add up to the root spans' durations with nothing
counted twice.  Aggregates stay in memory and are read out after the run.

``HOOKS`` is also the coverage guard's list: every entry must resolve to
an existing function and be called on each workload it names.
"""

from __future__ import annotations

import gc
import importlib
import time
from dataclasses import dataclass
from typing import Callable

ALL = ("lu32_logon_noel", "cg256_el4_storm")
#: the storm is the only workload with an EL, and the only one with faults
WITH_EL = STORM = ("cg256_el4_storm",)

#: stands in for the workload's protocol class, resolved from its stack
PROTOCOL = "protocol"


@dataclass(frozen=True)
class Hook:
    """One wrapped function: ``name`` is ``<layer>.<entry>``."""

    name: str
    owner: str  # "module:Class", PROTOCOL, or "daemon" for the per-instance sink
    attr: str
    #: False: counted only, its time stays with the span that called it
    timed: bool
    #: workloads on which the hook must be called at least once
    workloads: tuple[str, ...]

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


HOOKS: tuple[Hook, ...] = (
    Hook("engine.run", "repro.simulator.engine:Simulator", "run", True, ALL),
    Hook("engine.start", "repro.runtime.cluster:Cluster", "start", True, ALL),
    Hook("network.transfer", "repro.simulator.network:Network", "transfer", True, ALL),
    Hook("dispatch.wire_sink", "daemon", "wire_sink", True, ALL),
    Hook("protocol.build", PROTOCOL, "build_piggyback", True, ALL),
    Hook("protocol.accept", PROTOCOL, "accept_piggyback", True, ALL),
    Hook("protocol.ack", PROTOCOL, "on_el_ack", True, WITH_EL),
    Hook("protocol.local_event", PROTOCOL, "on_local_event", True, ALL),
    Hook("el.receive_log", "repro.core.event_logger:EventLogger", "receive_log", True, WITH_EL),
    Hook("el.serve_log", "repro.core.event_logger:EventLogger", "_serve_log", True, WITH_EL),
    Hook("el.fetch_events", "repro.core.event_logger:EventLogger", "fetch_events", True, STORM),
    Hook("el.serve_fetch", "repro.core.event_logger:EventLogger", "_serve_fetch", True, STORM),
    Hook("el.sync_tick", "repro.core.distributed_el:EventLoggerGroup", "_sync_tick", True, STORM),
    Hook(
        "el.absorb_vector", "repro.core.distributed_el:EventLoggerShard",
        "absorb_peer_vector", True, STORM,
    ),
    Hook("recovery.begin", "repro.runtime.daemon:Vdaemon", "begin_recovery", False, STORM),
    Hook("retry.call", "repro.runtime.retry:RetryChannel", "call", False, STORM),
)

#: source module (path under ``repro/``) -> layer, for the call-count pass
MODULE_LAYERS: dict[str, str] = {
    "simulator/engine.py": "engine",
    "simulator/process.py": "engine",
    "simulator/network.py": "network",
    "runtime/daemon.py": "dispatch",
    "runtime/fastpath.py": "dispatch",
    "core/protocol_base.py": "protocol",
    "core/vcausal.py": "protocol",
    "core/logon.py": "protocol",
    "core/manetho.py": "protocol",
    "core/pessimistic.py": "protocol",
    "core/antecedence.py": "protocol",
    "core/events.py": "protocol",
    "core/bounds.py": "protocol",
    "core/piggyback.py": "protocol",
    "core/sender_log.py": "protocol",
    "core/event_logger.py": "el",
    "core/distributed_el.py": "el",
    "runtime/failure.py": "recovery",
    "runtime/dispatcher.py": "recovery",
    "runtime/checkpoint_server.py": "recovery",
    "runtime/checkpoint_scheduler.py": "recovery",
    "runtime/retry.py": "retry",
    "mpi/api.py": "mpi",
    "mpi/collectives.py": "mpi",
}
CALL_LAYERS = (
    "engine", "network", "dispatch", "protocol", "el", "recovery", "retry",
    "mpi", "workload", "builtins", "other",
)


def module_layer(filename: str) -> str:
    """Layer of a profiled function's source file (``~`` is a builtin)."""
    if filename == "~":
        return "builtins"
    path = filename.replace("\\", "/")
    if "/repro/workloads/" in path:
        return "workload"
    for suffix, layer in MODULE_LAYERS.items():
        if path.endswith("/repro/" + suffix):
            return layer
    return "other"


def resolve(owner: str):
    """The class a ``"module:Class"`` hook owner names."""
    module, _, qualname = owner.partition(":")
    return getattr(importlib.import_module(module), qualname)


def protocol_class(stack: str) -> type:
    """The protocol class a cluster on ``stack`` instantiates."""
    from repro.core.protocol_base import make_protocol
    from repro.metrics.probes import ProcessProbes
    from repro.runtime.config import STACKS, ClusterConfig

    proto = make_protocol(STACKS[stack].protocol, 0, 1, ClusterConfig(), ProcessProbes())
    return type(proto)


class Tracer:
    """Self time and call counts per hook, plus the interpreter's GC time.

    Use as a context manager around building and running one cluster:
    entry patches the hooked classes, ``attach`` wraps the built
    cluster's sinks, and exit restores every patched attribute.
    """

    def __init__(self, stack: str) -> None:
        self.stack = stack
        #: hook name -> [self seconds, calls]
        self.acc: dict[str, list] = {h.name: [0.0, 0] for h in HOOKS}
        self.held_received = 0  # determinants arriving in piggybacks
        self.held_new = 0  # of which newly held after the accept
        self.acks_pruning = 0  # acks after which fewer determinants are held
        self.gc_s = 0.0
        self.gc_collections = 0
        self._open: list[list] = []  # one [child seconds] cell per open span
        self._patched: list[tuple] = []
        self._gc_start = 0.0

    # -- wrappers -------------------------------------------------------- #

    def _span(self, name: str, fn: Callable) -> Callable:
        acc = self.acc[name]
        open_spans = self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            cell = [0.0]
            open_spans.append(cell)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                open_spans.pop()
                acc[0] += elapsed - cell[0]
                acc[1] += 1
                if open_spans:
                    open_spans[-1][0] += elapsed

        return traced

    def _count(self, name: str, fn: Callable) -> Callable:
        acc = self.acc[name]

        def counted(*args, **kwargs):
            acc[1] += 1
            return fn(*args, **kwargs)

        return counted

    def _accept_ratio(self, fn: Callable) -> Callable:
        def accept(proto, src, pb, dep):
            before = proto.events_held()
            cost = fn(proto, src, pb, dep)
            self.held_received += pb.n_events
            self.held_new += max(0, proto.events_held() - before)
            return cost

        return accept

    def _ack_ratio(self, fn: Callable) -> Callable:
        def on_el_ack(proto, stable_vector):
            before = proto.events_held()
            fn(proto, stable_vector)
            if proto.events_held() < before:
                self.acks_pruning += 1

        return on_el_ack

    def wrap(self, hook: Hook, fn: Callable) -> Callable:
        if hook.name == "protocol.accept":
            fn = self._accept_ratio(fn)
        elif hook.name == "protocol.ack":
            fn = self._ack_ratio(fn)
        return self._span(hook.name, fn) if hook.timed else self._count(hook.name, fn)

    # -- installation ---------------------------------------------------- #

    def __enter__(self) -> "Tracer":
        proto_cls = protocol_class(self.stack)
        try:
            for hook in HOOKS:
                if hook.owner == "daemon":
                    continue
                cls = proto_cls if hook.owner == PROTOCOL else resolve(hook.owner)
                fn = getattr(cls, hook.attr, None)
                if not callable(fn):
                    raise LookupError(
                        f"hook {hook.name}: {cls.__qualname__}.{hook.attr} "
                        "no longer exists; update perfbench/layers.py"
                    )
                self._patched.append((cls, hook.attr, cls.__dict__.get(hook.attr)))
                setattr(cls, hook.attr, self.wrap(hook, fn))
        except BaseException:
            self._restore()
            raise
        gc.callbacks.append(self._on_gc)
        return self

    def attach(self, cluster) -> None:
        """Wrap every daemon's ``wire_sink`` (an instance attribute the
        fast path replaces at wiring time, so it is wrapped after)."""
        hook = next(h for h in HOOKS if h.owner == "daemon")
        for daemon in cluster.daemons.values():
            daemon.wire_sink = self.wrap(hook, daemon.wire_sink)

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._on_gc)
        self._restore()

    def _restore(self) -> None:
        while self._patched:
            cls, attr, original = self._patched.pop()
            if original is None:
                delattr(cls, attr)
            else:
                setattr(cls, attr, original)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.gc_s += time.perf_counter() - self._gc_start
            self.gc_collections += 1

    # -- read-out -------------------------------------------------------- #

    def self_s(self, *names: str) -> float:
        return sum(self.acc[n][0] for n in names)

    def calls(self, name: str) -> int:
        return self.acc[name][1]

    def layer_self_s(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for hook in HOOKS:
            if hook.timed:
                out[hook.layer] = out.get(hook.layer, 0.0) + self.acc[hook.name][0]
        return out


def profile_calls(profiler) -> dict[str, int]:
    """Total and per-layer call counts of a finished ``cProfile`` pass.

    Reads the raw per-code-object entries: ``pstats`` keys functions by
    (file, line, name), under which the generated ``__init__`` of every
    dataclass collides and only an arbitrary one survives.
    """
    per_layer = dict.fromkeys(CALL_LAYERS, 0)
    for entry in profiler.getstats():
        code = entry.code
        filename = code.co_filename if hasattr(code, "co_filename") else "~"
        per_layer[module_layer(filename)] += entry.callcount  # recursive calls too
    per_layer["total"] = sum(per_layer.values())
    return per_layer
