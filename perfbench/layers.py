"""Per-layer attribution from the benchmark's side of the API.

A :class:`LayerTracer` wraps the public entry points of every layer a
frame crosses — wasm plans, the entropy gate, codec, protocol, link,
trunk, session orchestration, pricing, scheduler, worker pool, fleet and
SLO monitor — with timing shims installed *from this file*.  The program
is not edited and emits no spans of its own for this; the shims are
removed again when the traced phase ends.

Each shim records a span on a per-thread stack.  A span's *self* time is
its duration minus the durations of the spans it directly caused on the
same thread.  Trunk passes that run on worker-pool threads have no
parent on those threads; they are kept as *off-thread* time and are not
added to the main-thread attribution (the main thread's ``pool.map``
row holds the wall time spent waiting for them).  The attribution table
is therefore: main-thread self time per layer, plus ``unattributed`` =
timed request wall − the sum of main-thread self time.
"""

from __future__ import annotations

import sys
import threading
import time
from dataclasses import dataclass, field


@dataclass
class LayerStats:
    """Accumulated spans of one layer."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    #: Time of spans that ran on a thread other than the request loop.
    off_thread_s: float = 0.0
    #: Layer-specific work counts (samples, bytes, ...).
    counts: dict = field(default_factory=dict)


class LayerTracer:
    """Installs timing shims around layer entry points; see module doc."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.get_ident()
        #: One ``{layer: LayerStats}`` per thread that recorded spans;
        #: each is written only by its own thread, so spans take no lock.
        self._per_thread: list[tuple[bool, dict]] = []
        self._undo: list = []

    # -- span recording -------------------------------------------------
    def _thread_state(self):
        local = self._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
            local.stats = {}
            with self._lock:
                self._per_thread.append(
                    (threading.get_ident() == self._main, local.stats)
                )
        return stack, local.stats

    def shim(self, layer: str, fn, count=None):
        """``fn`` wrapped to record one ``layer`` span per call.

        ``count(args, kwargs, result)`` returns a dict of work counts to
        add to the layer (for example ``{"bytes": 4096}``).  The stack
        holds, per open span, the time its child spans took so far.
        """
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            stack, stats = self._thread_state()
            stack.append(0.0)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf() - t0
                child_s = stack.pop()
                if stack:
                    stack[-1] += elapsed
            st = stats.get(layer)
            if st is None:
                st = stats[layer] = LayerStats()
            st.calls += 1
            st.total_s += elapsed
            st.self_s += elapsed - child_s
            if count is not None:
                counts = st.counts
                for key, value in count(args, kwargs, result).items():
                    counts[key] = counts.get(key, 0) + value
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ---------------------------------------------------
    def patch_attr(self, owner, name: str, layer: str, count=None) -> None:
        """Replace ``owner.name`` (a class or instance attribute) by a shim."""
        raw = owner.__dict__.get(name) if isinstance(owner, type) else None
        if isinstance(raw, classmethod):
            wrapped = classmethod(self.shim(layer, raw.__func__, count))
            setattr(owner, name, wrapped)
            self._undo.append(lambda: setattr(owner, name, raw))
            return
        original = getattr(owner, name)
        setattr(owner, name, self.shim(layer, original, count))
        if isinstance(owner, type):
            self._undo.append(lambda: setattr(owner, name, original))
        else:
            self._undo.append(lambda: delattr(owner, name))

    def patch_function(self, fn, layer: str, count=None) -> None:
        """Replace every ``repro.*`` module-level reference to ``fn``.

        Modules that did ``from x import fn`` hold their own reference,
        so each one is rebound; the shim is shared.
        """
        wrapper = self.shim(layer, fn, count)
        for mod_name, module in list(sys.modules.items()):
            if not mod_name.startswith("repro") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapper)
                    self._undo.append(
                        lambda m=module, a=attr: setattr(m, a, fn)
                    )

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- results --------------------------------------------------------
    @property
    def stats(self) -> dict[str, LayerStats]:
        """Per-layer totals; spans off the main thread are ``off_thread_s``."""
        merged: dict[str, LayerStats] = {}
        with self._lock:
            threads = list(self._per_thread)
        for on_main, stats in threads:
            for layer, st in stats.items():
                out = merged.setdefault(layer, LayerStats())
                out.calls += st.calls
                out.total_s += st.total_s
                if on_main:
                    out.self_s += st.self_s
                else:
                    out.off_thread_s += st.total_s
                for key, value in st.counts.items():
                    out.counts[key] = out.counts.get(key, 0) + value
        return merged

    def get(self, layer: str) -> LayerStats:
        return self.stats.get(layer, LayerStats())

    def table(self, wall_s: float) -> list[dict]:
        """Rows of main-thread self time plus the unattributed remainder."""
        rows = []
        attributed = 0.0
        stats = self.stats
        for layer in sorted(stats):
            st = stats[layer]
            attributed += st.self_s
            rows.append(
                {
                    "layer": layer,
                    "calls": st.calls,
                    "self_ms": st.self_s * 1e3,
                    "share": st.self_s / wall_s if wall_s > 0 else 0.0,
                    "off_thread_ms": st.off_thread_s * 1e3,
                    "counts": dict(st.counts),
                }
            )
        rest = wall_s - attributed
        rows.append(
            {
                "layer": "unattributed",
                "calls": 0,
                "self_ms": rest * 1e3,
                "share": rest / wall_s if wall_s > 0 else 0.0,
                "off_thread_ms": 0.0,
                "counts": {},
            }
        )
        return rows


def format_table(rows: list[dict], wall_s: float) -> str:
    """Fixed-width text rendering of :meth:`LayerTracer.table`."""
    lines = [
        f"traced request wall: {wall_s * 1e3:.1f} ms",
        f"{'layer':<22}{'calls':>9}{'self ms':>12}{'share':>8}{'off-thread ms':>15}",
    ]
    for row in rows:
        lines.append(
            f"{row['layer']:<22}{row['calls']:>9}{row['self_ms']:>12.2f}"
            f"{row['share'] * 100:>7.1f}%{row['off_thread_ms']:>15.2f}"
        )
    return "\n".join(lines)


def install_layer_shims(tracer: LayerTracer, engines, service_model) -> None:
    """Shim every layer's public entry points (see the module doc).

    ``engines`` is an iterable of ``(stem_engine, branch_engine)`` pairs:
    the browser engines are instance-shimmed so stem and branch (both
    :class:`~repro.wasm.WasmModel`) stay separate layers.  Each trunk
    call also adds ``service_model.batch_ms(n)`` — the simulator's price
    for that batch — so measured trunk time can be set against it.
    """
    from repro.core.entropy import normalized_entropy
    from repro.nn.functional import softmax
    from repro.observability.slo import SloMonitor
    from repro.runtime import latency, protocol, scheduler
    from repro.runtime.fleet import FleetRouter
    from repro.runtime.network import NetworkLink
    from repro.runtime.protocol import BatchInferenceRequest, EdgeProtocolServer
    from repro.runtime.scheduler import EdgeScheduler
    from repro.runtime.session import EdgeEndpoint, LCRSDeployment
    from repro.runtime.worker_pool import WorkerPool

    for stem, branch in engines:
        tracer.patch_attr(stem, "forward_planned", "wasm.stem")
        tracer.patch_attr(branch, "forward_planned", "wasm.branch")
    tracer.patch_function(softmax, "gate.softmax")
    tracer.patch_function(normalized_entropy, "gate.entropy")
    tracer.patch_attr(BatchInferenceRequest, "from_features", "codec.encode")
    tracer.patch_attr(BatchInferenceRequest, "features", "codec.decode")
    tracer.patch_function(
        protocol.encode_frame, "protocol.encode", lambda a, k, r: {"bytes": len(r)}
    )
    tracer.patch_function(protocol.decode_frame, "protocol.decode")
    tracer.patch_attr(EdgeProtocolServer, "handle", "protocol.server")
    tracer.patch_attr(NetworkLink, "exchange", "link.exchange")
    tracer.patch_attr(
        EdgeEndpoint, "infer", "trunk",
        lambda a, k, r: {
            "samples": len(a[1]), "model_ms": service_model.batch_ms(len(a[1]))
        },
    )
    tracer.patch_attr(LCRSDeployment, "run_session", "session")
    tracer.patch_function(scheduler.run_concurrent_sessions, "session")
    tracer.patch_function(latency.simulate_plan, "pricing")
    tracer.patch_attr(EdgeScheduler, "submit", "sched.submit")
    tracer.patch_attr(EdgeScheduler, "flush", "sched.flush")
    tracer.patch_attr(EdgeScheduler, "collect", "sched.collect")
    tracer.patch_attr(WorkerPool, "map", "pool.map")
    tracer.patch_attr(FleetRouter, "submit", "fleet.submit")
    tracer.patch_attr(FleetRouter, "flush", "fleet.flush")
    tracer.patch_attr(FleetRouter, "collect", "fleet.collect")
    tracer.patch_attr(SloMonitor, "evaluate", "slo.evaluate")
