"""Runtime counter facades over the observability metrics registry.

Three counter families grew up ad hoc around the system — per-op engine
counters (:class:`ModelCounters`), miss-path transport counters
(:class:`FaultCounters`), and shared-edge counters
(:class:`SchedulerCounters`).  They are now *facades*: every field is
backed by a named metric in a
:class:`~repro.observability.metrics.MetricsRegistry`, so exporters and
the ``repro trace`` telemetry read one schema.  A facade keeps no
state of its own — only metric handles — so each fact it reports is
one registry series.  Fields read by name (``counters.frames_sent``);
there is one write path: ``counters.add("frames_sent")`` goes through
the metric's locked ``Counter.add`` (exact under worker threads, seen by
``watch()`` hooks), and the high-water fields use the locked
``Gauge.set_max`` via ``counters.set_max(...)``.  Field attributes are
read-only, so a stray ``counters.x += 1`` raises instead of silently
shadowing the metric.

Because counters now have a registry behind them, *scoping* them is
possible: :func:`counters_scope` snapshots the registry of every live
facade plus the observability global registry (which also holds the
process-wide popcount total, ``wasm.bytes_popcounted``) and restores
them on exit — the fixture ``tests/conftest.py`` installs so tests stop
leaking counter state into each other through session-scoped engines.
"""

from __future__ import annotations

import weakref
from contextlib import contextmanager
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterator, Mapping, Optional, Union

from ..observability.metrics import Counter, Gauge, MetricsRegistry, labeled

#: Live counter facades, tracked weakly so :func:`counters_scope` can
#: snapshot instances held by long-lived fixtures (session-scoped
#: trained systems, module-level deployments) without pinning them.
_LIVE_FACADES: "weakref.WeakSet" = weakref.WeakSet()

#: Batch sizes are small integers; a dedicated bucket ladder keeps the
#: dynamic-batching histogram readable.
_BATCH_SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)


class OpCounter:
    """Accumulated runtime statistics for one compiled op.

    Fields are registry counters resolved once at construction; the hot
    :meth:`record` path mutates them through their locked ``add`` — a
    handful of locked stores per op call, cheap enough to stay
    always-on and safe when worker threads share one engine.
    """

    __slots__ = ("index", "kind", "_calls", "_samples", "_wall_ms", "_bytes")

    def __init__(
        self, index: int, kind: str, registry: Optional[MetricsRegistry] = None
    ) -> None:
        if registry is None:
            registry = MetricsRegistry()
        self.index = index
        self.kind = kind
        base = f"op.{index:03d}.{kind}"
        self._calls = registry.counter(f"{base}.calls")
        self._samples = registry.counter(f"{base}.samples")
        self._wall_ms = registry.counter(f"{base}.wall_ms")
        self._bytes = registry.counter(f"{base}.bytes_popcounted")

    @property
    def calls(self) -> int:
        return self._calls.value

    @property
    def samples(self) -> int:
        return self._samples.value

    @property
    def wall_ms(self) -> float:
        return self._wall_ms.value

    @property
    def bytes_popcounted(self) -> int:
        return self._bytes.value

    def record(self, samples: int, wall_ms: float, bytes_popcounted: int = 0) -> None:
        self._calls.add(1)
        self._samples.add(samples)
        self._wall_ms.add(wall_ms)
        self._bytes.add(bytes_popcounted)

    def reset(self) -> None:
        self._calls.value = 0
        self._samples.value = 0
        self._wall_ms.value = 0.0
        self._bytes.value = 0

    def as_dict(self) -> dict[str, object]:
        return {
            "index": self.index,
            "kind": self.kind,
            "calls": self.calls,
            "samples": self.samples,
            "wall_ms": self.wall_ms,
            "bytes_popcounted": self.bytes_popcounted,
        }


class ModelCounters:
    """Per-op counters for one engine instance, in execution order.

    All ops share one :attr:`registry`, so an engine's full counter
    state exports as a single metrics snapshot.
    """

    def __init__(
        self,
        ops: Optional[list[OpCounter]] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.ops: list[OpCounter] = ops if ops is not None else []
        _LIVE_FACADES.add(self)

    @classmethod
    def for_kinds(cls, kinds: list[str]) -> "ModelCounters":
        counters = cls()
        counters.ops = [
            OpCounter(index=i, kind=k, registry=counters.registry)
            for i, k in enumerate(kinds)
        ]
        return counters

    def reset(self) -> None:
        for op in self.ops:
            op.reset()

    @property
    def total_calls(self) -> int:
        return sum(op.calls for op in self.ops)

    @property
    def total_wall_ms(self) -> float:
        return sum(op.wall_ms for op in self.ops)

    @property
    def total_bytes_popcounted(self) -> int:
        return sum(op.bytes_popcounted for op in self.ops)

    def summary(self) -> list[dict[str, object]]:
        """JSON-ready per-op rows (the ``BENCH_*.json`` schema)."""
        return [op.as_dict() for op in self.ops]


class _RegistryFacade:
    """Base for counter facades: named fields backed by registry metrics.

    Subclasses declare ``_FIELDS`` (name → zero value); each field is a
    registry counter — or, for the names in ``_HIGH_WATER``, a registry
    gauge — and reads by name (``counters.frames_sent``) return its
    value.  Fields are read-only: writes go through :meth:`add` (the
    counter's locked ``Counter.add``, so concurrent bumps stay exact and
    ``watch()`` hooks see every increment) or :meth:`set_max` (the
    gauge's locked ``Gauge.set_max``).
    """

    _FIELDS: dict[str, Union[int, float]] = {}
    _HIGH_WATER: frozenset = frozenset()
    _PREFIX = "counters"

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        for name in cls._FIELDS:
            setattr(
                cls, name, property(lambda self, _n=name: self._metrics[_n].value)
            )

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        labels: Optional[Mapping[str, object]] = None,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        # Read-only views: the facade holds metric handles and its label
        # set, never a mutable container a count could hide in.
        self._labels = MappingProxyType(dict(labels or {}))
        metrics: dict[str, Union[Counter, Gauge]] = {}
        for name, zero in self._FIELDS.items():
            full = self.metric_name(name)
            if name in self._HIGH_WATER:
                fresh = self.registry.get(full) is None
                metric = self.registry.gauge(full)
                if fresh:
                    metric.value = zero  # keep the field's int zero
            else:
                metric = self.registry.counter(full)
            metrics[name] = metric
        self._metrics = MappingProxyType(metrics)
        _LIVE_FACADES.add(self)

    def metric_name(self, suffix: str) -> str:
        """Full registry name of one field: prefix, suffix, and labels.

        Unlabeled facades keep the historical ``<prefix>.<field>`` names;
        labeled ones (e.g. a fleet shard's scheduler) write distinct
        series like ``sched.accepted_samples{shard=2}`` so N instances can
        share one registry without folding into a single series.
        """
        return labeled(f"{self._PREFIX}.{suffix}", **self._labels)

    def add(self, name: str, amount: Union[int, float] = 1) -> None:
        """Bump one counter field (locked; watchers see the increment)."""
        self._metrics[name].add(amount)

    def set_max(self, name: str, value: Union[int, float]) -> None:
        """Raise one high-water field to ``value`` if it is higher."""
        self._metrics[name].set_max(value)

    def reset(self) -> None:
        for name, zero in self._FIELDS.items():
            self._metrics[name].value = zero

    def as_dict(self) -> dict[str, object]:
        return {name: self._metrics[name].value for name in self._FIELDS}

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"{type(self).__name__}({fields})"


class FaultCounters(_RegistryFacade):
    """Miss-path transport failure/recovery statistics for one deployment.

    The session layer bumps these as collaborative frames travel the
    (possibly faulty) link: every attempt is a ``frames_sent``; failures
    split by cause; and ``retries`` counts re-sends after a failure.
    They count frames and attempts, not samples: who answered each
    sample (edge, branch, or binary-branch fallback) is on the session's
    outcomes and, for scheduled sessions, the ``session.served_by.*``
    series.
    """

    _PREFIX = "fault"
    _FIELDS = {
        "frames_sent": 0,
        "frames_dropped": 0,
        "frames_timed_out": 0,
        "frames_corrupted": 0,
        "frames_duplicated": 0,
        "edge_errors": 0,
        "overloads": 0,
        "replies_rejected": 0,
        "retries": 0,
    }

    @property
    def failures(self) -> int:
        """Attempts that did not yield a valid reply."""
        return (
            self.frames_dropped
            + self.frames_timed_out
            + self.edge_errors
            + self.replies_rejected
        )


class SchedulerCounters(_RegistryFacade):
    """Aggregate telemetry of one :class:`~repro.runtime.scheduler.EdgeScheduler`.

    Request/sample counters split admission outcomes (accepted vs shed
    vs malformed); batch counters describe what the trunk actually
    executed; ``queue_wait_ms`` accumulates simulated per-sample
    waiting (window + head-of-line + edge busy).  The registry
    additionally carries the ``sched.batch_size`` (one observation per
    batch, exact mode: the batch-size record),
    ``sched.batch_queue_wait_ms`` and ``sched.request_queue_wait_ms``
    histograms, so p50/p95/p99 queueing summaries fall out of any run.
    The worker-pool high-water lives on
    ``EdgeScheduler.worker_pool.max_busy`` and the ``sched.workers_busy``
    gauge.
    """

    _PREFIX = "sched"
    _FIELDS = {
        "submitted_requests": 0,
        "accepted_requests": 0,
        "shed_requests": 0,
        "malformed_requests": 0,
        "submitted_samples": 0,
        "accepted_samples": 0,
        "shed_samples": 0,
        "samples_served": 0,
        "batches": 0,
        "busy_ms": 0.0,
        "queue_wait_ms": 0.0,
        "max_queue_depth": 0,
    }
    _HIGH_WATER = frozenset({"max_queue_depth"})

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        labels: Optional[Mapping[str, object]] = None,
    ) -> None:
        super().__init__(registry=registry, labels=labels)
        self._batch_size_h = self.registry.histogram(
            self.metric_name("batch_size"), bounds=_BATCH_SIZE_BUCKETS
        )
        self._queue_wait_h = self.registry.histogram(
            self.metric_name("batch_queue_wait_ms")
        )
        # Per-request waits feed the windowed p99 SLO; bounded mode caps
        # retained samples so long-running fleets don't grow without
        # bound (bucket counts and the sum stay exact regardless).
        self._request_wait_h = self.registry.histogram(
            self.metric_name("request_queue_wait_ms"), max_samples=4096
        )

    def record_batch(self, batch_size: int, exec_ms: float, waits_ms: float) -> None:
        self.add("batches")
        self.add("samples_served", batch_size)
        self.add("busy_ms", exec_ms)
        self.add("queue_wait_ms", waits_ms)
        self._batch_size_h.observe(batch_size)
        self._queue_wait_h.observe(waits_ms / batch_size if batch_size else 0.0)

    def record_request_wait(self, wait_ms: float) -> None:
        """One request's simulated queue wait (per-request resolution,
        unlike :meth:`record_batch`'s per-batch mean)."""
        self._request_wait_h.observe(wait_ms)

    @property
    def request_wait_histogram(self):
        """The ``sched.request_queue_wait_ms`` histogram (bounded mode)."""
        return self._request_wait_h

    @property
    def shed_rate(self) -> float:
        """Fraction of submitted samples refused with a 503."""
        if self.submitted_samples == 0:
            return 0.0
        return self.shed_samples / self.submitted_samples

    @property
    def mean_batch_size(self) -> float:
        return self.samples_served / self.batches if self.batches else 0.0

    @property
    def mean_queue_wait_ms(self) -> float:
        if self.samples_served == 0:
            return 0.0
        return self.queue_wait_ms / self.samples_served

    @property
    def throughput_rps(self) -> float:
        """Samples per second of edge busy time (serving efficiency)."""
        if self.busy_ms <= 0:
            return 0.0
        return self.samples_served / self.busy_ms * 1e3

    def reset(self) -> None:
        super().reset()
        self._batch_size_h.reset()
        self._queue_wait_h.reset()
        self._request_wait_h.reset()

    def as_dict(self) -> dict[str, object]:
        return {
            **super().as_dict(),
            "shed_rate": self.shed_rate,
            "mean_batch_size": self.mean_batch_size,
            "mean_queue_wait_ms": self.mean_queue_wait_ms,
            "throughput_rps": self.throughput_rps,
        }


# ----------------------------------------------------------------------
# Scoping: snapshot/restore every counter a test could leak through
# ----------------------------------------------------------------------
@contextmanager
def counters_scope() -> Iterator[None]:
    """Snapshot all live counter state; restore it on exit.

    Covers the three facade families (wherever their instances live —
    session-scoped engines, module-level deployments) and the
    observability global registry, which also holds the bit-packing
    kernels' process-wide popcount total.  Facades *created inside* the
    scope are left alone (they did not exist at snapshot time and own
    no prior state), so wrapping every test makes counter state
    order-independent without touching tests that build their own
    deployments.
    """
    from ..observability.metrics import global_registry

    reg_snaps = [(f.registry, f.registry.state()) for f in _LIVE_FACADES]
    global_snap = global_registry().state()
    try:
        yield
    finally:
        for registry, snap in reg_snaps:
            registry.restore(snap)
        global_registry().restore(global_snap)
