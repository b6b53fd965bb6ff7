"""Runtime counter facades over the observability metrics registry.

Three counter families grew up ad hoc around the system — per-op engine
counters (:class:`ModelCounters`), miss-path transport counters
(:class:`FaultCounters`), and shared-edge counters
(:class:`SchedulerCounters`).  They are now *facades*: every field is
backed by a named metric in a
:class:`~repro.observability.metrics.MetricsRegistry`, so exporters and
the ``repro trace`` telemetry read one schema.  Reads by name
(``counters.frames_sent``) and the ``as_dict`` layouts are unchanged;
there is one write path: ``counters.add("frames_sent")`` goes through
the metric's locked ``Counter.add`` (exact under worker threads, seen by
``watch()`` hooks), and the high-water fields use the locked
``Gauge.set_max`` via ``counters.set_max(...)``.  Field attributes are
read-only, so a stray ``counters.x += 1`` raises instead of silently
shadowing the metric.

Because counters now have a registry behind them, *scoping* them is
possible: :func:`counters_scope` snapshots every live facade plus the
true process-global counters (the bit-packing popcount totals and the
observability global registry) and restores them on exit — the fixture
``tests/conftest.py`` installs so tests stop leaking counter state into
each other through session-scoped engines.
"""

from __future__ import annotations

import weakref
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Optional, Union

from typing import Mapping

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
        **values: Union[int, float],
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self._labels = dict(labels) if labels else {}
        self._metrics: dict[str, Union[Counter, Gauge]] = {}
        for name, zero in self._FIELDS.items():
            full = self.metric_name(name)
            if name in self._HIGH_WATER:
                fresh = self.registry.get(full) is None
                metric = self.registry.gauge(full)
                if fresh:
                    metric.value = zero  # keep the field's int zero
            else:
                metric = self.registry.counter(full)
            self._metrics[name] = metric
        _LIVE_FACADES.add(self)
        for name, value in values.items():
            if name not in self._FIELDS:
                raise TypeError(f"{type(self).__name__} has no field {name!r}")
            if name in self._HIGH_WATER:
                self.set_max(name, value)
            else:
                self.add(name, value)

    def metric_name(self, suffix: str) -> str:
        """Full registry name of one field: prefix, suffix, and labels.

        Unlabeled facades keep the historical ``<prefix>.<field>`` names;
        labeled ones (e.g. a fleet shard's scheduler) write distinct
        series like ``sched.accepted_samples{shard=2}`` so N instances can
        share one registry without folding into a single series.
        """
        return labeled(f"{self._PREFIX}.{suffix}", **self._labels)

    @property
    def labels(self) -> dict[str, object]:
        return dict(self._labels)

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
    split by cause; ``retries`` counts re-sends after a failure; and
    ``fallbacks`` counts missed samples answered by the local binary
    branch instead, because the retry policy ran out or the edge's
    reply was rejected.
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
        "fallbacks": 0,
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
    waiting (window + head-of-line + edge busy).  Per-tenant rows keep
    the fairness policy observable, and the registry additionally
    carries ``sched.batch_size`` / ``sched.queue_wait_ms`` histograms
    so p50/p95/p99 queueing summaries fall out of any run.
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
        "max_workers_busy": 0,
    }
    _HIGH_WATER = frozenset({"max_queue_depth", "max_workers_busy"})

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        labels: Optional[Mapping[str, object]] = None,
        **values,
    ) -> None:
        super().__init__(registry=registry, labels=labels, **values)
        self.batch_size_hist: dict[int, int] = {}
        self.per_tenant: dict[int, dict[str, int]] = {}
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

    def tenant(self, tenant_id: int) -> dict[str, int]:
        """The (created-on-demand) counter row for one session/tenant."""
        return self.per_tenant.setdefault(
            int(tenant_id), {"submitted": 0, "accepted": 0, "shed": 0, "served": 0}
        )

    def record_batch(self, batch_size: int, exec_ms: float, waits_ms: float) -> None:
        self.add("batches")
        self.add("samples_served", batch_size)
        self.add("busy_ms", exec_ms)
        self.add("queue_wait_ms", waits_ms)
        self.batch_size_hist[batch_size] = self.batch_size_hist.get(batch_size, 0) + 1
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
        self.batch_size_hist = {}
        self.per_tenant = {}
        self._batch_size_h.reset()
        self._queue_wait_h.reset()
        self._request_wait_h.reset()

    def as_dict(self) -> dict[str, object]:
        out = super().as_dict()
        out.update(
            {
                "shed_rate": self.shed_rate,
                "mean_batch_size": self.mean_batch_size,
                "mean_queue_wait_ms": self.mean_queue_wait_ms,
                "throughput_rps": self.throughput_rps,
                "batch_size_hist": {
                    str(k): v for k, v in sorted(self.batch_size_hist.items())
                },
                "per_tenant": {
                    str(k): dict(v) for k, v in sorted(self.per_tenant.items())
                },
            }
        )
        return out


# ----------------------------------------------------------------------
# Scoping: snapshot/restore every counter a test could leak through
# ----------------------------------------------------------------------
@contextmanager
def counters_scope() -> Iterator[None]:
    """Snapshot all live counter state; restore it on exit.

    Covers the three facade families (wherever their instances live —
    session-scoped engines, module-level deployments), the bit-packing
    kernel's process-global popcount totals, and the observability
    global registry.  Facades *created inside* the scope are left alone
    (they did not exist at snapshot time and own no prior state), so
    wrapping every test makes counter state order-independent without
    touching tests that build their own deployments.
    """
    from ..observability.metrics import global_registry
    from ..wasm import bitpack

    facades = [f for f in _LIVE_FACADES]
    reg_snaps = [(f, f.registry.state()) for f in facades]
    dict_snaps = [
        (
            f,
            {k: dict(v) for k, v in f.per_tenant.items()},
            dict(f.batch_size_hist),
        )
        for f in facades
        if isinstance(f, SchedulerCounters)
    ]
    global_snap = global_registry().state()
    bitpack_snap = bitpack._REGISTRY.state()
    try:
        yield
    finally:
        for f, snap in reg_snaps:
            f.registry.restore(snap)
        for f, tenants, hist in dict_snaps:
            f.per_tenant = tenants
            f.batch_size_hist = hist
        global_registry().restore(global_snap)
        bitpack._REGISTRY.restore(bitpack_snap)
