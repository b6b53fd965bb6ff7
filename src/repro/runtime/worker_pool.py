"""Bounded thread pool for the edge's concurrent trunk workers.

The paper sizes the edge as a multi-core E5-2640 box and
:mod:`repro.runtime.concurrency` models it as an M/M/c queue; this
module supplies the *c*.  A :class:`WorkerPool` owns a fixed set of
worker threads and maps a function over a list of items with the
guarantees the scheduler's determinism story needs:

* **Order preservation** — ``map(fn, items)`` returns results in item
  order regardless of which worker finished first, so reply routing
  never depends on thread timing.
* **Deterministic partitioning** — :meth:`partition` splits ``n`` items
  into balanced *contiguous* ranges, the same split every call.
* **Busy accounting** — the pool tracks how many workers are executing
  at each instant and publishes the current/high-water counts to an
  optional :class:`~repro.observability.metrics.Gauge`, which is where
  the scheduler's ``workers_busy`` telemetry comes from.

``num_workers == 1`` degenerates to inline serial execution (no
threads, no locks on the hot path), so a single-worker scheduler is
byte-for-byte the pre-pool code path.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Optional, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


class WorkerPool:
    """A fixed-size pool of trunk workers with deterministic mapping."""

    def __init__(self, num_workers: int, gauge=None) -> None:
        num_workers = int(num_workers)
        if num_workers < 1:
            raise ValueError("num_workers must be at least 1")
        self.num_workers = num_workers
        self._gauge = gauge
        self._lock = threading.Lock()
        self._busy = 0
        #: High-water mark of concurrently executing workers (lifetime).
        self.max_busy = 0
        self._executor: Optional[ThreadPoolExecutor] = None

    # -- deterministic chunking ----------------------------------------
    @staticmethod
    def partition(n: int, parts: int) -> list[tuple[int, int]]:
        """Split ``range(n)`` into ≤ ``parts`` balanced contiguous ranges.

        Sizes differ by at most one and earlier ranges get the larger
        share, so the split is a pure function of ``(n, parts)`` —
        callers can rely on identical chunk boundaries run after run.
        Empty ranges are never returned.
        """
        if n < 0:
            raise ValueError("n must be non-negative")
        if parts < 1:
            raise ValueError("parts must be at least 1")
        parts = min(parts, n)
        ranges: list[tuple[int, int]] = []
        start = 0
        for i in range(parts):
            size = n // parts + (1 if i < n % parts else 0)
            ranges.append((start, start + size))
            start += size
        return ranges

    # -- busy accounting -----------------------------------------------
    def _enter(self) -> None:
        with self._lock:
            self._busy += 1
            if self._busy > self.max_busy:
                self.max_busy = self._busy
            if self._gauge is not None:
                self._gauge.set_max(self._busy)

    def _exit(self) -> None:
        with self._lock:
            self._busy -= 1

    @property
    def busy(self) -> int:
        """Workers currently executing a task."""
        return self._busy

    # -- execution -----------------------------------------------------
    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
        """Apply ``fn`` to every item; results come back in item order.

        With one worker (or ≤ 1 item) the map runs inline on the calling
        thread.  Otherwise every item is submitted to the pool's threads
        at once and the results are gathered in submission order, so a
        caller that routes result ``i`` to item ``i`` is immune to
        worker scheduling.  Exceptions propagate to the caller exactly
        as they would from a serial loop.
        """

        def tracked(item: T) -> R:
            self._enter()
            try:
                return fn(item)
            finally:
                self._exit()

        if self.num_workers == 1 or len(items) <= 1:
            return [tracked(item) for item in items]
        if self._executor is None:
            self._executor = ThreadPoolExecutor(
                max_workers=self.num_workers, thread_name_prefix="edge-worker"
            )
        futures = [self._executor.submit(tracked, item) for item in items]
        return [f.result() for f in futures]

    def close(self) -> None:
        """Shut the worker threads down (idempotent)."""
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
