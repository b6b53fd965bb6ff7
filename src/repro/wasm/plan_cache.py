"""The process-wide cache of compiled plans.

One bounded LRU serves every engine in the process: the browser stems
and branches (:class:`~repro.wasm.interpreter.WasmModel`) and the edge
trunk endpoints (:class:`~repro.runtime.session.EdgeEndpoint`).  A key
is ``(payload digest, flavor, power-of-two capacity)``; its value is a
:class:`PlanPool` of probe-verified instances, leased one caller at a
time because each instance owns its arena.

The cache imports the plan compiler only on a miss, so the interpreter
can hold a module-level reference to :data:`PLAN_CACHE` without an
import cycle.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Optional

from ..observability.metrics import global_registry, labeled

__all__ = [
    "PLAN_CACHE",
    "PLAN_CACHE_SIZE",
    "PLAN_POOL_SIZE",
    "PlanCache",
    "PlanPool",
    "plan_capacity",
]

#: Most (payload, flavor, capacity) keys the process keeps compiled.
PLAN_CACHE_SIZE = 16
#: Most verified instances of one key: as many callers can replay it at
#: once, each in its own arena.
PLAN_POOL_SIZE = 8


def plan_capacity(batch_size: int) -> int:
    """The power-of-two capacity serving batches of up to ``batch_size``.

    A ramp of batch sizes (1, 2, .., 64) then shares a handful of plans,
    and a session's ragged tail chunk reuses its full-chunk plan (replay
    slices every arena buffer to the live batch).
    """
    batch_size = int(batch_size)
    if batch_size < 1:
        raise ValueError("batch_size must be positive")
    return 1 << (batch_size - 1).bit_length()


class PlanPool:
    """Verified instances of one compiled plan, leased one caller at a time.

    A plan owns its arena, so two callers replaying one instance at once
    would overwrite each other's buffers.  :meth:`lease` hands out an
    idle instance, compiles and probe-verifies another while fewer than
    ``max_instances`` exist, and otherwise waits for a :meth:`release`.
    It never answers "no plan".
    """

    def __init__(self, first, compile: Callable, max_instances: int) -> None:
        #: The first verified instance (what ``WasmModel.plan_for`` shows).
        self.primary = first
        self._compile = compile
        self.max_instances = int(max_instances)
        self._lock = threading.Lock()
        self._freed = threading.Condition(self._lock)
        self._waiting = 0
        self._idle = [first]
        self._total = 1

    def lease(self):
        with self._lock:
            while not self._idle and self._total >= self.max_instances:
                self._waiting += 1
                self._freed.wait()
                self._waiting -= 1
            if self._idle:
                return self._idle.pop()
            self._total += 1
        try:
            return self._compile()
        except BaseException:
            with self._lock:
                self._total -= 1
                if self._waiting:
                    self._freed.notify()
            raise

    def release(self, plan) -> None:
        with self._lock:
            self._idle.append(plan)
            # Notify only when someone waits: an uncontended release then
            # costs one lock round trip.
            if self._waiting:
                self._freed.notify()

    @property
    def instances(self) -> int:
        with self._lock:
            return self._total


class _Entry:
    """One cache slot; its lock makes concurrent first lookups compile once."""

    __slots__ = ("lock", "done", "pool")

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.done = False
        self.pool: Optional[PlanPool] = None


class PlanCache:
    """A bounded LRU of plan pools shared by every engine in the process.

    Keying on the payload digest means every engine that loaded the same
    model — the browser stems of N deployments, the trunk endpoints of N
    shards, the deployments of repeated set-ups — shares one verified
    plan per capacity instead of compiling its own.  A compile failure
    is cached too: the key then answers ``None`` and the caller runs its
    reference path.

    Each lookup counts into ``plan_cache.{hits,misses,failures}{site=…}``
    in the registry: a *hit* found the key, a *miss* inserted it (and
    compiled), and a *failure* is any lookup that yielded no plan, so
    the failure series counts every call that ran the reference path.
    """

    def __init__(self, maxsize: int, registry=None) -> None:
        self.maxsize = int(maxsize)
        self.registry = registry if registry is not None else global_registry()
        self._lock = threading.Lock()
        self._entries: "OrderedDict[tuple, _Entry]" = OrderedDict()
        self._series: dict = {}

    def count(self, site: str, kind: str) -> None:
        """Bump ``plan_cache.<kind>{site=<site>}``."""
        series = self._series.get((site, kind))
        if series is None:
            series = self.registry.counter(labeled(f"plan_cache.{kind}", site=site))
            self._series[(site, kind)] = series
        series.add(1)

    def lookup(
        self, site: str, parsed, flavor: str, batch_size: int, reference: Callable
    ) -> tuple:
        """``(pool or None, hit)`` for batches of up to ``batch_size``.

        On a miss the plan compiles here, probe-verified against
        ``reference``; other threads looking the key up meanwhile wait on
        the entry and reuse the result.
        """
        capacity = plan_capacity(batch_size)
        key = (parsed.digest, flavor, capacity)
        with self._lock:
            entry = self._entries.get(key)
            hit = entry is not None
            if hit:
                self._entries.move_to_end(key)
            else:
                entry = self._entries[key] = _Entry()
                while len(self._entries) > self.maxsize:
                    self._entries.popitem(last=False)
        self.count(site, "hits" if hit else "misses")
        if not entry.done:
            from .plan import PlanCompileError, _compile_verified

            with entry.lock:
                if not entry.done:
                    def compile():
                        return _compile_verified(parsed, capacity, flavor, reference)

                    try:
                        entry.pool = PlanPool(compile(), compile, PLAN_POOL_SIZE)
                    except PlanCompileError:
                        entry.pool = None
                    entry.done = True
        if entry.pool is None:
            self.count(site, "failures")
        return entry.pool, hit

    def capacities(self, digest: str, flavor: str) -> list:
        """Resident capacities of one model, least recently used first."""
        with self._lock:
            return [k[2] for k in self._entries if k[0] == digest and k[1] == flavor]

    def clear(self, digest: Optional[str] = None) -> None:
        """Drop every entry, or only those of one payload digest."""
        with self._lock:
            for key in [k for k in self._entries if digest in (None, k[0])]:
                del self._entries[key]


#: The one plan cache of the process.
PLAN_CACHE = PlanCache(PLAN_CACHE_SIZE)
