"""Shared-edge dynamic batching: many browser sessions, one trunk.

The paper's §I cost argument — "the computing cost of high concurrent
requests is unacceptable" — is about the *edge provider*: every AR user
whose binary branch misses ships conv1 features to the same box.  A
per-request trunk pass pays the full call overhead (request handling,
kernel dispatch, memory setup) for every sample; an edge that aggregates
concurrent misses into one batched trunk pass amortizes that overhead
across tenants, which is where multi-session serving throughput comes
from.

This module is that edge.  :class:`EdgeScheduler` owns a bounded queue
of admitted :class:`~repro.runtime.protocol.BatchInferenceRequest`
frames from N concurrent sessions and a *simulated* clock:

* **submit** — synchronous admission.  A well-formed batch request is
  either queued (answered with a deferred :class:`SchedulerAck`) or shed
  with a structured 503 when the queue is full or the tenant is over its
  fair share.  Shed requests run the client's normal retry policy and,
  on exhaustion, the binary-branch fallback — overload degrades
  accuracy, never availability.
* **flush** — dynamic batch formation.  Requests arriving within
  ``window_ms`` of the queue head coalesce, round-robin across tenants,
  up to ``max_batch_size`` samples; each batch executes through the
  trunk *once* (real computation) and is priced by an affine
  :class:`~repro.runtime.concurrency.ServiceTimeModel` on the simulated
  clock (modelled time).
* **collect** — correlated reply routing.  Each admitted ticket yields
  one :class:`~repro.runtime.protocol.BatchInferenceResponse` carrying
  the submitting session's id and sequence set, plus the queueing delay
  the scheduler charged it.

Timing is fully deterministic: arrivals are simulated-clock timestamps
supplied by the caller, service times come from the model, and ties
break on monotonic tickets — the same submissions always form the same
batches.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..observability import NULL_RECORDER, Counter, labeled
from ..observability.clock import now_ms
from ..profiling import SchedulerCounters
from ..profiling.layer_stats import NetworkProfile
from .concurrency import ServiceTimeModel
from .latency import ComputeStep
from .profiles import DeviceProfile, EDGE_SERVER
from .protocol import (
    BatchInferenceRequest,
    BatchInferenceResponse,
    ErrorResponse,
    ProtocolError,
    SchedulerAck,
    decode_frame,
    encode_frame,
)
from .session import (
    SERVED_BY_FALLBACK,
    EdgeEndpoint,
    LCRSDeployment,
    RecognitionOutcome,
    SampleCost,
    SessionConfig,
    SessionResult,
    SessionTrace,
    _decode_reply,
)
from .worker_pool import WorkerPool


@dataclass(frozen=True)
class SchedulerConfig:
    """Dynamic-batching and admission-control knobs.

    ``window_ms`` is how long (simulated) the queue head waits for
    company before its batch dispatches; ``0`` batches only requests
    arriving at the same instant.  ``max_batch_size`` caps samples per
    trunk pass.  ``queue_capacity`` bounds total queued samples — the
    backpressure that turns overload into 503s instead of unbounded
    latency.  ``max_per_tenant`` caps one session's queued samples; the
    default is an equal share of capacity across registered tenants.
    """

    window_ms: float = 4.0
    max_batch_size: int = 32
    queue_capacity: int = 256
    max_per_tenant: Optional[int] = None
    #: Concurrent trunk workers (the M/M/c ``c``).  Each dynamic batch
    #: runs whole on one worker; with ``c > 1`` batches overlap on the
    #: simulated clock and execute through a real thread pool.
    num_workers: int = 1

    def __post_init__(self) -> None:
        if self.window_ms < 0:
            raise ValueError("window_ms must be non-negative")
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be at least 1")
        if self.queue_capacity < 1:
            raise ValueError("queue_capacity must be at least 1")
        if self.max_per_tenant is not None and self.max_per_tenant < 1:
            raise ValueError("max_per_tenant must be at least 1")
        if self.num_workers < 1:
            raise ValueError("num_workers must be at least 1")


@dataclass
class _Queued:
    """One admitted request waiting for its batch."""

    ticket: int
    tenant: int
    request: BatchInferenceRequest
    #: The request's decoded feature stack, decoded at admission.
    features: np.ndarray
    arrival_ms: float

    @property
    def samples(self) -> int:
        return len(self.request.sequences)


@dataclass
class _Batch:
    """One formed dynamic batch, assigned to a simulated worker.

    Formation and worker assignment are decided *before* any real
    execution (membership depends only on arrivals and the window, never
    on execution results), so the batches of a flush can run through the
    worker pool concurrently and still route replies deterministically.
    """

    batch_id: int
    worker: int
    chosen: list[_Queued]
    total: int
    start_ms: float
    exec_ms: float


class EdgeScheduler:
    """The shared edge: bounded admission, dynamic batching, one trunk.

    Tenants are session ids; each deployment registers (implicitly on
    first submit, or eagerly via :meth:`register` so fair shares are
    sized before traffic starts).  The scheduler is single-threaded and
    driven in rounds — submit any number of frames, :meth:`flush`, then
    :meth:`collect` each ticket — which keeps batch formation
    reproducible under a fixed seed.
    """

    def __init__(
        self,
        endpoint: EdgeEndpoint,
        service_model: ServiceTimeModel,
        config: Optional[SchedulerConfig] = None,
        recorder=None,
        shard: Optional[int] = None,
        registry=None,
    ) -> None:
        self.endpoint = endpoint
        self.service_model = service_model
        self.config = config if config is not None else SchedulerConfig()
        #: Fleet identity.  A bare scheduler (``shard=None``) keeps the
        #: historical unlabeled metric names; a fleet shard writes
        #: shard-labeled series (``sched.queue_depth{shard=2}``) into the
        #: router's shared ``registry`` so N shards never fold their
        #: telemetry into one series.
        self.shard = shard
        self.counters = SchedulerCounters(
            registry=registry,
            labels={"shard": shard} if shard is not None else None,
        )
        # Tracing: with an enabled recorder, every served request gets a
        # `sched.queue_wait` span and every trunk pass a `trunk.batch`
        # span (with a `trunk.worker[i]` child naming its worker lane)
        # on the "edge" track, correlated to the submitting session by
        # the trace id carried in the request frame.
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        #: Simulated time at which each trunk worker next becomes free.
        self._worker_free = [0.0] * self.config.num_workers
        #: Queue-depth high-water gauge (samples queued at admission);
        #: consumers that want per-window readings (the fleet autoscaler)
        #: read it and reset it between windows.
        self.queue_depth_gauge = self.counters.registry.gauge(
            self.counters.metric_name("queue_depth")
        )
        #: Real thread pool for batch execution; its busy high-water
        #: feeds the `sched.workers_busy` gauge and counter.  The gauge
        #: is also read by :meth:`health` for the busy fraction.
        self.workers_busy_gauge = self.counters.registry.gauge(
            self.counters.metric_name("workers_busy")
        )
        self.worker_pool = WorkerPool(
            self.config.num_workers, gauge=self.workers_busy_gauge
        )
        self._queue: list[_Queued] = []
        self._results: dict[int, tuple[bytes, float]] = {}
        self._tickets = itertools.count(1)
        self._batch_ids = itertools.count(1)
        self._tenants: set[int] = set()
        # At-least-once delivery: a resubmission of the same (tenant,
        # sequences) pair must land on the same queue entry.
        self._dedupe: dict[tuple[int, tuple[int, ...]], int] = {}

    @classmethod
    def for_system(
        cls,
        system,
        service_model: Optional[ServiceTimeModel] = None,
        config: Optional[SchedulerConfig] = None,
        edge: DeviceProfile = EDGE_SERVER,
        recorder=None,
        shard: Optional[int] = None,
        registry=None,
    ) -> "EdgeScheduler":
        """A scheduler serving one calibrated LCRS system's trunk."""
        endpoint = EdgeEndpoint(system.model.main_trunk)
        if service_model is None:
            trunk_profile = NetworkProfile.of(
                system.model.main_trunk, system.model.stem_output_shape
            )
            service_model = ServiceTimeModel.from_profile(trunk_profile, edge=edge)
        return cls(
            endpoint, service_model, config, recorder=recorder,
            shard=shard, registry=registry,
        )

    # -- observability -------------------------------------------------
    @property
    def clock_ms(self) -> float:
        """Simulated time at which the whole trunk pool is next free.

        With one worker this is exactly the pre-pool scalar clock; with
        ``c`` workers it is the latest worker's free time (the makespan
        of everything executed so far).
        """
        return max(self._worker_free)

    @clock_ms.setter
    def clock_ms(self, value: float) -> None:
        self._worker_free = [float(value)] * len(self._worker_free)

    def register(self, tenant_id: int) -> None:
        self._tenants.add(int(tenant_id))

    @property
    def tenant_fair_share(self) -> int:
        """Max queued samples one tenant may hold (admission fairness)."""
        if self.config.max_per_tenant is not None:
            return self.config.max_per_tenant
        return max(1, self.config.queue_capacity // max(1, len(self._tenants)))

    def queued_samples(self, tenant: Optional[int] = None) -> int:
        return sum(
            q.samples for q in self._queue if tenant is None or q.tenant == tenant
        )

    def health(self) -> dict[str, object]:
        """JSON-ready operational snapshot of this scheduler.

        The per-shard panel of ``FleetRouter.health()`` and ``repro
        top``: instantaneous queue state plus the windowable wait
        summaries.  ``queue_depth`` is live (samples queued right now);
        ``queue_depth_hw`` is the high-water gauge the autoscaler reads
        and resets per round.
        """
        counters = self.counters
        wait_h = counters.request_wait_histogram
        return {
            "shard": self.shard,
            "clock_ms": self.clock_ms,
            "queue_depth": self.queued_samples(),
            "queue_depth_hw": self.queue_depth_gauge.value,
            "busy_fraction": (
                self.workers_busy_gauge.value / self.config.num_workers
                if self.config.num_workers
                else 0.0
            ),
            "num_workers": self.config.num_workers,
            "samples_served": counters.samples_served,
            "shed_samples": counters.shed_samples,
            "batches": counters.batches,
            "mean_queue_wait_ms": counters.mean_queue_wait_ms,
            "p99_queue_wait_ms": wait_h.p99,
            "tenants": len(self._tenants),
        }

    # -- admission -----------------------------------------------------
    def submit(self, frame: bytes, arrival_ms: float) -> bytes:
        """Admit (or refuse) one encoded miss-path frame.

        Returns an encoded :class:`SchedulerAck` on admission, or an
        :class:`ErrorResponse` — 400 for undecodable frames, 405 for
        non-batch messages, 422 when the features do not decode (the
        decode happens here, so one tenant's bad payload never reaches
        a shared batch), 503 when admission control sheds the request.
        The 503 carries no ticket: the class ids will never come, and
        the client's retry policy (then binary-branch fallback) takes
        over.
        """
        counters = self.counters
        counters.add("submitted_requests")
        try:
            message = decode_frame(frame)
        except ProtocolError as exc:
            counters.add("malformed_requests")
            return encode_frame(ErrorResponse(code=400, message=str(exc)))
        if not isinstance(message, BatchInferenceRequest):
            counters.add("malformed_requests")
            return encode_frame(
                ErrorResponse(
                    code=405,
                    message=(
                        "scheduler serves batched inference only, got "
                        f"{type(message).__name__}"
                    ),
                )
            )
        try:
            features = message.features()
        except ValueError as exc:  # CodecError, ProtocolError, bad reshape
            counters.add("malformed_requests")
            return encode_frame(ErrorResponse(code=422, message=str(exc)))
        tenant = int(message.session_id)
        self.register(tenant)
        n = len(message.sequences)
        counters.add("submitted_samples", n)
        row = counters.tenant(tenant)
        row["submitted"] += n

        key = (tenant, message.sequences)
        if key in self._dedupe:
            # Duplicate delivery of an already-queued request: same
            # ticket, no new queue entry — submission is idempotent.
            return encode_frame(
                SchedulerAck(
                    session_id=tenant,
                    ticket=self._dedupe[key],
                    queued_samples=self.queued_samples(),
                )
            )
        if self.queued_samples() + n > self.config.queue_capacity:
            counters.add("shed_requests")
            counters.add("shed_samples", n)
            row["shed"] += n
            return encode_frame(
                ErrorResponse(
                    code=503,
                    message=(
                        f"queue full: {self.queued_samples()}+{n} over "
                        f"{self.config.queue_capacity} samples"
                    ),
                )
            )
        held = self.queued_samples(tenant)
        # Fairness sheds a tenant's *additional* requests; a tenant with
        # nothing queued is never starved by the share arithmetic.
        if held > 0 and held + n > self.tenant_fair_share:
            counters.add("shed_requests")
            counters.add("shed_samples", n)
            row["shed"] += n
            return encode_frame(
                ErrorResponse(
                    code=503,
                    message=(
                        f"tenant {tenant} over fair share: {held}+{n} over "
                        f"{self.tenant_fair_share} samples"
                    ),
                )
            )
        ticket = next(self._tickets)
        self._queue.append(
            _Queued(
                ticket=ticket,
                tenant=tenant,
                request=message,
                features=features,
                arrival_ms=float(arrival_ms),
            )
        )
        self._dedupe[key] = ticket
        counters.add("accepted_requests")
        counters.add("accepted_samples", n)
        row["accepted"] += n
        depth = self.queued_samples()
        counters.set_max("max_queue_depth", depth)
        self.queue_depth_gauge.set_max(depth)
        return encode_frame(
            SchedulerAck(session_id=tenant, ticket=ticket, queued_samples=depth)
        )

    # -- batch formation and execution ---------------------------------
    def _choose(self, eligible: list[_Queued]) -> tuple[list[_Queued], bool]:
        """Pick one batch from the window-eligible requests.

        The queue head (oldest arrival) is always taken — even if it
        alone exceeds ``max_batch_size``, so oversized requests cannot
        starve.  Remaining budget is filled round-robin across tenants
        in id order, one request per tenant per sweep, so no tenant's
        burst monopolizes a batch.  Returns ``(chosen, full)`` where
        ``full`` means the batch need not wait out the window (budget
        exhausted or eligible work left behind).
        """
        by_tenant: dict[int, list[_Queued]] = {}
        for q in eligible:
            by_tenant.setdefault(q.tenant, []).append(q)
        head = eligible[0]
        by_tenant[head.tenant].remove(head)
        chosen = [head]
        budget = self.config.max_batch_size - head.samples
        order = sorted(by_tenant)
        progressed = True
        while budget > 0 and progressed:
            progressed = False
            for tenant in order:
                rest = by_tenant[tenant]
                if rest and rest[0].samples <= budget:
                    q = rest.pop(0)
                    chosen.append(q)
                    budget -= q.samples
                    progressed = True
        full = budget <= 0 or len(chosen) < len(eligible)
        return chosen, full

    def _execute_batch(self, batch: _Batch) -> tuple[np.ndarray, float]:
        """Run one batch's real trunk pass (worker-pool task).

        Runs entirely on the pool thread with no shared lock: the engine
        is thread-safe end-to-end — no-grad mode is thread-local,
        kernel/geometry caches are locked, counters take atomic adds,
        and concurrent batches lease distinct compiled-plan instances
        from the endpoint's pool (see DESIGN.md §11).  Returns
        ``(logits, infer_wall_ms)``.
        """
        rec = self.recorder
        wall0 = now_ms() if rec.enabled else 0.0
        features = np.concatenate([q.features for q in batch.chosen], axis=0)
        logits = self.endpoint.infer(features)
        infer_wall_ms = now_ms() - wall0 if rec.enabled else 0.0
        return logits, infer_wall_ms

    def flush(self) -> list[int]:
        """Form and execute batches until the queue drains.

        Two phases.  *Formation* (serial, deterministic): batches are
        drawn from the queue exactly as a single-worker scheduler would
        draw them — membership depends only on arrivals and the window —
        and each is assigned to the earliest-free simulated worker
        (ties break on the lowest worker index), starting when its
        window closes — ``head arrival + window_ms`` — or as soon as
        its last member arrived if it filled up early, and never before
        its worker is free.  *Execution*: every batch is one real trunk
        pass over the concatenated feature stacks (predictions are
        bit-identical to per-request serving — the trunk's math is
        per-sample), run through the worker pool and priced once by the
        service model; replies are then routed serially in formation
        order.  Returns the served tickets in completion order.
        """
        served: list[int] = []
        cfg = self.config
        rec = self.recorder

        batches: list[_Batch] = []
        while self._queue:
            self._queue.sort(key=lambda q: (q.arrival_ms, q.ticket))
            head = self._queue[0]
            close = head.arrival_ms + cfg.window_ms
            eligible = [q for q in self._queue if q.arrival_ms <= close]
            chosen, full = self._choose(eligible)
            total = sum(q.samples for q in chosen)
            gate = max(q.arrival_ms for q in chosen) if full else close
            worker = min(
                range(len(self._worker_free)), key=lambda i: (self._worker_free[i], i)
            )
            start = max(self._worker_free[worker], gate)
            exec_ms = self.service_model.batch_ms(total)
            self._worker_free[worker] = start + exec_ms
            batches.append(
                _Batch(
                    batch_id=next(self._batch_ids),
                    worker=worker,
                    chosen=chosen,
                    total=total,
                    start_ms=start,
                    exec_ms=exec_ms,
                )
            )
            for q in chosen:
                self._queue.remove(q)

        outputs = self.worker_pool.map(self._execute_batch, batches)
        self.counters.set_max("max_workers_busy", self.worker_pool.max_busy)

        for batch, (logits, infer_wall_ms) in zip(batches, outputs):
            # Same softmax/argmax math as EdgeProtocolServer's per-request
            # path, so scheduled answers match unscheduled ones bit-for-bit.
            probs = np.exp(logits - logits.max(axis=1, keepdims=True))
            probs /= probs.sum(axis=1, keepdims=True)
            class_ids = logits.argmax(axis=1)

            start = batch.start_ms
            waits = 0.0
            offset = 0
            for q in batch.chosen:
                ids = class_ids[offset : offset + q.samples]
                response = BatchInferenceResponse(
                    session_id=q.request.session_id,
                    sequences=q.request.sequences,
                    class_ids=tuple(int(c) for c in ids),
                    confidences=tuple(
                        float(probs[offset + i, c]) for i, c in enumerate(ids)
                    ),
                )
                wait = start - q.arrival_ms
                self._results[q.ticket] = (encode_frame(response), wait)
                self.counters.record_request_wait(wait)
                self.counters.tenant(q.tenant)["served"] += q.samples
                waits += wait * q.samples
                offset += q.samples
                served.append(q.ticket)
                self._dedupe.pop((q.tenant, q.request.sequences), None)
                if rec.enabled:
                    rec.add_span(
                        "sched.queue_wait",
                        track="edge",
                        trace_id=q.request.trace_id,
                        sim_start_ms=q.arrival_ms,
                        sim_ms=wait,
                        ticket=q.ticket,
                        tenant=q.tenant,
                        samples=q.samples,
                        batch=batch.batch_id,
                    )
            self.counters.record_batch(batch.total, batch.exec_ms, waits)
            if rec.enabled:
                batch_span = rec.add_span(
                    "trunk.batch",
                    track="edge",
                    sim_start_ms=start,
                    sim_ms=batch.exec_ms,
                    wall_ms=infer_wall_ms,
                    batch=batch.batch_id,
                    size=batch.total,
                    requests=len(batch.chosen),
                    worker=batch.worker,
                    tenants=sorted({q.tenant for q in batch.chosen}),
                    trace_ids=[
                        q.request.trace_id for q in batch.chosen if q.request.trace_id
                    ],
                )
                rec.add_span(
                    f"trunk.worker[{batch.worker}]",
                    track="edge",
                    sim_start_ms=start,
                    sim_ms=batch.exec_ms,
                    parent=batch_span,
                    batch=batch.batch_id,
                    size=batch.total,
                )
        return served

    # -- reply routing -------------------------------------------------
    def collect(self, ticket: int) -> tuple[bytes, float]:
        """Take one ticket's reply: ``(encoded frame, queue delay ms)``."""
        if ticket not in self._results:
            raise KeyError(f"no result for ticket {ticket}; flush() first")
        return self._results.pop(ticket)


def _browser_chunk_ms(ctx, browser_device: DeviceProfile, count: int) -> float:
    """Deterministic estimate of a chunk's local compute time.

    Arrival timestamps must not consume link RNG (that would perturb the
    latency pricing stream), so the submit time is the plan's browser
    compute steps alone — when the stem/branch work is done and the miss
    frame is ready to leave the device.
    """
    per_sample = sum(
        step.duration_ms(browser_device)
        for step in ctx.plan.per_sample_steps
        if isinstance(step, ComputeStep)
    )
    return per_sample * count


@dataclass
class _SessionState:
    """One concurrent session's progress through its image stream."""

    deployment: LCRSDeployment
    ctx: object
    images: np.ndarray
    clock_ms: float = 0.0
    cursor: int = 0

    def __post_init__(self) -> None:
        self.outcomes: list[RecognitionOutcome] = []
        self.costs: list[SampleCost] = []

    @property
    def done(self) -> bool:
        return self.cursor >= len(self.images)


def run_concurrent_sessions(
    deployments: Sequence[LCRSDeployment],
    streams: Sequence[np.ndarray],
    scheduler: EdgeScheduler,
    config: Optional[SessionConfig] = None,
    recorder=None,
) -> list[SessionResult]:
    """Drive N sessions against one shared scheduler, in lockstep rounds.

    Each round, every unfinished session runs its next chunk's browser
    phase and submits its misses (with the full retry-then-fallback
    transport semantics of a private session); the scheduler then closes
    its windows and executes the round's dynamic batches; finally each
    session collects its correlated reply and prices the chunk — the
    scheduler's queueing delay lands on the missed samples' ``queue_ms``.
    Session clocks advance by their own chunks' total cost, so faster
    sessions drift ahead and arrivals stagger realistically while the
    whole run stays deterministic under fixed seeds.

    Predictions, entropies, and exit decisions are bit-identical to
    running each session alone against a private endpoint; only the
    timing (queue delays, amortized trunk passes) differs — with or
    without tracing.

    ``recorder`` (a :class:`~repro.observability.Tracer`) traces the
    whole run: each session's chunks on its own ``session-<id>`` track
    and the scheduler's queue waits and batched trunk passes on the
    shared ``edge`` track, correlated by the trace ids carried in the
    request frames.  It is installed on the scheduler for the run, so
    device- and edge-side spans land in one timeline.
    """
    if len(deployments) != len(streams):
        raise ValueError("need exactly one image stream per deployment")
    if recorder is not None:
        scheduler.recorder = recorder
    rec = scheduler.recorder
    cfg = config if config is not None else SessionConfig()
    # Session-level registry series (satellite of the SLO layer): who
    # served each sample and the running fallback fraction.  They live
    # on the scheduler's (or fleet's) registry, which the SLO monitor
    # reads; each deployment's `fault.*` counters live on its own
    # private registry.  ``scheduler`` may be a FleetRouter,
    # which exposes ``registry`` directly and no shard identity (these
    # series aggregate the whole fleet; sessions move across shards).
    registry = getattr(scheduler, "registry", None)
    if registry is None:
        registry = scheduler.counters.registry
    shard = getattr(scheduler, "shard", None)
    session_labels = {"shard": shard} if shard is not None else {}
    samples_c = registry.counter(labeled("session.samples", **session_labels))
    fallback_c = registry.counter(
        labeled("session.fallback_samples", **session_labels)
    )
    fallback_rate_g = registry.gauge(
        labeled("session.fallback_rate", **session_labels)
    )
    served_by_c: dict[str, Counter] = {}
    sessions: list[_SessionState] = []
    for deployment, images in zip(deployments, streams):
        scheduler.register(deployment._session_id)
        sessions.append(
            _SessionState(
                deployment=deployment,
                ctx=deployment._session_context(cfg, recorder=rec),
                images=np.asarray(images),
            )
        )

    # Closed-loop τ control (the FleetRouter seam): when the scheduler
    # exposes per-session threshold/tier lookups, each round's chunks
    # gate with the controller's current values for the session's shard.
    # A bare scheduler — or a fleet without `enable_tau_control` — has
    # no lookups (or returns None), and the contexts are never touched,
    # which keeps static-τ runs bit-identical to pre-controller code.
    session_threshold = getattr(scheduler, "session_threshold", None)
    session_quality_tier = getattr(scheduler, "session_quality_tier", None)

    while not all(s.done for s in sessions):
        in_flight = []
        for s in sessions:
            if s.done:
                continue
            deployment = s.deployment
            if session_threshold is not None:
                tau = session_threshold(deployment._session_id)
                if tau is not None:
                    s.ctx.threshold = float(tau)
            if session_quality_tier is not None:
                tier = session_quality_tier(deployment._session_id)
                if tier is not None:
                    s.ctx.quality_tier = max(
                        1, min(int(tier), deployment.browser.max_quality_tier)
                    )
            pending = deployment._begin_chunk(s.images, s.cursor, s.ctx)
            ticket = None
            if pending.request is not None:
                arrival = s.clock_ms + _browser_chunk_ms(
                    s.ctx, deployment.browser_device, pending.count
                )
                session_id = deployment._session_id
                ticket = deployment._send_with_retry(
                    pending,
                    s.ctx,
                    "scheduler",
                    # Retries arrive later on the simulated clock: the
                    # time already burned failing shifts their arrival.
                    deliver=lambda frame, wasted_ms: scheduler.submit(
                        frame, arrival + wasted_ms
                    ),
                    # The class ids come at collect; admission is a ticket.
                    accept=lambda reply: (
                        reply.ticket
                        if isinstance(reply, SchedulerAck)
                        and reply.session_id == session_id
                        else None
                    ),
                )
                if ticket is None:
                    # Admission refused to exhaustion (or the link ate
                    # every attempt): the chunk degrades to the branch.
                    deployment._apply_reply(pending, None)
            in_flight.append((s, pending, ticket))

        scheduler.flush()

        for s, pending, ticket in in_flight:
            deployment = s.deployment
            if ticket is not None:
                raw, wait_ms = scheduler.collect(ticket)
                reply = _decode_reply(raw, rec, pending.trace_id, s.ctx.track)
                if deployment._reply_valid(reply, pending.request):
                    pending.queue_ms = wait_ms
                else:
                    deployment.fault_counters.add("replies_rejected")
                    reply = None
                deployment._apply_reply(pending, reply)
            deployment._finish_chunk(
                pending, s.ctx, s.outcomes, s.costs, sim_now=s.clock_ms
            )
            if pending.count:
                samples_c.add(pending.count)
                for outcome in s.outcomes[-pending.count :]:
                    who = outcome.served_by
                    counter = served_by_c.get(who)
                    if counter is None:
                        counter = registry.counter(
                            labeled(f"session.served_by.{who}", **session_labels)
                        )
                        served_by_c[who] = counter
                    counter.add(1)
                    if who == SERVED_BY_FALLBACK:
                        fallback_c.add(1)
                fallback_rate_g.set(
                    fallback_c.value / samples_c.value if samples_c.value else 0.0
                )
            s.clock_ms += sum(c.total_ms for c in s.costs[-pending.count :])
            s.cursor += pending.count

    telemetry = rec.summary() if rec.enabled else None
    return [
        SessionResult(
            outcomes=s.outcomes,
            trace=SessionTrace(
                approach="lcrs-scheduled",
                network=s.deployment.system.model.base_name,
                samples=s.costs,
            ),
            telemetry=telemetry,
        )
        for s in sessions
    ]
