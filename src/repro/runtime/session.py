"""End-to-end LCRS deployment: real inference + simulated distribution.

This is the system of Figure 8 in executable form.  The *computation* is
real — the browser side executes the serialized ``.lcrs`` bundle through
the bit-packed interpreter, the edge side executes the main trunk through
the training framework — while the *distribution* (link transfers, device
speeds, page loads) is priced by the latency model, since the physical
testbed (HUAWEI Mate 9, IBM X3640M4, 4G) is not available offline.

Message flow per sample (Algorithm 2 over the wire):

1. browser: ``features = stem(x)`` then ``logits_b = branch(features)``;
2. browser: ``S(softmax(logits_b)) < τ`` → answer locally, done;
3. otherwise: POST ``features`` (fp32 conv1 output) → edge;
4. edge: ``logits_m = trunk(features)`` → respond with the class id.

Failure model (§IV-D.1, "the network bandwidth is instability"): step 3
runs through a :class:`~repro.runtime.network.RetryPolicy` — dropped,
timed-out, corrupted, or rejected exchanges are retried with backoff,
and when the policy is exhausted the sample is answered by the *binary
branch* computed in step 1.  Degraded connectivity costs accuracy, never
availability; each outcome records who served it and how many attempts
it took.
"""

from __future__ import annotations

import itertools
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional

import numpy as np

from ..core.entropy import normalized_entropy
from ..core.system import LCRS
from ..nn import Sequential
from ..nn.autograd import Tensor, no_grad
from ..nn.functional import softmax
from ..nn.module import Module
from ..observability import NULL_RECORDER, TelemetrySummary
from ..profiling import FLOAT_BYTES, FaultCounters, NetworkProfile
from ..wasm import WasmModel, serialize_browser_bundle
from .latency import (
    ComputeStep,
    ExecutionPlan,
    Location,
    ModelLoadStep,
    SampleCost,
    SessionTrace,
    TransferStep,
    profile_compute_step,
    simulate_plan,
)
from .feature_codec import FP32_CODEC, FeatureCodec, get_codec
from .network import (
    DEFAULT_RETRY_POLICY,
    FAULT_PROFILES,
    FrameDropped,
    FrameTimeout,
    NetworkLink,
    RetryPolicy,
    faulty,
)
from .protocol import (
    BatchInferenceRequest,
    BatchInferenceResponse,
    EdgeProtocolServer,
    ErrorResponse,
    ProtocolError,
    decode_frame,
    encode_frame,
)
from .profiles import DeviceProfile, EDGE_SERVER, MOBILE_BROWSER_WASM

#: Bytes of the classification response message (class id + confidence).
RESULT_BYTES = 64

#: Process-wide monotonic session ids: deterministic for a given call
#: sequence and collision-free across live deployments (``id(self)`` was
#: neither — it varies run to run and recycles addresses).
_SESSION_IDS = itertools.count(1)

#: ``served_by`` values on :class:`RecognitionOutcome`.
SERVED_BY_BRANCH = "binary-branch"
SERVED_BY_EDGE = "edge"
SERVED_BY_FALLBACK = "binary-fallback"

#: :class:`FaultyLink` knobs that :class:`SessionConfig.fault_overrides`
#: may set.
_FAULT_KNOBS = ("corrupt_prob", "drop_prob", "duplicate_prob", "timeout_prob")

#: Sentinel marking the removed pre-``SessionConfig`` ``run_session``
#: kwargs: any explicit value (even ``None``) now raises ``TypeError``.
_REMOVED = object()


@dataclass(frozen=True)
class SessionConfig:
    """Everything one :meth:`LCRSDeployment.run_session` call can vary.

    The deployment object owns the *system* (model, devices, default
    link, default codec); a :class:`SessionConfig` owns the *session* —
    how a particular image stream is pushed through it.  It is frozen and
    hashable so configurations can be logged, compared, and reused across
    sweeps, and every field is validated at construction time rather than
    deep inside a session loop.

    ``batch_size=1`` is the degenerate per-sample path — there is one
    serving code path, and larger batches only change how many frames
    share a stem/branch pass and a miss-path frame.

    ``threshold``/``codec`` override the deployment's entropy gate and
    feature codec for this session only.  ``fault_profile`` (a
    :data:`~repro.runtime.network.FAULT_PROFILES` name) and
    ``fault_overrides`` (per-knob probabilities) wrap the deployment link
    with seeded fault injection for this session only; ``fault_seed``
    seeds those draws.  ``fault_overrides`` accepts a mapping and is
    normalized to a sorted tuple of pairs so the config stays hashable.

    ``compile_plan`` routes the stem/branch engines and the edge trunk
    through trace-compiled fused plans (see :mod:`repro.wasm.plan`).
    Plans are probe-verified bit-identical to the interpreter at compile
    time and fall back to it transparently (no C compiler, unsupported
    layer, verification failure), so this is purely a throughput knob —
    predictions, entropies, and exit decisions never change.

    ``quality_tier`` pins the branch's accuracy tier (active ABC-Net
    bases) for this session; ``None`` (the default) uses the
    deployment's full-quality branch, which for single-base deployments
    is the only tier and keeps the session bit-identical to pre-tier
    behaviour.
    """

    batch_size: int = 1
    cold_start: bool = False
    codec: Optional[str] = None
    retry_policy: Optional[RetryPolicy] = None
    threshold: Optional[float] = None
    fault_profile: Optional[str] = None
    fault_overrides: tuple = ()
    fault_seed: int = 0
    compile_plan: bool = True
    quality_tier: Optional[int] = None

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError("batch_size must be positive")
        if self.quality_tier is not None and self.quality_tier < 1:
            raise ValueError("quality_tier must be at least 1")
        if self.threshold is not None and not 0.0 <= self.threshold <= 1.0:
            raise ValueError("threshold must be in [0, 1]")
        if self.codec is not None:
            get_codec(self.codec)  # raises CodecError on unknown names
        if self.fault_profile is not None and self.fault_profile not in FAULT_PROFILES:
            raise ValueError(
                f"unknown fault profile {self.fault_profile!r}; "
                f"choose from {sorted(FAULT_PROFILES)}"
            )
        overrides = self.fault_overrides
        if isinstance(overrides, Mapping):
            overrides = tuple(overrides.items())
        normalized = []
        for name, prob in tuple(overrides):
            if name not in _FAULT_KNOBS:
                raise ValueError(
                    f"unknown fault override {name!r}; choose from {list(_FAULT_KNOBS)}"
                )
            prob = float(prob)
            if not 0.0 <= prob <= 1.0:
                raise ValueError(f"fault override {name} must be in [0, 1], got {prob}")
            normalized.append((name, prob))
        object.__setattr__(self, "fault_overrides", tuple(sorted(normalized)))

    @property
    def injects_faults(self) -> bool:
        return self.fault_profile is not None or bool(self.fault_overrides)


@dataclass
class _SessionContext:
    """One session's resolved knobs (config defaults filled in).

    ``recorder``/``track`` carry the session's tracing context (the
    default :data:`~repro.observability.NULL_RECORDER` keeps the serving
    loop allocation-free); ``stem_ms``/``branch_ms`` are the per-sample
    simulated browser compute times, precomputed once so traced chunks
    can be placed on the simulated timeline without consuming link RNG.
    """

    config: SessionConfig
    plan: "ExecutionPlan"
    codec: FeatureCodec
    policy: RetryPolicy
    threshold: float
    link: NetworkLink
    recorder: object = NULL_RECORDER
    track: str = "main"
    stem_ms: float = 0.0
    branch_ms: float = 0.0
    # Accuracy tier (active ABC-Net bases) for chunks begun from now on.
    # A closed-loop controller may mutate `threshold`/`quality_tier`
    # between chunks; in-flight chunks keep the values they started with.
    quality_tier: int = 1
    # Tier → priced plan cache (tier plans differ only in branch FLOPs).
    tier_plans: dict = field(default_factory=dict)


@dataclass
class _PendingChunk:
    """A chunk mid-flight: local work done, miss-path answer outstanding.

    The serving loop is split into phases — :meth:`LCRSDeployment._begin_chunk`
    (browser compute + request build), reply application, and
    :meth:`LCRSDeployment._finish_chunk` (latency pricing + outcome
    emission) — so the same session code runs both against a private
    edge endpoint (reply is immediate) and against a shared
    :class:`~repro.runtime.scheduler.EdgeScheduler` (reply arrives after
    the batching window closes, with a queue delay attached).
    """

    start: int
    count: int
    predictions: np.ndarray
    entropies: np.ndarray
    exits: np.ndarray
    miss_idx: np.ndarray
    request: Optional[BatchInferenceRequest] = None
    served_by: str = SERVED_BY_BRANCH
    attempts: int = 0
    retry_ms: float = 0.0
    queue_ms: float = 0.0
    # Accuracy tier the chunk's branch pass ran at, captured at begin
    # time so a mid-flight tier switch cannot corrupt its pricing.
    quality_tier: int = 1
    # Tracing context (empty/None when the recorder is disabled): the
    # chunk's trace id, its open root span, and the named child spans
    # that pricing places on the simulated timeline at finish.
    trace_id: str = ""
    root: Optional[object] = None
    spans: dict = field(default_factory=dict)


def _decode_reply(raw: bytes, recorder, trace_id: str, track: str):
    """Decode one reply frame (``None`` if malformed) under a
    ``codec.decode`` span — a no-op span when ``recorder`` is disabled."""
    with recorder.span("codec.decode", track=track, trace_id=trace_id):
        try:
            return decode_frame(raw)
        except ProtocolError:
            return None


@dataclass(frozen=True)
class RecognitionOutcome:
    """One sample's journey through the deployed system.

    ``served_by`` names who produced the prediction — ``"binary-branch"``
    (confident local exit), ``"edge"`` (collaborative answer from the
    trunk), or ``"binary-fallback"`` (the edge was unreachable and the
    branch answer was used as a degraded exit).  A local exit produced
    below the deployment's full accuracy tier is suffixed with the tier
    it ran at (``"binary-branch@tier1"``); the exact tier is always on
    ``cost.quality_tier``.  ``attempts`` counts miss-path frame
    exchanges (0 for local exits).
    """

    index: int
    prediction: int
    exited_locally: bool
    entropy: float
    cost: SampleCost
    served_by: str = SERVED_BY_BRANCH
    attempts: int = 0


@dataclass
class SessionResult:
    """A full session: outcomes plus the aggregate latency trace.

    ``telemetry`` is populated only when the session ran with an enabled
    recorder — an aggregate of the recorder's spans and metric
    histograms (recorder-wide, so concurrent sessions sharing one tracer
    see the same summary).
    """

    outcomes: list[RecognitionOutcome]
    trace: SessionTrace
    telemetry: Optional[TelemetrySummary] = None

    @property
    def predictions(self) -> np.ndarray:
        return np.array([o.prediction for o in self.outcomes])

    @property
    def exit_rate(self) -> float:
        return float(np.mean([o.exited_locally for o in self.outcomes]))

    def accuracy(self, labels: np.ndarray) -> float:
        return float((self.predictions == np.asarray(labels)).mean())

    @property
    def mean_latency_ms(self) -> float:
        return self.trace.mean_latency_ms

    @property
    def fallback_rate(self) -> float:
        """Fraction of samples answered locally because the edge failed."""
        return float(
            np.mean([o.served_by == SERVED_BY_FALLBACK for o in self.outcomes])
        )

    @property
    def degraded(self) -> bool:
        """True if any sample had to fall back to the binary branch."""
        return any(o.served_by == SERVED_BY_FALLBACK for o in self.outcomes)

    @property
    def served_by_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for o in self.outcomes:
            counts[o.served_by] = counts.get(o.served_by, 0) + 1
        return counts

    @property
    def mean_attempts(self) -> float:
        """Mean frame exchanges per collaborative (miss-path) sample."""
        attempts = [o.attempts for o in self.outcomes if o.attempts > 0]
        return float(np.mean(attempts)) if attempts else 0.0


class _TrunkPlanPool:
    """A lease pool of compiled trunk plans for one (geometry, capacity).

    A :class:`~repro.wasm.plan.CompiledPlan` owns preallocated arena
    buffers, so one instance cannot serve two workers at once without
    serializing on its internal lock.  The pool hands each concurrent
    ``infer`` its *own* instance: ``lease`` pops an idle plan, or
    compiles a fresh one (outside the pool lock) while fewer than
    ``max_instances`` exist.  When the pool is exhausted — or the first
    compile failed — ``lease`` returns ``None`` and the caller takes the
    module path, which is bit-identical because every plan is
    probe-verified against the trunk module at compile time.
    """

    def __init__(
        self, trunk: Module, feature_shape: tuple, capacity: int, max_instances: int
    ) -> None:
        self._trunk = trunk
        self.feature_shape = tuple(int(d) for d in feature_shape)
        self.capacity = int(capacity)
        self.max_instances = int(max_instances)
        self._lock = threading.Lock()
        self._idle: list = []
        self._total = 0
        self._failed = False

    def lease(self):
        with self._lock:
            if self._failed:
                return None
            if self._idle:
                return self._idle.pop()
            if self._total >= self.max_instances:
                return None
            self._total += 1
        from ..wasm.plan import PlanCompileError, compile_trunk_plan

        try:
            return compile_trunk_plan(self._trunk, self.feature_shape, self.capacity)
        except PlanCompileError:
            with self._lock:
                self._failed = True
                self._total -= 1
                self._idle.clear()
            return None

    def release(self, plan) -> None:
        with self._lock:
            if not self._failed:
                self._idle.append(plan)

    @property
    def instances(self) -> int:
        with self._lock:
            return self._total


class EdgeEndpoint:
    """The edge server's inference service: conv1 features → class logits.

    When ``compile_plan`` is on, batches execute through a trace-compiled
    trunk plan (:func:`repro.wasm.plan.compile_trunk_plan`) leased from a
    per-(feature geometry, power-of-two capacity) pool; plans are
    probe-verified bit-identical to the module path at compile time, and
    compile failure or pool exhaustion falls back to the module path
    silently.  ``infer`` is thread-safe: concurrent callers lease
    distinct plan instances (each owns its own arena), the module path
    only reads frozen weights, and ``requests_served`` is bumped under a
    lock.
    """

    #: Plan pools kept per (feature geometry, capacity), LRU.
    PLAN_CACHE_SIZE = 8
    #: Max compiled plan instances per pool — bounds arena memory while
    #: letting that many workers run the trunk concurrently.
    PLAN_POOL_SIZE = 8

    def __init__(self, trunk: Module, *, compile_plan: bool = True) -> None:
        self._trunk = trunk
        self._trunk.eval()
        self.requests_served = 0
        self.compile_plan = bool(compile_plan)
        self._pools: "OrderedDict[tuple, _TrunkPlanPool]" = OrderedDict()
        self._pools_lock = threading.Lock()
        self._served_lock = threading.Lock()

    def _pool_for(self, feature_shape: tuple, batch_size: int) -> _TrunkPlanPool:
        """The plan pool for this geometry/capacity, created on miss.

        Capacity is the batch size rounded up to a power of two, so a
        ramp of batch sizes (1, 2, .., 64) shares a handful of pools
        instead of compiling one per size.
        """
        capacity = 1 << max(0, int(batch_size) - 1).bit_length()
        key = (tuple(int(d) for d in feature_shape), capacity)
        with self._pools_lock:
            pool = self._pools.get(key)
            if pool is None:
                pool = _TrunkPlanPool(
                    self._trunk, key[0], capacity, self.PLAN_POOL_SIZE
                )
                self._pools[key] = pool
                if len(self._pools) > self.PLAN_CACHE_SIZE:
                    self._pools.popitem(last=False)
            else:
                self._pools.move_to_end(key)
            return pool

    def _count_served(self, n: int) -> None:
        with self._served_lock:
            self.requests_served += n

    def infer(
        self,
        features: np.ndarray,
        *,
        recorder=None,
        trace_id: str = "",
        track: str = "edge",
    ) -> np.ndarray:
        if self.compile_plan and len(features):
            pool = self._pool_for(features.shape[1:], len(features))
            plan = pool.lease()
            if plan is not None:
                try:
                    logits = plan.execute(
                        np.ascontiguousarray(features, dtype=np.float32),
                        recorder=recorder,
                        trace_id=trace_id,
                        track=track,
                    )
                finally:
                    pool.release(plan)
                self._count_served(len(features))
                return logits
        with no_grad():
            logits = self._trunk(Tensor(features)).data
        self._count_served(len(features))
        return logits


class BrowserClient:
    """The mobile web browser: loads the ``.lcrs`` bundles, runs them.

    The stem and branch ship as separate engine instances because the
    stem output must be retained for possible upload to the edge —
    "the mobile web browser frees them after sending them to the edge
    server" (§IV-A).

    ``tier_payloads`` (one ``.lcrs`` payload per accuracy tier, lowest
    first, last entry the full-quality branch) enables the tiered-branch
    path: tier ``t`` runs the branch with its first ``t`` ABC-Net bases.
    Lower tiers reuse bases the full bundle already shipped, so they add
    no download bytes; engines below the top tier are loaded lazily on
    first use.  The default (no tiers) is the single-engine client.
    """

    def __init__(
        self,
        stem_payload: bytes,
        branch_payload: bytes,
        threshold: float,
        tier_payloads: tuple = (),
    ) -> None:
        self.stem_engine = WasmModel.load(stem_payload)
        self.branch_engine = WasmModel.load(branch_payload)
        self.threshold = threshold
        self.loaded_bytes = len(stem_payload) + len(branch_payload)
        self.compile_plan = True
        self._tier_payloads = tuple(tier_payloads)
        self.max_quality_tier = max(1, len(self._tier_payloads))
        self._tier_engines: dict[int, WasmModel] = {
            self.max_quality_tier: self.branch_engine
        }

    def branch_engine_for(self, quality_tier: int) -> WasmModel:
        """The branch engine for an accuracy tier (clamped; lazy-loaded)."""
        tier = max(1, min(int(quality_tier), self.max_quality_tier))
        engine = self._tier_engines.get(tier)
        if engine is None:
            engine = WasmModel.load(self._tier_payloads[tier - 1])
            self._tier_engines[tier] = engine
        return engine

    def set_compile_plan(self, compile_plan: bool) -> None:
        """Route both engines through trace-compiled plans (or not).

        Purely a performance knob: plans are probe-verified bit-identical
        to the interpreter and fall back to it transparently (see
        :meth:`repro.wasm.WasmModel.forward_planned`).
        """
        self.compile_plan = bool(compile_plan)

    def process(self, image: np.ndarray) -> tuple[np.ndarray, np.ndarray, float, bool]:
        """Run the local pipeline on one CHW image.

        Returns (features, binary_logits, entropy, exit_decision).
        """
        features, logits, entropies, exits = self.process_batch(image[None])
        return features, logits, float(entropies[0]), bool(exits[0])

    def process_batch(
        self,
        images: np.ndarray,
        threshold: Optional[float] = None,
        *,
        quality_tier: Optional[int] = None,
        recorder=NULL_RECORDER,
        trace_id: str = "",
        track: str = "browser",
        spans: Optional[dict] = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Run the local pipeline on a whole NCHW batch at once.

        One stem pass, one branch pass, and a vectorized entropy gate
        for N frames — the engines' kernels amortize their per-call
        dispatch over the batch, which is where the batched serving
        path's throughput comes from.  Returns ``(features, logits,
        entropies, exit_mask)`` with one row per sample; the math is
        bit-identical to processing samples one at a time.

        ``threshold`` overrides the calibrated entropy gate for this
        call (session-level τ sweeps); the default is the loaded one.
        ``quality_tier`` selects the branch accuracy tier (``None`` = the
        full-quality branch, identical to the pre-tier client).

        With an enabled ``recorder``, the three stages record as
        ``stem`` / ``binary_branch`` / ``entropy_gate`` spans on
        ``track`` (collected into ``spans`` when given, so the caller
        can price them on the simulated clock afterwards).  The math is
        identical on both paths; the disabled path allocates nothing.
        """
        gate = self.threshold if threshold is None else threshold
        branch = (
            self.branch_engine
            if quality_tier is None
            else self.branch_engine_for(quality_tier)
        )
        if not recorder.enabled:
            if self.compile_plan:
                features = self.stem_engine.forward_planned(images)
                logits = branch.forward_planned(features)
            else:
                features = self.stem_engine.forward(images)
                logits = branch.forward(features)
            probs = softmax(logits, axis=1)
            entropies = normalized_entropy(probs, axis=1)
            return features, logits, entropies, entropies < gate
        with recorder.span(
            "stem", track=track, trace_id=trace_id, samples=len(images)
        ) as stem_span:
            if self.compile_plan:
                features = self.stem_engine.forward_planned(
                    images, recorder=recorder, trace_id=trace_id, track=track
                )
            else:
                features = self.stem_engine.forward(images)
        with recorder.span(
            "binary_branch", track=track, trace_id=trace_id, samples=len(images)
        ) as branch_span:
            if self.compile_plan:
                logits = branch.forward_planned(
                    features, recorder=recorder, trace_id=trace_id, track=track
                )
            else:
                logits = branch.forward(features)
        with recorder.span("entropy_gate", track=track, trace_id=trace_id) as gate_span:
            probs = softmax(logits, axis=1)
            entropies = normalized_entropy(probs, axis=1)
            exit_mask = entropies < gate
        exits = int(exit_mask.sum())
        gate_span.set(
            threshold=float(gate),
            exits=exits,
            misses=len(images) - exits,
            mean_entropy=float(entropies.mean()) if len(entropies) else 0.0,
        )
        if spans is not None:
            spans["stem"] = stem_span
            spans["binary_branch"] = branch_span
            spans["entropy_gate"] = gate_span
        return features, logits, entropies, exit_mask


@dataclass
class LCRSAssets:
    """Deployment artifacts of a composite model, independent of training.

    Everything the latency engine needs to price LCRS — serialized
    bundle bytes, per-side profiles, the feature-transfer size — is a
    function of the *architecture* alone, so untrained models can drive
    the Table II/III and Figure 6/7 harnesses.
    """

    network: str
    stem_payload: bytes
    branch_payload: bytes
    stem_profile: NetworkProfile
    branch_profile: NetworkProfile
    trunk_profile: NetworkProfile
    feature_bytes: int
    #: Accuracy tiers the branch ships with (ABC-Net bases); 1 = the
    #: classic single-base XNOR branch, byte-identical to the pre-tier
    #: format.
    num_bases: int = 1
    #: Per-tier branch payloads (tier t = first t bases), empty for the
    #: single-base deployment.  The last entry equals ``branch_payload``.
    branch_tier_payloads: tuple = ()

    @property
    def bundle_bytes(self) -> int:
        """On-the-wire browser download (the Figure 7 LCRS bar)."""
        return len(self.stem_payload) + len(self.branch_payload)

    def plan(
        self, codec: FeatureCodec = FP32_CODEC, quality_tier: Optional[int] = None
    ) -> ExecutionPlan:
        """The LCRS execution plan for the latency engine.

        ``codec`` determines the miss-path feature payload size; the
        paper's behaviour is fp32 (the default).  ``quality_tier``
        prices the branch at that tier: the branch's binary FLOPs scale
        with the number of active bases (``branch_profile`` counts one
        base), which is the service-time knob the closed-loop controller
        steps under sustained overload.
        """
        tier = self.num_bases if quality_tier is None else int(quality_tier)
        if not 1 <= tier <= self.num_bases:
            raise ValueError(
                f"quality_tier must be in [1, {self.num_bases}], got {tier}"
            )
        browser_compute = ComputeStep(
            location=Location.BROWSER,
            float_flops=self.stem_profile.float_flops + self.branch_profile.float_flops,
            binary_flops=self.branch_profile.binary_flops * tier,
            num_layers=len(self.stem_profile) + len(self.branch_profile),
            label="stem+binary-branch",
        )
        feature_shape = tuple(self.trunk_profile.layers[0].input_shape[1:])
        feature_wire_bytes = codec.wire_bytes(feature_shape)
        return ExecutionPlan(
            approach="lcrs",
            network=self.network,
            setup_steps=[ModelLoadStep(self.bundle_bytes, label="load .lcrs bundle")],
            per_sample_steps=[browser_compute],
            miss_steps=[
                TransferStep(
                    feature_wire_bytes, upload=True,
                    label=f"conv1 features ({codec.name})",
                ),
                profile_compute_step(self.trunk_profile, Location.EDGE, "main trunk"),
                TransferStep(RESULT_BYTES, upload=False, label="result"),
            ],
        )


def build_lcrs_assets(model, num_bases: int = 1) -> LCRSAssets:
    """Extract deployment assets from a :class:`CompositeNetwork`.

    ``num_bases`` > 1 serializes the binary branch at every accuracy tier
    ``1..num_bases`` (ABC-Net residual bases — see
    :func:`repro.nn.binary.binarize_bases`); the shipped
    ``branch_payload`` is the full-quality tier.  The default produces
    byte-identical assets to the pre-tier builder.
    """
    if num_bases < 1:
        raise ValueError("num_bases must be at least 1")
    input_shape = (model.in_channels, model.input_size, model.input_size)
    stem_shape = model.stem_output_shape
    if num_bases == 1:
        branch_payload = serialize_browser_bundle(model.binary_branch, stem_shape)
        tier_payloads: tuple = ()
    else:
        tier_payloads = tuple(
            serialize_browser_bundle(model.binary_branch, stem_shape, num_bases=t)
            for t in range(1, num_bases + 1)
        )
        branch_payload = tier_payloads[-1]
    return LCRSAssets(
        network=model.base_name,
        stem_payload=serialize_browser_bundle(model.stem, input_shape),
        branch_payload=branch_payload,
        stem_profile=NetworkProfile.of(model.stem, input_shape),
        branch_profile=NetworkProfile.of(model.binary_branch, stem_shape),
        trunk_profile=NetworkProfile.of(model.main_trunk, stem_shape),
        feature_bytes=int(np.prod(stem_shape)) * FLOAT_BYTES,
        num_bases=num_bases,
        branch_tier_payloads=tier_payloads,
    )


class LCRSDeployment:
    """Deployed LCRS system: a browser client, an edge endpoint, a link."""

    def __init__(
        self,
        system: LCRS,
        link: NetworkLink,
        browser_device: DeviceProfile = MOBILE_BROWSER_WASM,
        edge_device: DeviceProfile = EDGE_SERVER,
        feature_codec: FeatureCodec = FP32_CODEC,
        retry_policy: Optional[RetryPolicy] = None,
        recorder=None,
        num_bases: int = 1,
    ) -> None:
        if system.calibration is None:
            raise RuntimeError("calibrate the system before deploying it")
        self.system = system
        self.link = link
        self.browser_device = browser_device
        self.edge_device = edge_device
        self.feature_codec = feature_codec
        self.retry_policy = retry_policy if retry_policy is not None else DEFAULT_RETRY_POLICY
        self.fault_counters = FaultCounters()
        # Tracing is opt-in: the null recorder keeps every span call site
        # behind a single `enabled` check with zero per-sample allocation.
        self.recorder = recorder if recorder is not None else NULL_RECORDER

        self.assets = build_lcrs_assets(system.model, num_bases=num_bases)
        self.browser = BrowserClient(
            self.assets.stem_payload,
            self.assets.branch_payload,
            system.threshold,
            tier_payloads=self.assets.branch_tier_payloads,
        )
        self.edge = EdgeEndpoint(system.model.main_trunk)
        # Misses travel as protocol frames: encode(features) → frame →
        # server → frame → class id, so the wire contract is exercised
        # on every collaborative sample.
        self._edge_server = EdgeProtocolServer(
            self.edge,
            bundles={
                system.model.base_name: self.assets.stem_payload
                + self.assets.branch_payload
            },
        )
        self._session_id = next(_SESSION_IDS)
        # Backoff jitter draws are independent of the link's latency
        # jitter, so fault-free sessions consume identical RNG streams
        # to the pre-retry implementation.
        self._retry_rng = np.random.default_rng(
            [getattr(link, "seed", 0), self._session_id]
        )

    def plan(self) -> ExecutionPlan:
        """The LCRS execution plan for the latency engine."""
        return self.assets.plan(codec=self.feature_codec)

    # ------------------------------------------------------------------
    # Fault-tolerant miss-path transport
    # ------------------------------------------------------------------
    def _reply_valid(self, reply, request: BatchInferenceRequest) -> bool:
        """Reject replies that do not answer *this* request.

        The server is not trusted to preserve order or even echo the
        right correlation ids — a reply must carry the request's session
        id and exactly its sequence set, else it is treated as a failed
        attempt.
        """
        return (
            isinstance(reply, BatchInferenceResponse)
            and reply.session_id == request.session_id
            and len(reply.sequences) == len(request.sequences)
            and set(reply.sequences) == set(request.sequences)
            and len(reply.class_ids) == len(reply.sequences)
        )

    def _send_with_retry(
        self,
        pending: _PendingChunk,
        ctx: _SessionContext,
        transport: str,
        deliver: Callable[[bytes, float], bytes],
        accept: Callable[[object], object],
    ):
        """Send a chunk's miss frame through the session's retry policy.

        The transport (``"direct"`` or ``"scheduler"``) is two
        operations: ``deliver(frame, wasted_ms)`` is the handler
        ``link.exchange`` hands the (possibly mangled) frame to, with
        ``wasted_ms`` the time failed attempts already burned;
        ``accept(reply)`` maps a decoded reply to the answer, or
        ``None`` if it does not answer this request.

        Returns the first accepted answer, or ``None`` when the policy
        ran out and the chunk must fall back to the binary branch
        (:meth:`_apply_reply` counts the fallback).
        Sets ``pending.attempts`` and ``pending.retry_ms``; the latter
        prices the failed attempts for the latency model: drops and
        timeouts cost a full per-attempt timeout window, rejected or
        corrupted exchanges cost the wasted round trip, and every retry
        adds its backoff sleep.  A 503 (scheduler queue full / tenant
        over fair share) counts as both an ``edge_error`` and an
        ``overload``; the private server never sheds.

        With an enabled recorder, the whole exchange records as one
        ``link.exchange`` span (kept in ``pending.spans`` for simulated
        clock pricing) with a ``link.attempt`` child per transport
        attempt (outcome, injected faults, and priced failure cost
        attached), so retries are individually visible in the timeline.
        """
        link, policy, rec, track = ctx.link, ctx.policy, ctx.recorder, ctx.track
        trace_id = pending.trace_id
        add = self.fault_counters.add
        ticketed = transport == "scheduler"
        # Scheduler acks carry no features: only direct replies are
        # decoded under a `codec.decode` span.
        decode_rec = NULL_RECORDER if ticketed else rec
        frame = encode_frame(pending.request)
        if rec.enabled:
            ex_span = rec.start_span(
                "link.exchange",
                track=track,
                trace_id=trace_id,
                transport=transport,
                frame_bytes=len(frame),
            )
            pending.spans["link.exchange"] = ex_span
        retry_ms = 0.0
        attempts = 0
        answer = None
        while attempts < policy.max_attempts and retry_ms < policy.deadline_ms:
            attempts += 1
            add("frames_sent")
            att_span = (
                rec.start_span(
                    "link.attempt", track=track, trace_id=trace_id, attempt=attempts
                )
                if rec.enabled
                else None
            )
            failure_ms: float
            try:
                raw = link.exchange(frame, lambda f: deliver(f, retry_ms))
            except FrameDropped:
                add("frames_dropped")
                failure_ms = policy.per_attempt_timeout_ms
                outcome = "dropped"
            except FrameTimeout:
                add("frames_timed_out")
                failure_ms = policy.per_attempt_timeout_ms
                outcome = "timed-out"
            else:
                faults = getattr(link, "last_faults", ())
                if "corrupt" in faults:
                    add("frames_corrupted")
                if "duplicate" in faults:
                    add("frames_duplicated")
                if att_span is not None and faults:
                    att_span.set(faults=list(faults))
                reply = _decode_reply(raw, decode_rec, trace_id, track)
                answer = accept(reply)
                if answer is not None:
                    break
                if isinstance(reply, ErrorResponse):
                    add("edge_errors")
                    if reply.code == 503:
                        add("overloads")
                        outcome = "shed"
                    else:
                        outcome = "edge-error"
                else:
                    add("replies_rejected")
                    outcome = "rejected"
                # A rejection came back quickly: price the wasted round
                # trip, not a full timeout window.
                failure_ms = link.upload_ms(len(frame)) + link.download_ms(
                    RESULT_BYTES
                )
            retry_ms += failure_ms
            if att_span is not None:
                att_span.set(outcome=outcome, failure_ms=failure_ms)
                rec.end_span(att_span)
            if attempts < policy.max_attempts and retry_ms < policy.deadline_ms:
                add("retries")
                retry_ms += policy.backoff_ms(attempts, self._retry_rng)
        pending.attempts = attempts
        pending.retry_ms = retry_ms
        if rec.enabled:
            if answer is not None:
                ok = {"ticket": answer} if ticketed else {}
                att_span.set(outcome="ok", **ok)
                rec.end_span(att_span)
                ex_span.set(outcome="ok", attempts=attempts, retry_ms=retry_ms, **ok)
            else:
                ex_span.set(outcome="fallback", attempts=attempts, retry_ms=retry_ms)
            rec.end_span(ex_span)
        return answer

    # ------------------------------------------------------------------
    # Real execution with priced timing
    # ------------------------------------------------------------------
    def _session_context(
        self, config: SessionConfig, recorder=None
    ) -> _SessionContext:
        """Resolve a config against the deployment's defaults."""
        codec = get_codec(config.codec) if config.codec is not None else self.feature_codec
        link = self.link
        if config.injects_faults:
            link = faulty(
                self.link,
                profile=config.fault_profile or "none",
                seed=config.fault_seed,
                **dict(config.fault_overrides),
            )
        rec = recorder if recorder is not None else self.recorder
        self.browser.set_compile_plan(config.compile_plan)
        self.edge.compile_plan = config.compile_plan
        stem_ms = branch_ms = 0.0
        if rec.enabled:
            # Deterministic per-sample browser compute (no link RNG): the
            # simulated placement of traced stem/branch spans.
            stem_ms = profile_compute_step(
                self.assets.stem_profile, Location.BROWSER, "stem"
            ).duration_ms(self.browser_device)
            branch_ms = profile_compute_step(
                self.assets.branch_profile, Location.BROWSER, "binary-branch"
            ).duration_ms(self.browser_device)
        tier = (
            config.quality_tier
            if config.quality_tier is not None
            else self.browser.max_quality_tier
        )
        if tier > self.browser.max_quality_tier:
            raise ValueError(
                f"quality_tier {tier} exceeds the deployment's "
                f"{self.browser.max_quality_tier} tier(s)"
            )
        plan = self.assets.plan(codec=codec, quality_tier=tier)
        return _SessionContext(
            config=config,
            plan=plan,
            codec=codec,
            policy=config.retry_policy or self.retry_policy,
            threshold=(
                config.threshold
                if config.threshold is not None
                else self.browser.threshold
            ),
            link=link,
            recorder=rec,
            track=f"session-{self._session_id}",
            stem_ms=stem_ms,
            branch_ms=branch_ms,
            quality_tier=tier,
            tier_plans={tier: plan},
        )

    def _begin_chunk(
        self, images: np.ndarray, start: int, ctx: _SessionContext
    ) -> _PendingChunk:
        """Browser phase: stem + branch + entropy gate, miss frame built.

        All of a chunk's misses ship as one protocol frame — one codec
        pass, one round trip — and the reply fans the class ids back out
        *keyed by sequence id*, so a server that reorders its answers
        still lands each class id on the right sample.

        When tracing is enabled the chunk opens a fresh trace: a root
        ``chunk`` span on the session track, stage spans from
        :meth:`BrowserClient.process_batch`, and a ``codec.encode`` span
        around the request build; the trace id travels to the edge in
        the request frame header.
        """
        chunk = np.asarray(images[start : start + ctx.config.batch_size])
        rec = ctx.recorder
        trace_id = ""
        root = None
        spans: dict = {}
        if rec.enabled:
            trace_id = rec.new_trace()
            root = rec.start_span(
                "chunk",
                track=ctx.track,
                trace_id=trace_id,
                session=self._session_id,
                start=start,
                batch_size=len(chunk),
            )
        features, logits, entropies, exits = self.browser.process_batch(
            chunk,
            threshold=ctx.threshold,
            quality_tier=ctx.quality_tier,
            recorder=rec,
            trace_id=trace_id,
            track=ctx.track,
            spans=spans,
        )
        predictions = logits.argmax(axis=1).astype(np.int64)
        miss_idx = np.flatnonzero(~exits)
        request = None
        if miss_idx.size:
            with rec.span("codec.encode", track=ctx.track, trace_id=trace_id) as enc:
                request = BatchInferenceRequest.from_features(
                    self._session_id,
                    [start + int(j) for j in miss_idx],
                    ctx.codec.name,
                    features[miss_idx],
                    trace_id=trace_id,
                )
            if rec.enabled:
                enc.set(
                    codec=ctx.codec.name,
                    misses=int(miss_idx.size),
                    payload_bytes=len(request.payload),
                )
                spans["codec.encode"] = enc
        return _PendingChunk(
            start=start,
            count=len(chunk),
            predictions=predictions,
            entropies=entropies,
            exits=exits,
            miss_idx=miss_idx,
            request=request,
            trace_id=trace_id,
            root=root,
            spans=spans,
            quality_tier=ctx.quality_tier,
        )

    def _apply_reply(
        self, pending: _PendingChunk, reply: Optional[BatchInferenceResponse]
    ) -> None:
        """Land the edge's answer (or the lack of one) on a chunk.

        This is the one place fallbacks are counted, in samples.
        """
        if reply is None:
            # The whole chunk degrades together: every miss keeps its
            # binary-branch argmax, already in `predictions`.
            pending.served_by = SERVED_BY_FALLBACK
            self.fault_counters.add("fallbacks", int(pending.miss_idx.size))
        else:
            by_sequence = {
                int(s): int(c) for s, c in zip(reply.sequences, reply.class_ids)
            }
            for j in pending.miss_idx:
                pending.predictions[j] = by_sequence[pending.start + int(j)]
            pending.served_by = SERVED_BY_EDGE

    def _finish_chunk(
        self,
        pending: _PendingChunk,
        ctx: _SessionContext,
        outcomes: list[RecognitionOutcome],
        costs: list[SampleCost],
        sim_now: float = 0.0,
    ) -> None:
        """Pricing phase: per-sample latency model + outcome emission.

        Costs stay per sample regardless of chunking: the latency model
        prices each frame exactly as a per-sample session does.  Every
        miss in the chunk waited out the same failed attempts (and the
        same scheduler queue delay, when one is attached), so each
        carries the chunk's full retry/queue cost.

        ``sim_now`` is the session's simulated clock at chunk start;
        when the chunk is traced, its spans are placed on the simulated
        timeline here (the root ``chunk`` span covers the chunk's full
        priced cost, stem/branch children lie at the front, and the
        residual — transfers, retries, queueing — lands on
        ``link.exchange``) and the root span is closed.
        """
        config = ctx.config
        # Price with the plan of the tier the chunk *ran* at (captured at
        # begin time), not the context's current tier — a controller may
        # have stepped the tier while this chunk was in flight.
        plan = ctx.tier_plans.get(pending.quality_tier)
        if plan is None:
            plan = self.assets.plan(
                codec=ctx.codec, quality_tier=pending.quality_tier
            )
            ctx.tier_plans[pending.quality_tier] = plan
        # Degraded tiers are visible in `served_by` for branch-served
        # samples; edge-served answers came from the fp32 trunk, whose
        # quality is tier-independent.
        degraded_tier = pending.quality_tier < self.browser.max_quality_tier
        for j in range(pending.count):
            i = pending.start + j
            is_miss = not bool(pending.exits[j])
            trace = simulate_plan(
                plan,
                num_samples=1,
                link=ctx.link,
                browser=self.browser_device,
                edge=self.edge_device,
                cold_start=True,
                # Miss steps are priced only when the exchange succeeded;
                # a fallback sample pays its failed attempts via retry_ms.
                miss_mask=[is_miss and pending.served_by == SERVED_BY_EDGE],
                retry_ms=[pending.retry_ms if is_miss else 0.0],
                queue_ms=[pending.queue_ms if is_miss else 0.0],
                # The bundle loads on the first visit only unless every
                # scan is a fresh page load (cold_start).
                include_setup=config.cold_start or i == 0,
                quality_tier=pending.quality_tier,
            )
            cost = trace.samples[0]
            costs.append(cost)
            served_by = pending.served_by if is_miss else SERVED_BY_BRANCH
            if degraded_tier and served_by == SERVED_BY_BRANCH:
                served_by = f"{served_by}@tier{pending.quality_tier}"
            outcomes.append(
                RecognitionOutcome(
                    index=i,
                    prediction=int(pending.predictions[j]),
                    exited_locally=bool(pending.exits[j]),
                    entropy=float(pending.entropies[j]),
                    cost=cost,
                    served_by=served_by,
                    attempts=pending.attempts if is_miss else 0,
                )
            )
        if pending.root is not None:
            chunk_costs = costs[len(costs) - pending.count :]
            chunk_total = sum(c.total_ms for c in chunk_costs)
            stem_total = ctx.stem_ms * pending.count
            branch_total = ctx.branch_ms * pending.count
            spans = pending.spans
            t = sim_now
            span = spans.get("stem")
            if span is not None:
                span.set_sim(t, stem_total)
                t += stem_total
            span = spans.get("binary_branch")
            if span is not None:
                span.set_sim(t, branch_total)
                t += branch_total
            span = spans.get("entropy_gate")
            if span is not None:
                span.set_sim(t, 0.0)
            span = spans.get("codec.encode")
            if span is not None:
                span.set_sim(t, 0.0)
            span = spans.get("link.exchange")
            if span is not None:
                span.set_sim(t, max(chunk_total - (t - sim_now), 0.0))
                span.set(retry_ms=pending.retry_ms, queue_ms=pending.queue_ms)
            pending.root.set_sim(sim_now, chunk_total)
            pending.root.set(
                served_by=pending.served_by,
                attempts=pending.attempts,
                misses=int(pending.miss_idx.size),
                exits=pending.count - int(pending.miss_idx.size),
                retry_ms=pending.retry_ms,
                queue_ms=pending.queue_ms,
            )
            ctx.recorder.end_span(pending.root)

    def run_session(
        self,
        images: np.ndarray,
        cold_start: object = _REMOVED,
        batch_size: object = _REMOVED,
        *,
        config: Optional[SessionConfig] = None,
        recorder=None,
    ) -> SessionResult:
        """Process an image stream through the deployed system.

        Computation is real (every prediction comes from the bit-packed
        engines / the trunk); per-sample costs come from the latency
        model with the link's jitter applied per transfer.

        ``config`` is the only way to shape a session (see
        :class:`SessionConfig`); the pre-``SessionConfig``
        ``cold_start``/``batch_size`` kwargs completed their deprecation
        cycle and now raise.  There is a
        single serving code path: frames are pushed through the
        stem/branch engines ``config.batch_size`` at a time, the entropy
        gate is vectorized, and each chunk's misses travel to the edge
        in a single :class:`BatchInferenceRequest` frame —
        ``batch_size=1`` is simply the degenerate per-sample case.
        Predictions, exit decisions, and entropies are bit-identical
        across batch sizes; per-sample costs are always priced
        individually by the latency model, so
        :class:`RecognitionOutcome`/:class:`SampleCost` semantics do not
        depend on chunking.

        ``recorder`` (a :class:`~repro.observability.Tracer`) turns on
        request tracing for this session only; the deployment-level
        recorder is the default.  Tracing never changes predictions,
        entropies, or exit decisions — only records them.
        """
        if cold_start is not _REMOVED or batch_size is not _REMOVED:
            raise TypeError(
                "run_session(cold_start=..., batch_size=...) was removed; "
                "pass run_session(images, config=SessionConfig("
                "cold_start=..., batch_size=...)) instead"
            )
        if config is None:
            config = SessionConfig()
        ctx = self._session_context(config, recorder=recorder)
        outcomes: list[RecognitionOutcome] = []
        costs: list[SampleCost] = []
        sim_clock = 0.0

        for start in range(0, len(images), config.batch_size):
            pending = self._begin_chunk(images, start, ctx)
            request = pending.request
            if request is not None:
                reply = self._send_with_retry(
                    pending,
                    ctx,
                    "direct",
                    # Resolved per attempt: tests swap the server's handler.
                    deliver=lambda frame, wasted_ms: self._edge_server.handle(frame),
                    accept=lambda reply: (
                        reply if self._reply_valid(reply, request) else None
                    ),
                )
                self._apply_reply(pending, reply)
            self._finish_chunk(pending, ctx, outcomes, costs, sim_now=sim_clock)
            sim_clock += sum(c.total_ms for c in costs[len(costs) - pending.count :])

        result = SessionResult(
            outcomes=outcomes,
            trace=SessionTrace(
                approach="lcrs", network=self.system.model.base_name, samples=costs
            ),
        )
        if ctx.recorder.enabled:
            result.telemetry = ctx.recorder.summary()
        return result

    @property
    def bundle_bytes(self) -> int:
        """Bytes the browser downloads (the Figure 7 LCRS bar)."""
        return self.browser.loaded_bytes
