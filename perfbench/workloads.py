"""The three closed-loop workloads of the LCRS serving benchmark.

Every workload is driven from one process by one client loop that sends
its next request only after the previous one returned (a closed loop).
Inputs come from ``--seed``: the synthetic evaluation frames, the
held-out slice τ is set from, the request order and the link seeds.

* ``webar-frames`` — LeNet/MNIST, one long-lived deployment on a
  deterministic 4G link, one frame per ``run_session`` call, τ at the
  held-out entropy median (about half the frames miss over the direct
  transport).  A request is one frame.
* ``browser-batch`` — AlexNet/CIFAR10, 64-frame clips at
  ``batch_size=64`` with τ above every entropy (every frame exits in the
  browser).  A request is one clip.
* ``edge-fleet`` — AlexNet/CIFAR10, eight sessions of 16-frame chunks
  through ``run_concurrent_sessions`` on a 2-shard, 2-worker
  ``FleetRouter`` with SLO monitoring on, τ = 0 (every frame misses).  A
  request is one lockstep round, timed between successive
  ``FleetRouter.flush`` returns.

Each workload keeps a small pool of distinct inputs (frames, clips or
per-session chunks) and replays them in seeded order.  The correctness
reference is computed once per pool entry with
``SessionConfig(compile_plan=False)`` — the interpreter — at the batch
size the timed path uses (for ``edge-fleet``: each session solo), and
every timed request is compared against it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

#: (prediction, entropy, served_by) — what the correctness gate compares.
Expected = tuple


@dataclass
class Request:
    """One timed request: its wall time and per-chunk outcomes."""

    wall_s: float
    #: One entry per session chunk the request carried.
    chunks: list
    #: Reference keys, parallel to ``chunks``.
    keys: list
    #: False for requests whose simulated-clock start is offset by an
    #: earlier call (see :class:`EdgeFleet`); simulator outputs skip them.
    model_valid: bool = True

    @property
    def samples(self) -> int:
        return sum(len(chunk) for chunk in self.chunks)


@dataclass
class SetupState:
    """What one set-up built, plus how long it took."""

    deploy_s: float
    first_call_s: float
    deployments: list
    router: object = None
    #: ``FleetRouter.flush`` return times of the current call (fleet only).
    flush_stamps: list = field(default_factory=list)

    @property
    def setup_s(self) -> float:
        return self.deploy_s + self.first_call_s

    def engines(self) -> list:
        return [(d.browser.stem_engine, d.browser.branch_engine) for d in self.deployments]

    def close(self) -> None:
        if self.router is not None:
            for sid in self.router.shard_ids:
                self.router.shard(sid).scheduler.worker_pool.close()


def expected_of(outcome) -> Expected:
    return (int(outcome.prediction), float(outcome.entropy), str(outcome.served_by))


def _eval_frames(dataset: str, count: int, seed: int):
    """``count`` synthetic frames + labels drawn from the benchmark seed.

    The generator seed is offset so evaluation frames never coincide
    with the fixed training split (see ``models.py``).
    """
    from repro.data import make_dataset

    _, test = make_dataset(dataset, 1, count, seed=1000 + seed)
    return test.images.astype(np.float32), test.labels.astype(np.int64)


class Workload:
    """Shared plumbing; subclasses define inputs, set-up and one step."""

    name = ""
    model = ""
    dataset = ""
    #: Tail percentile reported as ``request_ms_tail``.
    tail_pct = 99.0

    def __init__(self, system, seed: int) -> None:
        self.system = system
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        #: key → list[Expected] (one entry per sample of that input).
        self.reference: dict = {}
        #: key → labels of that input.
        self.labels: dict = {}
        #: Seeded request order over the input keys, and the position in it.
        self.order = np.zeros(0, dtype=np.int64)
        self.cursor = 0

    @property
    def min_requests(self) -> int:
        """Requests needed for ten beyond the tail percentile."""
        return int(np.ceil(1000 / (100 - self.tail_pct)))

    def _deployment(self, link_seed: int):
        from repro.runtime import LCRSDeployment, four_g

        return LCRSDeployment(self.system, four_g(seed=link_seed).deterministic())

    def prepare(self) -> None:
        raise NotImplementedError

    def setup(self) -> SetupState:
        raise NotImplementedError

    def step(self, state: SetupState) -> list[Request]:
        raise NotImplementedError

    def shard_health(self, state: SetupState) -> list[dict]:
        """``EdgeScheduler.health()`` of every shard (none without a fleet)."""
        return []

    def service_model(self, state: SetupState):
        """The analytic trunk service model a scheduler would price with."""
        from repro.profiling import NetworkProfile
        from repro.runtime import ServiceTimeModel

        model = self.system.model
        profile = NetworkProfile.of(model.main_trunk, model.stem_output_shape)
        return ServiceTimeModel.from_profile(profile)

    def _next(self) -> int:
        """The next input of the seeded request order (cycled)."""
        key = int(self.order[self.cursor % len(self.order)])
        self.cursor += 1
        return key

    def _solo_setup(self, warm_inputs) -> SetupState:
        """One deployment, warmed by a first call on each input."""
        t0 = time.perf_counter()
        deployment = self._deployment(self.seed)
        t1 = time.perf_counter()
        for images in warm_inputs:
            deployment.run_session(images, config=self.config)
        return SetupState(t1 - t0, time.perf_counter() - t1, [deployment])

    def _timed_session(self, state: SetupState, images, key) -> list[Request]:
        deployment = state.deployments[0]
        t0 = time.perf_counter()
        result = deployment.run_session(images, config=self.config)
        wall = time.perf_counter() - t0
        return [Request(wall, [result.outcomes], [key])]

    def check(self, request: Request) -> bool:
        """True when every sample equals its interpreter reference."""
        for chunk, key in zip(request.chunks, request.keys):
            if [expected_of(o) for o in chunk] != self.reference[key]:
                return False
        return True

    def correct_predictions(self, request: Request) -> int:
        return sum(
            int(np.sum(np.array([o.prediction for o in chunk]) == self.labels[key]))
            for chunk, key in zip(request.chunks, request.keys)
        )


class WebArFrames(Workload):
    name = "webar-frames"
    model = "lenet-mnist"
    dataset = "mnist"
    tail_pct = 99.0
    POOL = 512
    HELD_OUT = 256

    def prepare(self) -> None:
        from repro.runtime import SessionConfig

        images, labels = _eval_frames(self.dataset, self.POOL + self.HELD_OUT, self.seed)
        held, self.pool = images[self.POOL :], images[: self.POOL]
        ref = self._deployment(self.seed)
        held_out = ref.run_session(
            held, config=SessionConfig(batch_size=64, threshold=1.0, compile_plan=False)
        )
        self.tau = float(np.median([o.entropy for o in held_out.outcomes]))
        self.config = SessionConfig(batch_size=1, threshold=self.tau)
        result = ref.run_session(
            self.pool,
            config=SessionConfig(batch_size=1, threshold=self.tau, compile_plan=False),
        )
        for i, outcome in enumerate(result.outcomes):
            self.reference[i] = [expected_of(outcome)]
            self.labels[i] = labels[i : i + 1]
        exits = [i for i, o in enumerate(result.outcomes) if o.exited_locally]
        misses = [i for i, o in enumerate(result.outcomes) if not o.exited_locally]
        # Warm-up frames: one local exit and one miss, so set-up compiles
        # the stem, branch and trunk plans the timed path uses.
        self.warm = [exits[0], misses[0]] if exits and misses else [0]
        self.order = np.concatenate(
            [self.rng.permutation(self.POOL) for _ in range(64)]
        )

    def setup(self) -> SetupState:
        return self._solo_setup([self.pool[i : i + 1] for i in self.warm])

    def step(self, state: SetupState) -> list[Request]:
        i = self._next()
        return self._timed_session(state, self.pool[i : i + 1], i)


class BrowserBatch(Workload):
    name = "browser-batch"
    model = "alexnet-cifar10"
    dataset = "cifar10"
    tail_pct = 95.0
    CLIP = 64
    CLIPS = 16

    def prepare(self) -> None:
        from repro.runtime import SessionConfig

        images, labels = _eval_frames(self.dataset, self.CLIP * self.CLIPS, self.seed)
        self.clips = images.reshape(self.CLIPS, self.CLIP, *images.shape[1:])
        # τ above every normalized entropy (which lies in [0, 1)): every
        # frame exits locally and the edge does no work.
        self.tau = 1.0
        self.config = SessionConfig(batch_size=self.CLIP, threshold=self.tau)
        ref = self._deployment(self.seed)
        ref_config = SessionConfig(
            batch_size=self.CLIP, threshold=self.tau, compile_plan=False
        )
        for c in range(self.CLIPS):
            result = ref.run_session(self.clips[c], config=ref_config)
            self.reference[c] = [expected_of(o) for o in result.outcomes]
            self.labels[c] = labels[c * self.CLIP : (c + 1) * self.CLIP]
        self.order = self.rng.integers(0, self.CLIPS, size=1 << 16)

    def setup(self) -> SetupState:
        return self._solo_setup([self.clips[0]])

    def step(self, state: SetupState) -> list[Request]:
        c = self._next()
        return self._timed_session(state, self.clips[c], c)


class EdgeFleet(Workload):
    """Eight lockstep sessions on a monitored two-shard fleet.

    One ``run_concurrent_sessions`` call drives ``ROUNDS_PER_CALL``
    rounds; calls repeat until the run is long enough, so the input
    streams held in memory do not grow with host speed.  Each call
    restarts the sessions' simulated clocks at 0 while the shards' clocks
    carry on, so the first round of every call after the first queues
    behind the previous call on the simulated clock; model outputs skip
    those rounds (wall-clock metrics are unaffected).
    """

    name = "edge-fleet"
    model = "alexnet-cifar10"
    dataset = "cifar10"
    tail_pct = 90.0
    SESSIONS = 8
    CHUNK = 16
    CHUNKS_PER_SESSION = 8
    ROUNDS_PER_CALL = 25
    WARM_ROUNDS = 2

    def prepare(self) -> None:
        from repro.runtime import SessionConfig

        per_session = self.CHUNK * self.CHUNKS_PER_SESSION
        images, labels = _eval_frames(self.dataset, per_session * self.SESSIONS, self.seed)
        shape = images.shape[1:]
        self.pools = images.reshape(self.SESSIONS, self.CHUNKS_PER_SESSION, self.CHUNK, *shape)
        pool_labels = labels.reshape(self.SESSIONS, self.CHUNKS_PER_SESSION, self.CHUNK)
        self.tau = 0.0
        self.config = SessionConfig(batch_size=self.CHUNK, threshold=self.tau)
        ref_config = SessionConfig(
            batch_size=self.CHUNK, threshold=self.tau, compile_plan=False
        )
        for s in range(self.SESSIONS):
            ref = self._deployment(self._link_seed(s))
            result = ref.run_session(
                self.pools[s].reshape(per_session, *shape), config=ref_config
            )
            for c in range(self.CHUNKS_PER_SESSION):
                chunk = result.outcomes[c * self.CHUNK : (c + 1) * self.CHUNK]
                self.reference[(s, c)] = [expected_of(o) for o in chunk]
                self.labels[(s, c)] = pool_labels[s, c]

    def _link_seed(self, session: int) -> int:
        return self.seed * self.SESSIONS + session

    def _call(self, state: SetupState, rounds: int) -> list[Request]:
        from repro.runtime import scheduler

        router = state.router
        chunk_ids = self.rng.integers(0, self.CHUNKS_PER_SESSION, size=(self.SESSIONS, rounds))
        streams = [
            self.pools[s][chunk_ids[s]].reshape(rounds * self.CHUNK, *self.pools.shape[3:])
            for s in range(self.SESSIONS)
        ]
        stamps = state.flush_stamps
        stamps.clear()
        t0 = time.perf_counter()
        # Looked up at call time so the traced phase's shim applies.
        results = scheduler.run_concurrent_sessions(
            state.deployments, streams, router, config=self.config
        )
        if len(stamps) != rounds:
            raise RuntimeError(f"expected {rounds} flushes, saw {len(stamps)}")
        # Round r ends at flush r's return; the last round also carries
        # the call's tail (its replies' collection and pricing), so the
        # rounds' walls add up to the call's wall.
        edges = [t0] + stamps[:-1] + [time.perf_counter()]
        requests = []
        for r in range(rounds):
            lo, hi = r * self.CHUNK, (r + 1) * self.CHUNK
            requests.append(
                Request(
                    wall_s=edges[r + 1] - edges[r],
                    chunks=[res.outcomes[lo:hi] for res in results],
                    keys=[(s, int(chunk_ids[s, r])) for s in range(self.SESSIONS)],
                    model_valid=r > 0,
                )
            )
        return requests

    def setup(self) -> SetupState:
        from repro.runtime import FleetConfig, FleetRouter, SchedulerConfig

        t0 = time.perf_counter()
        deployments = [
            self._deployment(self._link_seed(s)) for s in range(self.SESSIONS)
        ]
        router = FleetRouter.for_system(
            self.system,
            FleetConfig(
                num_shards=2, scheduler=SchedulerConfig(num_workers=2), seed=self.seed
            ),
        )
        router.enable_monitoring()
        state = SetupState(0.0, 0.0, deployments, router)

        def stamped_flush():
            # Resolved through the class so the traced phase's shim of
            # FleetRouter.flush is the one that runs.
            served = type(router).flush(router)
            state.flush_stamps.append(time.perf_counter())
            return served

        router.flush = stamped_flush
        t1 = time.perf_counter()
        self._call(state, self.WARM_ROUNDS)
        t2 = time.perf_counter()
        state.deploy_s, state.first_call_s = t1 - t0, t2 - t1
        return state

    def step(self, state: SetupState) -> list[Request]:
        return self._call(state, self.ROUNDS_PER_CALL)

    def shard_health(self, state: SetupState) -> list[dict]:
        router = state.router
        return [router.shard(sid).scheduler.health() for sid in router.shard_ids]

    def service_model(self, state: SetupState):
        router = state.router
        return router.shard(router.shard_ids[0]).scheduler.service_model


WORKLOADS = {w.name: w for w in (WebArFrames, BrowserBatch, EdgeFleet)}
