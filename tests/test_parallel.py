"""Parallel edge execution: worker pool and c-worker scheduling.

The unit tier exercises :class:`WorkerPool` directly (deterministic
partitioning, order-preserving map, busy accounting).  The scheduler
tier checks the simulated c-worker clock arithmetic against
hand-computed makespans and the bit-identity guarantee — a multi-worker
flush must produce exactly the answers of a serial one.  The
integration tier runs trained sessions and the worker-scaling sweep.
"""

import threading

import numpy as np
import pytest

from repro.experiments import WorkerScalingConfig, run_worker_scaling
from repro.observability.metrics import Gauge
from repro.runtime import (
    EdgeScheduler,
    LCRSDeployment,
    SchedulerConfig,
    ServiceTimeModel,
    SessionConfig,
    WorkerPool,
    four_g,
    run_concurrent_sessions,
)
from repro.runtime.protocol import (
    BatchInferenceRequest,
    BatchInferenceResponse,
    SchedulerAck,
    decode_frame,
    encode_frame,
)

pytestmark = pytest.mark.par

NUM_CLASSES = 7


class StubTrunk:
    """Endpoint whose answer is computable from the features."""

    def __init__(self):
        self.calls = 0

    def infer(self, features):
        flat = features.reshape(len(features), -1)
        self.calls += 1
        logits = np.zeros((len(flat), NUM_CLASSES), dtype=np.float32)
        idx = np.rint(flat[:, 0] * 100).astype(np.int64) % NUM_CLASSES
        logits[np.arange(len(flat)), idx] = 5.0
        return logits


#: Affine clock: batch_ms(n) = 1 + 0.5 n.
MODEL = ServiceTimeModel(base_ms=1.0, per_sample_ms=0.5)


def make_scheduler(**config_kwargs):
    return EdgeScheduler(StubTrunk(), MODEL, SchedulerConfig(**config_kwargs))


def make_frame(session_id, seqs, classes=None):
    if classes is None:
        classes = [s % NUM_CLASSES for s in seqs]
    features = np.zeros((len(seqs), 2, 2), dtype=np.float32)
    features[:, 0, 0] = [c * 0.01 for c in classes]
    return encode_frame(
        BatchInferenceRequest.from_features(session_id, list(seqs), "fp32", features)
    )


# ----------------------------------------------------------------------
# WorkerPool unit tier
# ----------------------------------------------------------------------
class TestPartition:
    @pytest.mark.parametrize("n", [0, 1, 2, 5, 7, 16, 100])
    @pytest.mark.parametrize("parts", [1, 2, 3, 4, 16])
    def test_covers_range_contiguously(self, n, parts):
        ranges = WorkerPool.partition(n, parts)
        cursor = 0
        for start, end in ranges:
            assert start == cursor
            assert end > start  # never empty
            cursor = end
        assert cursor == n or (n == 0 and not ranges)

    def test_balanced_and_front_loaded(self):
        sizes = [e - s for s, e in WorkerPool.partition(10, 4)]
        assert sizes == [3, 3, 2, 2]
        assert max(sizes) - min(sizes) <= 1

    def test_never_more_parts_than_items(self):
        assert len(WorkerPool.partition(2, 8)) == 2

    def test_deterministic(self):
        assert WorkerPool.partition(17, 4) == WorkerPool.partition(17, 4)

    def test_validation(self):
        with pytest.raises(ValueError):
            WorkerPool.partition(-1, 2)
        with pytest.raises(ValueError):
            WorkerPool.partition(4, 0)


class TestWorkerPool:
    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            WorkerPool(0)

    def test_map_preserves_item_order(self):
        with WorkerPool(4) as pool:
            out = pool.map(lambda x: x * x, list(range(20)))
        assert out == [x * x for x in range(20)]

    def test_single_worker_runs_inline(self):
        pool = WorkerPool(1)
        tid = []
        pool.map(lambda _: tid.append(threading.get_ident()), [1, 2, 3])
        assert set(tid) == {threading.get_ident()}
        assert pool._executor is None  # no threads were ever spawned

    def test_exceptions_propagate(self):
        with WorkerPool(2) as pool:
            with pytest.raises(RuntimeError, match="boom"):
                pool.map(lambda x: (_ for _ in ()).throw(RuntimeError("boom")), [1, 2])

    def test_busy_high_water_reaches_pool_size(self):
        """With as many blocking tasks as workers, all must be in flight
        at once: each task waits until the pool reports full occupancy."""
        gauge = Gauge("workers_busy")
        pool = WorkerPool(3, gauge=gauge)
        release = threading.Event()

        def task(_):
            # Wait (bounded) for every worker to have entered its task.
            for _ in range(2000):
                if pool.busy >= 3:
                    release.set()
                if release.wait(0.005):
                    return True
            raise AssertionError("pool never reached full occupancy")

        try:
            assert pool.map(task, [0, 1, 2]) == [True, True, True]
        finally:
            pool.close()
        assert pool.max_busy == 3
        assert gauge.value == 3
        assert pool.busy == 0  # everything exited cleanly

    def test_close_is_idempotent(self):
        pool = WorkerPool(2)
        pool.map(lambda x: x, [1, 2, 3])
        pool.close()
        pool.close()


# ----------------------------------------------------------------------
# Scheduler tier: simulated c-worker clock and bit-identity
# ----------------------------------------------------------------------
class TestParallelScheduler:
    def test_config_validates_num_workers(self):
        with pytest.raises(ValueError):
            SchedulerConfig(num_workers=0)

    def test_two_workers_overlap_simultaneous_batches(self):
        """Two tenants, window 0, two workers: both single-sample batches
        run concurrently on the simulated clock, so the makespan is one
        batch time — not two."""
        sched = make_scheduler(window_ms=0.0, max_batch_size=1, num_workers=2)
        for tenant in (1, 2):
            ack = decode_frame(sched.submit(make_frame(tenant, [0]), 0.0))
            assert isinstance(ack, SchedulerAck)
        sched.flush()
        assert sched.clock_ms == pytest.approx(MODEL.batch_ms(1))

    def test_serial_baseline_stacks_batches(self):
        sched = make_scheduler(window_ms=0.0, max_batch_size=1, num_workers=1)
        for tenant in (1, 2):
            sched.submit(make_frame(tenant, [0]), 0.0)
        sched.flush()
        assert sched.clock_ms == pytest.approx(2 * MODEL.batch_ms(1))

    def test_four_batches_two_workers_two_rounds(self):
        """ceil(4/2) = 2 waves of batch_ms each."""
        sched = make_scheduler(window_ms=0.0, max_batch_size=2, num_workers=2)
        for tenant in range(1, 5):
            sched.submit(make_frame(tenant, [0, 1]), 0.0)
        sched.flush()
        assert sched.counters.batches == 4
        assert sched.clock_ms == pytest.approx(2 * MODEL.batch_ms(2))

    def test_worker_gate_delays_start_not_membership(self):
        """A batch whose worker is busy starts when the worker frees, and
        the charged queue wait includes that wait."""
        sched = make_scheduler(window_ms=0.0, max_batch_size=1, num_workers=1)
        sched.submit(make_frame(1, [0]), 0.0)
        sched.submit(make_frame(2, [0]), 0.0)
        tickets = sched.flush()
        waits = [sched.collect(t)[1] for t in tickets]
        assert waits == [pytest.approx(0.0), pytest.approx(MODEL.batch_ms(1))]

    def test_parallel_answers_bit_identical_to_serial(self):
        """Same frames through 1 and 4 workers: identical replies."""

        def run(workers):
            sched = make_scheduler(
                window_ms=0.0, max_batch_size=2, num_workers=workers
            )
            tickets = []
            for tenant in range(1, 9):
                ack = decode_frame(
                    sched.submit(make_frame(tenant, [0, 1, 2]), 0.0)
                )
                tickets.append(ack.ticket)
            sched.flush()
            replies = []
            for t in tickets:
                raw, _ = sched.collect(t)
                reply = decode_frame(raw)
                assert isinstance(reply, BatchInferenceResponse)
                replies.append((reply.session_id, reply.sequences,
                                reply.class_ids, reply.confidences))
            return replies

        assert run(4) == run(1)

    def test_workers_busy_telemetry(self):
        sched = make_scheduler(window_ms=0.0, max_batch_size=1, num_workers=2)
        for tenant in (1, 2, 3, 4):
            sched.submit(make_frame(tenant, [0]), 0.0)
        sched.flush()
        gauge = sched.counters.registry.gauge("sched.workers_busy")
        assert 1 <= sched.counters.max_workers_busy <= 2
        assert gauge.value == sched.counters.max_workers_busy

    def test_clock_setter_resets_all_workers(self):
        sched = make_scheduler(num_workers=3)
        sched.clock_ms = 12.5
        assert sched._worker_free == [12.5] * 3
        assert sched.clock_ms == 12.5


# ----------------------------------------------------------------------
# Integration tier: trained system, sessions, and the scaling sweep
# ----------------------------------------------------------------------
@pytest.mark.slow
class TestWorkerScalingIntegration:
    def test_scheduled_sessions_bit_identical_across_workers(self, trained_system, tiny_mnist):
        _, test = tiny_mnist
        images = test.images[:12]

        def run(workers):
            deployments = [
                LCRSDeployment(trained_system, four_g(seed=11 + i)) for i in range(2)
            ]
            scheduler = EdgeScheduler.for_system(
                trained_system,
                config=SchedulerConfig(window_ms=0.0, num_workers=workers),
            )
            results = run_concurrent_sessions(
                deployments,
                [images] * 2,
                scheduler,
                config=SessionConfig(batch_size=4, threshold=0.05),
            )
            return [
                [(o.prediction, o.served_by) for o in r.outcomes] for r in results
            ]

        assert run(4) == run(1)

    def test_worker_scaling_speedup_and_mmc_cross_check(self, trained_system, tiny_mnist):
        """The acceptance bar: ≥2.5× trunk throughput at 4 workers with
        bit-identical predictions, and measured throughput matching the
        M/M/c capacity when c divides the request count."""
        _, test = tiny_mnist
        result = run_worker_scaling(
            trained_system,
            test.images[:64],
            config=WorkerScalingConfig(workers=(1, 2, 4), requests=16, batch_size=4),
        )
        serial = result.point(1)
        assert serial.speedup_vs_serial == pytest.approx(1.0)
        assert result.point(2).speedup_vs_serial == pytest.approx(2.0, rel=1e-6)
        quad = result.point(4)
        assert quad.speedup_vs_serial >= 2.5
        for p in result.points:
            assert p.bit_identical
            assert p.samples == 64
            assert p.capacity_ratio == pytest.approx(1.0, rel=1e-6)
            assert p.makespan_ms > 0

    def test_run_concurrency_prices_workers_in_analytic_check(
        self, trained_system, tiny_mnist
    ):
        """The M/M/c cross-check must use the configured worker count —
        the old hard-coded workers=1 underpriced multi-worker cells."""
        from repro.experiments import ConcurrencySweepConfig, run_concurrency

        _, test = tiny_mnist
        result = run_concurrency(
            trained_system,
            test.images[:8],
            config=ConcurrencySweepConfig(
                users=(2,),
                windows_ms=(0.0,),
                session_config=SessionConfig(batch_size=4, threshold=0.05),
                num_workers=2,
            ),
        )
        assert all(p.num_workers == 2 for p in result.points)
        assert {"num_workers"} <= set(result.points[0].as_dict())
