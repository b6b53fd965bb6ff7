"""Tests for the shared-edge scheduler: admission, dynamic batching,
correlated reply routing, and the concurrent-session driver.

The unit tier drives :class:`EdgeScheduler` directly with hand-built
protocol frames against a stub trunk (deterministic logits derived from
the features), so admission control, window arithmetic, and the
simulated clock are checked exactly.  The integration tier runs real
``LCRSDeployment`` sessions through ``run_concurrent_sessions`` and the
``run_concurrency`` sweep against the trained fixture system.
"""

import json
import struct

import numpy as np
import pytest

from repro.experiments import ConcurrencySweepConfig, run_concurrency
from repro.runtime import (
    EdgeScheduler,
    LCRSDeployment,
    SchedulerConfig,
    ServiceTimeModel,
    SessionConfig,
    four_g,
    run_concurrent_sessions,
)
from repro.runtime.protocol import (
    BatchInferenceRequest,
    BatchInferenceResponse,
    ErrorResponse,
    ModelRequest,
    SchedulerAck,
    decode_frame,
    encode_frame,
)

NUM_CLASSES = 7


class StubTrunk:
    """Endpoint whose answer is computable from the features: each
    sample's class is encoded in its first element (see ``make_frame``)."""

    def __init__(self):
        self.calls = 0
        self.samples = 0

    def infer(self, features):
        flat = features.reshape(len(features), -1)
        self.calls += 1
        self.samples += len(flat)
        logits = np.zeros((len(flat), NUM_CLASSES), dtype=np.float32)
        idx = np.rint(flat[:, 0] * 100).astype(np.int64) % NUM_CLASSES
        logits[np.arange(len(flat)), idx] = 5.0
        return logits


#: Affine clock: batch_ms(n) = 1 + 0.5 n.
MODEL = ServiceTimeModel(base_ms=1.0, per_sample_ms=0.5)


def make_scheduler(**config_kwargs):
    return EdgeScheduler(StubTrunk(), MODEL, SchedulerConfig(**config_kwargs))


def make_frame(session_id, seqs, classes=None):
    """An encoded miss-path frame whose expected class ids are known."""
    if classes is None:
        classes = [s % NUM_CLASSES for s in seqs]
    features = np.zeros((len(seqs), 2, 2), dtype=np.float32)
    features[:, 0, 0] = [c * 0.01 for c in classes]
    return encode_frame(
        BatchInferenceRequest.from_features(session_id, list(seqs), "fp32", features)
    )


def with_header(frame, **fields):
    """``frame`` re-framed with some JSON header fields of its batch
    request replaced (the payload is kept as is)."""
    body = frame[10:]  # after magic, version, type, length
    (hlen,) = struct.unpack("<I", body[:4])
    meta = json.loads(body[4 : 4 + hlen])
    meta.update(fields)
    header = json.dumps(meta).encode("utf-8")
    body = struct.pack("<I", len(header)) + header + body[4 + hlen :]
    return frame[:6] + struct.pack("<I", len(body)) + body


def submit(scheduler, frame, arrival_ms=0.0):
    return decode_frame(scheduler.submit(frame, arrival_ms))


class TestSchedulerConfig:
    def test_defaults(self):
        cfg = SchedulerConfig()
        assert cfg.window_ms == 4.0
        assert cfg.max_batch_size == 32

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"window_ms": -1.0},
            {"max_batch_size": 0},
            {"queue_capacity": 0},
            {"max_per_tenant": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SchedulerConfig(**kwargs)


class TestSchedulerAckFrame:
    def test_round_trip(self):
        ack = SchedulerAck(session_id=9, ticket=42, queued_samples=7)
        decoded = decode_frame(encode_frame(ack))
        assert isinstance(decoded, SchedulerAck)
        assert decoded == ack


class TestAdmission:
    def test_ack_carries_ticket_and_depth(self):
        scheduler = make_scheduler()
        ack = submit(scheduler, make_frame(1, [0, 1, 2]))
        assert isinstance(ack, SchedulerAck)
        assert ack.session_id == 1
        assert ack.ticket == 1
        assert ack.queued_samples == 3
        ack2 = submit(scheduler, make_frame(2, [0, 1]))
        assert ack2.ticket == 2
        assert ack2.queued_samples == 5
        assert scheduler.counters.accepted_requests == 2
        assert scheduler.counters.accepted_samples == 5
        assert scheduler.counters.max_queue_depth == 5

    def test_undecodable_frame_is_400(self):
        scheduler = make_scheduler()
        reply = decode_frame(scheduler.submit(b"not a frame", 0.0))
        assert isinstance(reply, ErrorResponse)
        assert reply.code == 400
        assert scheduler.counters.malformed_requests == 1

    def test_non_batch_message_is_405(self):
        scheduler = make_scheduler()
        reply = submit(scheduler, encode_frame(ModelRequest("lenet")))
        assert isinstance(reply, ErrorResponse)
        assert reply.code == 405
        assert "ModelRequest" in reply.message
        assert scheduler.counters.malformed_requests == 1

    @pytest.mark.parametrize(
        "fields", [{"session_id": -1}, {"sequences": [-5]}, {"sequences": "7"}]
    )
    def test_out_of_range_ids_are_400(self, fields):
        """Ids that cannot be echoed back as u64 are refused at admission
        and never reach the batch they would have shared."""
        scheduler = make_scheduler()
        good = submit(scheduler, make_frame(1, [0, 1]))
        assert isinstance(good, SchedulerAck)
        reply = submit(scheduler, with_header(make_frame(2, [3]), **fields))
        assert isinstance(reply, ErrorResponse)
        assert reply.code == 400
        assert scheduler.counters.malformed_requests == 1
        assert scheduler.flush() == [good.ticket]
        answer = decode_frame(scheduler.collect(good.ticket)[0])
        assert isinstance(answer, BatchInferenceResponse)
        assert answer.class_ids == (0, 1)

    @pytest.mark.parametrize(
        "shape,payload",
        [
            ((1, 2, 2), b"\x00" * 10),  # 10 B where fp32 needs 16 B
            ((1, 2**32, 2**32), b""),  # element count wraps to 0 in int64
        ],
        ids=["short-payload", "wrapping-shape"],
    )
    def test_bad_payload_is_422_and_spares_shared_batch(self, shape, payload):
        """Features that do not decode are refused at admission, so the
        tenant that would have shared their batch is still answered."""
        scheduler = make_scheduler()
        good = submit(scheduler, make_frame(1, [0, 1]))
        bad = BatchInferenceRequest(
            session_id=2, sequences=(0,), codec="fp32",
            feature_shape=shape, payload=payload,
        )
        reply = submit(scheduler, encode_frame(bad))
        assert isinstance(reply, ErrorResponse)
        assert reply.code == 422
        assert scheduler.counters.malformed_requests == 1
        assert scheduler.queued_samples() == 2
        assert scheduler.flush() == [good.ticket]
        answer = decode_frame(scheduler.collect(good.ticket)[0])
        assert answer.class_ids == (0, 1)

    def test_queue_capacity_sheds_503(self):
        scheduler = make_scheduler(queue_capacity=4)
        assert isinstance(submit(scheduler, make_frame(1, [0, 1, 2])), SchedulerAck)
        reply = submit(scheduler, make_frame(2, [0, 1, 2]))
        assert isinstance(reply, ErrorResponse)
        assert reply.code == 503
        assert "queue full" in reply.message
        assert scheduler.counters.shed_requests == 1
        assert scheduler.counters.shed_samples == 3
        assert scheduler.counters.shed_rate == pytest.approx(0.5)

    def test_tenant_fair_share_sheds_503(self):
        scheduler = make_scheduler(queue_capacity=16)
        scheduler.register(1)
        scheduler.register(2)
        assert scheduler.tenant_fair_share == 8
        assert isinstance(
            submit(scheduler, make_frame(1, list(range(8)))), SchedulerAck
        )
        reply = submit(scheduler, make_frame(1, [100]))
        assert isinstance(reply, ErrorResponse)
        assert reply.code == 503
        assert "fair share" in reply.message
        # The other tenant's share is untouched by tenant 1's burst.
        assert isinstance(
            submit(scheduler, make_frame(2, list(range(8)))), SchedulerAck
        )

    def test_oversized_first_request_is_never_starved(self):
        # held == 0: fairness must not refuse a tenant's only request,
        # even when it alone exceeds the share.
        scheduler = make_scheduler(queue_capacity=32, max_per_tenant=2)
        assert isinstance(
            submit(scheduler, make_frame(1, list(range(10)))), SchedulerAck
        )
        reply = submit(scheduler, make_frame(1, [100]))
        assert isinstance(reply, ErrorResponse)
        assert reply.code == 503

    def test_duplicate_submission_is_idempotent(self):
        scheduler = make_scheduler()
        frame = make_frame(1, [0, 1])
        first = submit(scheduler, frame)
        again = submit(scheduler, frame, arrival_ms=1.0)
        assert isinstance(again, SchedulerAck)
        assert again.ticket == first.ticket
        assert scheduler.counters.accepted_requests == 1
        assert scheduler.queued_samples() == 2
        # Once served, the same sequences are a fresh request again.
        scheduler.flush()
        scheduler.collect(first.ticket)
        fresh = submit(scheduler, frame, arrival_ms=50.0)
        assert fresh.ticket > first.ticket


class TestBatching:
    def test_window_coalesces_concurrent_tenants(self):
        scheduler = make_scheduler(window_ms=4.0)
        t1 = submit(scheduler, make_frame(1, [0, 1]), arrival_ms=0.0)
        t2 = submit(scheduler, make_frame(2, [0, 1, 2]), arrival_ms=2.0)
        scheduler.flush()
        assert scheduler.counters.batches == 1
        assert scheduler.endpoint.calls == 1
        assert scheduler.counters.batch_size_hist == {5: 1}
        # Both replies exist and the batch started when the head's
        # window closed (0 + 4 ms).
        _, wait1 = scheduler.collect(t1.ticket)
        _, wait2 = scheduler.collect(t2.ticket)
        assert wait1 == pytest.approx(4.0)
        assert wait2 == pytest.approx(2.0)

    def test_arrival_outside_window_starts_new_batch(self):
        scheduler = make_scheduler(window_ms=4.0)
        submit(scheduler, make_frame(1, [0]), arrival_ms=0.0)
        submit(scheduler, make_frame(2, [0]), arrival_ms=10.0)
        scheduler.flush()
        assert scheduler.counters.batches == 2
        assert scheduler.endpoint.calls == 2

    def test_zero_window_batches_same_instant_only(self):
        scheduler = make_scheduler(window_ms=0.0)
        submit(scheduler, make_frame(1, [0]), arrival_ms=0.0)
        submit(scheduler, make_frame(2, [0]), arrival_ms=0.0)
        submit(scheduler, make_frame(3, [0]), arrival_ms=0.25)
        scheduler.flush()
        assert scheduler.counters.batch_size_hist == {2: 1, 1: 1}

    def test_window_smaller_than_arrival_gap_serves_solo(self):
        # Every batch closes before the next request lands: dynamic
        # batching degrades to per-request serving, nothing is lost.
        scheduler = make_scheduler(window_ms=1.0)
        tickets = [
            submit(scheduler, make_frame(1, [i]), arrival_ms=10.0 * i).ticket
            for i in range(3)
        ]
        scheduler.flush()
        assert scheduler.counters.batches == 3
        assert scheduler.counters.batch_size_hist == {1: 3}
        for i, ticket in enumerate(tickets):
            _, wait = scheduler.collect(ticket)
            assert wait == pytest.approx(1.0)  # each waits out its own window

    def test_max_batch_size_splits_and_fills_early(self):
        scheduler = make_scheduler(window_ms=8.0, max_batch_size=4)
        a = submit(scheduler, make_frame(1, [0, 1, 2]), arrival_ms=0.0)
        b = submit(scheduler, make_frame(1, [3, 4, 5]), arrival_ms=1.0)
        scheduler.flush()
        assert scheduler.counters.batch_size_hist == {3: 2}
        # A full (can't-grow) batch dispatches at its last member's
        # arrival instead of waiting out the window...
        _, wait_a = scheduler.collect(a.ticket)
        assert wait_a == pytest.approx(0.0)
        # ...while the leftover request starts a fresh window of its own.
        _, wait_b = scheduler.collect(b.ticket)
        assert wait_b == pytest.approx(8.0)

    def test_oversized_head_executes_alone(self):
        scheduler = make_scheduler(window_ms=0.0, max_batch_size=4)
        submit(scheduler, make_frame(1, list(range(10))))
        scheduler.flush()
        assert scheduler.counters.batch_size_hist == {10: 1}

    def test_round_robin_spreads_batch_across_tenants(self):
        scheduler = make_scheduler(window_ms=4.0, max_batch_size=4)
        submit(scheduler, make_frame(1, [0, 1]), arrival_ms=0.0)
        submit(scheduler, make_frame(1, [2, 3]), arrival_ms=0.5)
        submit(scheduler, make_frame(2, [0, 1]), arrival_ms=1.0)
        scheduler.flush()
        # The head (tenant 1) plus tenant 2's request form the first
        # batch; tenant 1's second request waits, despite arriving first.
        assert scheduler.counters.batch_size_hist == {4: 1, 2: 1}
        served = scheduler.counters.per_tenant
        assert served[1]["served"] == 4
        assert served[2]["served"] == 2

    def test_busy_trunk_delays_next_batch(self):
        scheduler = make_scheduler(window_ms=0.0)
        a = submit(scheduler, make_frame(1, [0, 1]), arrival_ms=0.0)
        b = submit(scheduler, make_frame(2, [0]), arrival_ms=0.5)
        scheduler.flush()
        _, wait_a = scheduler.collect(a.ticket)
        _, wait_b = scheduler.collect(b.ticket)
        assert wait_a == pytest.approx(0.0)
        # Second batch waits for the trunk: start = batch_ms(2) = 2.0.
        assert wait_b == pytest.approx(MODEL.batch_ms(2) - 0.5)
        assert scheduler.clock_ms == pytest.approx(
            MODEL.batch_ms(2) + MODEL.batch_ms(1)
        )
        assert scheduler.counters.busy_ms == pytest.approx(
            MODEL.batch_ms(2) + MODEL.batch_ms(1)
        )

    def test_queue_wait_accounting(self):
        scheduler = make_scheduler(window_ms=3.0)
        submit(scheduler, make_frame(1, [0, 1]), arrival_ms=5.0)
        scheduler.flush()
        assert scheduler.counters.mean_queue_wait_ms == pytest.approx(3.0)
        assert scheduler.clock_ms == pytest.approx(8.0 + MODEL.batch_ms(2))

    def test_replies_are_correlated_per_session(self):
        scheduler = make_scheduler(window_ms=4.0)
        t1 = submit(scheduler, make_frame(101, [0, 2, 5]), arrival_ms=0.0)
        t2 = submit(scheduler, make_frame(202, [1, 3]), arrival_ms=1.0)
        scheduler.flush()
        raw1, _ = scheduler.collect(t1.ticket)
        raw2, _ = scheduler.collect(t2.ticket)
        reply1 = decode_frame(raw1)
        reply2 = decode_frame(raw2)
        assert isinstance(reply1, BatchInferenceResponse)
        assert reply1.session_id == 101
        assert reply1.sequences == (0, 2, 5)
        assert reply1.class_ids == tuple(s % NUM_CLASSES for s in (0, 2, 5))
        assert reply2.session_id == 202
        assert reply2.sequences == (1, 3)
        assert reply2.class_ids == tuple(s % NUM_CLASSES for s in (1, 3))
        assert all(c > 0.5 for c in reply1.confidences)

    def test_collect_unknown_ticket_raises(self):
        scheduler = make_scheduler()
        with pytest.raises(KeyError):
            scheduler.collect(99)
        ticket = submit(scheduler, make_frame(1, [0])).ticket
        scheduler.flush()
        scheduler.collect(ticket)
        with pytest.raises(KeyError):  # replies are taken exactly once
            scheduler.collect(ticket)

    def test_simulated_clock_is_deterministic(self):
        """Identical submission scripts produce identical batches, waits,
        replies, and clock — batch formation has no hidden entropy."""

        def run():
            scheduler = make_scheduler(window_ms=2.0, max_batch_size=8)
            tickets = []
            for tenant in (1, 2, 3):
                for r in range(3):
                    ack = submit(
                        scheduler,
                        make_frame(tenant, [10 * r + tenant, 10 * r + tenant + 1]),
                        arrival_ms=1.7 * r + 0.3 * tenant,
                    )
                    tickets.append(ack.ticket)
            scheduler.flush()
            replies = [scheduler.collect(t) for t in tickets]
            return replies, scheduler.counters, scheduler.clock_ms

        replies_a, counters_a, clock_a = run()
        replies_b, counters_b, clock_b = run()
        assert replies_a == replies_b  # bytes and waits, exactly
        assert clock_a == clock_b
        assert counters_a.batch_size_hist == counters_b.batch_size_hist
        assert counters_a.queue_wait_ms == counters_b.queue_wait_ms
        assert counters_a.busy_ms == counters_b.busy_ms


class TestConcurrentSessions:
    def _deployments(self, trained_system, n, seed0=11):
        return [
            LCRSDeployment(trained_system, four_g(seed=seed0 + i)) for i in range(n)
        ]

    def test_stream_count_must_match(self, trained_system, tiny_mnist):
        _, test = tiny_mnist
        deployments = self._deployments(trained_system, 2)
        scheduler = EdgeScheduler.for_system(trained_system)
        with pytest.raises(ValueError, match="stream"):
            run_concurrent_sessions(deployments, [test.images[:4]], scheduler)

    def test_scheduled_matches_solo_bit_for_bit(self, trained_system, tiny_mnist):
        """Dynamic batching changes timing, never answers: every
        session's predictions, exits, and entropies equal a private
        unscheduled run of the same stream."""
        _, test = tiny_mnist
        images = test.images[:24]
        cfg = SessionConfig(batch_size=4, threshold=0.05)
        deployments = self._deployments(trained_system, 3)
        scheduler = EdgeScheduler.for_system(
            trained_system, config=SchedulerConfig(window_ms=4.0)
        )
        results = run_concurrent_sessions(
            deployments, [images] * 3, scheduler, config=cfg
        )
        solo = LCRSDeployment(trained_system, four_g(seed=99)).run_session(
            images, config=cfg
        )
        assert scheduler.counters.batches >= 1
        for result in results:
            assert result.trace.approach == "lcrs-scheduled"
            np.testing.assert_array_equal(result.predictions, solo.predictions)
            for a, b in zip(result.outcomes, solo.outcomes):
                assert a.exited_locally == b.exited_locally
                assert a.entropy == b.entropy

    def test_queue_delay_lands_on_missed_samples(self, trained_system, tiny_mnist):
        _, test = tiny_mnist
        images = test.images[:16]
        cfg = SessionConfig(batch_size=4, threshold=0.05)
        deployments = self._deployments(trained_system, 4)
        scheduler = EdgeScheduler.for_system(
            trained_system, config=SchedulerConfig(window_ms=4.0)
        )
        results = run_concurrent_sessions(
            deployments, [images] * 4, scheduler, config=cfg
        )
        queue_costs = [
            cost.queue_ms
            for result in results
            for outcome, cost in zip(result.outcomes, result.trace.samples)
            if not outcome.exited_locally
        ]
        assert queue_costs, "threshold 0.05 must produce misses"
        assert all(q >= 0.0 for q in queue_costs)
        assert any(q > 0.0 for q in queue_costs)
        exit_costs = [
            cost.queue_ms
            for result in results
            for outcome, cost in zip(result.outcomes, result.trace.samples)
            if outcome.exited_locally
        ]
        assert all(q == 0.0 for q in exit_costs)
        assert scheduler.counters.mean_queue_wait_ms > 0.0

    def test_overload_sheds_to_branch_fallback(self, trained_system, tiny_mnist):
        """A tiny queue forces 503s; sessions retry, exhaust, and fall
        back to the binary branch — every frame still gets an answer."""
        _, test = tiny_mnist
        images = test.images[:16]
        cfg = SessionConfig(batch_size=8, threshold=0.05)
        deployments = self._deployments(trained_system, 4)
        scheduler = EdgeScheduler.for_system(
            trained_system,
            config=SchedulerConfig(window_ms=4.0, queue_capacity=8),
        )
        results = run_concurrent_sessions(
            deployments, [images] * 4, scheduler, config=cfg
        )
        assert scheduler.counters.shed_requests > 0
        overloads = sum(d.fault_counters.overloads for d in deployments)
        fallbacks = sum(d.fault_counters.fallbacks for d in deployments)
        assert overloads > 0
        assert fallbacks > 0
        for result in results:
            assert len(result.outcomes) == len(images)
        # The lucky session that filled the queue serves normally; the
        # shed ones degrade to the branch instead of losing frames.
        assert any(result.fallback_rate > 0.0 for result in results)

    def test_concurrent_run_is_deterministic(self, trained_system, tiny_mnist):
        _, test = tiny_mnist
        images = test.images[:16]
        cfg = SessionConfig(batch_size=4, threshold=0.05)

        def run():
            scheduler = EdgeScheduler.for_system(
                trained_system, config=SchedulerConfig(window_ms=4.0)
            )
            results = run_concurrent_sessions(
                self._deployments(trained_system, 3),
                [images] * 3,
                scheduler,
                config=cfg,
            )
            return results, scheduler.counters

        results_a, counters_a = run()
        results_b, counters_b = run()
        for a, b in zip(results_a, results_b):
            np.testing.assert_array_equal(a.predictions, b.predictions)
            for ca, cb in zip(a.trace.samples, b.trace.samples):
                assert ca.total_ms == cb.total_ms
                assert ca.queue_ms == cb.queue_ms
        assert counters_a.batch_size_hist == counters_b.batch_size_hist
        assert counters_a.queue_wait_ms == counters_b.queue_wait_ms


@pytest.mark.sched
class TestConcurrencySweep:
    def test_batching_doubles_edge_throughput_at_scale(
        self, trained_system, tiny_mnist
    ):
        """The acceptance criterion: at 16 concurrent sessions, dynamic
        batching serves ≥2× the per-request edge throughput, with
        answers identical to the unscheduled path."""
        _, test = tiny_mnist
        result = run_concurrency(
            trained_system,
            test.images[:16],
            config=ConcurrencySweepConfig(
                users=(1, 16),
                windows_ms=(4.0,),
                session_config=SessionConfig(batch_size=4, threshold=0.05),
                seed=3,
            ),
        )
        batched = result.point(16, 4.0, 32)
        per_request = next(
            p for p in result.points if p.users == 16 and p.per_request
        )
        # Per-request serving executes one trunk pass per request frame
        # (its batches are whatever one session's chunk carried); dynamic
        # batching coalesces frames across sessions into larger passes.
        assert per_request.batches > batched.batches
        assert batched.mean_batch_size > per_request.mean_batch_size
        assert result.speedup(16, 4.0, 32) >= 2.0
        # Batching changes timing only: same exits, no sheds, no fallbacks.
        assert batched.exit_rate == per_request.exit_rate
        assert batched.shed_rate == 0.0
        assert batched.fallback_rate == 0.0

    def test_single_user_window_waits_match_analysis(
        self, trained_system, tiny_mnist
    ):
        """With one user the simulated clock is analytically checkable:
        a solo request waits out exactly its window (the trunk is always
        free), and with a zero window it never waits at all."""
        _, test = tiny_mnist
        result = run_concurrency(
            trained_system,
            test.images[:12],
            config=ConcurrencySweepConfig(
                users=(1,),
                windows_ms=(0.0, 4.0),
                session_config=SessionConfig(batch_size=4, threshold=0.05),
                seed=3,
            ),
        )
        no_window = result.point(1, 0.0, 32)
        windowed = result.point(1, 4.0, 32)
        assert no_window.mean_queue_wait_ms == pytest.approx(0.0)
        assert windowed.mean_queue_wait_ms == pytest.approx(4.0)
        # The M/M/1 cross-check exists and is sane for this light load.
        assert windowed.analytic_wait_ms is not None
        assert 0.0 <= windowed.analytic_wait_ms < 4.0
