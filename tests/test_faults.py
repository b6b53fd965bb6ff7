"""Fault-tolerant collaborative inference: injection, retry, fallback.

Covers the transport fault model (:class:`FaultyLink`), the client-side
:class:`RetryPolicy`, the session-level graceful degradation contract
(a dead link costs accuracy, never availability), retry pricing in the
latency model, and the regression fixes around reply correlation,
session ids, and server-side error containment.
"""

import os
from dataclasses import replace

import numpy as np
import pytest

from repro.profiling import FaultCounters
from repro.runtime import (
    SERVED_BY_BRANCH,
    SERVED_BY_EDGE,
    SERVED_BY_FALLBACK,
    BatchInferenceRequest,
    BatchInferenceResponse,
    EdgeScheduler,
    ErrorResponse,
    FaultyLink,
    FrameDropped,
    FrameTimeout,
    LCRSDeployment,
    ProtocolError,
    SessionConfig,
    RetryPolicy,
    decode_frame,
    encode_frame,
    faulty,
    four_g,
    run_concurrent_sessions,
    simulate_plan,
)

#: Deterministic fast policy: failed attempt = 100 ms wait, backoff
#: 10 → 20 ms with no jitter, three attempts.
FAST_POLICY = RetryPolicy(
    max_attempts=3,
    per_attempt_timeout_ms=100.0,
    backoff_base_ms=10.0,
    backoff_multiplier=2.0,
    jitter=0.0,
)


@pytest.fixture
def strict_system(trained_system, tiny_mnist):
    """Recalibrate so ~80 % of test samples take the miss path."""
    from repro.core import branch_entropies

    _, test = tiny_mnist
    entropies, _, _ = branch_entropies(trained_system.model, test.images)
    original = trained_system.calibration
    trained_system.calibration = replace(
        original, threshold=float(np.quantile(entropies, 0.2))
    )
    yield trained_system, test
    trained_system.calibration = original


#: The two miss-path transports of the one retry loop.
TRANSPORTS = ("direct", "scheduler")


def serve(deployment, images, transport, config=None):
    """One session over ``transport``: ``run_session`` against the
    deployment's private edge server, or ``run_concurrent_sessions``
    with this session alone on a shared :class:`EdgeScheduler`."""
    config = config if config is not None else SessionConfig()
    if transport == "direct":
        return deployment.run_session(images, config=config)
    scheduler = EdgeScheduler.for_system(deployment.system)
    (result,) = run_concurrent_sessions(
        [deployment], [images], scheduler, config=config
    )
    return result


def branch_predictions(deployment, images) -> np.ndarray:
    _, logits, _, _ = deployment.browser.process_batch(np.asarray(images))
    return logits.argmax(axis=1)


class TestFaultyLink:
    def test_rejects_out_of_range_probability(self):
        with pytest.raises(ValueError):
            FaultyLink(inner=four_g(), drop_prob=1.5)
        with pytest.raises(ValueError):
            FaultyLink(inner=four_g(), corrupt_prob=-0.1)

    def test_rejects_exclusive_probabilities_over_one(self):
        with pytest.raises(ValueError):
            FaultyLink(inner=four_g(), drop_prob=0.6, timeout_prob=0.5)

    def test_rejects_unknown_scripted_fault(self):
        with pytest.raises(ValueError):
            FaultyLink(inner=four_g(), script=("explode",))

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError):
            faulty(four_g(), "apocalypse")

    def test_partition_drops_without_reaching_server(self):
        link = faulty(four_g(), "partition")
        calls = []
        with pytest.raises(FrameDropped):
            link.exchange(b"LCRPframe", calls.append)
        assert calls == []

    def test_scripted_fault_schedule(self):
        link = FaultyLink(
            inner=four_g(), script=("drop", "timeout", "corrupt", "duplicate")
        )
        calls = []

        def handler(frame: bytes) -> bytes:
            calls.append(frame)
            return b"REPLY"

        with pytest.raises(FrameDropped):
            link.exchange(b"LCRPframe", handler)
        assert calls == []  # dropped before the server

        with pytest.raises(FrameTimeout):
            link.exchange(b"LCRPframe", handler)
        assert len(calls) == 1  # the server did the work; the reply was lost

        assert link.exchange(b"LCRPframe", handler) == b"REPLY"
        assert link.last_faults == ("corrupt",)
        assert calls[1] != b"LCRPframe"  # delivered mangled

        assert link.exchange(b"LCRPframe", handler) == b"REPLY"
        assert link.last_faults == ("duplicate",)
        assert calls[-1] == calls[-2] == b"LCRPframe"  # served twice

        # exhausted script behaves as a clean link
        assert link.exchange(b"LCRPframe", handler) == b"REPLY"
        assert link.last_faults == ()

    def test_seeded_fault_sequence_reproducible(self):
        def run(seed: int) -> list[str]:
            link = faulty(four_g(), "harsh", seed=seed)
            events = []
            for _ in range(50):
                try:
                    link.exchange(b"LCRPframe", lambda f: b"R")
                    events.append("/".join(link.last_faults) or "ok")
                except FrameDropped:
                    events.append("drop")
                except FrameTimeout:
                    events.append("timeout")
            return events

        assert run(11) == run(11)
        assert run(11) != run(12)

    def test_timing_delegates_to_wrapped_link(self):
        plain = four_g(seed=3)
        wrapped = faulty(four_g(seed=3), "harsh", seed=0)
        assert wrapped.upload_ms(4096) == plain.upload_ms(4096)
        assert wrapped.download_ms(4096) == plain.download_ms(4096)
        assert wrapped.name == "4g"
        deterministic = wrapped.deterministic()
        assert deterministic.inner.jitter_sigma == 0.0
        assert deterministic.drop_prob == wrapped.drop_prob


class TestRetryPolicy:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_attempts": 0},
            {"per_attempt_timeout_ms": 0.0},
            {"backoff_multiplier": 0.5},
            {"jitter": 1.0},
            {"deadline_ms": 0.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)

    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(
            backoff_base_ms=50.0,
            backoff_multiplier=2.0,
            backoff_max_ms=150.0,
            jitter=0.0,
        )
        rng = np.random.default_rng(0)
        assert policy.backoff_ms(1, rng) == 50.0
        assert policy.backoff_ms(2, rng) == 100.0
        assert policy.backoff_ms(3, rng) == 150.0  # capped
        assert policy.backoff_ms(9, rng) == 150.0

    def test_jitter_stays_within_band(self):
        policy = RetryPolicy(backoff_base_ms=100.0, jitter=0.2)
        rng = np.random.default_rng(0)
        draws = [policy.backoff_ms(1, rng) for _ in range(200)]
        assert all(80.0 <= d <= 120.0 for d in draws)
        assert len(set(draws)) > 1


class TestRetryPricing:
    def test_simulate_plan_prices_retry_ms(self, trained_system):
        deployment = LCRSDeployment(trained_system, four_g(seed=0).deterministic())
        plan = deployment.plan()
        clean = simulate_plan(
            plan, 1, deployment.link, deployment.browser_device,
            deployment.edge_device, miss_mask=[False],
        ).samples[0]
        priced = simulate_plan(
            plan, 1, deployment.link, deployment.browser_device,
            deployment.edge_device, miss_mask=[False], retry_ms=[250.0],
        ).samples[0]
        assert priced.retry_ms == 250.0
        assert priced.communication_ms == pytest.approx(clean.communication_ms + 250.0)
        assert priced.total_ms == pytest.approx(clean.total_ms + 250.0)
        assert clean.retry_ms == 0.0

    def test_retry_ms_length_validated(self, trained_system):
        deployment = LCRSDeployment(trained_system, four_g(seed=0))
        with pytest.raises(ValueError):
            simulate_plan(
                deployment.plan(), 2, deployment.link,
                deployment.browser_device, deployment.edge_device,
                retry_ms=[1.0],
            )


class TestRegressionFixes:
    def test_session_ids_monotonic_and_distinct(self, trained_system):
        first = LCRSDeployment(trained_system, four_g(seed=0))
        second = LCRSDeployment(trained_system, four_g(seed=0))
        assert second._session_id > first._session_id

    def test_batch_request_validates_header_before_decode(self):
        # Payload is garbage for the codec AND the header invariant is
        # broken: the batch-level message must win, not a codec error.
        request = BatchInferenceRequest(
            session_id=1,
            sequences=(0, 1, 2),
            codec="fp32",
            feature_shape=(2, 6, 14, 14),
            payload=b"\x01",
        )
        with pytest.raises(ProtocolError, match="batch of 3 sequences"):
            request.features()

    def test_endpoint_exception_becomes_500(self, trained_system):
        from repro.runtime import EdgeEndpoint, EdgeProtocolServer

        server = EdgeProtocolServer(EdgeEndpoint(trained_system.model.main_trunk))
        # Well-formed frame, decodable features — but the wrong shape
        # for the trunk, so inference itself raises.
        bad = np.zeros((1, 3, 5, 5), dtype=np.float32)
        batch_reply = decode_frame(
            server.handle(
                encode_frame(BatchInferenceRequest.from_features(1, [0], "fp32", bad))
            )
        )
        assert isinstance(batch_reply, ErrorResponse)
        assert batch_reply.code == 500

    def test_batched_replies_mapped_by_sequence(self, strict_system):
        """A server that reorders its batch answers must not scramble
        the per-sample predictions (the old code zipped by position)."""
        system, test = strict_system
        images = test.images[:30]

        reference = LCRSDeployment(
            system, four_g(seed=2).deterministic()
        ).run_session(images)

        deployment = LCRSDeployment(system, four_g(seed=2).deterministic())
        inner_handle = deployment._edge_server.handle

        def reordering_handle(frame: bytes) -> bytes:
            reply = decode_frame(inner_handle(frame))
            if isinstance(reply, BatchInferenceResponse) and len(reply.sequences) > 1:
                order = list(range(len(reply.sequences)))[::-1]
                reply = BatchInferenceResponse(
                    session_id=reply.session_id,
                    sequences=tuple(reply.sequences[i] for i in order),
                    class_ids=tuple(reply.class_ids[i] for i in order),
                    confidences=tuple(reply.confidences[i] for i in order),
                )
            return encode_frame(reply)

        deployment._edge_server.handle = reordering_handle
        batched = deployment.run_session(images, config=SessionConfig(batch_size=10))
        np.testing.assert_array_equal(batched.predictions, reference.predictions)
        assert all(
            o.served_by == SERVED_BY_EDGE
            for o in batched.outcomes
            if not o.exited_locally
        )

    @pytest.mark.parametrize("batch_size", [1, 10])
    def test_mismatched_session_id_rejected(self, strict_system, batch_size):
        """Replies carrying the wrong correlation ids are failures, not
        answers — the session retries and then falls back."""
        system, test = strict_system
        deployment = LCRSDeployment(
            system, four_g(seed=2).deterministic(), retry_policy=FAST_POLICY
        )
        inner_handle = deployment._edge_server.handle

        def confused_handle(frame: bytes) -> bytes:
            reply = decode_frame(inner_handle(frame))
            if isinstance(reply, BatchInferenceResponse):
                reply = replace(reply, session_id=reply.session_id + 1)
            return encode_frame(reply)

        deployment._edge_server.handle = confused_handle
        session = deployment.run_session(
            test.images[:20], config=SessionConfig(batch_size=batch_size)
        )
        misses = [o for o in session.outcomes if not o.exited_locally]
        assert misses
        assert all(o.served_by == SERVED_BY_FALLBACK for o in misses)
        assert deployment.fault_counters.replies_rejected > 0
        np.testing.assert_array_equal(
            session.predictions, branch_predictions(deployment, test.images[:20])
        )


class TestGracefulDegradation:
    @pytest.mark.parametrize("batch_size", [1, 8])
    def test_full_partition_serves_every_frame(self, strict_system, batch_size):
        """Acceptance: with a 100 %-drop link both serving paths finish
        without raising, every miss is a binary-branch fallback, and the
        session accuracy equals branch-only accuracy."""
        system, test = strict_system
        images, labels = test.images[:40], test.labels[:40]
        deployment = LCRSDeployment(
            system,
            faulty(four_g(seed=2).deterministic(), "partition"),
            retry_policy=FAST_POLICY,
        )
        session = deployment.run_session(images, config=SessionConfig(batch_size=batch_size))

        assert len(session.outcomes) == len(images)
        misses = [o for o in session.outcomes if not o.exited_locally]
        assert misses  # the strict threshold forces miss traffic
        assert all(o.served_by == SERVED_BY_FALLBACK for o in misses)
        assert all(o.attempts == FAST_POLICY.max_attempts for o in misses)
        assert all(
            o.served_by == SERVED_BY_BRANCH and o.attempts == 0
            for o in session.outcomes
            if o.exited_locally
        )
        assert deployment.edge.requests_served == 0  # nothing got through

        expected = branch_predictions(deployment, images)
        np.testing.assert_array_equal(session.predictions, expected)
        assert session.accuracy(labels) == pytest.approx(
            float((expected == labels).mean())
        )
        assert session.fallback_rate == pytest.approx(len(misses) / len(images))
        assert session.degraded

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_partition_counters(self, strict_system, transport):
        system, test = strict_system
        deployment = LCRSDeployment(
            system,
            faulty(four_g(seed=2).deterministic(), "partition"),
            retry_policy=FAST_POLICY,
        )
        session = serve(deployment, test.images[:20], transport)
        misses = sum(not o.exited_locally for o in session.outcomes)
        counters = deployment.fault_counters
        assert counters.fallbacks == misses
        assert counters.frames_sent == misses * FAST_POLICY.max_attempts
        assert counters.frames_dropped == misses * FAST_POLICY.max_attempts
        assert counters.retries == misses * (FAST_POLICY.max_attempts - 1)
        assert counters.failures == counters.frames_dropped

    def test_partition_batched_counts_fallbacks_per_sample(self, strict_system):
        system, test = strict_system
        deployment = LCRSDeployment(
            system,
            faulty(four_g(seed=2).deterministic(), "partition"),
            retry_policy=FAST_POLICY,
        )
        session = deployment.run_session(
            test.images[:20], config=SessionConfig(batch_size=7)
        )
        misses = sum(not o.exited_locally for o in session.outcomes)
        assert deployment.fault_counters.fallbacks == misses

    def test_fallback_cost_prices_failed_attempts(self, strict_system):
        """Three dropped attempts with jitter-free backoff cost exactly
        3×timeout + backoff(1) + backoff(2)."""
        system, test = strict_system
        deployment = LCRSDeployment(
            system,
            faulty(four_g(seed=2).deterministic(), "partition"),
            retry_policy=FAST_POLICY,
        )
        session = deployment.run_session(test.images[:20])
        expected_retry = 3 * 100.0 + 10.0 + 20.0
        for outcome in session.outcomes:
            if outcome.exited_locally:
                assert outcome.cost.retry_ms == 0.0
            else:
                assert outcome.cost.retry_ms == pytest.approx(expected_retry)
                assert outcome.cost.communication_ms >= expected_retry
                assert outcome.cost.total_ms == pytest.approx(
                    outcome.cost.compute_ms + outcome.cost.communication_ms
                )

    def test_single_drop_then_recovery(self, strict_system):
        """One dropped frame: the retry succeeds, the edge serves the
        sample, and the extra latency is exactly timeout + backoff."""
        system, test = strict_system
        images = test.images[:20]

        clean = LCRSDeployment(
            system, four_g(seed=2).deterministic(), retry_policy=FAST_POLICY
        ).run_session(images)

        deployment = LCRSDeployment(
            system,
            FaultyLink(inner=four_g(seed=2).deterministic(), script=("drop",)),
            retry_policy=FAST_POLICY,
        )
        session = deployment.run_session(images)

        np.testing.assert_array_equal(session.predictions, clean.predictions)
        first_miss = next(i for i, o in enumerate(session.outcomes) if not o.exited_locally)
        retried = session.outcomes[first_miss]
        assert retried.served_by == SERVED_BY_EDGE
        assert retried.attempts == 2
        assert retried.cost.retry_ms == pytest.approx(100.0 + 10.0)
        assert retried.cost.total_ms == pytest.approx(
            clean.outcomes[first_miss].cost.total_ms + 110.0
        )
        # every other sample is untouched
        for i, (a, b) in enumerate(zip(clean.outcomes, session.outcomes)):
            if i != first_miss:
                assert b.cost.total_ms == pytest.approx(a.cost.total_ms)
        assert deployment.fault_counters.frames_dropped == 1
        assert deployment.fault_counters.retries == 1
        assert deployment.fault_counters.fallbacks == 0

    def test_timeout_still_reaches_server(self, strict_system):
        """A timeout loses the reply, not the request: the endpoint does
        the work and the client retries."""
        system, test = strict_system
        deployment = LCRSDeployment(
            system,
            FaultyLink(inner=four_g(seed=2).deterministic(), script=("timeout",)),
            retry_policy=FAST_POLICY,
        )
        session = deployment.run_session(test.images[:20])
        misses = sum(not o.exited_locally for o in session.outcomes)
        assert deployment.fault_counters.frames_timed_out == 1
        assert deployment.edge.requests_served == misses + 1  # one served twice

    def test_corrupted_frame_rejected_by_server_then_retried(self, strict_system):
        system, test = strict_system
        deployment = LCRSDeployment(
            system,
            FaultyLink(inner=four_g(seed=2).deterministic(), script=("corrupt",)),
            retry_policy=FAST_POLICY,
        )
        session = deployment.run_session(test.images[:20])
        counters = deployment.fault_counters
        assert counters.frames_corrupted == 1
        assert counters.edge_errors == 1  # the mangled frame drew a 400
        assert counters.fallbacks == 0
        assert all(
            o.served_by == SERVED_BY_EDGE
            for o in session.outcomes
            if not o.exited_locally
        )

    def test_duplicate_delivery_is_harmless(self, strict_system):
        system, test = strict_system
        deployment = LCRSDeployment(
            system,
            FaultyLink(inner=four_g(seed=2).deterministic(), script=("duplicate",)),
            retry_policy=FAST_POLICY,
        )
        clean = LCRSDeployment(
            system, four_g(seed=2).deterministic(), retry_policy=FAST_POLICY
        ).run_session(test.images[:20])
        session = deployment.run_session(test.images[:20])
        np.testing.assert_array_equal(session.predictions, clean.predictions)
        misses = sum(not o.exited_locally for o in session.outcomes)
        assert deployment.fault_counters.frames_duplicated == 1
        assert deployment.edge.requests_served == misses + 1

    @pytest.mark.parametrize("batch_size", [1, 8])
    def test_zero_fault_link_is_bit_identical(self, strict_system, batch_size):
        """Acceptance: a FaultyLink with every probability at zero must
        reproduce the plain link's predictions, exits, and priced
        latencies exactly."""
        system, test = strict_system
        images = test.images[:30]
        plain = LCRSDeployment(system, four_g(seed=2).deterministic()).run_session(
            images, config=SessionConfig(batch_size=batch_size)
        )
        wrapped_link = FaultyLink(inner=four_g(seed=2).deterministic())
        deployment = LCRSDeployment(system, wrapped_link)
        wrapped = deployment.run_session(images, config=SessionConfig(batch_size=batch_size))

        np.testing.assert_array_equal(wrapped.predictions, plain.predictions)
        for a, b in zip(plain.outcomes, wrapped.outcomes):
            assert a.exited_locally == b.exited_locally
            assert b.cost.total_ms == a.cost.total_ms
            assert b.cost.communication_ms == a.cost.communication_ms
            assert b.cost.retry_ms == 0.0
            assert b.served_by in (SERVED_BY_BRANCH, SERVED_BY_EDGE)
            assert b.attempts == (0 if b.exited_locally else 1)
        counters = deployment.fault_counters
        assert counters.failures == 0
        assert counters.fallbacks == 0
        assert counters.retries == 0

    def test_deadline_stops_retrying_early(self, strict_system):
        system, test = strict_system
        policy = RetryPolicy(
            max_attempts=10,
            per_attempt_timeout_ms=100.0,
            backoff_base_ms=0.0,
            jitter=0.0,
            deadline_ms=250.0,
        )
        deployment = LCRSDeployment(
            system,
            faulty(four_g(seed=2).deterministic(), "partition"),
            retry_policy=policy,
        )
        session = deployment.run_session(test.images[:20])
        misses = [o for o in session.outcomes if not o.exited_locally]
        assert misses
        # 100 ms per failure: the third failure crosses the 250 ms deadline.
        assert all(o.attempts == 3 for o in misses)
        assert all(o.served_by == SERVED_BY_FALLBACK for o in misses)


class TestFaultCounterWatchers:
    def test_watchers_see_every_increment(self, strict_system):
        """`fault.*` writes go through ``Counter.add``, so a ``watch()``
        hook — the tap windowed series and SLOs build on — sees every
        increment of a lossy session, not just the final value."""
        system, test = strict_system
        deployment = LCRSDeployment(
            system,
            faulty(four_g(seed=2).deterministic(), "none", seed=5, drop_prob=0.7),
            retry_policy=FAST_POLICY,
        )
        counters = deployment.fault_counters
        seen = {"fallbacks": [], "frames_sent": []}
        for name, amounts in seen.items():
            counters.registry.counter(f"fault.{name}").watch(amounts.append)
        session = deployment.run_session(test.images[:20])

        fallbacks = sum(o.served_by == SERVED_BY_FALLBACK for o in session.outcomes)
        assert fallbacks > 0
        assert sum(seen["fallbacks"]) == counters.fallbacks == fallbacks
        attempts = sum(o.attempts for o in session.outcomes)
        assert attempts > fallbacks
        assert sum(seen["frames_sent"]) == counters.frames_sent == attempts
        assert seen["frames_sent"] == [1] * attempts

    def test_fields_are_read_only(self):
        counters = FaultCounters()
        with pytest.raises(AttributeError):
            counters.retries += 1
        counters.add("retries")
        assert counters.retries == 1


class TestFaultCountersType:
    def test_reset_and_dict_roundtrip(self):
        counters = FaultCounters(frames_sent=3, frames_dropped=2, retries=1)
        as_dict = counters.as_dict()
        assert as_dict["frames_sent"] == 3 and as_dict["retries"] == 1
        counters.reset()
        assert counters.as_dict() == FaultCounters().as_dict()
        assert counters.failures == 0


class TestWebARFallbackSurface:
    def test_pipeline_carries_served_by(self, strict_system):
        from repro.webar.pipeline import LCRSRecognizer, WebARPipeline

        system, test = strict_system
        deployment = LCRSDeployment(
            system,
            faulty(four_g(seed=2).deterministic(), "partition"),
            retry_policy=FAST_POLICY,
        )
        report = WebARPipeline(LCRSRecognizer(deployment)).run(
            test.images[:15], case_name="partition"
        )
        assert report.fallback_rate > 0.0
        fallbacks = [i for i in report.interactions if i.served_by == "binary-fallback"]
        assert fallbacks and all(i.attempts == FAST_POLICY.max_attempts for i in fallbacks)


class TestDegradationExperiment:
    def test_sweep_ends_at_branch_accuracy(self, trained_system, tiny_mnist):
        from repro.experiments import run_degradation

        _, test = tiny_mnist
        result = run_degradation(
            trained_system,
            test.images[:40],
            test.labels[:40],
            drop_probs=(0.0, 1.0),
            link=four_g(seed=0).deterministic(),
            batch_size=8,
        )
        assert result.points[0].fallback_rate == 0.0
        assert result.points[-1].accuracy == pytest.approx(
            result.branch_only_accuracy
        )
        assert result.points[-1].mean_retry_ms > 0.0
        assert "Graceful degradation" in result.render()
        assert all(check.startswith("[ok]") for check in result.shape_checks())


class TestFaultSmokeProfile:
    """The `make fault-smoke` hook: run short sessions under the profile
    named by REPRO_FAULT_PROFILE (default: smoke) and assert the
    degraded path's invariants hold whatever the link does."""

    @pytest.mark.parametrize("batch_size", [1, 8])
    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_smoke_profile_session_invariants(
        self, strict_system, transport, batch_size
    ):
        profile = os.environ.get("REPRO_FAULT_PROFILE", "smoke")
        if profile == "none":
            profile = "smoke"
        system, test = strict_system
        images, labels = test.images[:40], test.labels[:40]
        deployment = LCRSDeployment(
            system,
            faulty(four_g(seed=2), profile, seed=13),
            retry_policy=FAST_POLICY,
        )
        session = serve(
            deployment, images, transport, SessionConfig(batch_size=batch_size)
        )

        assert len(session.outcomes) == len(images)
        counters = deployment.fault_counters
        fallbacks = sum(o.served_by == SERVED_BY_FALLBACK for o in session.outcomes)
        assert counters.fallbacks == fallbacks
        branch = branch_predictions(deployment, images)
        for i, outcome in enumerate(session.outcomes):
            assert outcome.served_by in (
                SERVED_BY_BRANCH,
                SERVED_BY_EDGE,
                SERVED_BY_FALLBACK,
            )
            if outcome.served_by != SERVED_BY_EDGE:
                assert outcome.prediction == int(branch[i])
            if outcome.exited_locally:
                assert outcome.attempts == 0
            else:
                assert 1 <= outcome.attempts <= FAST_POLICY.max_attempts
        # degradation never hurts availability: every frame got an answer
        assert session.predictions.shape == (len(images),)
