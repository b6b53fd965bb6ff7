"""Observability subsystem: metrics math, span semantics, exporters.

Three layers of coverage, all under the ``obs`` marker:

* **metrics** — histogram bucket/percentile math with the crisp edge
  cases (empty, single sample), registry get-or-create and scoped
  restore;
* **tracing** — span nesting, the null recorder's zero-footprint
  contract, and deterministic span sequences under a seeded faulty
  link (one ``link.attempt`` per transport attempt);
* **export** — Chrome ``trace_event`` schema of a real 2-tenant
  scheduler run, and the 16-user acceptance property: every miss-path
  chunk's trace id correlates device-track spans with ``sched.queue_wait``
  and ``trunk.batch`` on the edge track, while predictions stay
  bit-identical with tracing on or off.
"""

from __future__ import annotations

import json
import re

import numpy as np
import pytest

from repro.observability import (
    NULL_RECORDER,
    Histogram,
    MetricsRegistry,
    Tracer,
    chrome_trace,
    now_ms,
    spans_to_jsonl,
)
from repro.runtime import LCRSDeployment, RetryPolicy, SessionConfig
from repro.runtime.network import faulty, four_g
from repro.runtime.scheduler import (
    EdgeScheduler,
    SchedulerConfig,
    run_concurrent_sessions,
)
from repro.runtime.session import SERVED_BY_EDGE

pytestmark = pytest.mark.obs


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
class TestHistogram:
    def test_empty_histogram_has_none_summaries(self):
        h = Histogram("h")
        assert h.count == 0
        assert h.mean is None and h.min is None and h.max is None
        assert h.p50 is None and h.p95 is None and h.p99 is None
        assert h.percentile(0.0) is None and h.percentile(100.0) is None

    def test_single_sample_answers_every_quantile(self):
        h = Histogram("h")
        h.observe(3.5)
        for q in (0.0, 1.0, 50.0, 95.0, 99.0, 100.0):
            assert h.percentile(q) == 3.5
        assert h.mean == 3.5 and h.min == 3.5 and h.max == 3.5

    def test_bucket_assignment_inclusive_upper_bounds(self):
        h = Histogram("h", bounds=(1.0, 2.0, 5.0))
        for value in (0.5, 1.0, 1.5, 2.0, 6.0):
            h.observe(value)
        # 0.5 and 1.0 in (<=1], 1.5 and 2.0 in (1, 2], nothing in (2, 5],
        # 6.0 overflows.
        assert h.bucket_counts == [2, 2, 0, 1]
        assert h.as_dict()["buckets"] == {"1.0": 2, "2.0": 2, "5.0": 0, "+inf": 1}

    def test_nearest_rank_percentiles(self):
        h = Histogram("h")
        for value in range(1, 101):
            h.observe(float(value))
        assert h.p50 == 50.0
        assert h.p95 == 95.0
        assert h.p99 == 99.0
        assert h.percentile(100.0) == 100.0
        assert h.percentile(0.0) == 1.0

    def test_percentiles_are_order_independent(self):
        rng = np.random.default_rng(3)
        values = rng.uniform(0.0, 50.0, size=31)
        h = Histogram("h")
        for value in values:
            h.observe(float(value))
        ranked = np.sort(values)
        assert h.p50 == pytest.approx(ranked[int(np.ceil(0.5 * 31)) - 1])
        assert h.max == pytest.approx(ranked[-1])

    def test_invalid_bounds_and_quantiles_rejected(self):
        with pytest.raises(ValueError):
            Histogram("h", bounds=())
        with pytest.raises(ValueError):
            Histogram("h", bounds=(2.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("h", bounds=(1.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("h").percentile(-1.0)
        with pytest.raises(ValueError):
            Histogram("h").percentile(101.0)


class TestMetricsRegistry:
    def test_get_or_create_returns_same_object(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.histogram("h") is reg.histogram("h")
        assert len(reg) == 2

    def test_kind_mismatch_is_an_error(self):
        reg = MetricsRegistry()
        reg.counter("a")
        with pytest.raises(TypeError):
            reg.gauge("a")

    def test_state_restore_resets_metrics_created_after_snapshot(self):
        reg = MetricsRegistry()
        reg.counter("a").add(5)
        snapshot = reg.state()
        reg.counter("a").add(10)
        reg.counter("b").add(7)
        reg.histogram("h").observe(1.0)
        reg.restore(snapshot)
        assert reg.counter("a").value == 5
        assert reg.counter("b").value == 0
        assert reg.histogram("h").count == 0


class TestCountersScope:
    def test_scope_restores_facades_and_global_registry(self):
        from repro.observability import global_registry
        from repro.profiling import FaultCounters, counters_scope
        from repro.wasm.bitpack import record_plan_popcount, total_bytes_popcounted

        counters = FaultCounters()
        counters.add("retries", 2)
        global_registry().counter("test.scope.probe").add(1)
        popcounted = total_bytes_popcounted()
        with counters_scope():
            counters.add("retries", 100)
            counters.add("frames_dropped", 3)
            global_registry().counter("test.scope.probe").add(41)
            record_plan_popcount(64)
            assert counters.retries == 102
            assert total_bytes_popcounted() == popcounted + 64
        assert counters.retries == 2
        assert counters.frames_dropped == 0
        assert global_registry().counter("test.scope.probe").value == 1
        assert global_registry().counter("wasm.bytes_popcounted").value == popcounted


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------
class TestNullRecorder:
    def test_disabled_and_inert(self):
        assert NULL_RECORDER.enabled is False
        assert NULL_RECORDER.new_trace() == ""
        with NULL_RECORDER.span("anything") as s:
            s.set(key="value")
            s.set_sim(1.0, 2.0)
        assert NULL_RECORDER.spans() == []

    def test_null_span_is_shared_and_unchanged(self):
        a = NULL_RECORDER.start_span("x")
        b = NULL_RECORDER.add_span("y", track="edge")
        assert a is b
        assert a.attrs == {}


class TestTracerNesting:
    def test_spans_nest_per_track(self):
        tracer = Tracer()
        trace = tracer.new_trace()
        root = tracer.start_span("chunk", track="s1", trace_id=trace)
        child = tracer.start_span("stem", track="s1")
        other = tracer.start_span("trunk.batch", track="edge")
        assert child.parent_id == root.span_id
        assert child.trace_id == trace  # inherited from the open parent
        assert other.parent_id is None  # different track, no nesting
        tracer.end_span(other)
        tracer.end_span(child)
        tracer.end_span(root)
        assert [s.name for s in tracer.spans()] == ["chunk", "stem", "trunk.batch"]

    def test_span_close_feeds_histograms(self):
        tracer = Tracer()
        with tracer.span("work"):
            pass
        hist = tracer.metrics.get("span.work.wall_ms")
        assert hist is not None and hist.count == 1

    def test_wall_clock_is_monotonic(self):
        a = now_ms()
        b = now_ms()
        assert b >= a


def _run_faulty_traced(system, images):
    """One traced session over a deterministic, lossy link."""
    link = faulty(four_g(seed=5), "none", seed=9, drop_prob=0.4)
    deployment = LCRSDeployment(
        system,
        link,
        retry_policy=RetryPolicy(max_attempts=3, per_attempt_timeout_ms=200.0),
    )
    tracer = Tracer()
    result = deployment.run_session(
        images, config=SessionConfig(batch_size=4, threshold=0.05), recorder=tracer
    )
    return tracer, result


def _signature(span):
    """The structural part of a span: nesting, ordering, and discrete
    attrs.  Wall time is excluded (host-dependent), as are priced ms
    values and the session id: backoff jitter is seeded per session and
    the session counter is process-global, so a *fresh* deployment is
    only structurally — not numerically — identical."""
    attrs = {
        k: v for k, v in span.attrs.items()
        if not (k.endswith("_bytes") or k.endswith("_ms") or k == "session")
    }
    return (span.name, span.trace_id, span.parent_id, tuple(sorted(attrs.items())))


class TestFaultySessionSpans:
    def test_span_sequence_deterministic_under_seeded_faults(self, trained_system, tiny_mnist):
        _, test = tiny_mnist
        tracer_a, result_a = _run_faulty_traced(trained_system, test.images[:16])
        tracer_b, result_b = _run_faulty_traced(trained_system, test.images[:16])
        assert (result_a.predictions == result_b.predictions).all()
        sig_a = [_signature(s) for s in tracer_a.spans()]
        sig_b = [_signature(s) for s in tracer_b.spans()]
        assert sig_a == sig_b

    def test_one_attempt_span_per_transport_attempt(self, trained_system, tiny_mnist):
        _, test = tiny_mnist
        tracer, result = _run_faulty_traced(trained_system, test.images[:16])
        spans = tracer.spans()
        exchanges = [s for s in spans if s.name == "link.exchange"]
        assert exchanges, "lossy miss path produced no exchange spans"
        for exchange in exchanges:
            attempts = [
                s for s in spans
                if s.name == "link.attempt" and s.parent_id == exchange.span_id
            ]
            assert len(attempts) == exchange.attrs["attempts"]
            # Every non-final attempt failed; the final one either
            # succeeded or the exchange fell back.
            for att in attempts[:-1]:
                assert att.attrs["outcome"] != "ok"
            final = attempts[-1].attrs["outcome"]
            if exchange.attrs["outcome"] == "ok":
                assert final == "ok"
            else:
                assert final != "ok"
        # drop_prob=0.4 with this seed must exercise at least one retry.
        assert any(e.attrs["attempts"] > 1 for e in exchanges)
        retried = [e for e in exchanges if e.attrs["attempts"] > 1]
        assert all(e.attrs["retry_ms"] > 0 for e in retried)

    def test_chunk_roots_cover_children_on_sim_timeline(self, trained_system, tiny_mnist):
        _, test = tiny_mnist
        tracer, _ = _run_faulty_traced(trained_system, test.images[:16])
        roots = [s for s in tracer.spans() if s.name == "chunk"]
        assert len(roots) == 4  # 16 samples / batch 4
        by_id = {s.span_id: s for s in tracer.spans()}
        for root in roots:
            assert root.sim_start_ms is not None and root.sim_ms is not None
            children = [
                s for s in tracer.spans() if s.parent_id == root.span_id
            ]
            assert {c.name for c in children} >= {"stem", "binary_branch", "entropy_gate"}
            end = root.sim_start_ms + root.sim_ms
            for child in children:
                if child.sim_start_ms is None:
                    continue
                assert child.sim_start_ms >= root.sim_start_ms - 1e-9
                assert child.sim_start_ms + (child.sim_ms or 0.0) <= end + 1e-9
                assert by_id[child.span_id].trace_id == root.trace_id
        # Chunks are priced back-to-back on the session's simulated clock.
        starts = [r.sim_start_ms for r in roots]
        assert starts == sorted(starts)


# ----------------------------------------------------------------------
# Export
# ----------------------------------------------------------------------
def _run_scheduled(system, images, n_users, recorder=None, session_batch=4):
    deployments = [
        LCRSDeployment(system, four_g(seed=20_000 + i)) for i in range(n_users)
    ]
    scheduler = EdgeScheduler.for_system(
        system, config=SchedulerConfig(window_ms=4.0, max_batch_size=32)
    )
    results = run_concurrent_sessions(
        deployments,
        [images] * n_users,
        scheduler,
        config=SessionConfig(batch_size=session_batch, threshold=0.05),
        recorder=recorder,
    )
    return results


class TestChromeTraceExport:
    def test_two_tenant_schema(self, trained_system, tiny_mnist):
        _, test = tiny_mnist
        tracer = Tracer()
        _run_scheduled(trained_system, test.images[:8], 2, recorder=tracer)
        doc = chrome_trace(tracer)
        # Round-trips through JSON (the on-disk format).
        doc = json.loads(json.dumps(doc))

        assert set(doc) == {"traceEvents", "displayTimeUnit", "otherData"}
        assert doc["displayTimeUnit"] == "ms"
        tracks = doc["otherData"]["tracks"]
        assert "edge" in tracks
        assert sum(t.startswith("session-") for t in tracks) == 2

        events = doc["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        complete = [e for e in events if e["ph"] == "X"]
        assert {e["args"]["name"] for e in meta} == set(tracks)
        assert len({e["tid"] for e in meta}) == len(tracks)
        assert complete and len(meta) + len(complete) == len(events)
        valid_tids = {e["tid"] for e in meta}
        for event in complete:
            assert event["pid"] == 1
            assert event["tid"] in valid_tids
            assert event["ts"] >= 0 and event["dur"] >= 0
            assert {"trace_id", "span_id", "clock", "wall_ms"} <= set(event["args"])
            assert event["args"]["clock"] in ("sim", "wall")

    def test_jsonl_lines_match_span_schema(self, trained_system, tiny_mnist):
        _, test = tiny_mnist
        tracer = Tracer()
        _run_scheduled(trained_system, test.images[:8], 2, recorder=tracer)
        lines = spans_to_jsonl(tracer).splitlines()
        assert len(lines) == len(tracer.spans())
        for line in lines:
            record = json.loads(line)
            assert {"name", "trace_id", "span_id", "track", "attrs"} <= set(record)


class TestSixteenUserAcceptance:
    def test_miss_path_correlated_across_tracks_and_bit_identical(
        self, trained_system, tiny_mnist
    ):
        _, test = tiny_mnist
        images = test.images[:8]

        baseline = _run_scheduled(trained_system, images, 16)
        tracer = Tracer()
        traced = _run_scheduled(trained_system, images, 16, recorder=tracer)

        # Tracing must not perturb the computation.
        for base, trac in zip(baseline, traced):
            assert (base.predictions == trac.predictions).all()
            assert [o.exited_locally for o in base.outcomes] == [
                o.exited_locally for o in trac.outcomes
            ]
            assert [o.served_by for o in base.outcomes] == [
                o.served_by for o in trac.outcomes
            ]
        assert all(r.telemetry is not None for r in traced)

        spans = tracer.spans()
        edge_spans = [s for s in spans if s.track == "edge"]
        device_roots = [s for s in spans if s.name == "chunk"]
        miss_roots = [
            s for s in device_roots
            if s.attrs["misses"] > 0 and s.attrs["served_by"] == SERVED_BY_EDGE
        ]
        assert miss_roots, "threshold override produced no edge-served chunks"

        queue_by_trace = {
            s.trace_id for s in edge_spans if s.name == "sched.queue_wait"
        }
        batch_trace_ids = set()
        for s in edge_spans:
            if s.name == "trunk.batch":
                batch_trace_ids.update(s.attrs["trace_ids"])
        for root in miss_roots:
            assert root.trace_id in queue_by_trace, (
                f"miss chunk {root.trace_id} has no queue_wait span on the edge track"
            )
            assert root.trace_id in batch_trace_ids, (
                f"miss chunk {root.trace_id} appears in no trunk.batch span"
            )
        # Device tracks stay per-tenant: one track per session plus the edge.
        tracks = {s.track for s in spans}
        assert sum(t.startswith("session-") for t in tracks) == 16
        assert "edge" in tracks


# ----------------------------------------------------------------------
# Labeled series names: labeled() <-> parse_labels() round trip
# ----------------------------------------------------------------------
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.observability import labeled, parse_labels

_label_keys = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd"), whitelist_characters="_"),
    min_size=1,
    max_size=8,
).filter(lambda s: "=" not in s and "," not in s and "{" not in s and "}" not in s)
_label_values = st.one_of(
    st.integers(min_value=0, max_value=10**6),
    st.text(
        alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd"), whitelist_characters="_.-"),
        min_size=1,
        max_size=12,
    ),
)
_base_names = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Nd"), whitelist_characters="._"),
    min_size=1,
    max_size=24,
).filter(lambda s: "{" not in s and "}" not in s)


class TestLabeledRoundTrip:
    def test_bare_name_passes_through(self):
        assert labeled("sched.queue_depth") == "sched.queue_depth"
        assert parse_labels("sched.queue_depth") == ("sched.queue_depth", {})

    def test_known_example(self):
        name = labeled("sched.queue_depth", shard=2)
        assert name == "sched.queue_depth{shard=2}"
        assert parse_labels(name) == ("sched.queue_depth", {"shard": "2"})

    def test_label_keys_sorted_canonically(self):
        assert labeled("m", b=1, a=2) == labeled("m", a=2, b=1)

    @settings(max_examples=200, deadline=None)
    @given(base=_base_names, labels=st.dictionaries(_label_keys, _label_values, max_size=4))
    def test_round_trip_property(self, base, labels):
        name = labeled(base, **labels)
        got_base, got_labels = parse_labels(name)
        assert got_base == base
        # Values come back as their string encoding (the name is the
        # only durable form), and re-labeling reproduces the name.
        assert got_labels == {k: str(v) for k, v in labels.items()}
        assert labeled(got_base, **got_labels) == name


# ----------------------------------------------------------------------
# Bounded histogram mode
# ----------------------------------------------------------------------
class TestBoundedHistogram:
    def test_percentiles_cover_only_the_ring(self):
        h = Histogram("h", bounds=(10.0, 100.0), max_samples=4)
        for v in (1000.0, 1000.0, 1.0, 2.0, 3.0, 4.0):
            h.observe(v)
        # The two early spikes fell off the ring.
        assert h.retained == 4
        assert h.percentile(99.0) == 4.0
        assert h.max == 4.0

    def test_alltime_aggregates_stay_exact(self):
        h = Histogram("h", bounds=(10.0,), max_samples=2)
        for v in (1.0, 2.0, 3.0, 20.0):
            h.observe(v)
        assert h.count == 4
        assert h.total == 26.0
        assert h.bucket_counts == [3, 1]  # all-time, not ring-limited

    def test_state_restore_round_trips_the_ring(self):
        h = Histogram("h", bounds=(10.0,), max_samples=3)
        for v in (1.0, 2.0, 3.0, 4.0):
            h.observe(v)
        snap = h.state()
        h.observe(100.0)
        h.restore(snap)
        assert h.retained == 3
        assert h.percentile(99.0) == 4.0

    def test_invalid_max_samples_rejected(self):
        with pytest.raises(ValueError):
            Histogram("h", bounds=(1.0,), max_samples=0)

    def test_registry_histogram_forwards_max_samples(self):
        reg = MetricsRegistry()
        h = reg.histogram("bounded", bounds=(1.0,), max_samples=8)
        assert h.max_samples == 8
        # get-or-create: params only apply on first creation.
        assert reg.histogram("bounded") is h


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------
from repro.observability import labeled as _labeled
from repro.observability import prometheus_text, write_prometheus

_PROM_LINE = re.compile(
    r"^(# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|histogram)"
    r"|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? -?[0-9.e+-]+(\.[0-9]+)?)$"
)


class TestPrometheusText:
    def _registry(self):
        reg = MetricsRegistry()
        reg.counter(_labeled("fleet.requests_ok", shard=0)).add(5)
        reg.counter(_labeled("fleet.requests_ok", shard=1)).add(7)
        reg.gauge("sched.queue_depth").set(3.0)
        h = reg.histogram("wait.ms", bounds=(1.0, 10.0))
        for v in (0.5, 5.0, 50.0):
            h.observe(v)
        return reg

    def test_every_line_is_valid_exposition(self):
        text = prometheus_text(self._registry())
        assert text.endswith("\n")
        for line in text.rstrip("\n").split("\n"):
            assert _PROM_LINE.match(line), f"invalid exposition line: {line!r}"

    def test_labeled_series_share_one_family(self):
        text = prometheus_text(self._registry())
        assert text.count("# TYPE fleet_requests_ok counter") == 1
        assert 'fleet_requests_ok{shard="0"} 5' in text
        assert 'fleet_requests_ok{shard="1"} 7' in text

    def test_histogram_buckets_cumulative_with_inf(self):
        text = prometheus_text(self._registry())
        assert 'wait_ms_bucket{le="1"} 1' in text
        assert 'wait_ms_bucket{le="10"} 2' in text
        assert 'wait_ms_bucket{le="+Inf"} 3' in text
        assert "wait_ms_sum 55.5" in text
        assert "wait_ms_count 3" in text

    def test_kind_collision_suffixes_family(self):
        reg = MetricsRegistry()
        reg.counter("metric.x").add(1)
        reg.gauge("metric/x").set(2.0)  # sanitizes to the same family
        text = prometheus_text(reg)
        assert "# TYPE metric_x counter" in text
        assert "# TYPE metric_x_gauge gauge" in text

    def test_deterministic_and_empty_registry(self):
        reg = self._registry()
        assert prometheus_text(reg) == prometheus_text(reg)
        assert prometheus_text(MetricsRegistry()) == ""

    def test_write_prometheus_creates_file(self, tmp_path):
        out = write_prometheus(self._registry(), tmp_path / "metrics" / "fleet.prom")
        assert out.exists()
        assert out.read_text() == prometheus_text(self._registry())
