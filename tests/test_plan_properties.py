"""Trace-compiled plan coverage: bit-identity properties and plumbing.

The plan compiler's whole contract is *bit-identity*: a compiled plan
must return exactly what the interpreter returns, for every geometry it
claims to support, at every batch size up to its capacity — not merely
"close".  Hypothesis drives randomized float stacks, binary stacks, and
batch shapes through plan-vs-interpreter comparisons with
``np.array_equal`` (no tolerance), and the plumbing tests pin the cache,
counters, span, fallback, and error behaviour the runtime relies on.
"""

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from repro import nn
from repro.nn.autograd import Tensor, no_grad
from repro.nn.binary import BinaryConv2d, BinaryLinear
from repro.observability import Tracer
from repro.observability import MetricsRegistry
from repro.wasm import plan as plan_module
from repro.wasm.plan_cache import PlanCache
from repro.wasm import (
    PlanCompileError,
    PlanExecutionError,
    PlanVerificationError,
    WasmModel,
    backend_available,
    compile_trunk_plan,
    compile_wasm_plan,
    serialize_browser_bundle,
    total_bytes_popcounted,
)

pytestmark = [
    pytest.mark.plan,
    pytest.mark.skipif(
        not backend_available(), reason="C kernel backend unavailable"
    ),
]


def engine_for(bundle: nn.Sequential, input_shape) -> WasmModel:
    return WasmModel.load(serialize_browser_bundle(bundle, input_shape))


def assert_plan_bit_identical(bundle, input_shape, capacity=8, batches=(1, 3, 8)):
    """Compile a plan and demand exact equality with the interpreter."""
    engine = engine_for(bundle, input_shape)
    plan = compile_wasm_plan(engine, capacity)
    rng = np.random.default_rng(99)
    for n in batches:
        x = rng.standard_normal((n, *input_shape)).astype(np.float32)
        # Exercise the exact-zero paths the padded-source kernels rely on.
        x[x < -2.0] = 0.0
        np.testing.assert_array_equal(plan.execute(x), engine.forward(x))
    return plan


class TestFloatStackProperties:
    @given(
        in_channels=st.integers(1, 3),
        out_channels=st.sampled_from([1, 4, 7, 16, 20]),
        kernel=st.sampled_from([2, 3, 5]),
        stride=st.integers(1, 2),
        padding=st.integers(0, 2),
        size=st.integers(6, 12),
        relu=st.booleans(),
        pool=st.booleans(),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_conv_stack_matches_interpreter(
        self, in_channels, out_channels, kernel, stride, padding, size, relu, pool, seed
    ):
        """conv2d (+relu)(+pool) plans are bit-identical for any geometry.

        ``out_channels`` straddles the direct-conv fast path's 16-channel
        boundary so both the fused direct kernel and the im2col+matmul
        route get drawn.
        """
        rng = np.random.default_rng(seed)
        layers = [
            nn.Conv2d(
                in_channels, out_channels, kernel,
                stride=stride, padding=padding, rng=rng,
            )
        ]
        if relu:
            layers.append(nn.ReLU())
        out = (size + 2 * padding - kernel) // stride + 1
        if pool and out >= 2:
            layers.append(nn.MaxPool2d(2))
        assert_plan_bit_identical(
            nn.Sequential(*layers), (in_channels, size, size)
        )

    @given(
        features=st.integers(4, 96),
        hidden=st.integers(1, 24),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_linear_stack_matches_interpreter(self, features, hidden, seed):
        rng = np.random.default_rng(seed)
        bundle = nn.Sequential(
            nn.Flatten(),
            nn.Linear(features, hidden, rng=rng),
            nn.ReLU(),
            nn.Linear(hidden, 5, rng=rng),
        )
        assert_plan_bit_identical(bundle, (features, 1, 1))

    @given(
        channels=st.integers(1, 4),
        size=st.integers(4, 10),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_bn_conv_stack_matches_interpreter(self, channels, size, seed):
        """batch_norm folds to a per-channel affine without drift."""
        rng = np.random.default_rng(seed)
        bn = nn.BatchNorm2d(channels)
        # Non-trivial running stats, as after real training.
        bn.running_mean.data[:] = rng.standard_normal(channels).astype(np.float32)
        bn.running_var.data[:] = (
            rng.random(channels).astype(np.float32) + 0.5
        )
        bundle = nn.Sequential(
            bn, nn.Conv2d(channels, 3, 3, padding=1, rng=rng), nn.ReLU()
        )
        assert_plan_bit_identical(bundle, (channels, size, size))


class TestBinaryStackProperties:
    @given(
        in_channels=st.sampled_from([1, 3, 14, 15, 16, 29, 32]),
        out_channels=st.integers(1, 6),
        padding=st.integers(0, 1),
        stride=st.integers(1, 2),
        size=st.integers(6, 12),
        seed=st.integers(0, 2**31 - 1),
    )
    # AlexNet's branch conv: 288-bit windows, AVX2 gather.
    @example(in_channels=32, out_channels=6, padding=1, stride=1, size=16, seed=0)
    # 135-bit windows (one recursion split, odd tail), scalar gather.
    @example(in_channels=15, out_channels=4, padding=1, stride=2, size=11, seed=1)
    def test_binary_conv_matches_interpreter(
        self, in_channels, out_channels, padding, stride, size, seed
    ):
        """Fused unfold→XNOR→popcount→scale binary convs are exact.

        3×3 windows of 9–288 bits span 1–5 popcount words, both sides of
        the pairwise-sum split at 128 values, and tails that are not a
        multiple of 8; stride 1 with ``ow >= 8`` draws the AVX2 gather,
        everything else the scalar one.  The plan must also be accepted
        with the |window| mean fused in C, not on the NumPy-mean tier.
        """
        rng = np.random.default_rng(seed)
        bundle = nn.Sequential(
            BinaryConv2d(
                in_channels, out_channels, 3,
                stride=stride, padding=padding, rng=rng,
            )
        )
        plan = assert_plan_bit_identical(bundle, (in_channels, size, size))
        assert plan.kernel_options["c_mean"], plan.kernel_options

    @given(
        features=st.sampled_from([16, 63, 64, 100, 784]),
        out=st.integers(2, 12),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_binary_linear_matches_interpreter(self, features, out, seed):
        """Word-count sweep crosses the W=1/W=2/general popcount kernels."""
        rng = np.random.default_rng(seed)
        bundle = nn.Sequential(nn.Flatten(), BinaryLinear(features, out, rng=rng))
        assert_plan_bit_identical(bundle, (features, 1, 1))

    @given(
        num_bases=st.integers(2, 4),
        out_channels=st.integers(1, 5),
        padding=st.integers(0, 1),
        size=st.integers(6, 10),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_tiered_binary_conv_matches_interpreter(
        self, num_bases, out_channels, padding, size, seed
    ):
        """ABC-Net tiers (K×-wider binary conv + ``base_fold``) are exact."""
        rng = np.random.default_rng(seed)
        bundle = nn.Sequential(
            BinaryConv2d(2, out_channels, 3, padding=padding, rng=rng)
        )
        engine = WasmModel.load(
            serialize_browser_bundle(bundle, (2, size, size), num_bases=num_bases)
        )
        plan = compile_wasm_plan(engine, 8)
        for n in (1, 3, 8):
            x = rng.standard_normal((n, 2, size, size)).astype(np.float32)
            np.testing.assert_array_equal(plan.execute(x), engine.forward(x))

    @given(
        num_bases=st.integers(2, 4),
        features=st.sampled_from([16, 63, 100]),
        out=st.integers(2, 8),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_tiered_binary_linear_matches_interpreter(
        self, num_bases, features, out, seed
    ):
        """``base_fold`` over flat activations is exact at every width."""
        rng = np.random.default_rng(seed)
        bundle = nn.Sequential(nn.Flatten(), BinaryLinear(features, out, rng=rng))
        engine = WasmModel.load(
            serialize_browser_bundle(bundle, (features, 1, 1), num_bases=num_bases)
        )
        plan = compile_wasm_plan(engine, 8)
        for n in (1, 5):
            x = rng.standard_normal((n, features, 1, 1)).astype(np.float32)
            np.testing.assert_array_equal(plan.execute(x), engine.forward(x))

    @given(num_bases=st.integers(2, 3), seed=st.integers(0, 2**31 - 1))
    def test_tiered_branch_shaped_stack_matches_interpreter(
        self, num_bases, seed
    ):
        """The full LeNet-branch shape at a reduced-accuracy tier."""
        rng = np.random.default_rng(seed)
        bundle = nn.Sequential(
            nn.BatchNorm2d(2),
            BinaryConv2d(2, 4, 3, padding=1, rng=rng),
            nn.MaxPool2d(2),
            nn.BatchNorm2d(4),
            nn.Flatten(),
            BinaryLinear(4 * 5 * 5, 8, rng=rng),
            nn.BatchNorm1d(8),
            nn.Linear(8, 4, rng=rng),
        )
        engine = WasmModel.load(
            serialize_browser_bundle(bundle, (2, 10, 10), num_bases=num_bases)
        )
        plan = compile_wasm_plan(engine, 8)
        x = rng.standard_normal((4, 2, 10, 10)).astype(np.float32)
        np.testing.assert_array_equal(plan.execute(x), engine.forward(x))

    @given(seed=st.integers(0, 2**31 - 1))
    def test_branch_shaped_stack_matches_interpreter(self, seed):
        """The LeNet binary-branch shape: bn→binconv→pool→bn→flatten→binlin."""
        rng = np.random.default_rng(seed)
        bundle = nn.Sequential(
            nn.BatchNorm2d(2),
            BinaryConv2d(2, 4, 3, padding=1, rng=rng),
            nn.MaxPool2d(2),
            nn.BatchNorm2d(4),
            nn.Flatten(),
            BinaryLinear(4 * 5 * 5, 8, rng=rng),
            nn.BatchNorm1d(8),
            nn.Linear(8, 4, rng=rng),
        )
        assert_plan_bit_identical(bundle, (2, 10, 10))


class TestBatchShapeProperties:
    @given(capacity=st.sampled_from([1, 2, 8, 16]), seed=st.integers(0, 2**31 - 1))
    def test_every_live_batch_size_is_exact(self, capacity, seed):
        """One plan serves every n ≤ capacity by slicing its arena."""
        rng = np.random.default_rng(seed)
        bundle = nn.Sequential(
            nn.Conv2d(1, 4, 3, padding=1, rng=rng), nn.ReLU(), nn.MaxPool2d(2)
        )
        engine = engine_for(bundle, (1, 8, 8))
        plan = compile_wasm_plan(engine, capacity)
        for n in range(1, capacity + 1):
            x = rng.standard_normal((n, 1, 8, 8)).astype(np.float32)
            np.testing.assert_array_equal(plan.execute(x), engine.forward(x))

    def test_oversized_batch_and_bad_shape_raise(self):
        rng = np.random.default_rng(3)
        engine = engine_for(
            nn.Sequential(nn.Conv2d(1, 2, 3, rng=rng)), (1, 6, 6)
        )
        plan = compile_wasm_plan(engine, 2)
        with pytest.raises(PlanExecutionError):
            plan.execute(np.zeros((3, 1, 6, 6), dtype=np.float32))
        with pytest.raises(PlanExecutionError):
            plan.execute(np.zeros((1, 1, 5, 5), dtype=np.float32))


class TestTrunkPlan:
    @given(seed=st.integers(0, 2**31 - 1))
    def test_trunk_plan_matches_module(self, seed):
        rng = np.random.default_rng(seed)
        trunk = nn.Sequential(
            nn.Conv2d(2, 6, 3, padding=1, rng=rng),
            nn.ReLU(),
            nn.MaxPool2d(2),
            nn.Flatten(),
            nn.Linear(6 * 4 * 4, 10, rng=rng),
        )
        plan = compile_trunk_plan(trunk, (2, 8, 8), 4)
        x = rng.standard_normal((4, 2, 8, 8)).astype(np.float32)
        trunk.eval()
        with no_grad():
            expected = trunk(Tensor(x)).data
        np.testing.assert_array_equal(plan.execute(x), expected)

    def test_unsupported_trunk_raises_compile_error(self):
        class Opaque(nn.Module):
            def forward(self, x):
                return x

        with pytest.raises(PlanCompileError):
            compile_trunk_plan(nn.Sequential(Opaque()), (1, 4, 4), 2)


class TestEntropyGateProperty:
    @given(
        threshold=st.floats(0.01, 0.99),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_exit_decisions_identical_for_any_threshold(self, threshold, seed):
        """Identical logits ⇒ identical exits at every τ: the gate can
        never disagree between the compiled and interpreted paths."""
        from repro.runtime.session import BrowserClient

        rng = np.random.default_rng(seed)
        stem = nn.Sequential(nn.Conv2d(1, 3, 3, padding=1, rng=rng), nn.MaxPool2d(2))
        branch = nn.Sequential(
            nn.Flatten(), BinaryLinear(3 * 4 * 4, 4, rng=rng)
        )
        client = BrowserClient(
            serialize_browser_bundle(stem, (1, 8, 8)),
            serialize_browser_bundle(branch, (3, 4, 4)),
            threshold,
        )
        x = rng.standard_normal((6, 1, 8, 8)).astype(np.float32)
        client.set_compile_plan(True)
        planned = client.process_batch(x)
        client.set_compile_plan(False)
        interpreted = client.process_batch(x)
        for a, b in zip(planned, interpreted):
            np.testing.assert_array_equal(a, b)


class TestPlanPlumbing:
    def make_engine(self):
        rng = np.random.default_rng(5)
        return engine_for(
            nn.Sequential(nn.Conv2d(1, 2, 3, padding=1, rng=rng), nn.ReLU()),
            (1, 6, 6),
        )

    def test_plan_cache_rounds_up_and_hits(self):
        engine = self.make_engine()
        engine.clear_plan_cache()
        assert engine.plan_for(3) is engine.plan_for(4)
        info = engine.plan_cache_info()
        assert info["capacities"] == [4]
        assert info["hits"] == 1 and info["misses"] == 1

    def test_plan_cache_is_bounded_lru(self):
        engine = self.make_engine()
        cache = PlanCache(maxsize=3, registry=MetricsRegistry())
        capacities = [1 << i for i in range(cache.maxsize + 1)]
        for cap in capacities:
            cache.lookup("wasm", engine.parsed, "wasm", cap, engine.run_ops)
        resident = cache.capacities(engine.parsed.digest, "wasm")
        assert len(resident) == cache.maxsize
        assert capacities[0] not in resident
        assert capacities[-1] in resident

    def test_clear_plan_cache(self):
        engine = self.make_engine()
        engine.plan_for(2)
        engine.clear_plan_cache()
        info = engine.plan_cache_info()
        assert info["capacities"] == [] and info["hits"] == 0 and info["misses"] == 0

    def test_kill_switch_falls_back_to_interpreter(self, monkeypatch):
        monkeypatch.setenv("REPRO_PLAN_NO_CC", "1")
        engine = self.make_engine()
        engine.clear_plan_cache()
        try:
            assert engine.plan_for(4) is None
            assert engine.plan_cache_info()["failures"] == 1
            x = np.random.default_rng(0).standard_normal((2, 1, 6, 6)).astype(np.float32)
            np.testing.assert_array_equal(engine.forward_planned(x), engine.forward(x))
        finally:
            engine.clear_plan_cache()

    def test_compiler_bug_is_not_swallowed(self, monkeypatch):
        """Only PlanCompileError means "no plan": a programming error in
        the compiler propagates instead of becoming an interpreter run."""

        def broken(plan, reference, x):
            raise TypeError("compiler bug")

        monkeypatch.setattr(plan_module, "_verify", broken)
        engine = self.make_engine()
        engine.clear_plan_cache()
        try:
            with pytest.raises(TypeError, match="compiler bug"):
                engine.plan_for(4)
            assert engine.plan_cache_info()["failures"] == 0
        finally:
            engine.clear_plan_cache()

    def test_per_step_counters_record_replays(self):
        engine = self.make_engine()
        plan = compile_wasm_plan(engine, 4)
        x = np.random.default_rng(1).standard_normal((3, 1, 6, 6)).astype(np.float32)
        plan.execute(x)
        plan.execute(x)
        for step in plan.steps:
            assert step.counter.calls == 2
            assert step.counter.samples == 6
        desc = plan.describe()
        assert desc["num_steps"] == len(plan.steps)
        assert desc["arena_bytes"] > 0

    def test_wide_window_binary_conv_has_no_abscols_buffer(self):
        """AlexNet's branch geometry (32 ch, 16×16, k3 p1 s1: 288-bit
        windows) compiles on the fused-mean tier, so its arena holds no
        per-window |value| matrix."""
        rng = np.random.default_rng(4)
        bundle = nn.Sequential(BinaryConv2d(32, 32, 3, padding=1, rng=rng))
        plan = compile_wasm_plan(engine_for(bundle, (32, 16, 16)), 64)
        assert plan.kernel_options == {"direct_conv": True, "c_mean": True}
        names = [buf["name"] for buf in plan.arena.describe()]
        assert not any(name.startswith("abscols") for name in names), names

    def test_describe_reports_fallback_kernel_tier(self, monkeypatch):
        """A plan accepted below tier 0 says so in ``describe()``."""
        verify = plan_module._verify

        def fail_tier0(plan, reference, x):
            if plan.kernel_options == {"direct_conv": True, "c_mean": True}:
                raise PlanVerificationError("forced tier-0 probe failure")
            return verify(plan, reference, x)

        monkeypatch.setattr(plan_module, "_verify", fail_tier0)
        plan = compile_wasm_plan(self.make_engine(), 2)
        assert plan.describe()["kernel_options"] == {
            "direct_conv": False, "c_mean": True,
        }

    def test_popcount_bytes_attributed_to_binary_steps(self):
        """Plan popdot steps account their bytes once: the per-step
        counters (thread-tally deltas) sum to the process-wide total."""
        rng = np.random.default_rng(3)
        bundle = nn.Sequential(
            BinaryConv2d(2, 4, 3, padding=1, rng=rng),
            nn.MaxPool2d(2),
            nn.Flatten(),
            nn.Linear(4 * 5 * 5, 6, rng=rng),
            BinaryLinear(6, 4, rng=rng),
        )
        plan = compile_wasm_plan(engine_for(bundle, (2, 10, 10)), 4)
        binary = [
            any(k.startswith("binary_") for k in step.kinds) for step in plan.steps
        ]
        assert any(binary) and not all(binary)
        before = [step.counter.bytes_popcounted for step in plan.steps]
        total_before = total_bytes_popcounted()
        x = rng.standard_normal((3, 2, 10, 10)).astype(np.float32)
        plan.execute(x)
        deltas = [
            step.counter.bytes_popcounted - b for step, b in zip(plan.steps, before)
        ]
        for step, is_binary, delta in zip(plan.steps, binary, deltas):
            if is_binary:
                assert delta > 0, step.name
            else:
                assert step.counter.bytes_popcounted == 0, step.name
        assert total_bytes_popcounted() - total_before == sum(deltas)

    def test_step_spans_are_emitted(self):
        engine = self.make_engine()
        plan = compile_wasm_plan(engine, 2)
        tracer = Tracer()
        x = np.zeros((2, 1, 6, 6), dtype=np.float32)
        trace = tracer.new_trace()
        plan.execute(x, recorder=tracer, trace_id=trace, track="browser")
        names = [s.name for s in tracer.spans()]
        assert names == [f"plan.step[{i}]" for i in range(plan.num_steps)]
        assert all(s.attrs["samples"] == 2 for s in tracer.spans())
