"""Compiled plans for the paper's four networks, served from one plan cache.

Every serializable paper trunk (LeNet, AlexNet, VGG16) and every binary
branch must compile to a probe-verified plan at the capacities serving
uses; ResNet18's residual blocks do not serialize, and that failure
must be visible in the ``plan_cache.failures{site=trunk}`` series while
the module keeps serving bit-identical logits.  The endpoint tests pin
the lease discipline: a busy pool waits for a lease, it never runs the
module.
"""

import sys
import threading

import numpy as np
import pytest

from repro.core.composite import CompositeNetwork
from repro.core.system import DEFAULT_BRANCH_CONFIGS
from repro.models import build_model
from repro.nn.autograd import Tensor, no_grad
from repro.observability import global_registry, labeled
from repro.runtime.session import EdgeEndpoint
from repro.wasm import (
    PlanVerificationError,
    WasmModel,
    backend_available,
    compile_trunk_plan,
    compile_wasm_plan,
    serialize_browser_bundle,
)
from repro.wasm import plan as plan_module
from repro.wasm import plan_cache as cache_module
from repro.wasm.plan_cache import PLAN_CACHE

pytestmark = [
    pytest.mark.plan,
    pytest.mark.skipif(
        not backend_available(), reason="C kernel backend unavailable"
    ),
]

#: name → (input channels, input size), as the paper's datasets give them.
NETWORKS = {
    "lenet": (1, 28),
    "alexnet": (3, 32),
    "vgg16": (3, 32),
    "resnet18": (3, 32),
}


def composite(name: str) -> CompositeNetwork:
    channels, size = NETWORKS[name]
    rng = np.random.default_rng(11)
    base = build_model(name, channels, 10, size, rng=rng)
    return CompositeNetwork(base, DEFAULT_BRANCH_CONFIGS[name], rng=rng)


def module_logits(trunk, x: np.ndarray) -> np.ndarray:
    trunk.eval()
    with no_grad():
        return trunk(Tensor(x)).data


def trunk_failures() -> int:
    return global_registry().counter(labeled("plan_cache.failures", site="trunk")).value


@pytest.fixture
def fresh_plan_cache():
    PLAN_CACHE.clear()
    yield
    PLAN_CACHE.clear()


@pytest.mark.parametrize("name", ["lenet", "alexnet", "vgg16"])
@pytest.mark.parametrize("capacity", [1, 32])
def test_paper_network_trunk_and_branch_compile(name, capacity):
    """Trunk and branch both compile, pass the probe, and replay exactly."""
    model = composite(name)
    stem_shape = model.stem_output_shape
    rng = np.random.default_rng(capacity)
    x = rng.standard_normal((capacity, *stem_shape)).astype(np.float32)

    trunk_plan = compile_trunk_plan(model.main_trunk, stem_shape, capacity)
    assert trunk_plan.capacity == capacity
    np.testing.assert_array_equal(
        trunk_plan.execute(x), module_logits(model.main_trunk, x)
    )

    branch = WasmModel.load(serialize_browser_bundle(model.binary_branch, stem_shape))
    branch_plan = compile_wasm_plan(branch, capacity)
    assert branch_plan.capacity == capacity
    np.testing.assert_array_equal(branch_plan.execute(x), branch.forward(x))


def test_resnet18_trunk_failure_is_counted_and_served_by_module(fresh_plan_cache):
    model = composite("resnet18")
    endpoint = EdgeEndpoint(model.main_trunk)
    x = np.random.default_rng(0).standard_normal(
        (3, *model.stem_output_shape)
    ).astype(np.float32)
    before = trunk_failures()
    logits = endpoint.infer(x)
    assert trunk_failures() == before + 1
    np.testing.assert_array_equal(logits, module_logits(model.main_trunk, x))
    endpoint.infer(x)
    assert trunk_failures() == before + 2


def test_forced_trunk_compile_failure_is_counted(fresh_plan_cache, monkeypatch):
    """A probe failure is a counted, cached failure: the module serves."""

    def fail(plan, reference, x):
        raise PlanVerificationError("forced probe failure")

    monkeypatch.setattr(plan_module, "_verify", fail)
    model = composite("lenet")
    endpoint = EdgeEndpoint(model.main_trunk)
    x = np.random.default_rng(1).standard_normal(
        (4, *model.stem_output_shape)
    ).astype(np.float32)
    misses = global_registry().counter(labeled("plan_cache.misses", site="trunk"))
    before, misses_before = trunk_failures(), misses.value
    np.testing.assert_array_equal(endpoint.infer(x), module_logits(model.main_trunk, x))
    assert trunk_failures() == before + 1
    endpoint.infer(x)
    assert trunk_failures() == before + 2
    assert misses.value == misses_before + 1  # compiled once, failure cached


def test_single_instance_endpoint_waits_for_its_lease(fresh_plan_cache, monkeypatch):
    """Four threads on a one-instance pool: every batch runs the plan, and
    the outputs equal serial execution."""
    monkeypatch.setattr(cache_module, "PLAN_POOL_SIZE", 1)
    model = composite("alexnet")
    endpoint = EdgeEndpoint(model.main_trunk)
    rng = np.random.default_rng(2)
    batches = [
        rng.standard_normal((n, *model.stem_output_shape)).astype(np.float32)
        for n in (5, 7, 8, 6)
    ]
    serial = [endpoint.infer(b) for b in batches]
    pool = endpoint._plan_pool(model.stem_output_shape, 8)
    assert pool.instances == 1

    def module_path(*args, **kwargs):
        raise AssertionError("the trunk module ran")

    monkeypatch.setattr(model.main_trunk, "forward", module_path)
    results: dict = {}
    errors: list = []

    def worker(i: int) -> None:
        try:
            results[i] = [endpoint.infer(batches[i]) for _ in range(5)]
        except Exception as exc:  # surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors
    assert sorted(results) == [0, 1, 2, 3]
    assert pool.instances == 1
    for i, outs in results.items():
        for out in outs:
            np.testing.assert_array_equal(out, serial[i])


def test_endpoints_of_one_trunk_share_plans(fresh_plan_cache):
    """Two endpoints over the same trunk compile it once."""
    model = composite("lenet")
    x = np.random.default_rng(3).standard_normal(
        (4, *model.stem_output_shape)
    ).astype(np.float32)
    hits = global_registry().counter(labeled("plan_cache.hits", site="trunk"))
    misses = global_registry().counter(labeled("plan_cache.misses", site="trunk"))
    hits_before, misses_before = hits.value, misses.value
    a, b = EdgeEndpoint(model.main_trunk), EdgeEndpoint(model.main_trunk)
    np.testing.assert_array_equal(a.infer(x), b.infer(x))
    assert misses.value == misses_before + 1
    assert hits.value == hits_before + 1
    assert a._plan_pool(model.stem_output_shape, 4) is b._plan_pool(
        model.stem_output_shape, 4
    )
