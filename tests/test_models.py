"""Unit tests for the main-branch model zoo."""

import numpy as np
import pytest

from repro import nn
from repro.models import (
    MODEL_BUILDERS,
    MODEL_NAMES,
    BranchableNetwork,
    build_model,
    flattened_size,
)
from repro.models.resnet import BasicBlock
from repro.nn.autograd import Tensor


@pytest.fixture
def rng():
    return np.random.default_rng(0)


class TestRegistry:
    def test_paper_networks_registered(self):
        assert MODEL_NAMES == ("lenet", "alexnet", "resnet18", "vgg16")
        assert set(MODEL_BUILDERS) == set(MODEL_NAMES)

    def test_build_model_unknown(self):
        with pytest.raises(KeyError):
            build_model("squeezenet", 3, 10, 32)

    def test_build_model_passes_kwargs(self, rng):
        small = build_model("alexnet", 3, 10, 32, rng=rng, width=16)
        large = build_model("alexnet", 3, 10, 32, rng=rng, width=32)
        assert small.num_parameters() < large.num_parameters()


@pytest.mark.parametrize("name", MODEL_NAMES)
@pytest.mark.parametrize("channels,size", [(1, 28), (3, 32)])
class TestAllNetworks:
    def test_forward_shape(self, name, channels, size, rng):
        model = build_model(name, channels, 10, size, rng=rng)
        x = Tensor(np.random.randn(2, channels, size, size).astype(np.float32))
        model.eval()
        assert model(x).shape == (2, 10)

    def test_stem_trunk_composition_equals_forward(self, name, channels, size, rng):
        model = build_model(name, channels, 10, size, rng=rng)
        model.eval()
        x = Tensor(np.random.randn(2, channels, size, size).astype(np.float32))
        full = model(x).data
        composed = model.forward_trunk(model.forward_stem(x)).data
        np.testing.assert_allclose(full, composed, rtol=1e-5, atol=1e-6)

    def test_stem_output_shape_probe(self, name, channels, size, rng):
        model = build_model(name, channels, 10, size, rng=rng)
        shape = model.stem_output_shape()
        x = Tensor(np.zeros((1, channels, size, size), dtype=np.float32))
        model.eval()
        assert tuple(model.forward_stem(x).shape[1:]) == shape

    def test_gradients_reach_stem(self, name, channels, size, rng):
        model = build_model(name, channels, 10, size, rng=rng)
        x = Tensor(np.random.randn(2, channels, size, size).astype(np.float32))
        from repro.nn import functional as F

        loss = F.cross_entropy(model(x), np.array([0, 1]))
        loss.backward()
        stem_params = list(model.stem.parameters())
        assert all(p.grad is not None for p in stem_params)


class TestSizeOrdering:
    def test_paper_model_size_order(self, rng):
        """Table I ordering: AlexNet > VGG16 > ResNet18 > LeNet."""
        sizes = {
            name: build_model(name, 3, 10, 32, rng=rng).num_parameters()
            for name in MODEL_NAMES
        }
        assert sizes["alexnet"] > sizes["vgg16"] > sizes["resnet18"] > sizes["lenet"]

    def test_lenet_is_canonical_size_on_mnist(self, rng):
        model = build_model("lenet", 1, 10, 28, rng=rng)
        assert model.num_parameters() == 61_706  # the textbook LeNet-5 count


class TestBasicBlock:
    def test_identity_shortcut_when_shapes_match(self, rng):
        block = BasicBlock(8, 8, stride=1, rng=rng)
        assert isinstance(block.shortcut, nn.Identity)

    def test_projection_shortcut_on_stride(self, rng):
        block = BasicBlock(8, 16, stride=2, rng=rng)
        assert isinstance(block.shortcut, nn.Sequential)

    def test_forward_shapes(self, rng):
        block = BasicBlock(4, 8, stride=2, rng=rng)
        block.eval()
        out = block(Tensor(np.random.randn(2, 4, 8, 8).astype(np.float32)))
        assert out.shape == (2, 8, 4, 4)

    def test_output_nonnegative_after_relu(self, rng):
        block = BasicBlock(4, 4, rng=rng)
        block.eval()
        out = block(Tensor(np.random.randn(1, 4, 6, 6).astype(np.float32)))
        assert (out.data >= 0).all()


class TestVGGStructure:
    def test_has_thirteen_conv_layers(self, rng):
        from repro.nn.layers import Conv2d

        model = build_model("vgg16", 3, 10, 32, rng=rng)
        convs = [m for m in model.modules() if isinstance(m, Conv2d)]
        assert len(convs) == 13

    def test_28px_input_supported(self, rng):
        model = build_model("vgg16", 1, 10, 28, rng=rng)
        model.eval()
        out = model(Tensor(np.zeros((1, 1, 28, 28), dtype=np.float32)))
        assert out.shape == (1, 10)


class TestHelpers:
    def test_flattened_size(self, rng):
        stack = nn.Sequential(nn.Conv2d(1, 4, 3, padding=1, rng=rng), nn.MaxPool2d(2))
        assert flattened_size(stack, 1, 8) == 4 * 4 * 4

    def test_branchable_repr(self, rng):
        model = build_model("lenet", 1, 10, 28, rng=rng)
        assert "lenet" in repr(model)

    def test_stem_probe_preserves_training_mode(self, rng):
        model = build_model("resnet18", 3, 10, 32, rng=rng)
        model.train()
        model.stem_output_shape()
        assert model.training

    def test_stem_probe_preserves_each_module_mode(self, rng):
        """A trunk set to eval under a training parent stays in eval mode."""
        model = build_model("alexnet", 3, 10, 32, rng=rng, width=8)
        model.train()
        model.trunk.eval()
        model.stem_output_shape()
        assert model.training and model.stem.training
        assert not any(m.training for m in model.trunk.modules())

    def test_flattened_size_preserves_each_module_mode(self, rng):
        stack = nn.Sequential(
            nn.Conv2d(1, 4, 3, padding=1, rng=rng), nn.Dropout(0.5, rng=rng)
        )
        stack[1].eval()
        flattened_size(stack, 1, 8)
        assert stack.training and stack[0].training and not stack[1].training
