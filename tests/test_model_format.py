"""Unit tests for the .lcrs browser model format."""

import numpy as np
import pytest

from repro import nn
from repro.nn.binary import BinaryConv2d, BinaryLinear
from repro.wasm import (
    FORMAT_VERSION,
    MAGIC,
    ModelFormatError,
    iter_leaf_modules,
    parse_model,
    serialize_browser_bundle,
)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def bundle(rng):
    return nn.Sequential(
        nn.Conv2d(1, 4, 3, padding=1, rng=rng),
        nn.ReLU(),
        nn.MaxPool2d(2),
        nn.Sequential(
            nn.BatchNorm2d(4),
            BinaryConv2d(4, 8, 3, padding=1, rng=rng),
        ),
        nn.Flatten(),
        BinaryLinear(8 * 4 * 4, 16, rng=rng),
        nn.BatchNorm1d(16),
        nn.Linear(16, 10, rng=rng),
    )


class TestIterLeafModules:
    def test_flattens_nested_sequentials(self, bundle):
        kinds = [type(m).__name__ for m in iter_leaf_modules(bundle)]
        assert kinds == [
            "Conv2d",
            "ReLU",
            "MaxPool2d",
            "BatchNorm2d",
            "BinaryConv2d",
            "Flatten",
            "BinaryLinear",
            "BatchNorm1d",
            "Linear",
        ]

    def test_rejects_composite_non_sequential(self, rng):
        from repro.models.resnet import BasicBlock

        with pytest.raises(ModelFormatError):
            list(iter_leaf_modules(nn.Sequential(BasicBlock(2, 2, rng=rng))))


class TestSerialization:
    def test_header_layout(self, bundle):
        payload = serialize_browser_bundle(bundle, (1, 8, 8))
        assert payload[:4] == MAGIC
        parsed = parse_model(payload)
        assert parsed.input_shape == (1, 8, 8)
        assert len(parsed.layers) == 9

    def test_metadata_roundtrip(self, bundle):
        payload = serialize_browser_bundle(
            bundle, (1, 8, 8), metadata={"network": "test", "tau": 0.05}
        )
        parsed = parse_model(payload)
        assert parsed.metadata["network"] == "test"
        assert parsed.metadata["tau"] == 0.05

    def test_binary_layers_store_packed_bits(self, bundle):
        parsed = parse_model(serialize_browser_bundle(bundle, (1, 8, 8)))
        bconv = next(l for l in parsed.layers if l["type"] == "binary_conv2d")
        bits = parsed.buffer(bconv["weight_bits"])
        assert bits.dtype == np.uint8
        row_bits = 4 * 9  # fan-in bits per output filter
        assert bits.shape == (8, (row_bits + 7) // 8)
        assert bconv["bit_length"] == row_bits

    def test_binary_payload_smaller_than_float(self, rng):
        float_layer = nn.Sequential(nn.Linear(256, 128, rng=rng))
        binary_layer = nn.Sequential(BinaryLinear(256, 128, rng=rng))
        # Compare on flattened input — use a 2-D-friendly probe shape.
        fp = serialize_browser_bundle(float_layer, (1, 16, 16))
        bp = serialize_browser_bundle(binary_layer, (1, 16, 16))
        assert len(bp) < len(fp) / 10

    def test_buffer_values_roundtrip(self, rng):
        conv = nn.Conv2d(2, 3, 3, rng=rng)
        parsed = parse_model(serialize_browser_bundle(nn.Sequential(conv), (2, 8, 8)))
        weight = parsed.buffer(parsed.layers[0]["weight"])
        np.testing.assert_array_equal(weight, conv.weight.data)

    def test_unsupported_layer_rejected(self):
        class Strange(nn.Module):
            def forward(self, x):
                return x

        with pytest.raises(ModelFormatError):
            serialize_browser_bundle(nn.Sequential(Strange()), (1, 4, 4))


    def test_eval_dropout_serializes_as_no_layer(self, rng):
        """Eval-mode dropout is the identity: the payload equals the one
        without it, digest included."""
        linear = nn.Linear(8, 4, rng=rng)
        with_dropout = nn.Sequential(nn.Dropout(0.25, rng=rng), linear).eval()
        plain = serialize_browser_bundle(nn.Sequential(linear), (8,))
        assert serialize_browser_bundle(with_dropout, (8,)) == plain
        assert parse_model(plain).digest == parse_model(
            serialize_browser_bundle(with_dropout, (8,))
        ).digest

    def test_training_dropout_rejected(self, rng):
        bundle = nn.Sequential(nn.Dropout(0.25, rng=rng), nn.Linear(8, 4, rng=rng))
        with pytest.raises(ModelFormatError, match="Dropout"):
            serialize_browser_bundle(bundle, (8,))

    def test_digest_ignores_metadata_and_tracks_weights(self, rng):
        bundle = nn.Sequential(nn.Linear(8, 4, rng=rng))
        a = parse_model(serialize_browser_bundle(bundle, (8,), metadata={"a": 1}))
        b = parse_model(serialize_browser_bundle(bundle, (8,)))
        assert a.digest == b.digest
        bundle[0].weight.data[0, 0] += 1.0
        c = parse_model(serialize_browser_bundle(bundle, (8,)))
        assert c.digest != a.digest


class TestParsingErrors:
    def test_bad_magic(self):
        with pytest.raises(ModelFormatError):
            parse_model(b"NOPE" + b"\x00" * 20)

    def test_too_short(self):
        with pytest.raises(ModelFormatError):
            parse_model(b"LC")

    def test_bad_version(self, bundle):
        payload = bytearray(serialize_browser_bundle(bundle, (1, 8, 8)))
        payload[4] = 99  # clobber the version field
        with pytest.raises(ModelFormatError):
            parse_model(bytes(payload))

    def test_truncated_header(self, bundle):
        payload = serialize_browser_bundle(bundle, (1, 8, 8))
        with pytest.raises(ModelFormatError):
            parse_model(payload[:12])

    def test_corrupt_header_json(self, bundle):
        payload = bytearray(serialize_browser_bundle(bundle, (1, 8, 8)))
        payload[10] = 0xFF  # first header byte → invalid JSON/UTF-8
        with pytest.raises(ModelFormatError):
            parse_model(bytes(payload))

    def test_buffer_slot_out_of_range(self, bundle):
        parsed = parse_model(serialize_browser_bundle(bundle, (1, 8, 8)))
        bad_slot = {"offset": len(parsed.blob), "nbytes": 64, "dtype": "float32", "shape": [16]}
        with pytest.raises(ModelFormatError):
            parsed.buffer(bad_slot)

    def test_format_version_constant(self):
        assert FORMAT_VERSION == 1
