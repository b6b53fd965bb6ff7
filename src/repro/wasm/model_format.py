"""The ``.lcrs`` browser model format.

The paper's deployment pipeline (Figure 3) trains in Python, converts the
browser-side layers (the shared conv1 and the binary branch) with a C++
tool into JavaScript + WASM, and loads the result in the mobile web
browser on demand.  This module is the conversion step: it serializes a
browser bundle into a single self-describing binary blob that the
standalone interpreter in :mod:`repro.wasm.interpreter` can execute
*without any reference to the training framework* — the same decoupling
the Emscripten pipeline provides.

Layout::

    magic   b"LCRS"
    version u16 (little endian)
    hlen    u32 — JSON header length
    header  JSON: list of layer specs, each with buffer offsets/shapes
    blob    concatenated raw little-endian buffers

Binary layers store packed sign bitplanes (1 bit/weight) plus fp32 α per
output unit — the on-the-wire size is what Figure 7 measures.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Optional

import numpy as np

from ..nn.binary import BinaryConv2d, BinaryLinear, binarize_bases
from ..nn.layers import (
    BatchNorm1d,
    BatchNorm2d,
    Conv2d,
    Dropout,
    Flatten,
    GlobalAvgPool2d,
    Linear,
    MaxPool2d,
    ReLU,
)
from ..nn.module import Module, Sequential
from .bitpack import pack_signs

MAGIC = b"LCRS"
FORMAT_VERSION = 1


class ModelFormatError(ValueError):
    """Raised on malformed or unsupported ``.lcrs`` payloads."""


def iter_leaf_modules(module: Module) -> Iterator[Module]:
    """Yield leaf layers of (possibly nested) Sequentials in order."""
    if isinstance(module, Sequential):
        for child in module:
            yield from iter_leaf_modules(child)
    elif not module._modules:
        yield module
    else:
        raise ModelFormatError(
            f"cannot serialize composite module {type(module).__name__}; "
            "browser bundles must be (nested) Sequentials of leaf layers"
        )


class _BufferWriter:
    """Accumulates raw buffers and hands out (offset, length) slots."""

    def __init__(self) -> None:
        self._chunks: list[bytes] = []
        self._offset = 0

    def add(self, array: np.ndarray) -> dict[str, object]:
        raw = np.ascontiguousarray(array).tobytes()
        slot = {
            "offset": self._offset,
            "nbytes": len(raw),
            "dtype": str(array.dtype),
            "shape": list(array.shape),
        }
        self._chunks.append(raw)
        self._offset += len(raw)
        return slot

    def blob(self) -> bytes:
        return b"".join(self._chunks)


def _tiered_bases(layer: Module, num_bases: int) -> tuple[np.ndarray, np.ndarray]:
    """Stack the first ``num_bases`` ABC-Net bases of a binary layer.

    Base sign-planes concatenate along the output axis (base-major, so
    group ``k`` of the widened output is base ``k``'s contribution) and
    the per-base alphas concatenate to match — a K-base layer is then
    just a K×-wider single binary layer followed by a ``base_fold``
    group-sum, and the binary kernels never learn about tiers.
    """
    bases = binarize_bases(layer.weight.data, num_bases)
    signs = np.concatenate([s for s, _ in bases], axis=0)
    alpha = np.concatenate([a for _, a in bases], axis=0)
    return signs, alpha


def _serialize_layer(
    layer: Module, writer: _BufferWriter, num_bases: int = 1
) -> list[dict[str, object]]:
    if isinstance(layer, BinaryConv2d):
        if num_bases == 1:
            signs, alpha = layer.binary_weights()
        else:
            signs, alpha = _tiered_bases(layer, num_bases)
        out_channels = layer.out_channels * num_bases
        packed, bit_length = pack_signs(signs.reshape(out_channels, -1))
        spec: dict[str, object] = {
            "type": "binary_conv2d",
            "in_channels": layer.in_channels,
            "out_channels": out_channels,
            "kernel_size": layer.kernel_size,
            "stride": layer.stride,
            "padding": layer.padding,
            "binarize_input": layer.binarize_input,
            "bit_length": bit_length,
            "weight_bits": writer.add(packed),
            "alpha": writer.add(alpha),
        }
        if num_bases == 1:
            if layer.bias is not None:
                spec["bias"] = writer.add(layer.bias.data)
            return [spec]
        # The bias belongs to the folded output, not the widened one.
        fold: dict[str, object] = {"type": "base_fold", "groups": num_bases}
        if layer.bias is not None:
            fold["bias"] = writer.add(layer.bias.data)
        return [spec, fold]

    if isinstance(layer, BinaryLinear):
        if num_bases == 1:
            signs, alpha = layer.binary_weights()
        else:
            signs, alpha = _tiered_bases(layer, num_bases)
        packed, bit_length = pack_signs(signs)
        spec = {
            "type": "binary_linear",
            "in_features": layer.in_features,
            "out_features": layer.out_features * num_bases,
            "binarize_input": layer.binarize_input,
            "bit_length": bit_length,
            "weight_bits": writer.add(packed),
            "alpha": writer.add(alpha),
        }
        if num_bases == 1:
            if layer.bias is not None:
                spec["bias"] = writer.add(layer.bias.data)
            return [spec]
        fold = {"type": "base_fold", "groups": num_bases}
        if layer.bias is not None:
            fold["bias"] = writer.add(layer.bias.data)
        return [spec, fold]

    if isinstance(layer, Conv2d):
        spec = {
            "type": "conv2d",
            "in_channels": layer.in_channels,
            "out_channels": layer.out_channels,
            "kernel_size": layer.kernel_size,
            "stride": layer.stride,
            "padding": layer.padding,
            "weight": writer.add(layer.weight.data),
        }
        if layer.bias is not None:
            spec["bias"] = writer.add(layer.bias.data)
        return [spec]

    if isinstance(layer, Linear):
        spec = {
            "type": "linear",
            "in_features": layer.in_features,
            "out_features": layer.out_features,
            "weight": writer.add(layer.weight.data),
        }
        if layer.bias is not None:
            spec["bias"] = writer.add(layer.bias.data)
        return [spec]

    if isinstance(layer, (BatchNorm2d, BatchNorm1d)):
        # One spec covers both: eval-mode BN is the same affine transform
        # broadcast over whatever trailing dims the input has.
        return [
            {
                "type": "batch_norm",
                "num_features": layer.num_features,
                "eps": layer.eps,
                "gamma": writer.add(layer.gamma.data),
                "beta": writer.add(layer.beta.data),
                "running_mean": writer.add(layer.running_mean),
                "running_var": writer.add(layer.running_var),
            }
        ]

    if isinstance(layer, MaxPool2d):
        return [
            {"type": "max_pool2d", "kernel_size": layer.kernel_size, "stride": layer.stride}
        ]
    if isinstance(layer, ReLU):
        return [{"type": "relu"}]
    if isinstance(layer, Flatten):
        return [{"type": "flatten"}]
    if isinstance(layer, GlobalAvgPool2d):
        return [{"type": "global_avg_pool2d"}]
    if isinstance(layer, Dropout):
        # Eval-mode dropout is the identity, so it serializes as no layer;
        # a training-mode one would drop units at random and has no
        # inference meaning.
        if layer.training:
            raise ModelFormatError("cannot serialize a Dropout in training mode")
        return []

    raise ModelFormatError(f"unsupported layer type: {type(layer).__name__}")


def serialize_browser_bundle(
    bundle: Module,
    input_shape: tuple[int, int, int],
    metadata: Optional[dict[str, object]] = None,
    num_bases: int = 1,
) -> bytes:
    """Serialize a browser bundle (conv1 + binary branch) to ``.lcrs`` bytes.

    ``num_bases`` > 1 serializes each binary layer as its first K
    ABC-Net bases — a K×-wider binary layer followed by a ``base_fold``
    group-sum (see :func:`~repro.nn.binary.binarize_bases`).  The
    default emits byte-identical payloads to the pre-tier format.
    """
    if num_bases < 1:
        raise ModelFormatError("num_bases must be at least 1")
    writer = _BufferWriter()
    layers = [
        spec
        for layer in iter_leaf_modules(bundle)
        for spec in _serialize_layer(layer, writer, num_bases=num_bases)
    ]
    header = {
        "input_shape": list(input_shape),
        "layers": layers,
        "metadata": metadata or {},
    }
    header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")
    return (
        MAGIC
        + struct.pack("<HI", FORMAT_VERSION, len(header_bytes))
        + header_bytes
        + writer.blob()
    )


@dataclass(frozen=True)
class ParsedModel:
    """Decoded ``.lcrs`` payload: header plus a buffer accessor."""

    input_shape: tuple[int, ...]
    layers: list[dict[str, object]]
    metadata: dict[str, object]
    blob: bytes

    @cached_property
    def digest(self) -> str:
        """Content hash of everything execution depends on (not metadata).

        Two payloads with equal digests compile to the same plan, which
        is what lets one process-wide plan cache serve every engine that
        loaded the same model.
        """
        h = hashlib.blake2b(digest_size=16)
        header = [list(self.input_shape), self.layers]
        h.update(json.dumps(header, sort_keys=True, separators=(",", ":")).encode())
        h.update(self.blob)
        return h.hexdigest()

    def buffer(self, slot: dict[str, object]) -> np.ndarray:
        start = int(slot["offset"])
        nbytes = int(slot["nbytes"])
        if start + nbytes > len(self.blob):
            raise ModelFormatError("buffer slot exceeds blob size")
        raw = self.blob[start : start + nbytes]
        arr = np.frombuffer(raw, dtype=np.dtype(str(slot["dtype"])))
        return arr.reshape([int(d) for d in slot["shape"]]).copy()


def parse_model(payload: bytes) -> ParsedModel:
    """Decode ``.lcrs`` bytes into a :class:`ParsedModel`."""
    if len(payload) < 10 or payload[:4] != MAGIC:
        raise ModelFormatError("not an LCRS model (bad magic)")
    version, hlen = struct.unpack("<HI", payload[4:10])
    if version != FORMAT_VERSION:
        raise ModelFormatError(f"unsupported format version {version}")
    header_end = 10 + hlen
    if header_end > len(payload):
        raise ModelFormatError("truncated header")
    try:
        header = json.loads(payload[10:header_end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ModelFormatError(f"corrupt header: {exc}") from exc
    return ParsedModel(
        input_shape=tuple(header["input_shape"]),
        layers=list(header["layers"]),
        metadata=dict(header.get("metadata", {})),
        blob=payload[header_end:],
    )
