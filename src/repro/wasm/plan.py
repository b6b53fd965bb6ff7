"""Trace-compiled fused inference plans: record once, replay flat.

``BENCH_kernels.json`` showed per-sample cost dominated by Python per-op
dispatch — many tiny relu/batch-norm/pool ops around each conv — not by
popcount math.  This module is the record-once/replay-many answer
(ROADMAP item 2): walking a model's layer specs for a *fixed* input
geometry and batch capacity compiles a flat list of :class:`PlanStep`
objects, each a handful of C kernel calls (:mod:`.plan_compile`) plus
the occasional BLAS matmul, all reading and writing preallocated arena
buffers.  Replay touches zero Python-level layer or ``Tensor`` objects.

Fusion set (one step per *anchor* op, adjacent elementwise ops ride
along):

* ``unfold → XNOR → popcount → scale → bias`` for binarized convs, with
  the padding-validity mask applied inside the popcount loop;
* ``conv → relu`` (and ``linear → relu``) fused into the matmul
  epilogue; pooling and batch-norm run as fused trailing micro-kernels
  of the same step;
* ``batch_norm`` folded to a per-channel affine (interpreter flavor) or
  replayed with the framework's exact four-rounding chain.

Two arithmetic *flavors* exist because the repo has two reference
executors with deliberately different float semantics: ``"wasm"``
replicates :class:`~repro.wasm.interpreter.WasmModel` (browser stem /
branch), ``"framework"`` replicates the :mod:`repro.nn` eval path (edge
trunk).  A plan promises **bit identity** with its reference — every
compiled plan is probe-verified against it on randomized inputs
(including exact zeros) before use, and any model the compiler cannot
express raises :class:`PlanCompileError`, which callers treat as
"transparently fall back to the reference path".
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from ..observability.clock import now_ms
from ..observability.tracing import NULL_RECORDER
from ..profiling.op_counters import ModelCounters
from . import bitpack
from .bitpack import unpack_signs
from .interpreter import WasmModel, conv_geometry
from .model_format import (
    ModelFormatError,
    ParsedModel,
    parse_model,
    serialize_browser_bundle,
)
from .plan_compile import KernelBackendError, get_backend

__all__ = [
    "CompiledPlan",
    "PlanCompileError",
    "PlanExecutionError",
    "PlanStep",
    "PlanVerificationError",
    "compile_trunk_plan",
    "compile_wasm_plan",
]

#: Ops that anchor a fused step (they own the step's heavy kernel).
ANCHOR_KINDS = frozenset({"conv2d", "binary_conv2d", "linear", "binary_linear"})
#: Ops that fuse into the nearest anchor's step as micro-kernels.
APPEND_KINDS = frozenset(
    {"relu", "batch_norm", "max_pool2d", "flatten", "global_avg_pool2d", "base_fold"}
)


class PlanCompileError(RuntimeError):
    """The model cannot be expressed as a compiled plan (fall back)."""


class PlanVerificationError(PlanCompileError):
    """A compiled plan failed the bit-identity probe against its reference."""


class PlanExecutionError(RuntimeError):
    """A replay request does not fit the plan (batch too large, bad shape)."""


class Arena:
    """Named preallocated scratch buffers owned by one plan."""

    def __init__(self) -> None:
        self._buffers: "OrderedDict[str, np.ndarray]" = OrderedDict()

    def new(self, name: str, shape: tuple, dtype=np.float32) -> np.ndarray:
        if name in self._buffers:
            name = f"{name}#{len(self._buffers)}"
        arr = np.zeros(shape, dtype=dtype)
        self._buffers[name] = arr
        return arr

    @property
    def total_bytes(self) -> int:
        return sum(a.nbytes for a in self._buffers.values())

    def describe(self) -> list:
        return [
            {"name": name, "shape": list(a.shape), "dtype": str(a.dtype), "bytes": a.nbytes}
            for name, a in self._buffers.items()
        ]


@dataclass
class PlanStep:
    """One fused step: a short list of runners over arena buffers."""

    index: int
    #: Attribution label, e.g. ``"binary_conv2d+max_pool2d+batch_norm"``.
    name: str
    #: Source op kinds fused into this step, in execution order.
    kinds: list
    #: Callables ``runner(n)`` — C kernel calls or NumPy matmul/reductions.
    runners: list = field(default_factory=list)
    counter: object = None


class CompiledPlan:
    """A replayable flat plan for one (model, geometry, capacity) tuple.

    ``execute`` serves any batch of 1..capacity samples by slicing every
    arena buffer to the live batch; per-step :class:`OpCounter`\\ s are
    always on, and ``plan.step[i]`` spans are emitted when a recorder is
    passed, so profiling attribution survives fusion.

    One instance owns one preallocated arena, so concurrent ``execute``
    calls on the *same* plan would overwrite each other's buffers; an
    internal lock serializes them (correct but not parallel).  Callers
    that want real concurrency lease distinct instances — see
    ``EdgeEndpoint`` in :mod:`repro.runtime.session`.
    """

    def __init__(
        self,
        *,
        flavor: str,
        capacity: int,
        input_shape: tuple,
        output_shape: tuple,
        steps: Sequence[PlanStep],
        arena: Arena,
        input_buf: np.ndarray,
        output_buf: np.ndarray,
    ) -> None:
        self.flavor = flavor
        self.capacity = int(capacity)
        self.input_shape = tuple(input_shape)
        self.output_shape = tuple(output_shape)
        self.steps = list(steps)
        self.arena = arena
        self._input_buf = input_buf
        self._output_view = output_buf.reshape((self.capacity,) + self.output_shape)
        self.counters = ModelCounters.for_kinds([s.name for s in self.steps])
        for step, counter in zip(self.steps, self.counters.ops):
            step.counter = counter
        # Guards the shared arena during execute; see class docstring.
        self._exec_lock = threading.Lock()

    @property
    def num_steps(self) -> int:
        return len(self.steps)

    def execute(
        self,
        x: np.ndarray,
        *,
        recorder=None,
        trace_id: str = "",
        track: str = "browser",
    ) -> np.ndarray:
        """Replay the plan on an NCHW float32 batch of ≤ capacity samples."""
        rec = NULL_RECORDER if recorder is None else recorder
        x = np.ascontiguousarray(x, dtype=np.float32)
        if tuple(x.shape[1:]) != self.input_shape:
            raise PlanExecutionError(
                f"expected input shape (N, {self.input_shape}), got {x.shape}"
            )
        n = x.shape[0]
        if n > self.capacity:
            raise PlanExecutionError(
                f"batch of {n} exceeds plan capacity {self.capacity}"
            )
        with self._exec_lock:
            self._input_buf[:n] = x
            for step in self.steps:
                if rec.enabled:
                    with rec.span(
                        f"plan.step[{step.index}]",
                        track=track,
                        trace_id=trace_id,
                        step=step.name,
                        samples=int(n),
                    ):
                        self._run_step(step, n)
                else:
                    self._run_step(step, n)
            return self._output_view[:n].copy()

    @staticmethod
    def _run_step(step: PlanStep, n: int) -> None:
        # Attribution deltas come from the calling thread's tally, not
        # the process-wide total, so concurrent plans on other threads
        # never bleed popcount bytes into this step's counter.
        pop_before = bitpack.thread_bytes_popcounted()
        t0 = now_ms()
        for runner in step.runners:
            runner(n)
        step.counter.record(
            samples=n,
            wall_ms=now_ms() - t0,
            bytes_popcounted=bitpack.thread_bytes_popcounted() - pop_before,
        )

    def describe(self) -> dict:
        """Inspection record for the ``repro plan`` CLI subcommand."""
        return {
            "flavor": self.flavor,
            "capacity": self.capacity,
            "input_shape": list(self.input_shape),
            "output_shape": list(self.output_shape),
            "num_steps": self.num_steps,
            "arena_bytes": self.arena.total_bytes,
            "steps": [
                {
                    "index": step.index,
                    "name": step.name,
                    "kinds": list(step.kinds),
                    "runners": len(step.runners),
                    **step.counter.as_dict(),
                }
                for step in self.steps
            ],
        }


# ----------------------------------------------------------------------
# Compilation
# ----------------------------------------------------------------------
def _split_groups(specs: Sequence[dict]) -> list:
    """Partition the layer specs into fused anchor groups.

    Appendable ops before the first anchor become the first group's
    pre-ops; every other appendable fuses into the preceding anchor.
    """
    groups: list = []
    current = {"anchor": None, "pre": [], "post": []}
    for spec in specs:
        kind = spec["type"]
        if kind in ANCHOR_KINDS:
            if current["anchor"] is not None:
                groups.append(current)
                current = {"anchor": None, "pre": [], "post": []}
            current["anchor"] = spec
        elif kind in APPEND_KINDS:
            bucket = "post" if current["anchor"] is not None else "pre"
            current[bucket].append(spec)
        else:
            raise PlanCompileError(f"plan compiler does not support {kind!r}")
    if current["anchor"] is not None or current["pre"]:
        groups.append(current)
    if not groups:
        raise PlanCompileError("model has no layers to compile")
    return groups


def _widen_to_words(packed: np.ndarray, word_count: int) -> np.ndarray:
    """View MSB-first packed bytes as little-endian u64 words, zero padded."""
    rows, nbytes = packed.shape
    wide = np.zeros((rows, word_count * 8), dtype=np.uint8)
    wide[:, :nbytes] = packed
    return np.ascontiguousarray(wide.view("<u8"))


class _PlanBuilder:
    """Walks parsed layer specs once, emitting runners over an arena.

    ``flavor`` selects which reference executor's float semantics each
    runner replicates: ``"wasm"`` for the browser interpreter,
    ``"framework"`` for the :mod:`repro.nn` eval path.
    """

    def __init__(
        self,
        parsed: ParsedModel,
        capacity: int,
        flavor: str,
        c_mean: bool = True,
        direct_conv: bool = True,
    ) -> None:
        if flavor not in ("wasm", "framework"):
            raise PlanCompileError(f"unknown plan flavor {flavor!r}")
        capacity = int(capacity)
        if capacity < 1:
            raise PlanCompileError("plan capacity must be positive")
        self.parsed = parsed
        self.capacity = capacity
        self.flavor = flavor
        #: Fold the kfac |window| mean into the C gather (replicating
        #: NumPy's small-axis pairwise sum).  compile_wasm_plan retries
        #: with False if probe verification ever disagrees.
        self.c_mean = bool(c_mean)
        #: Use the fused direct-conv kernel (sequential-K fmaf, the
        #: reduction BLAS sgemm applies at narrow output widths) instead
        #: of im2col + np.matmul for convs with oc <= 16.  Probe-guarded
        #: the same way.
        self.direct_conv = bool(direct_conv)
        self.kernels = get_backend()  # KernelBackendError → caller falls back
        self.arena = Arena()
        self.input_shape = tuple(int(d) for d in parsed.input_shape)
        self.buf = self.arena.new("input", (capacity, *self.input_shape))
        #: Logical per-sample activation shape (tracks flatten).
        self.shape: tuple = self.input_shape
        self.steps: list = []

    # -- helpers --------------------------------------------------------
    @staticmethod
    def _ptr(arr: Optional[np.ndarray]):
        return None if arr is None else arr.ctypes.data

    def _param(self, spec: dict, key: str, required: bool = True):
        if key not in spec:
            if required:
                raise PlanCompileError(f"{spec['type']} spec missing {key!r}")
            return None
        return self.parsed.buffer(spec[key]).astype(np.float32)

    def _require_chw(self, spec: dict) -> tuple:
        if len(self.shape) != 3:
            raise PlanCompileError(
                f"{spec['type']} expects a CHW activation, got {self.shape}"
            )
        return self.shape

    # -- build ----------------------------------------------------------
    def build(self) -> CompiledPlan:
        input_buf = self.buf
        for index, group in enumerate(_split_groups(self.parsed.layers)):
            runners: list = []
            kinds: list = []
            for spec in group["pre"]:
                self._emit_append(spec, runners, kinds)
            if group["anchor"] is not None:
                post = list(group["post"])
                self._emit_anchor(group["anchor"], post, runners, kinds)
                for spec in post:
                    self._emit_append(spec, runners, kinds)
            self.steps.append(
                PlanStep(index=index, name="+".join(kinds), kinds=kinds, runners=runners)
            )
        return CompiledPlan(
            flavor=self.flavor,
            capacity=self.capacity,
            input_shape=self.input_shape,
            output_shape=self.shape,
            steps=self.steps,
            arena=self.arena,
            input_buf=input_buf,
            output_buf=self.buf,
        )

    # -- appendable micro-kernels --------------------------------------
    def _emit_append(self, spec: dict, runners: list, kinds: list) -> None:
        kind = spec["type"]
        kinds.append(kind)
        K = self.kernels
        if kind == "relu":
            mode = 1 if self.flavor == "wasm" else 2
            elems = int(np.prod(self.shape))
            ptr = self._ptr(self.buf)
            runners.append(lambda n: K.relu_inplace(ptr, n * elems, mode))
        elif kind == "flatten":
            self.shape = (int(np.prod(self.shape)),)
        elif kind == "batch_norm":
            gamma = self._param(spec, "gamma")
            beta = self._param(spec, "beta")
            mean = self._param(spec, "running_mean")
            var = self._param(spec, "running_var")
            eps = float(spec["eps"])
            c = int(self.shape[0])
            hw = int(np.prod(self.shape[1:])) if len(self.shape) > 1 else 1
            ptr = self._ptr(self.buf)
            if self.flavor == "wasm":
                # Interpreter folds BN to affine at load: exactly two
                # float32 roundings per element.
                scale = gamma / np.sqrt(var + eps)
                shift = beta - mean * scale
                ps, psh = self._ptr(scale), self._ptr(shift)
                runners.append(
                    lambda n, _keep=(scale, shift): K.affine_ch(ptr, ptr, ps, psh, n, c, hw)
                )
            else:
                # Framework eval BN: four roundings, inv_std precomputed.
                inv_std = 1.0 / np.sqrt(var + eps)
                pg, pb = self._ptr(gamma), self._ptr(beta)
                pm, pi = self._ptr(mean), self._ptr(inv_std)
                runners.append(
                    lambda n, _keep=(gamma, beta, mean, inv_std): K.bn_eval_ch(
                        ptr, ptr, pg, pb, pm, pi, n, c, hw
                    )
                )
        elif kind == "max_pool2d":
            c, h, w = self._require_chw(spec)
            k = int(spec["kernel_size"])
            stride = int(spec["stride"])
            geom = conv_geometry(c, h, w, k, stride, 0)
            oh, ow = geom.out_height, geom.out_width
            dst = self.arena.new("pool", (self.capacity, c, oh, ow))
            tie_first = 0 if self.flavor == "wasm" else 1
            psrc, pdst = self._ptr(self.buf), self._ptr(dst)
            runners.append(
                lambda n: K.maxpool_nchw(psrc, pdst, n, c, h, w, k, stride, oh, ow, tie_first)
            )
            self.buf = dst
            self.shape = (c, oh, ow)
        elif kind == "global_avg_pool2d":
            c, h, w = self._require_chw(spec)
            dst = self.arena.new("gap", (self.capacity, c))
            src = self.buf.reshape(self.capacity, c, h, w)
            if self.flavor == "wasm":

                def runner(n, src=src, dst=dst):
                    dst[:n] = src[:n].mean(axis=(2, 3))

            else:
                # Tensor.mean is sum * (1/count) — one extra rounding
                # versus np.mean; replicate it exactly.
                inv_count = 1.0 / (h * w)

                def runner(n, src=src, dst=dst, inv_count=inv_count):
                    dst[:n] = src[:n].sum(axis=(2, 3)) * inv_count

            runners.append(runner)
            self.buf = dst
            self.shape = (c,)
        elif kind == "base_fold":
            # Group-sum of a widened ABC-Net binary layer (plus its
            # relocated bias); the reshape/sum expression mirrors the
            # interpreter's _op_base_fold exactly, so both flavors are
            # bit-identical by construction.
            groups = int(spec["groups"])
            bias = self._param(spec, "bias", required=False)
            if len(self.shape) == 3:
                kc, h, w = self.shape
                if kc % groups:
                    raise PlanCompileError(
                        f"base_fold: {kc} channels not divisible by {groups}"
                    )
                oc = kc // groups
                dst = self.arena.new("fold", (self.capacity, oc, h, w))
                src = self.buf
                bias_nchw = bias[None, :, None, None] if bias is not None else None

                def runner(n, src=src, dst=dst, bias=bias_nchw):
                    out = src[:n].reshape(n, groups, oc, h, w).sum(axis=1)
                    if bias is not None:
                        out = out + bias
                    dst[:n] = out

                runners.append(runner)
                self.buf = dst
                self.shape = (oc, h, w)
            elif len(self.shape) == 1:
                kf = int(self.shape[0])
                if kf % groups:
                    raise PlanCompileError(
                        f"base_fold: {kf} features not divisible by {groups}"
                    )
                f = kf // groups
                dst = self.arena.new("fold", (self.capacity, f))
                src = self.buf

                def runner(n, src=src, dst=dst, bias=bias):
                    out = src[:n].reshape(n, groups, f).sum(axis=1)
                    if bias is not None:
                        out = out + bias
                    dst[:n] = out

                runners.append(runner)
                self.buf = dst
                self.shape = (f,)
            else:
                raise PlanCompileError(
                    f"base_fold expects CHW or flat activation, got {self.shape}"
                )
        else:  # pragma: no cover - _split_groups filters kinds
            raise PlanCompileError(f"cannot fuse op kind {kind!r}")

    # -- anchors --------------------------------------------------------
    def _emit_anchor(self, spec: dict, post: list, runners: list, kinds: list) -> None:
        kind = spec["type"]
        kinds.append(kind)
        if kind.startswith("binary") and self.flavor != "wasm":
            raise PlanCompileError("binary layers compile only in wasm flavor")
        fuse_relu = bool(post) and post[0]["type"] == "relu"
        if fuse_relu:
            post.pop(0)
            kinds.append("relu")
        relu_mode = 0
        if fuse_relu:
            relu_mode = 1 if self.flavor == "wasm" else 2

        if kind == "conv2d":
            self._emit_conv_matmul(
                runners, spec, self._param(spec, "weight"), None, relu_mode
            )
        elif kind == "binary_conv2d":
            if bool(spec["binarize_input"]):
                self._emit_binary_conv(runners, spec, relu_mode, fuse_relu)
            else:
                packed_w = self.parsed.buffer(spec["weight_bits"]).astype(np.uint8)
                signs = unpack_signs(packed_w, int(spec["bit_length"]))
                alpha = self._param(spec, "alpha")
                self._emit_conv_matmul(runners, spec, signs, alpha, relu_mode)
        elif kind == "linear":
            weight = self._param(spec, "weight")
            bias = self._param(spec, "bias", required=False)
            self._emit_linear_matmul(runners, spec, weight, None, bias, relu_mode)
        elif kind == "binary_linear":
            if bool(spec["binarize_input"]):
                self._emit_binary_linear(runners, spec, relu_mode)
            else:
                packed_w = self.parsed.buffer(spec["weight_bits"]).astype(np.uint8)
                signs = unpack_signs(packed_w, int(spec["bit_length"]))
                alpha = self._param(spec, "alpha")
                bias = self._param(spec, "bias", required=False)
                self._emit_linear_matmul(runners, spec, signs, alpha, bias, relu_mode)
        else:  # pragma: no cover - _split_groups filters kinds
            raise PlanCompileError(f"unknown anchor kind {kind!r}")

    def _emit_padded_source(self, runners: list, c: int, h: int, w: int, pad: int):
        """Return (ptr, h, w) of a zero-bordered copy of the current buffer.

        The border is zeroed once when the arena allocates the buffer and
        never written afterwards; the per-call runner copies only interior
        rows.  Downstream kernels then gather with pad=0 and no fringe
        branches — padded entries contribute ``fmaf(+0, w, acc)``, exactly
        what the zero-filled im2col columns fed to the GEMM.
        """
        if pad == 0:
            return self._ptr(self.buf), h, w
        K = self.kernels
        hp, wp = h + 2 * pad, w + 2 * pad
        xpad = self.arena.new("xpad", (self.capacity, c, hp, wp))
        psrc, ppad = self._ptr(self.buf), self._ptr(xpad)
        runners.append(lambda n: K.pad_nchw(psrc, ppad, n, c, h, w, pad))
        return ppad, hp, wp

    def _emit_conv_direct(
        self,
        runners: list,
        geom,
        c: int,
        h: int,
        w: int,
        oc: int,
        w_flat: np.ndarray,
        alpha: Optional[np.ndarray],
        bias: Optional[np.ndarray],
        relu_mode: int,
    ) -> None:
        """Fused direct conv: padded gather → FMA → scale/bias/relu → store.

        Sequential-K ``fmaf`` accumulation reproduces the GEMM's dot
        products bit-for-bit for these skinny shapes (probe-verified; the
        matmul tier takes over via ``_compile_verified`` if a BLAS build
        ever blocks the K loop for them).  Weights are laid out as
        ``row_len × 16`` lanes so the kernel broadcasts one source scalar
        against all output channels per FMA.
        """
        K = self.kernels
        k, stride = geom.kernel, geom.stride
        oh, ow = geom.out_height, geom.out_width
        wt = np.zeros((geom.row_len, 16), dtype=np.float32)
        wt[:, :oc] = w_flat.T
        scale16 = None
        if alpha is not None:
            scale16 = np.ones(16, dtype=np.float32)
            scale16[:oc] = alpha
        bias16 = None
        if bias is not None:
            bias16 = np.zeros(16, dtype=np.float32)
            bias16[:oc] = bias
        ppad, hp, wp = self._emit_padded_source(runners, c, h, w, geom.padding)
        out = self.arena.new("act", (self.capacity, oc, oh, ow))
        pwt, pout = self._ptr(wt), self._ptr(out)
        pscale, pbias = self._ptr(scale16), self._ptr(bias16)
        runners.append(
            lambda n, _keep=(wt, scale16, bias16): K.conv_direct(
                ppad, pwt, pscale, pbias, pout,
                n, c, hp, wp, k, stride, oh, ow, oc, relu_mode,
            )
        )
        self.buf = out
        self.shape = (oc, oh, ow)

    def _emit_conv_matmul(
        self,
        runners: list,
        spec: dict,
        weight: np.ndarray,
        alpha: Optional[np.ndarray],
        relu_mode: int,
    ) -> None:
        """Float conv (or non-binarized binary conv): gather → GEMM → epilogue."""
        K = self.kernels
        c, h, w = self._require_chw(spec)
        oc = int(spec["out_channels"])
        geom = conv_geometry(
            c, h, w, int(spec["kernel_size"]), int(spec["stride"]), int(spec["padding"])
        )
        bias = self._param(spec, "bias", required=False)
        w_flat = weight.reshape(oc, -1) if weight.ndim != 2 else weight
        if w_flat.shape[1] != geom.row_len:
            raise PlanCompileError("conv weight does not match geometry")
        if self.direct_conv and oc <= 16:
            self._emit_conv_direct(
                runners, geom, c, h, w, oc, w_flat, alpha, bias, relu_mode
            )
            return
        if self.flavor == "wasm":
            wmat = np.ascontiguousarray(w_flat.T)
        else:
            # Framework conv multiplies by the transposed *view*; keep
            # the same strides so the GEMM call is identical.
            wmat = np.ascontiguousarray(w_flat).T
        rows = geom.rows
        cols = self.arena.new("cols", (self.capacity * rows, geom.row_len))
        mm = self.arena.new("mm", (self.capacity * rows, oc))
        out = self.arena.new("act", (self.capacity, oc, geom.out_height, geom.out_width))
        psrc, pcols = self._ptr(self.buf), self._ptr(cols)
        pmm, pout = self._ptr(mm), self._ptr(out)
        pscale, pbias = self._ptr(alpha), self._ptr(bias)
        k, s, p = geom.kernel, geom.stride, geom.padding
        oh, ow = geom.out_height, geom.out_width

        runners.append(lambda n: K.im2col_f32(psrc, pcols, n, c, h, w, k, s, p, oh, ow))

        def matmul(n, cols=cols, wmat=wmat, mm=mm, rows=rows):
            np.matmul(cols[: n * rows], wmat, out=mm[: n * rows])

        runners.append(matmul)
        runners.append(
            lambda n, _keep=(alpha, bias): K.conv_post(
                pmm, pscale, pbias, pout, n, rows, oc, relu_mode
            )
        )
        self.buf = out
        self.shape = (oc, oh, ow)

    def _emit_binary_conv(
        self, runners: list, spec: dict, relu_mode: int, fuse_relu: bool
    ) -> None:
        """Fused unfold → XNOR → popcount → scale chain for binarized convs."""
        K = self.kernels
        c, h, w = self._require_chw(spec)
        oc = int(spec["out_channels"])
        geom = conv_geometry(
            c, h, w, int(spec["kernel_size"]), int(spec["stride"]), int(spec["padding"])
        )
        packed_w = self.parsed.buffer(spec["weight_bits"]).astype(np.uint8)
        alpha = self._param(spec, "alpha")
        bias = self._param(spec, "bias", required=False)
        row_len, rows = geom.row_len, geom.rows
        word_count = (row_len + 63) // 64
        wwords = _widen_to_words(packed_w, word_count)
        if geom.valid_cols is not None:
            mwords = _widen_to_words(np.ascontiguousarray(geom.mbits), word_count)
            valid = np.ascontiguousarray(geom.valid_cols.sum(axis=1).astype(np.int32))
            # Premasked weight table (oc, rows, W): prepare masks the
            # activation words, so (a&m)^(b&m) == (a^b)&m drops the mask
            # load + AND from the popcount inner loop.
            wmasked = np.ascontiguousarray(wwords[:, None, :] & mwords[None, :, :])
        else:
            mwords = None
            valid = None
            wmasked = None
        # With a small window (row_len <= 128) the |v| row fits the C
        # kernel's stack buffer and the kfac mean folds into the gather —
        # no abscols arena buffer, no separate NumPy pass.
        use_c_mean = self.c_mean and row_len <= 128
        if use_c_mean:
            abscols = None
        else:
            abscols = self.arena.new("abscols", (self.capacity * rows, row_len))
        words = self.arena.new("bits", (self.capacity * rows, word_count), dtype=np.uint64)
        kfac = self.arena.new("kfac", (self.capacity * rows,))
        out = self.arena.new("act", (self.capacity, oc, geom.out_height, geom.out_width))
        # Pre-padding lets the gather run fringe-free (pad=0 below):
        # padded entries are +0.0 → fabsf gives +0 and the sign bit is 1,
        # exactly what the kernel's zero-fill produced.  The validity
        # masks/counts from the *original* geometry still apply unchanged.
        psrc, hp, wp = self._emit_padded_source(runners, c, h, w, geom.padding)
        pabs, pwords, pkfac = self._ptr(abscols), self._ptr(words), self._ptr(kfac)
        pmw, pvalid = self._ptr(mwords), self._ptr(valid)
        pww = self._ptr(wwords) if wmasked is None else None
        pwm = self._ptr(wmasked)
        palpha, pbias, pout = self._ptr(alpha), self._ptr(bias), self._ptr(out)
        k, s = geom.kernel, geom.stride
        oh, ow = geom.out_height, geom.out_width
        mask_bytes_per_row = word_count * 8 if mwords is not None else 0
        # popdot's epilogue ends at the bias; a directly-adjacent relu
        # (rare — zoo binary convs feed BN/pool) runs as one extra pass.
        if fuse_relu:
            runners_relu = (self._ptr(out), oc * oh * ow, relu_mode)
        else:
            runners_relu = None

        pkf_prep = pkfac if use_c_mean else None
        runners.append(
            lambda n, _keep=(mwords,): K.binconv_prepare(
                psrc, pabs, pkf_prep, pwords, pmw,
                n, c, hp, wp, k, s, 0, oh, ow, word_count,
            )
        )

        if not use_c_mean:

            def kfac_mean(n, abscols=abscols, kfac=kfac, rows=rows):
                m = n * rows
                np.mean(abscols[:m], axis=1, out=kfac[:m])

            runners.append(kfac_mean)

        def popdot(n, _keep=(wwords, wmasked, valid, alpha, bias)):
            m = n * rows
            K.popdot_scale(
                pwords, pww, pwm, pvalid, palpha, pkfac, pbias, pout,
                n, rows, oc, word_count, row_len,
            )
            bitpack.record_plan_popcount(
                m * oc * word_count * 8 + m * mask_bytes_per_row
            )

        runners.append(popdot)
        if runners_relu is not None:
            pr, elems, mode = runners_relu
            runners.append(lambda n: K.relu_inplace(pr, n * elems, mode))
        self.buf = out
        self.shape = (oc, oh, ow)

    def _emit_linear_matmul(
        self,
        runners: list,
        spec: dict,
        weight: np.ndarray,
        alpha: Optional[np.ndarray],
        bias: Optional[np.ndarray],
        relu_mode: int,
    ) -> None:
        """Float linear (or non-binarized binary linear) with fused epilogue."""
        features = int(np.prod(self.shape))
        if weight.shape[-1] != features and weight.shape[0] != features:
            raise PlanCompileError("linear weight does not match activation shape")
        out_features = int(spec["out_features"])
        if self.flavor == "wasm":
            wmat = np.ascontiguousarray(weight.T)
        else:
            wmat = np.ascontiguousarray(weight).T
        x2d = self.buf.reshape(self.capacity, -1)
        out = self.arena.new("act", (self.capacity, out_features))
        alpha_row = alpha[None, :] if alpha is not None else None

        def matmul(n, x2d=x2d, wmat=wmat, out=out):
            np.matmul(x2d[:n], wmat, out=out[:n])

        runners.append(matmul)
        if alpha_row is not None:
            runners.append(lambda n, a=alpha_row, o=out: np.multiply(o[:n], a, out=o[:n]))
        if bias is not None:
            runners.append(lambda n, b=bias, o=out: np.add(o[:n], b, out=o[:n]))
        if relu_mode == 1:
            runners.append(lambda n, o=out: np.maximum(o[:n], 0.0, out=o[:n]))
        elif relu_mode == 2:
            runners.append(lambda n, o=out: np.multiply(o[:n], o[:n] > 0, out=o[:n]))
        self.buf = out
        self.shape = (out_features,)

    def _emit_binary_linear(self, runners: list, spec: dict, relu_mode: int) -> None:
        """Fused abs-mean → pack → XNOR popcount → scale for binary linear."""
        K = self.kernels
        features = int(np.prod(self.shape))
        bit_length = int(spec["bit_length"])
        if bit_length != features:
            raise PlanCompileError("binary_linear bit length mismatch")
        oc = int(spec["out_features"])
        packed_w = self.parsed.buffer(spec["weight_bits"]).astype(np.uint8)
        alpha = self._param(spec, "alpha")
        bias = self._param(spec, "bias", required=False)
        word_count = (bit_length + 63) // 64
        wwords = _widen_to_words(packed_w, word_count)
        absbuf = self.arena.new("abs", (self.capacity, features))
        words = self.arena.new("bits", (self.capacity, word_count), dtype=np.uint64)
        betabuf = self.arena.new("beta", (self.capacity,))
        out = self.arena.new("act", (self.capacity, oc))
        x2d = self.buf.reshape(self.capacity, -1)
        px, pwords = self._ptr(self.buf), self._ptr(words)
        pww, palpha, pbias = self._ptr(wwords), self._ptr(alpha), self._ptr(bias)
        pbeta, pout = self._ptr(betabuf), self._ptr(out)

        def absmean(n, x2d=x2d, absbuf=absbuf, betabuf=betabuf):
            np.abs(x2d[:n], out=absbuf[:n])
            np.mean(absbuf[:n], axis=1, out=betabuf[:n])

        runners.append(absmean)
        runners.append(lambda n: K.pack_rows(px, pwords, n, features, word_count))

        def popdot(n, _keep=(wwords, alpha, bias)):
            K.popdot_scale(
                pwords, pww, None, None, palpha, pbeta, pbias, pout,
                n, 1, oc, word_count, bit_length,
            )
            bitpack.record_plan_popcount(n * oc * word_count * 8)

        runners.append(popdot)
        if relu_mode == 1:
            runners.append(lambda n, o=out: np.maximum(o[:n], 0.0, out=o[:n]))
        elif relu_mode == 2:
            runners.append(lambda n, o=out: np.multiply(o[:n], o[:n] > 0, out=o[:n]))
        self.buf = out
        self.shape = (oc,)


# ----------------------------------------------------------------------
# Probe verification + public entry points
# ----------------------------------------------------------------------
def _probe_batch(input_shape: tuple, capacity: int) -> np.ndarray:
    """Randomized probe including exact ±0.0 values (sign/tie edge cases)."""
    rng = np.random.default_rng(20260808)
    x = rng.standard_normal((capacity, *input_shape)).astype(np.float32)
    flat = x.reshape(-1)
    flat[::97] = 0.0
    if flat.size > 5:
        flat[5::193] = -0.0
    return x


def _compile_verified(
    parsed: ParsedModel, capacity: int, flavor: str, reference: Callable
) -> CompiledPlan:
    """Build + probe-verify, stepping down through kernel variants.

    Two fused kernels replicate library numerics exactly-by-construction
    rather than by spec: the direct conv's sequential-K FMA loop mirrors
    the BLAS GEMM microkernel for skinny shapes, and the in-C kfac mean
    mirrors NumPy's small-axis pairwise sum.  If a BLAS/NumPy upgrade
    ever changes either, the probe catches it and the next tier swaps
    the offending fusion back to the library call — the plan survives,
    slightly slower, instead of being lost.
    """
    last: Optional[PlanVerificationError] = None
    for options in (
        {},
        {"direct_conv": False},
        {"c_mean": False},
        {"direct_conv": False, "c_mean": False},
    ):
        try:
            builder = _PlanBuilder(parsed, capacity, flavor, **options)
        except KernelBackendError as exc:
            raise PlanCompileError(str(exc)) from exc
        plan = builder.build()
        try:
            return _verify(plan, reference, _probe_batch(plan.input_shape, capacity))
        except PlanVerificationError as exc:
            last = exc
    raise last  # type: ignore[misc]  # loop always ran


def _verify(plan: CompiledPlan, reference: Callable, x: np.ndarray) -> CompiledPlan:
    for n in sorted({1, x.shape[0]}):
        got = plan.execute(x[:n])
        want = np.asarray(reference(np.ascontiguousarray(x[:n])))
        if got.shape != want.shape or not np.array_equal(got, want):
            raise PlanVerificationError(
                f"compiled plan diverges from its reference at batch size {n}"
            )
    plan.counters.reset()
    return plan


def compile_wasm_plan(model: WasmModel, capacity: int) -> CompiledPlan:
    """Compile + probe-verify a plan replicating ``model.forward``.

    Raises :class:`PlanCompileError` (including verification failures and
    a missing C backend) — ``WasmModel.plan_for`` turns that into a cached
    ``None`` and callers fall back to the interpreter.
    """
    def reference(x: np.ndarray) -> np.ndarray:
        for op in model._ops:
            x = op(x)
        return x

    return _compile_verified(model.parsed, capacity, "wasm", reference)


def compile_trunk_plan(trunk, input_shape: tuple, capacity: int) -> CompiledPlan:
    """Compile + probe-verify a plan replicating the framework trunk.

    The trunk is serialized through the ``.lcrs`` format (bit-exact
    float32 round trip) and compiled with framework-flavor arithmetic;
    non-Sequential trunks or unsupported layers raise
    :class:`PlanCompileError` and the edge keeps using the framework.
    """
    from ..nn import Tensor, no_grad

    try:
        payload = serialize_browser_bundle(trunk, tuple(int(d) for d in input_shape))
    except ModelFormatError as exc:
        raise PlanCompileError(f"trunk not serializable: {exc}") from exc
    parsed = parse_model(payload)
    trunk.eval()

    def reference(x: np.ndarray) -> np.ndarray:
        with no_grad():
            return trunk(Tensor(x)).data

    return _compile_verified(parsed, capacity, "framework", reference)
