"""Byte-level browser↔edge message protocol.

The paper's library exchanges intermediate results over HTTP/WebSocket;
this module pins down the wire contract so the collaboration boundary is
byte-realistic: every message is a framed, versioned, self-describing
blob that either side can encode/decode without sharing Python objects.

Frame layout (little endian)::

    magic   b"LCRP"
    version u8
    type    u8           (MessageType)
    length  u32          payload bytes
    payload type-specific (see each message's pack/unpack)

Messages:

* ``BatchInferenceRequest`` — browser → edge: the conv1 features of
  every uncertain sample of a processing batch (through a
  :mod:`feature codec <repro.runtime.feature_codec>`) in one frame, with
  a session id and per-sample sequence ids for correlation.  A single
  miss is a one-sample batch.
* ``BatchInferenceResponse`` — edge → browser: one vector of class ids
  and confidences, keyed by the same sequence ids.
* ``ModelRequest`` / ``ModelResponse`` — bundle fetch at page load.
* ``ErrorResponse``     — structured failure (unknown codec, bad shape);
  the shared edge scheduler also uses it for overload shedding (503).
* ``SchedulerAck``      — edge → browser: a batched miss request was
  admitted to the shared scheduler queue; the correlated
  ``BatchInferenceResponse`` follows once its dynamic batch executes.

Type values 1 and 2 (the retired single-sample request/response) are
unassigned; a frame carrying either fails as an unknown message type.
"""

from __future__ import annotations

import enum
import json
import struct
from dataclasses import dataclass
from typing import Union

import numpy as np

from .feature_codec import FEATURE_CODECS, get_codec

MAGIC = b"LCRP"
PROTOCOL_VERSION = 1
_HEADER = struct.Struct("<4sBBI")


class ProtocolError(ValueError):
    """Raised on malformed frames."""


class MessageType(enum.IntEnum):
    MODEL_REQUEST = 3
    MODEL_RESPONSE = 4
    ERROR = 5
    BATCH_INFERENCE_REQUEST = 6
    BATCH_INFERENCE_RESPONSE = 7
    SCHEDULER_ACK = 8


def _header_uint(value: object, name: str) -> int:
    """A JSON header id or dimension: an int that fits the wire's u64.

    Ids are echoed back packed as u64, so a negative or oversized value
    is a malformed request here rather than a crash when replying.
    """
    if type(value) is not int or not 0 <= value < 2**64:
        raise ProtocolError(f"{name} must be an integer in [0, 2**64), got {value!r}")
    return value


def _header_list(value: object, name: str) -> list:
    if not isinstance(value, list):
        raise ProtocolError(f"{name} must be a JSON list, got {value!r}")
    return value


@dataclass(frozen=True)
class BatchInferenceRequest:
    """Browser → edge: classify this stack of conv1 feature maps.

    The payload carries one codec-encoded ``(M, C, H, W)`` tensor — the
    miss-path samples of a processing batch — so M collaborative samples
    cost one frame and one round trip instead of M.

    ``trace_id`` correlates the request with the submitting session's
    trace (see :mod:`repro.observability.tracing`); it rides in the JSON
    header only when set, so untraced frames are byte-identical to the
    pre-tracing wire format and old decoders remain compatible.
    """

    session_id: int
    sequences: tuple[int, ...]
    codec: str
    feature_shape: tuple[int, ...]
    payload: bytes
    trace_id: str = ""

    type = MessageType.BATCH_INFERENCE_REQUEST

    def pack(self) -> bytes:
        meta: dict[str, object] = {
            "session_id": self.session_id,
            "sequences": list(self.sequences),
            "codec": self.codec,
            "shape": list(self.feature_shape),
        }
        if self.trace_id:
            meta["trace_id"] = self.trace_id
        header = json.dumps(meta).encode("utf-8")
        return struct.pack("<I", len(header)) + header + self.payload

    @classmethod
    def unpack(cls, body: bytes) -> "BatchInferenceRequest":
        if len(body) < 4:
            raise ProtocolError("truncated batch inference request")
        (hlen,) = struct.unpack("<I", body[:4])
        if len(body) < 4 + hlen:
            raise ProtocolError("truncated batch inference request header")
        try:
            meta = json.loads(body[4 : 4 + hlen].decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ProtocolError(f"bad batch request header: {exc}") from exc
        try:
            return cls(
                session_id=_header_uint(meta["session_id"], "session_id"),
                sequences=tuple(
                    _header_uint(s, "sequence")
                    for s in _header_list(meta["sequences"], "sequences")
                ),
                codec=str(meta["codec"]),
                feature_shape=tuple(
                    _header_uint(d, "shape dim")
                    for d in _header_list(meta["shape"], "shape")
                ),
                payload=body[4 + hlen :],
                trace_id=str(meta.get("trace_id", "")),
            )
        except (KeyError, TypeError, ValueError) as exc:
            # Valid JSON, wrong schema (missing/mistyped fields): still a
            # malformed frame, not a server crash.
            raise ProtocolError(f"bad batch request header fields: {exc!r}") from exc

    def features(self) -> np.ndarray:
        """Decode the carried feature stack through the named codec.

        The sequences/shape invariant is checked *before* decoding so a
        malformed header fails with this message, not a codec exception.
        """
        if len(self.feature_shape) < 1 or self.feature_shape[0] != len(self.sequences):
            raise ProtocolError(
                f"batch of {len(self.sequences)} sequences carries feature "
                f"stack of shape {self.feature_shape}"
            )
        return get_codec(self.codec).decode(self.payload, self.feature_shape)

    @classmethod
    def from_features(
        cls,
        session_id: int,
        sequences: "tuple[int, ...] | list[int]",
        codec_name: str,
        features: np.ndarray,
        trace_id: str = "",
    ) -> "BatchInferenceRequest":
        if features.ndim < 1 or features.shape[0] != len(sequences):
            raise ValueError(
                f"{len(sequences)} sequences but feature stack of shape "
                f"{features.shape}"
            )
        codec = get_codec(codec_name)
        return cls(
            session_id=session_id,
            sequences=tuple(int(s) for s in sequences),
            codec=codec_name,
            feature_shape=tuple(features.shape),
            payload=codec.encode(features),
            trace_id=trace_id,
        )


@dataclass(frozen=True)
class BatchInferenceResponse:
    """Edge → browser: per-sample answers for one batched request."""

    session_id: int
    sequences: tuple[int, ...]
    class_ids: tuple[int, ...]
    confidences: tuple[float, ...]

    type = MessageType.BATCH_INFERENCE_RESPONSE
    _HEAD = struct.Struct("<QI")

    def pack(self) -> bytes:
        count = len(self.sequences)
        if len(self.class_ids) != count or len(self.confidences) != count:
            raise ProtocolError("batch response field lengths differ")
        return (
            self._HEAD.pack(self.session_id, count)
            + np.asarray(self.sequences, dtype="<u8").tobytes()
            + np.asarray(self.class_ids, dtype="<i4").tobytes()
            + np.asarray(self.confidences, dtype="<f4").tobytes()
        )

    @classmethod
    def unpack(cls, body: bytes) -> "BatchInferenceResponse":
        if len(body) < cls._HEAD.size:
            raise ProtocolError("truncated batch inference response")
        session_id, count = cls._HEAD.unpack(body[: cls._HEAD.size])
        expected = cls._HEAD.size + count * (8 + 4 + 4)
        if len(body) != expected:
            raise ProtocolError(
                f"bad batch response size: expected {expected}B, got {len(body)}B"
            )
        offset = cls._HEAD.size
        sequences = np.frombuffer(body, dtype="<u8", count=count, offset=offset)
        offset += count * 8
        class_ids = np.frombuffer(body, dtype="<i4", count=count, offset=offset)
        offset += count * 4
        confidences = np.frombuffer(body, dtype="<f4", count=count, offset=offset)
        return cls(
            session_id=session_id,
            sequences=tuple(int(s) for s in sequences),
            class_ids=tuple(int(c) for c in class_ids),
            confidences=tuple(float(c) for c in confidences),
        )


@dataclass(frozen=True)
class SchedulerAck:
    """Edge → browser: batched miss request admitted to the scheduler.

    The answer is *deferred*: the scheduler aggregates admitted requests
    from many sessions into one dynamic batch, so the ack only promises
    that a correlated :class:`BatchInferenceResponse` (same session id
    and sequences) will follow.  ``ticket`` identifies the queue entry —
    resubmitting the same request (at-least-once delivery) returns the
    same ticket.  ``queued_samples`` reports the queue depth at
    admission, for client-side observability.
    """

    session_id: int
    ticket: int
    queued_samples: int

    type = MessageType.SCHEDULER_ACK
    _BODY = struct.Struct("<QQI")

    def pack(self) -> bytes:
        return self._BODY.pack(self.session_id, self.ticket, self.queued_samples)

    @classmethod
    def unpack(cls, body: bytes) -> "SchedulerAck":
        if len(body) != cls._BODY.size:
            raise ProtocolError("bad scheduler ack size")
        session_id, ticket, queued = cls._BODY.unpack(body)
        return cls(session_id=session_id, ticket=ticket, queued_samples=queued)


@dataclass(frozen=True)
class ModelRequest:
    """Browser → edge: fetch a named bundle (page-load path)."""

    bundle_name: str

    type = MessageType.MODEL_REQUEST

    def pack(self) -> bytes:
        return self.bundle_name.encode("utf-8")

    @classmethod
    def unpack(cls, body: bytes) -> "ModelRequest":
        try:
            return cls(bundle_name=body.decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise ProtocolError("bad model request name") from exc


@dataclass(frozen=True)
class ModelResponse:
    """Edge → browser: the requested ``.lcrs`` payload."""

    bundle_name: str
    payload: bytes

    type = MessageType.MODEL_RESPONSE

    def pack(self) -> bytes:
        name = self.bundle_name.encode("utf-8")
        return struct.pack("<I", len(name)) + name + self.payload

    @classmethod
    def unpack(cls, body: bytes) -> "ModelResponse":
        if len(body) < 4:
            raise ProtocolError("truncated model response")
        (nlen,) = struct.unpack("<I", body[:4])
        if len(body) < 4 + nlen:
            raise ProtocolError("truncated model response name")
        try:
            name = body[4 : 4 + nlen].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError("bad model response name") from exc
        return cls(bundle_name=name, payload=body[4 + nlen :])


@dataclass(frozen=True)
class ErrorResponse:
    """Edge → browser: structured failure."""

    code: int
    message: str

    type = MessageType.ERROR

    def pack(self) -> bytes:
        return struct.pack("<I", self.code) + self.message.encode("utf-8")

    @classmethod
    def unpack(cls, body: bytes) -> "ErrorResponse":
        if len(body) < 4:
            raise ProtocolError("truncated error response")
        (code,) = struct.unpack("<I", body[:4])
        return cls(code=code, message=body[4:].decode("utf-8", errors="replace"))


Message = Union[
    BatchInferenceRequest,
    BatchInferenceResponse,
    ModelRequest,
    ModelResponse,
    ErrorResponse,
    SchedulerAck,
]

_DECODERS = {
    MessageType.BATCH_INFERENCE_REQUEST: BatchInferenceRequest.unpack,
    MessageType.BATCH_INFERENCE_RESPONSE: BatchInferenceResponse.unpack,
    MessageType.MODEL_REQUEST: ModelRequest.unpack,
    MessageType.MODEL_RESPONSE: ModelResponse.unpack,
    MessageType.ERROR: ErrorResponse.unpack,
    MessageType.SCHEDULER_ACK: SchedulerAck.unpack,
}


def encode_frame(message: Message) -> bytes:
    """Wrap a message in the versioned wire frame."""
    body = message.pack()
    return _HEADER.pack(MAGIC, PROTOCOL_VERSION, int(message.type), len(body)) + body


def decode_frame(frame: bytes) -> Message:
    """Parse one frame; raises :class:`ProtocolError` on any corruption."""
    if len(frame) < _HEADER.size:
        raise ProtocolError("frame shorter than header")
    magic, version, mtype, length = _HEADER.unpack(frame[: _HEADER.size])
    if magic != MAGIC:
        raise ProtocolError("bad magic")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(f"unsupported protocol version {version}")
    body = frame[_HEADER.size :]
    if len(body) != length:
        raise ProtocolError(f"frame length mismatch: header says {length}, got {len(body)}")
    try:
        decoder = _DECODERS[MessageType(mtype)]
    except ValueError as exc:
        raise ProtocolError(f"unknown message type {mtype}") from exc
    return decoder(body)


class EdgeProtocolServer:
    """Message-level façade over an :class:`~repro.runtime.session.EdgeEndpoint`.

    ``handle`` consumes one encoded frame and returns one encoded frame —
    the same contract an HTTP handler would satisfy, so the deployment
    story can be tested end to end at byte granularity.
    """

    def __init__(self, endpoint, bundles: dict[str, bytes] | None = None) -> None:
        self.endpoint = endpoint
        self.bundles = dict(bundles or {})

    def handle(self, frame: bytes) -> bytes:
        try:
            message = decode_frame(frame)
        except ProtocolError as exc:
            return encode_frame(ErrorResponse(code=400, message=str(exc)))

        if isinstance(message, BatchInferenceRequest):
            try:
                features = message.features()
            except Exception as exc:  # codec/shape errors become 422s
                return encode_frame(ErrorResponse(code=422, message=str(exc)))
            try:
                logits = self.endpoint.infer(features)
                probs = np.exp(logits - logits.max(axis=1, keepdims=True))
                probs /= probs.sum(axis=1, keepdims=True)
                class_ids = logits.argmax(axis=1)
                response = BatchInferenceResponse(
                    session_id=message.session_id,
                    sequences=message.sequences,
                    class_ids=tuple(int(c) for c in class_ids),
                    confidences=tuple(
                        float(probs[i, c]) for i, c in enumerate(class_ids)
                    ),
                )
            except Exception as exc:  # endpoint failures stay on the wire
                return encode_frame(
                    ErrorResponse(code=500, message=f"batch inference failed: {exc}")
                )
            return encode_frame(response)
        if isinstance(message, ModelRequest):
            payload = self.bundles.get(message.bundle_name)
            if payload is None:
                return encode_frame(
                    ErrorResponse(code=404, message=f"no bundle {message.bundle_name!r}")
                )
            return encode_frame(
                ModelResponse(bundle_name=message.bundle_name, payload=payload)
            )
        return encode_frame(
            ErrorResponse(code=405, message=f"cannot serve {type(message).__name__}")
        )
