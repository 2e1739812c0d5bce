"""Wire format for USS exchange frames between grid daemons.

A frame is a 4-byte big-endian payload length followed by that many bytes
of UTF-8 JSON (the same framing as the serve plane's protocol v1, so one
set of tooling can eyeball both).  The payload is an envelope::

    {"v": 1, "src": "uss:a", "dst": "uss:b",
     "type": "UsageDeltaMessage", "data": {...dataclass fields...}}

``src``/``dst`` are transport endpoint names (the USS registers
``uss:<site>``); ``type`` selects the dataclass and ``data`` carries its
fields verbatim.  The JSON is strict: ``NaN`` and ``Infinity`` are
refused on encode and rejected on decode, so a non-finite charge or
timestamp never reaches a receiver's histogram through the wire.

The length prefix is validated against ``MAX_FRAME_BYTES`` before the
payload is read, so a broken or adversarial peer cannot make a daemon
buffer an arbitrarily large frame.  Malformed payloads raise
:class:`WireError`; the transport counts and drops them rather than
letting one bad peer kill the receive loop.
"""

from __future__ import annotations

import json
import struct
from typing import Any, Tuple

from ..services.messages import UsageDeltaMessage, UsageResyncRequest

__all__ = ["GRID_WIRE_VERSION", "MAX_FRAME_BYTES", "WireError",
           "encode_frame", "decode_frame"]

GRID_WIRE_VERSION = 1
MAX_FRAME_BYTES = 16 * 1024 * 1024
_LEN = struct.Struct(">I")

#: the only payload classes allowed on the grid wire
_TYPES = {
    "UsageDeltaMessage": UsageDeltaMessage,
    "UsageResyncRequest": UsageResyncRequest,
}


class WireError(ValueError):
    """A frame that cannot be decoded into a known USS message."""


def _reject_constant(token: str) -> Any:
    """``json.loads`` hook for the non-standard ``NaN``/``Infinity`` tokens."""
    raise WireError(f"non-finite number {token} in frame")


def encode_frame(src: str, dst: str, message: Any) -> bytes:
    """Serialize one USS message into a length-prefixed frame."""
    name = type(message).__name__
    if name not in _TYPES:
        raise WireError(f"{name} is not a grid wire message")
    try:
        payload = json.dumps(
            {"v": GRID_WIRE_VERSION, "src": src, "dst": dst, "type": name,
             "data": message.__dict__},
            separators=(",", ":"), ensure_ascii=False,
            allow_nan=False).encode("utf-8")
    except ValueError as exc:
        raise WireError(f"unencodable {name}: {exc}") from exc
    if len(payload) > MAX_FRAME_BYTES:
        raise WireError(f"frame of {len(payload)} bytes exceeds cap")
    return _LEN.pack(len(payload)) + payload


def decode_frame(payload: bytes) -> Tuple[str, str, Any]:
    """Decode one frame payload into ``(src, dst, message)``."""
    try:
        envelope = json.loads(payload.decode("utf-8"),
                              parse_constant=_reject_constant)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WireError(f"undecodable frame: {exc}") from exc
    if not isinstance(envelope, dict):
        raise WireError("frame payload is not an object")
    name = envelope.get("type")
    cls = _TYPES.get(name)
    if cls is None:
        raise WireError(f"unknown message type {name!r}")
    data = envelope.get("data")
    if not isinstance(data, dict):
        raise WireError("missing data object")
    try:
        message = cls(**data)
    except TypeError as exc:
        raise WireError(f"bad {name} fields: {exc}") from exc
    return str(envelope.get("src", "")), str(envelope.get("dst", "")), message


def frame_length(header: bytes) -> int:
    """Parse and validate the 4-byte length prefix."""
    (length,) = _LEN.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise WireError(f"declared frame length {length} exceeds cap")
    return length
