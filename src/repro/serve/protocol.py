"""The ``mbp serve`` wire protocol: newline-delimited JSON.

One connection carries a sequence of **frames**, each a single JSON
object on its own line (``\n``-terminated, UTF-8, no embedded
newlines — the encoder uses compact separators, so none can appear).
Requests and responses are correlated by an ``id`` field chosen by the
client and echoed verbatim; a client may pipeline several requests on
one connection and match replies by ``id`` (the server may answer out
of order once requests are in flight).

The full request/response schema — operations, fields, error codes —
is specified in ``docs/serve.md``; this module is the codec plus the
validation layer both the server and the client share, so a malformed
frame is rejected identically on either side of the socket.

Design rules:

* **framing is trivial** — ``readline`` is the whole parser, and a
  frame larger than ``max_bytes`` is a protocol error *before* any
  JSON work happens (the backpressure story starts at the codec);
* **errors are data** — every failure the server can express travels
  as an ``{"ok": false, "error": {"code", "message"}}`` frame with a
  code from :data:`ERROR_CODES`, never as a dropped connection
  (except ``too_large``, after which the line boundary is lost and
  the connection must close);
* **requests are validated once** — :func:`validate_request` fills
  defaults and type-checks every field, so the server's handlers only
  ever see well-formed requests.
"""

from __future__ import annotations

import json
from typing import Any

__all__ = [
    "PROTOCOL_VERSION",
    "DEFAULT_MAX_FRAME_BYTES",
    "OPERATIONS",
    "ERROR_CODES",
    "ProtocolError",
    "encode_frame",
    "decode_frame",
    "ok_response",
    "error_response",
    "validate_request",
]

#: Version stamped into every response; bump on incompatible changes.
PROTOCOL_VERSION = 1

#: Default cap on one frame's byte length (request or response line).
DEFAULT_MAX_FRAME_BYTES = 4 * 1024 * 1024

#: Every operation a request may name.
OPERATIONS = ("ping", "stats", "simulate", "suite", "sweep", "shutdown")

#: Error code -> meaning.  Codes are part of the protocol contract
#: (documented in docs/serve.md); messages are human-readable detail.
ERROR_CODES = {
    "bad_request": ("the frame is not a valid request object, or the "
                    "predictor rejects its parameters"),
    "too_large": "the frame exceeds the server's frame size limit",
    "unknown_op": "the request names an operation the server lacks",
    "unknown_predictor": "the predictor name is not in the registry",
    "bad_trace": "a trace path could not be read or decoded",
    "simulation_failed": "the simulation raised instead of finishing",
    "timeout": "the request exceeded the server's time budget",
    "overloaded": "the client's queue is full; retry later",
    "shutting_down": "the server is draining and accepts no new work",
    "internal": "an unexpected server-side error",
}

#: Simulation-engine names accepted by the ``engine`` request field.
SIM_ENGINES = ("scalar", "vectorized", "auto")


class ProtocolError(Exception):
    """A frame violates the protocol.

    ``code`` is one of :data:`ERROR_CODES`; the message is safe to echo
    to the peer.
    """

    def __init__(self, code: str, message: str):
        if code not in ERROR_CODES:
            raise ValueError(f"unknown protocol error code {code!r}")
        super().__init__(message)
        self.code = code
        self.message = message


# ----------------------------------------------------------------------
# Framing.
# ----------------------------------------------------------------------


def encode_frame(obj: dict[str, Any]) -> bytes:
    """One JSON object as a wire frame (compact, ASCII, newline-ended)."""
    return json.dumps(obj, separators=(",", ":"),
                      ensure_ascii=True).encode() + b"\n"


def decode_frame(line: bytes, *,
                 max_bytes: int = DEFAULT_MAX_FRAME_BYTES) -> dict[str, Any]:
    """Parse one received line into a frame dict.

    Raises :class:`ProtocolError` (``too_large`` / ``bad_request``) on
    anything other than a JSON object within the size limit.
    """
    if len(line) > max_bytes:
        raise ProtocolError(
            "too_large",
            f"frame of {len(line)} bytes exceeds the {max_bytes}-byte limit")
    try:
        obj = json.loads(line)
    except ValueError as exc:
        raise ProtocolError("bad_request", f"frame is not JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ProtocolError(
            "bad_request",
            f"frame must be a JSON object, got {type(obj).__name__}")
    return obj


# ----------------------------------------------------------------------
# Response construction.
# ----------------------------------------------------------------------


def ok_response(request_id: Any, op: str,
                payload: dict[str, Any]) -> dict[str, Any]:
    """A success frame: id echo + ok + protocol stamp + the payload."""
    frame: dict[str, Any] = {
        "id": request_id,
        "ok": True,
        "op": op,
        "protocol": PROTOCOL_VERSION,
    }
    frame.update(payload)
    return frame


def error_response(request_id: Any, code: str,
                   message: str) -> dict[str, Any]:
    """An error frame carrying one of the :data:`ERROR_CODES`."""
    if code not in ERROR_CODES:
        code, message = "internal", f"[{code}] {message}"
    return {
        "id": request_id,
        "ok": False,
        "protocol": PROTOCOL_VERSION,
        "error": {"code": code, "message": message},
    }


# ----------------------------------------------------------------------
# Request validation.
# ----------------------------------------------------------------------


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ProtocolError("bad_request", message)


def _check_common_sim_fields(request: dict[str, Any],
                             out: dict[str, Any]) -> None:
    """Validate the fields shared by simulate / suite / sweep."""
    predictor = request.get("predictor", "gshare")
    _require(isinstance(predictor, str) and bool(predictor),
             "'predictor' must be a non-empty string")
    out["predictor"] = predictor

    parameters = request.get("parameters", {})
    _require(isinstance(parameters, dict),
             "'parameters' must be an object of constructor arguments")
    _require(all(isinstance(key, str) for key in parameters),
             "'parameters' keys must be strings")
    out["parameters"] = parameters

    warmup = request.get("warmup", 0)
    _require(isinstance(warmup, int) and not isinstance(warmup, bool)
             and warmup >= 0, "'warmup' must be a non-negative integer")
    out["warmup"] = warmup

    max_instructions = request.get("max_instructions")
    _require(max_instructions is None
             or (isinstance(max_instructions, int)
                 and not isinstance(max_instructions, bool)
                 and max_instructions >= 0),
             "'max_instructions' must be a non-negative integer or null")
    out["max_instructions"] = max_instructions

    engine = request.get("engine")
    _require(engine is None or engine in SIM_ENGINES,
             f"'engine' must be one of {', '.join(SIM_ENGINES)}")
    out["engine"] = engine

    trace_id = request.get("trace_id")
    _require(trace_id is None
             or (isinstance(trace_id, str) and 0 < len(trace_id) <= 128),
             "'trace_id' must be a non-empty string of at most 128 "
             "characters or null")
    out["trace_id"] = trace_id


def _check_traces(request: dict[str, Any], out: dict[str, Any]) -> None:
    traces = request.get("traces")
    _require(isinstance(traces, list) and bool(traces),
             "'traces' must be a non-empty array of trace paths")
    _require(all(isinstance(path, str) and path for path in traces),
             "'traces' entries must be non-empty strings")
    out["traces"] = traces


def validate_request(frame: dict[str, Any]) -> dict[str, Any]:
    """Normalize one request frame, filling defaults.

    Returns a new dict with exactly the fields the named operation
    uses; raises :class:`ProtocolError` (``bad_request`` /
    ``unknown_op``) otherwise.  The ``id`` field passes through
    untouched (any JSON value, default ``None``).
    """
    op = frame.get("op")
    if not isinstance(op, str):
        raise ProtocolError("bad_request", "request needs a string 'op' field")
    if op not in OPERATIONS:
        raise ProtocolError(
            "unknown_op",
            f"unknown op {op!r}; expected one of {', '.join(OPERATIONS)}")
    out: dict[str, Any] = {"op": op, "id": frame.get("id")}

    if op in ("ping", "stats", "shutdown"):
        return out

    if op == "simulate":
        trace = frame.get("trace")
        _require(isinstance(trace, str) and bool(trace),
                 "'trace' must be a non-empty trace path string")
        out["trace"] = trace
        _check_common_sim_fields(frame, out)
        return out

    if op == "suite":
        _check_traces(frame, out)
        _check_common_sim_fields(frame, out)
        return out

    # sweep
    _check_traces(frame, out)
    _check_common_sim_fields(frame, out)
    parameter = frame.get("parameter")
    _require(isinstance(parameter, str) and bool(parameter),
             "'parameter' must be a non-empty constructor parameter name")
    out["parameter"] = parameter
    values = frame.get("values")
    _require(isinstance(values, list) and bool(values),
             "'values' must be a non-empty array of parameter values")
    _require(all(isinstance(value, (int, float, str))
                 and not isinstance(value, bool) for value in values),
             "'values' entries must be numbers or strings")
    out["values"] = values
    return out
