"""Simple Binary Branch Trace (SBBT) — the paper's trace format.

SBBT (Section IV-C) is a small header (Fig. 1) followed by a concatenation
of 128-bit packets (Fig. 2), one per executed branch.  Compared with the
CBP5 framework's plain-text BT9 format it trades a little redundancy for
stream decoding: no graph header, no hashed metadata structure, just a
flat record array — which is exactly what lets this module decode whole
traces in one vectorized numpy pass.

Reader and writer are deliberately independent subcomponents, so tools
that inspect or translate traces can depend on just this package.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    ".compression": ("BEST_CODEC_SUFFIX", "CODEC_SUFFIXES",
                     "available_codecs", "codec_for_path", "open_compressed",
                     "write_all"),
    ".digest": ("DIGEST_ALGORITHM", "payload_digest", "trace_digest"),
    ".header": ("FORMAT_VERSION", "HEADER_SIZE", "SIGNATURE", "SbbtHeader"),
    ".packet": ("MAX_GAP", "PACKET_SIZE", "SbbtPacket", "decode_address",
                "encode_address", "is_encodable_address"),
    ".reader": ("SbbtReader", "decode_payload", "read_trace"),
    ".trace": ("TraceData",),
    ".validate": ("branch_violations", "validate_branch"),
    ".writer": ("SbbtWriter", "encode_payload", "write_trace"),
})

__all__ = [
    "BEST_CODEC_SUFFIX", "CODEC_SUFFIXES", "available_codecs",
    "codec_for_path", "open_compressed", "write_all",
    "DIGEST_ALGORITHM", "payload_digest", "trace_digest",
    "FORMAT_VERSION", "HEADER_SIZE", "SIGNATURE", "SbbtHeader",
    "MAX_GAP", "PACKET_SIZE", "SbbtPacket", "decode_address",
    "encode_address", "is_encodable_address",
    "SbbtReader", "decode_payload", "read_trace",
    "TraceData",
    "branch_violations", "validate_branch",
    "SbbtWriter", "encode_payload", "write_trace",
]
