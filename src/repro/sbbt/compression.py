"""Transparent trace (de)compression.

It is common practice to distribute traces compressed and let the
simulator decompress them on the fly (paper Section IV).  MBPlib supports
xz, gzip, lz4 and zstd and ships its traces in zstd level 22.

This reproduction supports every codec available in the Python standard
library — gzip, bzip2 and xz/LZMA — plus zstandard *if* a ``zstandard``
module happens to be installed.  Since zstd is not available offline, the
role of "modern high-ratio codec" in the Table I / Table IV experiments is
played by **xz at preset 9**, and that substitution is recorded in
DESIGN.md.

The codec is chosen from the file suffix, exactly like MBPlib does:
``trace.sbbt.zst`` → zstd, ``trace.sbbt.xz`` → xz, bare ``trace.sbbt`` →
no compression.
"""

from __future__ import annotations

import bz2
import gzip
import lzma
import os
from pathlib import Path
from typing import BinaryIO

from ..core.errors import TraceFormatError

__all__ = [
    "CODEC_SUFFIXES",
    "BEST_CODEC_SUFFIX",
    "available_codecs",
    "codec_for_path",
    "open_compressed",
]

try:  # pragma: no cover - exercised only where zstandard is installed
    import zstandard as _zstd
except ImportError:  # pragma: no cover
    _zstd = None

#: Suffix → codec name for every codec this module knows about.
CODEC_SUFFIXES = {
    ".gz": "gzip",
    ".bz2": "bzip2",
    ".xz": "xz",
    ".zst": "zstd",
}

#: The best-ratio codec available offline; stands in for MBPlib's zstd -22.
BEST_CODEC_SUFFIX = ".xz"

#: Compression levels used when writing, tuned like the paper: the maximum
#: ratio of the chosen codec ("we use the biggest compression ratio
#: available").
_WRITE_LEVELS = {"gzip": 9, "bzip2": 9, "xz": 9, "zstd": 19}


def available_codecs() -> tuple[str, ...]:
    """Names of codecs usable in this environment."""
    codecs = ["gzip", "bzip2", "xz"]
    if _zstd is not None:  # pragma: no cover
        codecs.append("zstd")
    return tuple(codecs)


def codec_for_path(path: str | Path) -> str | None:
    """The codec implied by ``path``'s suffix, or ``None`` for raw files."""
    suffix = Path(path).suffix.lower()
    return CODEC_SUFFIXES.get(suffix)


def open_compressed(path: str | Path, mode: str = "rb") -> BinaryIO:
    """Open ``path`` with transparent (de)compression based on its suffix.

    ``mode`` must be ``"rb"`` or ``"wb"``.  Raises
    :class:`~repro.core.errors.TraceFormatError` when the suffix names a
    codec that is not available in this environment.
    """
    if mode not in ("rb", "wb"):
        raise ValueError(f"mode must be 'rb' or 'wb', got {mode!r}")
    codec = codec_for_path(path)
    path = Path(path)
    if codec is None:
        return open(path, mode)
    if codec == "gzip":
        level = _WRITE_LEVELS["gzip"] if mode == "wb" else 9
        return gzip.open(path, mode, compresslevel=level)
    if codec == "bzip2":
        return bz2.open(path, mode, compresslevel=_WRITE_LEVELS["bzip2"])
    if codec == "xz":
        if mode == "wb":
            return lzma.open(path, mode, preset=_WRITE_LEVELS["xz"])
        return lzma.open(path, mode)
    if codec == "zstd":
        if _zstd is None:
            raise TraceFormatError(
                f"{path} is zstd-compressed but the 'zstandard' module is "
                f"not installed; recompress with one of {available_codecs()}"
            )
        if mode == "rb":  # pragma: no cover
            return _zstd.ZstdDecompressor().stream_reader(open(path, "rb"))
        cctx = _zstd.ZstdCompressor(level=_WRITE_LEVELS["zstd"])  # pragma: no cover
        return cctx.stream_writer(open(path, "wb"))  # pragma: no cover
    raise TraceFormatError(f"unknown codec {codec!r} for {path}")  # pragma: no cover


def write_all(path: str | Path, payload: bytes) -> int:
    """Compress and write ``payload`` to ``path``; returns on-disk size.
    The file is written in a fresh directory beside ``path`` and renamed
    into place: readers never see half a file, a rewrite makes a new
    inode, and a failed write leaves the old file."""
    import tempfile

    path = Path(path)
    staging = Path(tempfile.mkdtemp(prefix=".", dir=path.parent))
    temp = staging / path.name
    try:
        with open_compressed(temp, "wb") as stream:
            stream.write(payload)
        os.replace(temp, path)
    finally:
        temp.unlink(missing_ok=True)
        staging.rmdir()
    return path.stat().st_size


__all__ += ["write_all"]
