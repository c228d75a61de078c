"""Tests for the transparent compression layer."""

import pytest

from repro.core.errors import TraceFormatError
from repro.sbbt.compression import (
    BEST_CODEC_SUFFIX,
    available_codecs,
    codec_for_path,
    open_compressed,
    write_all,
)


class TestCodecSelection:
    def test_suffix_mapping(self):
        assert codec_for_path("t.sbbt.gz") == "gzip"
        assert codec_for_path("t.sbbt.xz") == "xz"
        assert codec_for_path("t.sbbt.bz2") == "bzip2"
        assert codec_for_path("t.sbbt.zst") == "zstd"
        assert codec_for_path("t.sbbt") is None

    def test_case_insensitive(self):
        assert codec_for_path("T.SBBT.GZ") == "gzip"

    def test_best_codec_available(self):
        # The zstd stand-in must actually exist in this environment.
        assert BEST_CODEC_SUFFIX == ".xz"
        assert "xz" in available_codecs()

    def test_stdlib_codecs_always_available(self):
        codecs = available_codecs()
        for name in ("gzip", "bzip2", "xz"):
            assert name in codecs


class TestRoundTrips:
    PAYLOAD = b"SBBT\n" + bytes(range(256)) * 40

    @pytest.mark.parametrize("suffix", ["", ".gz", ".xz", ".bz2"])
    def test_write_read_round_trip(self, tmp_path, suffix):
        path = tmp_path / f"blob{suffix}"
        size = write_all(path, self.PAYLOAD)
        assert size == path.stat().st_size
        with open_compressed(path, "rb") as stream:
            assert stream.read() == self.PAYLOAD

    @pytest.mark.parametrize("suffix", [".gz", ".xz", ".bz2"])
    def test_compression_reduces_redundant_payload(self, tmp_path, suffix):
        payload = b"A" * 100_000
        path = tmp_path / f"blob{suffix}"
        size = write_all(path, payload)
        assert size < len(payload) // 10

    def test_streaming_interface(self, tmp_path):
        path = tmp_path / "blob.gz"
        with open_compressed(path, "wb") as stream:
            stream.write(b"hello ")
            stream.write(b"world")
        with open_compressed(path, "rb") as stream:
            assert stream.read() == b"hello world"


class TestErrors:
    def test_invalid_mode(self, tmp_path):
        with pytest.raises(ValueError):
            open_compressed(tmp_path / "x.gz", "r")

    def test_zstd_without_module(self, tmp_path):
        pytest.importorskip_reason = None
        try:
            import zstandard  # noqa: F401
            pytest.skip("zstandard installed; error path not reachable")
        except ImportError:
            pass
        path = tmp_path / "t.sbbt.zst"
        path.write_bytes(b"")
        with pytest.raises(TraceFormatError, match="zstd"):
            open_compressed(path, "rb")
