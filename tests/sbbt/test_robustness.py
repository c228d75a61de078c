"""Robustness and failure-injection tests for the trace stack.

A trace reader that segfaults-by-exception on hostile input is a
security and usability bug; everything here asserts the only outcomes
for malformed input are the library's typed errors.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.champsim import read_instruction_trace
from repro.baselines.cbp5 import bt9_to_trace_data, iter_bt9
from repro.core.errors import TraceError, TraceFormatError
from repro.sbbt.header import HEADER_SIZE
from repro.sbbt.reader import SbbtReader, decode_payload, read_trace
from repro.sbbt.writer import encode_payload, write_trace
from tests.conftest import make_trace


def _valid_payload(n=8):
    trace = make_trace([0x4000 + 16 * i for i in range(n)],
                       [i % 2 == 0 for i in range(n)],
                       gaps=[i % 7 for i in range(n)])
    return encode_payload(trace)


class TestDecoderFuzz:
    @settings(max_examples=200)
    @given(st.binary(max_size=512))
    def test_arbitrary_bytes_never_crash(self, payload):
        """Random bytes either decode (astronomically unlikely) or raise
        the library's typed trace errors — nothing else."""
        try:
            decode_payload(payload)
        except TraceError:
            pass

    @settings(max_examples=200)
    @given(st.integers(min_value=0, max_value=10_000),
           st.integers(min_value=0, max_value=255))
    def test_single_byte_corruption_detected_or_consistent(self, position,
                                                           value):
        """Flipping one byte of a valid payload must never produce an
        undetected *structural* inconsistency: either the decoder raises,
        or it yields a trace whose column invariants hold."""
        payload = bytearray(_valid_payload())
        position %= len(payload)
        payload[position] = value
        try:
            trace = decode_payload(bytes(payload))
        except TraceError:
            return
        conditional = (trace.opcodes & 1).astype(bool)
        # Rule 1 and rule 2 must hold in anything the validator passed.
        assert bool(np.all(trace.taken[~conditional]))
        indirect = (trace.opcodes & 2).astype(bool)
        bad = conditional & indirect & ~trace.taken & (trace.targets != 0)
        assert not bad.any()

    @settings(max_examples=100)
    @given(st.integers(min_value=0, max_value=200))
    def test_truncation_detected(self, cut):
        payload = _valid_payload()
        cut = min(cut, len(payload) - 1)
        truncated = payload[:len(payload) - 1 - cut]
        if len(truncated) >= HEADER_SIZE:
            with pytest.raises(TraceFormatError):
                decode_payload(truncated)
        else:
            with pytest.raises(TraceFormatError):
                decode_payload(truncated)


class TestFileFailureInjection:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.sbbt"
        path.write_bytes(b"")
        with pytest.raises(TraceFormatError):
            read_trace(path)

    def test_corrupted_gzip_container(self, tmp_path):
        trace = make_trace([0x4000], [True])
        path = tmp_path / "t.sbbt.gz"
        write_trace(path, trace)
        payload = bytearray(path.read_bytes())
        payload[len(payload) // 2] ^= 0xFF
        path.write_bytes(bytes(payload))
        with pytest.raises(Exception):  # zlib error or TraceFormatError
            read_trace(path)

    def test_header_lies_about_branch_count(self, tmp_path):
        payload = bytearray(_valid_payload(n=4))
        # Inflate the branch count field (bytes 16..24).
        payload[16:24] = (100).to_bytes(8, "little")
        # Keep the instruction count consistent so only the body check
        # can fire.
        payload[8:16] = (1000).to_bytes(8, "little")
        path = tmp_path / "liar.sbbt"
        path.write_bytes(bytes(payload))
        with pytest.raises(TraceFormatError, match="truncated"):
            read_trace(path)
        with pytest.raises(TraceFormatError):
            with SbbtReader(path) as reader:
                list(reader)

    @staticmethod
    def _xz_bomb(path, head=b"", mebibytes=64):
        """``head`` then ``mebibytes`` MiB of zeros, xz-compressed (~10 KB)."""
        import lzma

        zeros = bytes(1 << 20)
        with lzma.open(path, "wb", preset=0) as stream:
            stream.write(head)
            for _ in range(mebibytes):
                stream.write(zeros)
        return path

    @staticmethod
    def _peak_bytes(action):
        import tracemalloc

        tracemalloc.start()
        try:
            action()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_bad_signature_bomb_rejected_in_bounded_memory(self, tmp_path):
        """The signature sits in the first 5 bytes: rejecting it must not
        decompress the 64 MiB behind it."""
        bomb = self._xz_bomb(tmp_path / "bomb.sbbt.xz")

        def read():
            with pytest.raises(TraceFormatError, match="signature"):
                read_trace(bomb)

        assert self._peak_bytes(read) < 1 << 20

    def test_trailing_bytes_bomb_rejected_in_bounded_memory(self, tmp_path):
        """A valid header promising 4 packets, then 64 MiB of zeros: the
        body read stops one byte past the promise."""
        bomb = self._xz_bomb(tmp_path / "bomb.sbbt.xz",
                             head=_valid_payload(n=4))

        def read():
            with pytest.raises(TraceFormatError, match="trailing bytes"):
                read_trace(bomb)

        assert self._peak_bytes(read) < 1 << 20

    def test_header_promising_huge_body_is_a_format_error(self, tmp_path):
        """A promise no memory could hold is read block by block until
        the file runs out, then reported as truncation."""
        payload = bytearray(_valid_payload(n=4))
        payload[8:24] = ((1 << 64) - 1).to_bytes(8, "little") * 2
        path = tmp_path / "liar.sbbt"
        path.write_bytes(bytes(payload))
        with pytest.raises(TraceFormatError, match="truncated"):
            read_trace(path)

    def test_directory_instead_of_file(self, tmp_path):
        with pytest.raises(OSError):
            read_trace(tmp_path)

    def test_bt9_garbage_lines(self, tmp_path):
        path = tmp_path / "bad.bt9"
        path.write_text(
            "BT9_SPA_TRACE_FORMAT\n"
            "total_instruction_count: 10\n"
            "branch_instruction_count: 1\n"
            "BT9_NODES\nNODE zero 0x0 0x0 cond+jump 4\n"
            "BT9_EDGES\nBT9_EDGE_SEQUENCE\n0\n"
        )
        with pytest.raises((TraceFormatError, ValueError, KeyError)):
            list(iter_bt9(path))

    def test_bt9_sequence_references_unknown_edge(self, tmp_path):
        path = tmp_path / "dangling.bt9"
        path.write_text(
            "BT9_SPA_TRACE_FORMAT\n"
            "total_instruction_count: 10\n"
            "branch_instruction_count: 1\n"
            "BT9_NODES\n"
            "BT9_EDGES\n"
            "BT9_EDGE_SEQUENCE\n"
            "7\n"
        )
        with pytest.raises(KeyError):
            list(iter_bt9(path))

    def test_bt9_count_mismatch(self, tmp_path):
        from repro.baselines.cbp5 import write_bt9

        trace = make_trace([0x4000, 0x4010], [True, False])
        path = tmp_path / "t.bt9"
        write_bt9(path, trace)
        text = path.read_text().replace(
            "branch_instruction_count: 2",
            "branch_instruction_count: 3")
        path.write_text(text)
        with pytest.raises(TraceFormatError, match="promises"):
            bt9_to_trace_data(path)

    def test_champsim_trace_empty(self, tmp_path):
        path = tmp_path / "t.champsim"
        path.write_bytes(b"")
        with pytest.raises(TraceFormatError):
            read_instruction_trace(path)
