"""Round-trip and validation tests for the SBBT reader/writer pair."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.branch import Branch, Opcode
from repro.core.errors import TraceFormatError, TraceValidationError
from repro.sbbt.header import HEADER_SIZE, SbbtHeader
from repro.sbbt.packet import PACKET_SIZE, SbbtPacket
from repro.sbbt.reader import SbbtReader, decode_payload, read_trace
from repro.sbbt.trace import ITER_BLOCK_ROWS, TraceData
from repro.sbbt.writer import SbbtWriter, encode_payload, write_trace
from tests.conftest import OPCODE_COND_JUMP, OPCODE_JUMP, make_branch, make_trace


@st.composite
def trace_data(draw, max_branches=200):
    """Random valid TraceData (conditional direct jumps + plain jumps)."""
    n = draw(st.integers(min_value=0, max_value=max_branches))
    ips = draw(st.lists(
        st.integers(min_value=0x1000, max_value=(1 << 48) - 1),
        min_size=n, max_size=n))
    conditional = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    taken_bits = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    gaps = draw(st.lists(st.integers(min_value=0, max_value=4095),
                         min_size=n, max_size=n))
    opcodes = np.array(
        [int(OPCODE_COND_JUMP) if c else int(OPCODE_JUMP)
         for c in conditional], dtype=np.uint8)
    taken = np.array(
        [t if c else True for c, t in zip(conditional, taken_bits)],
        dtype=bool)
    ips_array = np.array(ips, dtype=np.uint64)
    return TraceData(
        ips=ips_array,
        targets=ips_array + np.uint64(4),
        opcodes=opcodes, taken=taken,
        gaps=np.array(gaps, dtype=np.uint16),
        num_instructions=n + int(np.sum(gaps, dtype=np.int64)),
    )


class TestBulkRoundTrip:
    @settings(max_examples=30)
    @given(trace_data())
    def test_encode_decode_payload(self, trace):
        assert decode_payload(encode_payload(trace)) == trace

    def test_payload_size(self):
        trace = make_trace([0x4000, 0x4010], [True, False])
        payload = encode_payload(trace)
        assert len(payload) == HEADER_SIZE + 2 * PACKET_SIZE

    @pytest.mark.parametrize("suffix", ["", ".gz", ".xz", ".bz2"])
    def test_file_round_trip_all_codecs(self, tmp_path, suffix):
        trace = make_trace([0x4000, 0x4010, 0x4000],
                           [True, False, True],
                           gaps=[2, 0, 9])
        path = tmp_path / f"trace.sbbt{suffix}"
        size = write_trace(path, trace)
        assert size == path.stat().st_size
        assert read_trace(path) == trace

    def test_rewrite_replaces_the_file(self, tmp_path):
        path = tmp_path / "trace.sbbt.xz"
        write_trace(path, make_trace([0x4000], [True]))
        inode = path.stat().st_ino
        new = make_trace([0x4000, 0x4010], [True, False])
        write_trace(path, new)
        assert path.stat().st_ino != inode
        assert read_trace(path) == new

    def test_failed_write_keeps_the_old_trace(self, tmp_path, monkeypatch):
        import repro.sbbt.compression as compression

        old = make_trace([0x4000, 0x4010], [True, False])
        path = tmp_path / "trace.sbbt.xz"
        write_trace(path, old)
        original = compression.open_compressed

        class Failing:
            def __init__(self, stream):
                self.stream = stream

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                self.stream.close()

            def write(self, payload):
                self.stream.write(payload[:len(payload) // 2])
                raise OSError("disk full")

        monkeypatch.setattr(compression, "open_compressed",
                            lambda p, mode: Failing(original(p, mode)))
        with pytest.raises(OSError, match="disk full"):
            write_trace(path, make_trace([0x5000], [True]))
        assert [p.name for p in tmp_path.iterdir()] == [path.name]
        assert read_trace(path) == old

    def test_empty_trace_round_trip(self, tmp_path):
        trace = TraceData.empty()
        path = tmp_path / "empty.sbbt"
        write_trace(path, trace)
        loaded = read_trace(path)
        assert len(loaded) == 0
        assert loaded.num_instructions == 0


class TestBulkValidation:
    def test_rule1_rejected_on_encode(self):
        trace = make_trace([0x4000], [False],
                           opcodes=[int(OPCODE_JUMP)])
        with pytest.raises(TraceValidationError, match="rule 1"):
            encode_payload(trace)

    def test_rule2_rejected_on_encode(self):
        opcode = Opcode(0b0011)  # conditional indirect jump
        trace = make_trace([0x4000], [False], opcodes=[int(opcode)],
                           targets=[0x5000])
        with pytest.raises(TraceValidationError, match="rule 2"):
            encode_payload(trace)

    def test_non_canonical_ip_rejected_on_encode(self):
        trace = make_trace([1 << 52], [True])
        with pytest.raises(TraceValidationError, match="canonical"):
            encode_payload(trace)

    def test_truncated_body_rejected(self):
        trace = make_trace([0x4000, 0x4010], [True, True])
        payload = encode_payload(trace)
        with pytest.raises(TraceFormatError, match="truncated"):
            decode_payload(payload[:-1])

    def test_trailing_bytes_rejected(self):
        trace = make_trace([0x4000], [True])
        payload = encode_payload(trace)
        with pytest.raises(TraceFormatError, match="trailing"):
            decode_payload(payload + b"\x00" * 16)

    def test_decode_detects_rule1(self):
        trace = make_trace([0x4000], [True], opcodes=[int(OPCODE_JUMP)])
        payload = bytearray(encode_payload(trace))
        payload[HEADER_SIZE + 1] &= ~0x08  # clear the outcome bit
        with pytest.raises(TraceFormatError, match="rule 1"):
            decode_payload(bytes(payload))
        decoded = decode_payload(bytes(payload), validate=False)
        assert not decoded.taken[0]

    def test_read_trace_includes_path_in_error(self, tmp_path):
        path = tmp_path / "bad.sbbt"
        path.write_bytes(b"NOT A TRACE AT ALL....")
        with pytest.raises(TraceFormatError, match="bad.sbbt"):
            read_trace(path)


class TestStreamingWriter:
    def test_streaming_writer_matches_bulk(self, tmp_path):
        trace = make_trace([0x4000, 0x4010, 0x4020],
                           [True, False, True], gaps=[1, 2, 3])
        path = tmp_path / "stream.sbbt"
        with SbbtWriter(path) as writer:
            for branch, gap in trace.iter_branches():
                writer.write_branch(branch, gap)
        assert read_trace(path) == trace

    def test_trailing_instructions_counted(self, tmp_path):
        path = tmp_path / "t.sbbt"
        with SbbtWriter(path) as writer:
            writer.write_branch(make_branch(), gap=5)
            writer.add_instructions(10)
        header = SbbtHeader.decode(path.read_bytes())
        assert header.num_instructions == 16  # 5 gap + 1 branch + 10 tail
        assert header.num_branches == 1

    def test_writer_validates_gap(self, tmp_path):
        writer = SbbtWriter(tmp_path / "t.sbbt")
        with pytest.raises(TraceValidationError):
            writer.write_branch(make_branch(), gap=4096)

    def test_writer_validates_branch(self, tmp_path):
        writer = SbbtWriter(tmp_path / "t.sbbt")
        with pytest.raises(TraceValidationError):
            writer.write_branch(make_branch(opcode=OPCODE_JUMP, taken=False))

    def test_writer_validates_addresses(self, tmp_path):
        writer = SbbtWriter(tmp_path / "t.sbbt")
        with pytest.raises(TraceValidationError, match="canonical"):
            writer.write_branch(make_branch(ip=1 << 53))

    def test_write_after_close_rejected(self, tmp_path):
        writer = SbbtWriter(tmp_path / "t.sbbt")
        writer.close()
        with pytest.raises(ValueError):
            writer.write_branch(make_branch())

    def test_write_packet(self, tmp_path):
        path = tmp_path / "t.sbbt"
        with SbbtWriter(path) as writer:
            writer.write_packet(SbbtPacket(branch=make_branch(), gap=4))
        assert len(read_trace(path)) == 1


class TestStreamingReader:
    def test_streaming_matches_bulk(self, tmp_path, small_trace):
        path = tmp_path / "t.sbbt.gz"
        write_trace(path, small_trace)
        with SbbtReader(path) as reader:
            packets = list(reader)
        assert reader.packets_read == len(small_trace)
        bulk = read_trace(path)
        for i in (0, 1, len(packets) // 2, len(packets) - 1):
            assert packets[i] == bulk.packet(i)

    def test_header_available_before_iteration(self, tmp_path):
        trace = make_trace([0x4000], [True], gaps=[3])
        path = tmp_path / "t.sbbt"
        write_trace(path, trace)
        with SbbtReader(path) as reader:
            assert reader.header.num_branches == 1
            assert reader.header.num_instructions == 4

    def test_truncated_stream_detected(self, tmp_path):
        trace = make_trace([0x4000, 0x4010], [True, True])
        path = tmp_path / "t.sbbt"
        payload = encode_payload(trace)
        path.write_bytes(payload[:-PACKET_SIZE])  # drop the last packet
        with SbbtReader(path) as reader:
            with pytest.raises(TraceFormatError, match="truncated"):
                list(reader)

    def test_bad_buffer_size_rejected(self, tmp_path):
        trace = make_trace([0x4000], [True])
        path = tmp_path / "t.sbbt"
        write_trace(path, trace)
        with pytest.raises(ValueError):
            SbbtReader(path, buffer_packets=0)

    def test_small_buffer_still_correct(self, tmp_path):
        trace = make_trace([0x4000 + 16 * i for i in range(50)],
                           [i % 3 != 0 for i in range(50)])
        path = tmp_path / "t.sbbt"
        write_trace(path, trace)
        with SbbtReader(path, buffer_packets=1) as reader:
            assert len(list(reader)) == 50


class TestTraceData:
    def test_instruction_numbers(self):
        trace = make_trace([0x4000, 0x4010], [True, True], gaps=[3, 0])
        assert trace.instruction_numbers().tolist() == [4, 5]

    def test_conditional_mask_and_count(self):
        trace = make_trace([0x4000, 0x4010], [True, True],
                           opcodes=[int(OPCODE_COND_JUMP), int(OPCODE_JUMP)])
        assert trace.conditional_mask().tolist() == [True, False]
        assert trace.num_conditional_branches == 1

    def test_slice(self):
        trace = make_trace([0x4000, 0x4010, 0x4020],
                           [True, False, True], gaps=[1, 2, 3])
        sliced = trace.slice(1, 3)
        assert len(sliced) == 2
        assert sliced.num_instructions == 7
        assert sliced.ips.tolist() == [0x4010, 0x4020]

    def test_branch_and_packet_accessors(self):
        trace = make_trace([0x4000], [False], gaps=[2])
        branch = trace.branch(0)
        assert isinstance(branch, Branch)
        assert branch.ip == 0x4000 and branch.taken is False
        packet = trace.packet(0)
        assert packet.gap == 2

    def test_mismatched_columns_rejected(self):
        with pytest.raises(ValueError, match="mismatched"):
            TraceData(np.zeros(2, np.uint64), np.zeros(1, np.uint64),
                      np.zeros(2, np.uint8), np.zeros(2, bool),
                      np.zeros(2, np.uint16), 2)

    def test_undersized_instruction_count_rejected(self):
        with pytest.raises(ValueError, match="below"):
            make_trace([0x4000], [True], gaps=[5], num_instructions=3)

    def test_from_packets(self):
        packets = [SbbtPacket(branch=make_branch(ip=0x4000 + 16 * i), gap=i)
                   for i in range(5)]
        trace = TraceData.from_packets(packets)
        assert len(trace) == 5
        assert trace.num_instructions == 5 + sum(range(5))
        assert trace.packet(3) == packets[3]

    def test_iter_branches_crosses_block_boundaries(self):
        # More than two blocks of ITER_BLOCK_ROWS, the last one partial.
        n = 2 * ITER_BLOCK_ROWS + 1000
        rng = np.random.default_rng(18)
        ips = rng.integers(0x1000, 1 << 48, n, dtype=np.uint64)
        targets = rng.integers(0, 1 << 48, n, dtype=np.uint64)
        opcodes = rng.integers(0, 12, n, dtype=np.uint8)  # no reserved
        taken = rng.random(n) < 0.6
        gaps = rng.integers(0, 4096, n, dtype=np.uint16)
        trace = TraceData(ips, targets, opcodes, taken, gaps,
                          n + int(gaps.sum(dtype=np.int64)))
        expected = [
            (Branch(ip, target, Opcode(op), bool(t)), gap)
            for ip, target, op, t, gap in zip(
                ips.tolist(), targets.tolist(), opcodes.tolist(),
                taken.tolist(), gaps.tolist())
        ]
        got = list(trace.iter_branches())
        assert got == expected
        assert all(type(branch) is Branch and type(branch.opcode) is Opcode
                   and type(branch.taken) is bool and type(gap) is int
                   for branch, gap in got)

    def test_iter_branches_rejects_reserved_opcode(self):
        trace = make_trace([0x4000, 0x4010], [True, True],
                           opcodes=[int(OPCODE_COND_JUMP), 0b1100])
        with pytest.raises(TraceValidationError, match="reserved"):
            next(trace.iter_branches())
