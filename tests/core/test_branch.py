"""Tests for the branch model and opcode encoding."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.branch import (
    Branch,
    BranchType,
    OPCODE_CALL,
    OPCODE_COND_JUMP,
    OPCODE_IND_CALL,
    OPCODE_IND_JUMP,
    OPCODE_JUMP,
    OPCODE_RET,
    Opcode,
)


class TestOpcodeEncoding:
    def test_bit0_is_conditional(self):
        assert Opcode(0b0001).is_conditional
        assert not Opcode(0b0000).is_conditional

    def test_bit1_is_indirect(self):
        assert Opcode(0b0010).is_indirect
        assert not Opcode(0b0000).is_indirect

    def test_base_type_bits(self):
        # JUMP=00, RET=01, CALL=10 in bits 2-3 (paper Section IV-C).
        assert Opcode(0b0000).branch_type is BranchType.JUMP
        assert Opcode(0b0100).branch_type is BranchType.RET
        assert Opcode(0b1000).branch_type is BranchType.CALL

    def test_reserved_type_rejected(self):
        with pytest.raises(ValueError, match="reserved"):
            Opcode(0b1100)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Opcode(16)
        with pytest.raises(ValueError):
            Opcode(-1)

    @given(st.booleans(), st.booleans(),
           st.sampled_from(list(BranchType)))
    def test_encode_decode_round_trip(self, conditional, indirect, base):
        opcode = Opcode.encode(conditional=conditional, indirect=indirect,
                               branch_type=base)
        assert opcode.is_conditional == conditional
        assert opcode.is_indirect == indirect
        assert opcode.branch_type == base

    def test_is_int_subclass(self):
        assert isinstance(OPCODE_COND_JUMP, int)
        assert OPCODE_COND_JUMP & 1 == 1

    def test_named_opcodes(self):
        assert OPCODE_COND_JUMP.is_conditional
        assert not OPCODE_JUMP.is_conditional
        assert OPCODE_IND_JUMP.is_indirect
        assert OPCODE_CALL.is_call
        assert OPCODE_IND_CALL.is_call and OPCODE_IND_CALL.is_indirect
        assert OPCODE_RET.is_return

    def test_mnemonics(self):
        assert OPCODE_COND_JUMP.mnemonic() == "cond jump"
        assert OPCODE_IND_CALL.mnemonic() == "ind call"
        assert OPCODE_RET.mnemonic() == "ind ret"

    def test_repr(self):
        assert "0b" in repr(OPCODE_COND_JUMP)


class TestBranch:
    def test_fields_and_is_taken(self):
        branch = Branch(0x4000, 0x5000, OPCODE_COND_JUMP, True)
        assert branch.ip == 0x4000
        assert branch.target == 0x5000
        assert branch.is_taken() is True
        assert branch.taken is True

    def test_shorthand_properties(self):
        branch = Branch(0, 0, OPCODE_IND_JUMP, True)
        assert branch.is_indirect
        assert not branch.is_conditional

    def test_with_outcome_creates_copy(self):
        original = Branch(0x4000, 0x5000, OPCODE_COND_JUMP, True)
        flipped = original.with_outcome(False)
        assert flipped.taken is False
        assert flipped.ip == original.ip
        assert original.taken is True  # frozen; untouched

    def test_frozen(self):
        branch = Branch(0, 0, OPCODE_COND_JUMP, True)
        with pytest.raises(AttributeError):
            branch.taken = False

    def test_equality(self):
        a = Branch(1, 2, OPCODE_COND_JUMP, True)
        b = Branch(1, 2, OPCODE_COND_JUMP, True)
        assert a == b


class TestBranchIsATuple:
    """``Branch`` is an immutable 4-tuple ``(ip, target, opcode, taken)``."""

    def test_len(self):
        assert len(Branch(0x4000, 0x5000, OPCODE_COND_JUMP, True)) == 4

    def test_unpacks_in_field_order(self):
        ip, target, opcode, taken = Branch(0x4000, 0x5000, OPCODE_CALL,
                                           False)
        assert (ip, target, opcode, taken) == (0x4000, 0x5000, OPCODE_CALL,
                                               False)
        assert opcode is OPCODE_CALL

    def test_equal_and_hash_as_plain_tuple(self):
        branch = Branch(0x4000, 0x5000, OPCODE_COND_JUMP, True)
        plain = (0x4000, 0x5000, OPCODE_COND_JUMP, True)
        assert branch == plain and plain == branch
        assert hash(branch) == hash(plain)
        assert branch != (0x4000, 0x5000, OPCODE_COND_JUMP, False)
        assert {plain: "found"}[branch] == "found"

    @pytest.mark.parametrize("field", ["ip", "target", "opcode", "taken"])
    def test_field_assignment_raises(self, field):
        branch = Branch(0, 0, OPCODE_COND_JUMP, True)
        with pytest.raises(AttributeError):
            setattr(branch, field, 1)
        assert branch == (0, 0, OPCODE_COND_JUMP, True)

    def test_new_attribute_raises(self):
        branch = Branch(0, 0, OPCODE_COND_JUMP, True)
        with pytest.raises(AttributeError):
            branch.gap = 3

    def test_built_from_a_tuple_in_c(self):
        # The trace reader's construction: tuple.__new__, no Python code.
        branch = tuple.__new__(Branch, (0x4000, 0x5000, OPCODE_JUMP, True))
        assert type(branch) is Branch
        assert branch == Branch(0x4000, 0x5000, OPCODE_JUMP, True)
        assert branch.target == 0x5000 and not branch.is_conditional
