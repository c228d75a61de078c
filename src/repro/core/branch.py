"""The branch model shared by every simulator and trace format.

A branch is its instruction address (``ip``), its target, a 4-bit
:class:`Opcode` and an outcome.  The opcode encoding follows the SBBT
specification (paper Section IV-C), which itself follows the BT9 notion of
opcode:

* bit 0 — the branch is **conditional**
* bit 1 — the branch is **indirect**
* bits 2–3 — the base type: ``JUMP`` (``00``), ``RET`` (``01``),
  ``CALL`` (``10``)

Branches that push to or pop from the return-address stack are labelled
CALL and RET respectively; everything else is a JUMP.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

__all__ = ["BranchType", "Opcode", "Branch"]


class BranchType(enum.IntEnum):
    """Base type of a branch, as stored in opcode bits 2-3."""

    JUMP = 0b00
    RET = 0b01
    CALL = 0b10


class Opcode(int):
    """A 4-bit branch opcode with named accessors.

    ``Opcode`` is an ``int`` subclass so it packs directly into SBBT
    packets while still reading naturally in predictor code
    (``b.opcode.is_conditional``).

    >>> op = Opcode.encode(conditional=True, indirect=False,
    ...                    branch_type=BranchType.JUMP)
    >>> op.is_conditional, op.is_indirect, op.branch_type
    (True, False, <BranchType.JUMP: 0>)
    """

    __slots__ = ()

    _CONDITIONAL_BIT = 1 << 0
    _INDIRECT_BIT = 1 << 1
    _TYPE_SHIFT = 2

    def __new__(cls, value: int = 0) -> "Opcode":
        value = int(value)
        if not 0 <= value < 16:
            raise ValueError(f"opcode must fit in 4 bits, got {value}")
        if (value >> cls._TYPE_SHIFT) == 0b11:
            raise ValueError(f"opcode {value:#x} uses the reserved base type 0b11")
        return super().__new__(cls, value)

    @classmethod
    def encode(cls, *, conditional: bool, indirect: bool,
               branch_type: BranchType) -> "Opcode":
        """Build an opcode from its three fields."""
        value = (int(BranchType(branch_type)) << cls._TYPE_SHIFT)
        if conditional:
            value |= cls._CONDITIONAL_BIT
        if indirect:
            value |= cls._INDIRECT_BIT
        return cls(value)

    @property
    def is_conditional(self) -> bool:
        """Whether the branch outcome depends on a condition."""
        return bool(self & self._CONDITIONAL_BIT)

    @property
    def is_indirect(self) -> bool:
        """Whether the target comes from a register/memory value."""
        return bool(self & self._INDIRECT_BIT)

    @property
    def branch_type(self) -> BranchType:
        """The JUMP/CALL/RET base type."""
        return BranchType(int(self) >> self._TYPE_SHIFT)

    @property
    def is_call(self) -> bool:
        """Whether the branch pushes to the return-address stack."""
        return self.branch_type is BranchType.CALL

    @property
    def is_return(self) -> bool:
        """Whether the branch pops from the return-address stack."""
        return self.branch_type is BranchType.RET

    def mnemonic(self) -> str:
        """A short human-readable opcode name, e.g. ``"cond jump"``."""
        parts = []
        if self.is_conditional:
            parts.append("cond")
        if self.is_indirect:
            parts.append("ind")
        parts.append(self.branch_type.name.lower())
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Opcode({int(self):#06b})"


# Frequently used opcodes, named for convenience in tests and generators.
OPCODE_COND_JUMP = Opcode.encode(conditional=True, indirect=False,
                                 branch_type=BranchType.JUMP)
OPCODE_JUMP = Opcode.encode(conditional=False, indirect=False,
                            branch_type=BranchType.JUMP)
OPCODE_IND_JUMP = Opcode.encode(conditional=False, indirect=True,
                                branch_type=BranchType.JUMP)
OPCODE_CALL = Opcode.encode(conditional=False, indirect=False,
                            branch_type=BranchType.CALL)
OPCODE_IND_CALL = Opcode.encode(conditional=False, indirect=True,
                                branch_type=BranchType.CALL)
OPCODE_RET = Opcode.encode(conditional=False, indirect=True,
                           branch_type=BranchType.RET)

__all__ += [
    "OPCODE_COND_JUMP", "OPCODE_JUMP", "OPCODE_IND_JUMP",
    "OPCODE_CALL", "OPCODE_IND_CALL", "OPCODE_RET",
]


class Branch(NamedTuple):
    """One executed branch: the unit the predictor interface consumes.

    This mirrors ``mbp::Branch``: the simulator hands it to
    :meth:`repro.core.predictor.Predictor.train` and ``track``.  Meta-
    predictors are free to construct synthetic ``Branch`` values (the
    generalized tournament in Listing 4 trains its chooser with a branch
    whose *outcome* encodes which sub-predictor was right).

    A ``Branch`` is an immutable tuple subclass (a ``NamedTuple``), so
    the trace reader builds one per record in C and its field getters
    are C-level.  It behaves as the 4-tuple ``(ip, target, opcode,
    taken)``: ``len(branch) == 4``, it unpacks as
    ``ip, target, opcode, taken = branch``, and it equals (and hashes
    like) the plain tuple of its fields.  Assigning a field raises
    :class:`AttributeError`.

    >>> branch = Branch(0x4000, 0x5000, OPCODE_COND_JUMP, True)
    >>> ip, target, opcode, taken = branch
    >>> branch == (0x4000, 0x5000, OPCODE_COND_JUMP, True), len(branch)
    (True, 4)

    Attributes
    ----------
    ip:
        Virtual address of the branch instruction.
    target:
        Virtual address the branch goes to when taken (0 for a not-taken
        conditional-indirect branch, per the SBBT validity rules).
    opcode:
        The 4-bit :class:`Opcode`.
    taken:
        The resolved outcome.
    """

    ip: int
    target: int
    opcode: Opcode
    taken: bool

    def is_taken(self) -> bool:
        """The resolved outcome (method form, matching ``mbp::Branch``)."""
        return self.taken

    @property
    def is_conditional(self) -> bool:
        """Shorthand for ``opcode.is_conditional``."""
        return self.opcode.is_conditional

    @property
    def is_indirect(self) -> bool:
        """Shorthand for ``opcode.is_indirect``."""
        return self.opcode.is_indirect

    def with_outcome(self, taken: bool) -> "Branch":
        """A copy of this branch with a different outcome.

        The idiom used by meta-predictors to train a chooser component.
        """
        return Branch(self.ip, self.target, self.opcode, taken)
