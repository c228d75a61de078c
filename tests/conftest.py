"""Shared fixtures: canned traces and branch constructors.

Trace fixtures are session-scoped because synthesis is the dominant cost
of the integration tests; every test must treat them as read-only.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.branch import (
    Branch,
    OPCODE_CALL,
    OPCODE_COND_JUMP,
    OPCODE_IND_JUMP,
    OPCODE_JUMP,
    OPCODE_RET,
)
from repro.sbbt.trace import TraceData
from repro.traces.synth import generate_trace
from repro.traces.workloads import PROFILES


def make_branch(ip: int = 0x40_0000, target: int = 0x40_0100,
                opcode=OPCODE_COND_JUMP, taken: bool = True) -> Branch:
    """A branch with sensible defaults, overridable per field."""
    return Branch(ip=ip, target=target, opcode=opcode, taken=taken)


def make_trace(ips, taken, *, targets=None, opcodes=None, gaps=None,
               num_instructions=None) -> TraceData:
    """Build a small conditional-branch trace from plain lists."""
    n = len(ips)
    ips = np.asarray(ips, dtype=np.uint64)
    taken = np.asarray(taken, dtype=bool)
    if targets is None:
        targets = ips + np.uint64(64)
    if opcodes is None:
        opcodes = np.full(n, int(OPCODE_COND_JUMP), np.uint8)
    if gaps is None:
        gaps = np.zeros(n, dtype=np.uint16)
    gaps = np.asarray(gaps, dtype=np.uint16)
    if num_instructions is None:
        num_instructions = n + int(np.asarray(gaps, dtype=np.int64).sum())
    return TraceData(ips, np.asarray(targets, dtype=np.uint64),
                     np.asarray(opcodes, dtype=np.uint8), taken, gaps,
                     num_instructions)


def scalar_predictions(predictor, trace: TraceData, *,
                       track_all: bool = True) -> np.ndarray:
    """Drive ``predictor`` exactly like the standard simulator does
    (predict/train on conditional branches, track on every branch — or
    only the conditional ones when ``track_all`` is false) and collect
    each conditional branch's prediction in trace order.

    ``simulate()`` does not expose per-branch predictions, so this loop
    is the reference the vector kernels must match bit for bit.
    """
    predictions = []
    for branch, _gap in trace.iter_branches():
        if branch.is_conditional:
            predictions.append(predictor.predict(branch.ip))
            predictor.train(branch)
            predictor.track(branch)
        elif track_all:
            predictor.track(branch)
    return np.array(predictions, dtype=bool)


def kernel_predictions(predictor, trace: TraceData, *,
                       track_all: bool = True) -> np.ndarray:
    """The per-conditional-branch prediction stream of ``predictor``'s
    vector kernel — the array every vectorized result is counted from."""
    from repro.core.vectorized import _VectorContext

    context = _VectorContext(trace, track_all=track_all)
    return predictor.vector_kernel().run(context).predictions


def assert_kernel_matches_scalar(factory, trace: TraceData, *,
                                 track_all: bool = True) -> None:
    """The vector kernel of ``factory()`` predicts every conditional
    branch of ``trace`` exactly as the scalar predictor does."""
    reference = scalar_predictions(factory(), trace, track_all=track_all)
    vectorized = kernel_predictions(factory(), trace, track_all=track_all)
    assert len(vectorized) == len(reference)
    mismatches = np.flatnonzero(vectorized != reference)
    assert mismatches.size == 0, (
        f"first divergence at conditional branch {mismatches[:5]}"
    )


@pytest.fixture(scope="session")
def small_trace() -> TraceData:
    """~5k branches of a loopy mobile-like program (fast to simulate)."""
    return generate_trace(PROFILES["short_mobile"], seed=11,
                          num_branches=5000)


@pytest.fixture(scope="session")
def server_trace() -> TraceData:
    """~8k branches with calls, returns and indirect jumps."""
    return generate_trace(PROFILES["short_server"], seed=12,
                          num_branches=8000)


@pytest.fixture(scope="session")
def medium_trace() -> TraceData:
    """~30k branches for MPKI-ordering integration tests."""
    return generate_trace(PROFILES["spec17_like"], seed=13,
                          num_branches=30000)


# Re-exported so tests can import everything from conftest.
__all__ = [
    "make_branch", "make_trace", "assert_kernel_matches_scalar",
    "OPCODE_CALL", "OPCODE_COND_JUMP", "OPCODE_IND_JUMP", "OPCODE_JUMP",
    "OPCODE_RET",
]
