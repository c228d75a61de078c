"""Microarchitecture-agnostic metrics (paper Sections I and IV-E).

The de-facto standard metric of the field is **MPKI** — mispredictions per
kilo-instruction — together with accuracy and the "most failed" branch
set: the minimum number of static branches that, on their own, account for
half of all mispredictions.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["mpki", "accuracy", "BranchStats", "most_failed_branches"]


def mpki(mispredictions: int, instructions: int) -> float:
    """Mispredictions per kilo-instruction.

    Zero-instruction simulations report 0.0 rather than dividing by zero
    (an empty measurement region has no mispredictions either).
    """
    if instructions < 0:
        raise ValueError(f"instructions must be non-negative, got {instructions}")
    if instructions == 0:
        return 0.0
    return 1000.0 * mispredictions / instructions


def accuracy(mispredictions: int, predictions: int) -> float:
    """Fraction of predictions that were correct (1.0 for no predictions)."""
    if predictions < 0:
        raise ValueError(f"predictions must be non-negative, got {predictions}")
    if predictions == 0:
        return 1.0
    return 1.0 - mispredictions / predictions


@dataclass(slots=True)
class BranchStats:
    """Per-static-branch occurrence and misprediction counts."""

    occurrences: int = 0
    mispredictions: int = 0

    def record(self, mispredicted: bool) -> None:
        """Count one dynamic execution of this static branch."""
        self.occurrences += 1
        if mispredicted:
            self.mispredictions += 1

    def accuracy(self) -> float:
        """Per-branch prediction accuracy."""
        return accuracy(self.mispredictions, self.occurrences)


@dataclass(frozen=True, slots=True)
class MostFailedEntry:
    """One row of the output's ``most_failed`` section."""

    ip: int
    occurrences: int
    mispredictions: int
    mpki: float
    accuracy: float

    def __reduce__(self) -> tuple:
        # Positional, like SimulationResult: results cross the engine's
        # pipes, and the generated slots state is three times slower.
        return (MostFailedEntry, (self.ip, self.occurrences,
                                  self.mispredictions, self.mpki,
                                  self.accuracy))


def most_failed_branches(
    stats: dict[int, BranchStats],
    total_mispredictions: int,
    simulation_instructions: int,
    *,
    max_entries: int | None = None,
) -> list[MostFailedEntry]:
    """The minimum set of branches accounting for half the mispredictions.

    Branches are taken greedily in decreasing misprediction count (ties
    broken by address for determinism) until their cumulative
    mispredictions reach half of ``total_mispredictions``.  The length of
    the returned list is the output's ``num_most_failed_branches`` metric.
    """
    if total_mispredictions == 0:
        return []
    ranked = sorted(
        ((ip, s) for ip, s in stats.items() if s.mispredictions > 0),
        key=lambda item: (-item[1].mispredictions, item[0]),
    )
    target, remainder = divmod(total_mispredictions, 2)
    target += remainder  # half, rounded up
    entries: list[MostFailedEntry] = []
    covered = 0
    for ip, branch_stats in ranked:
        if covered >= target:
            break
        if max_entries is not None and len(entries) >= max_entries:
            break
        covered += branch_stats.mispredictions
        entries.append(MostFailedEntry(
            ip=ip,
            occurrences=branch_stats.occurrences,
            mispredictions=branch_stats.mispredictions,
            mpki=mpki(branch_stats.mispredictions, simulation_instructions),
            accuracy=branch_stats.accuracy(),
        ))
    return entries


__all__ += ["MostFailedEntry"]
