"""The bimodal predictor (Lee & Smith, 1983).

One table of saturating counters indexed by instruction-address bits.
Bimodal is the paper's speed-measurement workhorse: it is so simple that
the vast majority of a simulation's running time is spent in simulator
code, which is why Table III uses it to quantify the raw simulator
speedup.  It is also the usual base component of larger designs (TAGE's
base predictor, the tournament's first bank).
"""

from __future__ import annotations

from typing import Any

from ..core.branch import Branch
from ..core.predictor import Predictor
from ..utils.bits import mask

__all__ = ["Bimodal"]


class Bimodal(Predictor):
    """A table of ``2**log_table_size`` saturating ``counter_width``-bit
    counters indexed by instruction-address bits.

    Parameters
    ----------
    log_table_size:
        log2 of the number of counters.
    counter_width:
        Bits per counter (2 is the classic choice).  Counters are signed;
        non-negative predicts taken.
    instruction_shift:
        Low address bits dropped before indexing (0 for byte-exact traces;
        2 skips the typical instruction alignment bits).
    """

    def __init__(self, log_table_size: int = 14, counter_width: int = 2,
                 instruction_shift: int = 0):
        if log_table_size < 0:
            raise ValueError("log_table_size must be >= 0")
        if counter_width < 1:
            raise ValueError("counter_width must be >= 1")
        if instruction_shift < 0:
            raise ValueError("instruction_shift must be >= 0")
        self.log_table_size = log_table_size
        self.counter_width = counter_width
        self.instruction_shift = instruction_shift
        self._index_mask = mask(log_table_size)
        self._max = (1 << (counter_width - 1)) - 1
        self._min = -(1 << (counter_width - 1))
        # A plain list outruns numpy for scalar single-element access,
        # which is all the hot loop does.
        self._table = [0] * (1 << log_table_size)

    def _index(self, ip: int) -> int:
        return (ip >> self.instruction_shift) & self._index_mask

    def predict(self, ip: int) -> bool:
        """Non-negative counter means taken."""
        return self._table[self._index(ip)] >= 0

    def train(self, branch: Branch) -> None:
        """Saturating ±1 update of the selected counter."""
        i = self._index(branch.ip)
        v = self._table[i]
        probe = self._probe
        if probe is not None:
            # Single-component: the table provides every prediction
            # (same attribution the vectorized engine reports).
            probe.record(branch.ip, "table", (v >= 0) == branch.taken)
        if branch.taken:
            if v < self._max:
                self._table[i] = v + 1
        elif v > self._min:
            self._table[i] = v - 1

    def track(self, branch: Branch) -> None:
        """Bimodal keeps no scenario state."""

    def metadata_stats(self) -> dict[str, Any]:
        """Self-description for the simulator output."""
        return {
            "name": "repro Bimodal",
            "log_table_size": self.log_table_size,
            "counter_width": self.counter_width,
            "instruction_shift": self.instruction_shift,
        }

    def storage_bits(self) -> int:
        """Hardware budget of the configuration, in bits."""
        return (1 << self.log_table_size) * self.counter_width

    def probe_stats(self) -> dict[str, Any]:
        """Structural snapshot of the counter table."""
        from ..utils.tables import distribution_stats

        return {"table": distribution_stats(self._table, self._min,
                                            self._max)}

    def vector_kernel(self) -> Any:
        """Single saturating table indexed by address bits."""
        import numpy as np

        from ..core.vectorized import SaturatingTableKernel

        shift = np.uint64(self.instruction_shift)
        index_mask = np.uint64(self._index_mask)
        return SaturatingTableKernel(
            lambda ctx: (ctx.ips >> shift) & index_mask,
            self.counter_width)
