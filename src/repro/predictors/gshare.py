"""The GShare predictor (McFarling, 1993).

One counter table indexed by the xor of the instruction address and the
global branch history — Listing 2 of the paper, which fits in ~20 lines
thanks to the utilities library.  This implementation is the same glue:
a global history register, ``xor_fold`` hashing and one counter table.
"""

from __future__ import annotations

from typing import Any

from ..core.branch import Branch
from ..core.predictor import Predictor
from ..utils.bits import mask
from ..utils.hashing import xor_fold

__all__ = ["GShare"]


class GShare(Predictor):
    """GShare with ``2**log_table_size`` counters and ``history_length``
    bits of global outcome history.

    The index function matches the paper's listing:
    ``xor_fold(ip ^ ghist, log_table_size)``.

    Parameters
    ----------
    history_length:
        Bits of global history xored into the index (the ``H`` template
        parameter of Listing 2).
    log_table_size:
        log2 of the counter count (the ``T`` parameter).
    counter_width:
        Bits per signed saturating counter.
    """

    def __init__(self, history_length: int = 15, log_table_size: int = 17,
                 counter_width: int = 2):
        if history_length < 1:
            raise ValueError("history_length must be >= 1")
        if log_table_size < 1:
            raise ValueError("log_table_size must be >= 1")
        if counter_width < 1:
            raise ValueError("counter_width must be >= 1")
        self.history_length = history_length
        self.log_table_size = log_table_size
        self.counter_width = counter_width
        self._history_mask = mask(history_length)
        self._max = (1 << (counter_width - 1)) - 1
        self._min = -(1 << (counter_width - 1))
        self._table = [0] * (1 << log_table_size)
        self._ghist = 0

    @property
    def history(self) -> int:
        """The current global history register value."""
        return self._ghist

    def _hash(self, ip: int) -> int:
        return xor_fold(ip ^ self._ghist, self.log_table_size)

    def predict(self, ip: int) -> bool:
        """Non-negative hashed counter means taken."""
        return self._table[self._hash(ip)] >= 0

    def train(self, branch: Branch) -> None:
        """Saturating ±1 update of the hashed counter.

        Called before ``track`` by the simulator, so the hash uses the
        same history the prediction used.
        """
        i = self._hash(branch.ip)
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
        """Shift the outcome into the global history register."""
        self._ghist = ((self._ghist << 1) | branch.taken) & self._history_mask

    def metadata_stats(self) -> dict[str, Any]:
        """Self-description, shaped like the paper's Listing 1 metadata."""
        return {
            "name": "repro GShare",
            "history_length": self.history_length,
            "log_table_size": self.log_table_size,
            "counter_width": self.counter_width,
        }

    def storage_bits(self) -> int:
        """Hardware budget of the configuration, in bits."""
        return (1 << self.log_table_size) * self.counter_width + self.history_length

    def probe_stats(self) -> dict[str, Any]:
        """Structural snapshot of the counter table."""
        from ..utils.tables import distribution_stats

        return {"table": distribution_stats(self._table, self._min,
                                            self._max)}

    def vector_kernel(self) -> Any:
        """Single table indexed by ``xor_fold(ip ^ ghist)``.

        Histories longer than 63 bits do not fit the packed uint64
        windows, so such configurations stay on the scalar engine.
        """
        if self.history_length > 63:
            return None
        from ..core.vectorized import SaturatingTableKernel, xor_fold_array

        history_length = self.history_length
        log_table_size = self.log_table_size
        # xor_fold is linear over XOR, so the (config-independent) fold
        # of the address stream comes from the context's memo and only
        # the history fold is paid per configuration — in a batched
        # history sweep the address fold happens once for the group.
        return SaturatingTableKernel(
            lambda ctx: ctx.folded_ips(log_table_size)
            ^ xor_fold_array(ctx.global_history(history_length),
                             log_table_size),
            self.counter_width)
