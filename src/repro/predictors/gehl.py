"""The O-GEHL predictor (Seznec, 2005).

GEHL — GEometric History Length — sums small signed counters from
several tables indexed with geometrically increasing history lengths,
like the hashed perceptron, but adds the *optimized* control loop that
made O-GEHL a CBP-1 winner:

* **adaptive threshold** — a counter balances threshold-driven and
  misprediction-driven updates to keep the training rate right;
* **dynamic history lengths** — when long histories keep proving useful
  the two highest tables adopt even longer lengths, and vice versa
  (implemented here as the documented two-configuration toggle).

TAGE (its successor) replaced the adder tree with tag matching; having
both in the examples library makes that lineage teachable.
"""

from __future__ import annotations

from typing import Any, Sequence

from ..core.branch import Branch
from ..core.predictor import Predictor
from ..utils.bits import mask
from ..utils.hashing import vote_indices, vote_lanes
from .tage import geometric_history_lengths

__all__ = ["OGehl"]


class OGehl(Predictor):
    """O-GEHL with ``num_tables`` counter tables over geometric histories.

    Parameters
    ----------
    num_tables:
        Number of counter tables (table 0 is indexed by address only).
    log_table_size:
        log2 of each table's entry count.
    counter_width:
        Bits per signed counter.
    min_history, max_history:
        Ends of the geometric history series for tables 1..N-1.
    alt_max_history:
        The longer alternative history adopted by the top tables while
        the dynamic-length controller favours long histories.
    """

    def __init__(self, num_tables: int = 8, log_table_size: int = 11,
                 counter_width: int = 4, min_history: int = 2,
                 max_history: int = 48, alt_max_history: int = 120):
        if num_tables < 2:
            raise ValueError("num_tables must be >= 2")
        if counter_width < 2:
            raise ValueError("counter_width must be >= 2")
        if alt_max_history < max_history:
            raise ValueError("alt_max_history must be >= max_history")
        self.num_tables = num_tables
        self.log_table_size = log_table_size
        self.counter_width = counter_width
        self.min_history = min_history
        self.max_history = max_history
        self.alt_max_history = alt_max_history

        base_lengths = (0,) + geometric_history_lengths(
            num_tables - 1, min_history, max_history)
        long_lengths = (0,) + geometric_history_lengths(
            num_tables - 1, min_history, alt_max_history)
        self._length_configs = (base_lengths, long_lengths)
        self._lanes = tuple(vote_lanes(lengths, log_table_size)
                            for lengths in self._length_configs)
        self._config = 0

        self._c_max = (1 << (counter_width - 1)) - 1
        self._c_min = -(1 << (counter_width - 1))
        self._tables = [[0] * (1 << log_table_size)
                        for _ in range(num_tables)]
        self._ghist = 0
        self._history_mask = mask(max(long_lengths))
        self.theta = num_tables  # O-GEHL's initial threshold heuristic
        self._tc = 0             # threshold controller
        self._lc = 0             # length controller
        self._cached_ip: int | None = None
        self._cached_indices: list[int] = []
        self._cached_sum = 0
        self._stat_config_switches = 0

    @property
    def history_lengths(self) -> Sequence[int]:
        """The active history-length configuration."""
        return self._length_configs[self._config]

    def _compute(self, ip: int) -> tuple[list[int], int]:
        indices = vote_indices(ip, self._ghist, self._lanes[self._config],
                               self.log_table_size)
        # The classic GEHL sum adds num_tables/2 to de-bias the vote.
        total = self.num_tables // 2 + sum(
            map(list.__getitem__, self._tables, indices))
        return indices, total

    def predict(self, ip: int) -> bool:
        """Sign of the de-biased counter sum."""
        indices, total = self._compute(ip)
        self._cached_ip = ip
        self._cached_indices = indices
        self._cached_sum = total
        return total >= 0

    def train(self, branch: Branch) -> None:
        """GEHL update rule with both adaptive controllers."""
        if self._cached_ip != branch.ip:
            self.predict(branch.ip)
        total = self._cached_sum
        taken = branch.taken
        mispredicted = (total >= 0) != taken
        probe = self._probe
        if probe is not None:
            # Adder trees have no single provider; attribute the vote to
            # the table contributing the largest-magnitude counter (the
            # first such table on ties).
            values = [self._tables[t][self._cached_indices[t]]
                      for t in range(self.num_tables)]
            dominant = max(range(self.num_tables),
                           key=lambda t: abs(values[t]))
            probe.record(branch.ip, f"T{dominant}", not mispredicted)
        if mispredicted or abs(total) <= self.theta:
            delta = 1 if taken else -1
            for table, index in zip(self._tables, self._cached_indices):
                value = table[index] + delta
                table[index] = min(self._c_max, max(self._c_min, value))
            # Adaptive threshold (Seznec's TC counter).
            self._tc += 1 if mispredicted else -1
            if self._tc >= 64:
                self.theta += 1
                self._tc = 0
            elif self._tc <= -64 and self.theta > 1:
                self.theta -= 1
                self._tc = 0
        if mispredicted:
            # Dynamic history lengths: mispredictions under the short
            # configuration push towards the long one and vice versa.
            self._lc += 1 if self._config == 0 else -1
            if self._lc >= 256:
                self._config = 1
                self._lc = 0
                self._stat_config_switches += 1
            elif self._lc <= -256:
                self._config = 0
                self._lc = 0
                self._stat_config_switches += 1
        self._cached_ip = None

    def track(self, branch: Branch) -> None:
        """Shift the outcome into the (long) global history register."""
        self._ghist = (((self._ghist << 1) | branch.taken)
                       & self._history_mask)
        self._cached_ip = None

    def metadata_stats(self) -> dict[str, Any]:
        """Self-description for the simulator output."""
        return {
            "name": "repro O-GEHL",
            "num_tables": self.num_tables,
            "log_table_size": self.log_table_size,
            "counter_width": self.counter_width,
            "history_lengths": list(self.history_lengths),
            "theta": self.theta,
        }

    def spec(self) -> dict[str, Any]:
        """Cache-key identity from *constructor* parameters only.

        ``metadata_stats`` includes the adaptive ``theta``, which mutates
        during simulation; the spec must stay fixed for a configuration,
        so it lists the constructor arguments instead.
        """
        return {
            "name": "repro O-GEHL",
            "num_tables": self.num_tables,
            "log_table_size": self.log_table_size,
            "counter_width": self.counter_width,
            "min_history": self.min_history,
            "max_history": self.max_history,
            "alt_max_history": self.alt_max_history,
        }

    def execution_stats(self) -> dict[str, Any]:
        """Controller activity."""
        return {
            "final_theta": self.theta,
            "active_length_config": self._config,
            "config_switches": self._stat_config_switches,
        }

    def probe_stats(self) -> dict[str, Any]:
        """Structural snapshot of every vote table."""
        from ..utils.tables import distribution_stats

        return {f"T{t}": distribution_stats(table, self._c_min, self._c_max)
                for t, table in enumerate(self._tables)}

    def storage_bits(self) -> int:
        """Hardware budget of the configuration, in bits."""
        return (self.num_tables * (1 << self.log_table_size)
                * self.counter_width + self.alt_max_history)
