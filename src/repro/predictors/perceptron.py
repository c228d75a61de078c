"""The hashed perceptron predictor (Tarjan & Skadron, 2005).

Instead of assigning one weight per history bit like the original
perceptron, the hashed perceptron keeps a handful of weight tables, each
indexed by a *hash* of the branch address with a different slice of the
global (and path) history.  The prediction is the sign of the sum of the
selected weights; training only happens on a misprediction or when the
sum's magnitude is below a threshold.

The paper uses the hashed perceptron as one of the "state of the art"
examples and, in the evaluation, as the predictor whose compute cost sits
between the simple table predictors and TAGE (Table III: 6.2× average
speedup vs CBP5 — lower than GShare's 17.9× because more time is spent in
predictor code).
"""

from __future__ import annotations

from typing import Any, Sequence

from ..core.branch import Branch
from ..core.predictor import Predictor
from ..utils.bits import mask
from ..utils.hashing import vote_indices, vote_lanes
from ..utils.history import PathHistory

__all__ = ["HashedPerceptron"]

_DEFAULT_HISTORY_LENGTHS = (0, 2, 4, 7, 11, 16, 22, 30)


class HashedPerceptron(Predictor):
    """A multi-table hashed perceptron with adaptive threshold.

    Parameters
    ----------
    log_table_size:
        log2 of each weight table's entry count.
    weight_width:
        Bits per signed weight.
    history_lengths:
        One entry per table: how many global-history bits that table's
        hash consumes.  Length 0 gives a pure bias (per-address) table.
    theta:
        Initial training threshold; ``adaptive_theta`` lets the
        Seznec-style threshold controller move it.
    use_path_history:
        Mix the rolling path hash into every non-bias table index.
        Off by default: the rolling hash always covers the last 16
        branch addresses, which aliases visits that share outcome
        history but differ in control path — on loopy workloads that
        costs far more accuracy than the path information buys.
    """

    def __init__(self, log_table_size: int = 14, weight_width: int = 8,
                 history_lengths: Sequence[int] = _DEFAULT_HISTORY_LENGTHS,
                 theta: int | None = None, adaptive_theta: bool = True,
                 use_path_history: bool = False):
        if log_table_size < 1:
            raise ValueError("log_table_size must be >= 1")
        if weight_width < 2:
            raise ValueError("weight_width must be >= 2")
        if not history_lengths:
            raise ValueError("need at least one weight table")
        if any(h < 0 for h in history_lengths):
            raise ValueError("history lengths must be non-negative")
        self.log_table_size = log_table_size
        self.weight_width = weight_width
        self.history_lengths = tuple(history_lengths)
        self.num_tables = len(self.history_lengths)
        self.adaptive_theta = adaptive_theta
        self.use_path_history = use_path_history
        # The classic theta heuristic scales with the history seen.
        self.theta = theta if theta is not None else int(
            1.93 * max(self.history_lengths) / max(1, self.num_tables)
            * 2 + 14
        )
        self._initial_theta = self.theta
        self._w_max = (1 << (weight_width - 1)) - 1
        self._w_min = -(1 << (weight_width - 1))
        self._tables = [
            [0] * (1 << log_table_size) for _ in range(self.num_tables)
        ]
        self._max_history = max(self.history_lengths)
        self._history_mask = mask(self._max_history)
        self._lanes = vote_lanes(self.history_lengths, log_table_size)
        self._ghist = 0
        self._path = PathHistory(width=min(16, log_table_size))
        # Adaptive-threshold controller (Seznec, O-GEHL): counts
        # threshold-training events vs mispredicts to steer theta.
        self._tc = 0
        self._tc_bound = 64
        # Per-prediction cache consumed by train.
        self._cached_ip: int | None = None
        self._cached_indices: list[int] = []
        self._cached_sum = 0
        # Execution statistics (Listing 1's predictor_statistics section).
        self._stat_threshold_trainings = 0
        self._stat_mispredict_trainings = 0

    # ------------------------------------------------------------------
    # Predictor interface.
    # ------------------------------------------------------------------

    def predict(self, ip: int) -> bool:
        """Sign of the weight sum: non-negative means taken."""
        extra = self._path.value << 3 if self.use_path_history else 0
        indices = vote_indices(ip, self._ghist, self._lanes,
                               self.log_table_size, extra)
        total = sum(map(list.__getitem__, self._tables, indices))
        self._cached_ip = ip
        self._cached_indices = indices
        self._cached_sum = total
        return total >= 0

    def train(self, branch: Branch) -> None:
        """Perceptron rule: update on mispredict or low-confidence sum."""
        if self._cached_ip != branch.ip:
            self.predict(branch.ip)
        total = self._cached_sum
        taken = branch.taken
        mispredicted = (total >= 0) != taken
        probe = self._probe
        if probe is not None:
            # Attribute the vote to the largest-magnitude weight (the
            # first such table on ties) — adder trees have no provider.
            weights = [self._tables[t][self._cached_indices[t]]
                       for t in range(self.num_tables)]
            dominant = max(range(self.num_tables),
                           key=lambda t: abs(weights[t]))
            probe.record(branch.ip, f"T{dominant}", not mispredicted)
        if mispredicted or abs(total) <= self.theta:
            if mispredicted:
                self._stat_mispredict_trainings += 1
            else:
                self._stat_threshold_trainings += 1
            # Weights stay in [w_min, w_max]: only a weight already at
            # the bound in the training direction is left unchanged.
            delta = 1 if taken else -1
            bound = self._w_max if taken else self._w_min
            for table, index in zip(self._tables, self._cached_indices):
                if table[index] != bound:
                    table[index] += delta
            if self.adaptive_theta:
                self._adapt_theta(mispredicted)
        self._cached_ip = None

    def _adapt_theta(self, mispredicted: bool) -> None:
        """Seznec's threshold controller: balance the two training causes."""
        self._tc += 1 if mispredicted else -1
        if self._tc >= self._tc_bound:
            self.theta += 1
            self._tc = 0
        elif self._tc <= -self._tc_bound:
            if self.theta > 1:
                self.theta -= 1
            self._tc = 0

    def track(self, branch: Branch) -> None:
        """Update the outcome (and, when used, path) history."""
        self._ghist = ((self._ghist << 1) | branch.taken) & self._history_mask
        if self.use_path_history:
            self._path.push(branch.ip)
        self._cached_ip = None

    # ------------------------------------------------------------------
    # Output hooks.
    # ------------------------------------------------------------------

    def metadata_stats(self) -> dict[str, Any]:
        """Self-description for the simulator output."""
        return {
            "name": "repro HashedPerceptron",
            "log_table_size": self.log_table_size,
            "weight_width": self.weight_width,
            "history_lengths": list(self.history_lengths),
            "theta": self.theta,
            "adaptive_theta": self.adaptive_theta,
            "use_path_history": self.use_path_history,
        }

    def spec(self) -> dict[str, Any]:
        """Cache-key identity with a *stable* theta.

        With ``adaptive_theta`` the live ``theta`` drifts during
        simulation, so the spec is pinned to the constructor-time value
        the instance started from.
        """
        return {
            "name": "repro HashedPerceptron",
            "log_table_size": self.log_table_size,
            "weight_width": self.weight_width,
            "history_lengths": list(self.history_lengths),
            "theta": self._initial_theta,
            "adaptive_theta": self.adaptive_theta,
            "use_path_history": self.use_path_history,
        }

    def execution_stats(self) -> dict[str, Any]:
        """Training-cause counters, a classic perceptron health metric."""
        return {
            "threshold_trainings": self._stat_threshold_trainings,
            "mispredict_trainings": self._stat_mispredict_trainings,
            "final_theta": self.theta,
        }

    def on_warmup_end(self) -> None:
        """Reset statistics so they cover the measured region only."""
        self._stat_threshold_trainings = 0
        self._stat_mispredict_trainings = 0

    def probe_stats(self) -> dict[str, Any]:
        """Structural snapshot of every weight table."""
        from ..utils.tables import distribution_stats

        return {f"T{t}": distribution_stats(table, self._w_min, self._w_max)
                for t, table in enumerate(self._tables)}

    def storage_bits(self) -> int:
        """Hardware budget of the configuration, in bits."""
        return (self.num_tables * (1 << self.log_table_size)
                * self.weight_width + self._max_history)

    def vector_kernel(self) -> Any:
        """Hybrid kernel: vectorized table indices, scalar weight updates.

        The kernel starts from the constructor-time threshold, like
        :meth:`spec`.  Histories longer than 63 bits do not fit the
        packed uint64 windows, and the kernel derives no path history,
        so such configurations stay on the scalar engine.
        """
        if self._max_history > 63 or self.use_path_history:
            return None
        from ..core.vectorized import PerceptronKernel

        return PerceptronKernel(
            self.log_table_size, self.weight_width, self.history_lengths,
            self._initial_theta, self.adaptive_theta, self.metadata_stats())
