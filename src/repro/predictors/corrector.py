"""A statistical corrector, and TAGE-SC(-L) assembled from parts.

Championship TAGE derivatives (TAGE-SC-L, the CBP4/CBP5 winners) wrap
TAGE with two side components: a **loop predictor** for counted loops
and a **statistical corrector** (SC) that catches the branches where
TAGE's tagged entries are systematically wrong — typically weakly-biased
branches whose outcome correlates with the bias itself more than with
history.

The SC here follows the classic recipe: a small adder tree of counter
tables indexed by (address, TAGE's prediction, a little history) votes
on whether to *invert* the primary prediction; it only overrides when
its confidence exceeds a threshold.  Together with
:class:`repro.predictors.loop.WithLoopPredictor` this gives the
``tage_sc_l`` factory — the paper's "state of the art" end of the
spectrum, built purely by composition (Section VI-D's whole point).
"""

from __future__ import annotations

from typing import Any

from ..core.branch import Branch
from ..core.predictor import Predictor
from ..utils.bits import mask
from ..utils.hashing import vote_indices, vote_lanes
from .loop import WithLoopPredictor
from .tage import Tage

__all__ = ["StatisticalCorrector", "tage_sc", "tage_sc_l"]


class StatisticalCorrector(Predictor):
    """Wrap any predictor with a statistical correction stage.

    Parameters
    ----------
    main:
        The primary predictor (typically a :class:`Tage`).
    num_tables:
        Counter tables in the corrector's adder tree.
    log_table_size:
        log2 of each corrector table.
    counter_width:
        Bits per corrector counter.
    threshold:
        Confidence the corrector sum must exceed to override the main
        prediction.
    """

    def __init__(self, main: Predictor, num_tables: int = 4,
                 log_table_size: int = 10, counter_width: int = 6,
                 threshold: int = 6):
        if num_tables < 1:
            raise ValueError("num_tables must be >= 1")
        if counter_width < 2:
            raise ValueError("counter_width must be >= 2")
        if threshold < 0:
            raise ValueError("threshold must be >= 0")
        self.main = main
        self.num_tables = num_tables
        self.log_table_size = log_table_size
        self.counter_width = counter_width
        self.threshold = threshold
        self._c_max = (1 << (counter_width - 1)) - 1
        self._c_min = -(1 << (counter_width - 1))
        self._tables = [[0] * (1 << log_table_size)
                        for _ in range(num_tables)]
        self._history_lengths = tuple(2 * i for i in range(num_tables))
        self._history_mask = mask(max(self._history_lengths) or 1)
        self._lanes = vote_lanes(self._history_lengths, log_table_size)
        self._ghist = 0
        self._cached_ip: int | None = None
        self._cache: tuple | None = None
        self._stat_overrides = 0
        self._stat_good_overrides = 0

    def _compute(self, ip: int) -> tuple:
        main_prediction = self.main.predict(ip)
        # The main prediction is part of the index: the corrector learns
        # "when TAGE says X here, X is statistically wrong".
        indices = vote_indices((ip << 1) | main_prediction, self._ghist,
                               self._lanes, self.log_table_size)
        total = sum(map(list.__getitem__, self._tables, indices))
        # The corrector votes on agreement: positive supports the main
        # prediction, strongly negative inverts it.
        if total <= -self.threshold:
            final = not main_prediction
        else:
            final = main_prediction
        return main_prediction, indices, total, final

    def predict(self, ip: int) -> bool:
        """Main prediction, possibly inverted by a confident corrector."""
        state = self._compute(ip)
        self._cached_ip = ip
        self._cache = state
        if state[3] != state[0]:
            self._stat_overrides += 1
        return state[3]

    def train(self, branch: Branch) -> None:
        """Train the corrector on agreement; the main trains as usual."""
        if self._cached_ip != branch.ip or self._cache is None:
            self.predict(branch.ip)
        assert self._cache is not None
        main_prediction, indices, total, final = self._cache
        taken = branch.taken
        if final != main_prediction and final == taken:
            self._stat_good_overrides += 1
        probe = self._probe
        if probe is not None:
            inverted = final != main_prediction
            probe.record(branch.ip, "corrector" if inverted else "main",
                         final == taken,
                         overrode="main" if inverted else None)
        # Perceptron-style: update on low confidence or wrong final.
        agree = main_prediction == taken
        if final != taken or abs(total) <= self.threshold * 2:
            delta = 1 if agree else -1
            for table, index in zip(self._tables, indices):
                value = table[index] + delta
                table[index] = min(self._c_max, max(self._c_min, value))
        self.main.train(branch)
        self._cached_ip = None

    def track(self, branch: Branch) -> None:
        """Track the main predictor and the corrector's own history."""
        self.main.track(branch)
        self._ghist = ((self._ghist << 1) | branch.taken) & self._history_mask
        self._cached_ip = None

    def metadata_stats(self) -> dict[str, Any]:
        """Nested self-description."""
        return {
            "name": "repro StatisticalCorrector",
            "num_tables": self.num_tables,
            "log_table_size": self.log_table_size,
            "counter_width": self.counter_width,
            "threshold": self.threshold,
            "main": self.main.metadata_stats(),
        }

    def spec(self) -> dict[str, Any]:
        """Cache-key identity, recursing into the main predictor's spec."""
        return {
            "name": "repro StatisticalCorrector",
            "num_tables": self.num_tables,
            "log_table_size": self.log_table_size,
            "counter_width": self.counter_width,
            "threshold": self.threshold,
            "main": self.main.spec(),
        }

    def execution_stats(self) -> dict[str, Any]:
        """Override behaviour plus the main predictor's statistics."""
        stats: dict[str, Any] = {
            "sc_overrides": self._stat_overrides,
            "sc_good_overrides": self._stat_good_overrides,
        }
        main_stats = self.main.execution_stats()
        if main_stats:
            stats["main"] = main_stats
        return stats

    def on_warmup_end(self) -> None:
        """Propagate and reset the override counters."""
        self._stat_overrides = 0
        self._stat_good_overrides = 0
        self.main.on_warmup_end()

    def attach_probe(self, probe: Any) -> None:
        """Attach the probe here and a scoped view to the main predictor."""
        self._probe = probe
        self.main.attach_probe(None if probe is None
                               else probe.scoped("main"))

    def probe_stats(self) -> dict[str, Any]:
        """Corrector vote-table snapshots plus the main's statistics."""
        from ..utils.tables import distribution_stats

        stats: dict[str, Any] = {}
        for t, table in enumerate(self._tables):
            stats[f"SC{t}"] = distribution_stats(table, self._c_min,
                                                 self._c_max)
        main_stats = self.main.probe_stats()
        if main_stats:
            stats["main"] = main_stats
        return stats


def tage_sc(**tage_kwargs: Any) -> StatisticalCorrector:
    """TAGE with a statistical corrector."""
    return StatisticalCorrector(Tage(**tage_kwargs))


def tage_sc_l(**tage_kwargs: Any) -> StatisticalCorrector:
    """TAGE-SC-L: TAGE + statistical corrector + loop predictor.

    Built entirely by composition: the loop predictor wraps TAGE, the
    corrector wraps the pair.  Every component keeps its own statistics,
    which all surface in the simulator output.
    """
    return StatisticalCorrector(WithLoopPredictor(Tage(**tage_kwargs)))
