"""Analysis helpers: the Section II CPI model, parameter sweeps and
searches (Section VI-A/B), and paper-style report formatting."""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    ".championship": ("Championship", "LeaderboardEntry", "Submission"),
    ".cpi": ("PipelineModel", "speedup_from_mpki_reduction"),
    ".reporting": ("SpeedupRow", "format_duration", "format_table",
                   "interval_series_table", "manifest_summary_table",
                   "phase_breakdown_table", "speedup_table"),
    ".search": ("SearchResult", "SearchSpace", "hill_climb",
                "random_search"),
    ".sweep": ("SweepPoint", "SweepResult", "sweep_grid", "sweep_parameter"),
})

__all__ = [
    "Championship", "LeaderboardEntry", "Submission",
    "PipelineModel", "speedup_from_mpki_reduction",
    "SpeedupRow", "format_duration", "format_table", "speedup_table",
    "manifest_summary_table", "phase_breakdown_table",
    "interval_series_table",
    "SearchResult", "SearchSpace", "hill_climb", "random_search",
    "SweepPoint", "SweepResult", "sweep_grid", "sweep_parameter",
]
