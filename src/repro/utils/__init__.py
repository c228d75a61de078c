"""The utilities library (paper Section V).

Software implementations of the components that appear inside most branch
predictors — saturating counters, history registers, folded histories,
hashing and table structures — so predictor code can be written by gluing
components together (the paper's GShare fits in ~20 lines this way).

The utilities are intentionally independent from the simulator: like
MBPlib's ``mbp_utils``, they can be used to build predictors for the
baseline simulators in :mod:`repro.baselines` too.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    ".bits": ("bit", "ceil_log2", "floor_log2", "get_bits",
              "is_power_of_two", "mask", "popcount", "reverse_bits",
              "rotate_left", "rotate_right", "set_bits", "sign_extend"),
    ".counters": ("CounterArray", "SignedSaturatingCounter",
                  "UnsignedSaturatingCounter", "i2", "u2"),
    ".folded": ("FoldedHistory", "HistoryWindow"),
    ".hashing": ("gshare_index", "mix64", "path_hash_step", "skew_h",
                 "skew_h_inverse", "skew_hash", "xor_fold"),
    ".history": ("GlobalHistory", "LocalHistoryTable", "PathHistory"),
    ".lfsr": ("Lfsr",),
    ".tables": ("DirectMappedTable", "TaggedEntryView", "TaggedTable"),
})

__all__ = [
    # bits
    "bit", "ceil_log2", "floor_log2", "get_bits", "is_power_of_two", "mask",
    "popcount", "reverse_bits", "rotate_left", "rotate_right", "set_bits",
    "sign_extend",
    # counters
    "CounterArray", "SignedSaturatingCounter", "UnsignedSaturatingCounter",
    "i2", "u2",
    # folded history
    "FoldedHistory", "HistoryWindow",
    # hashing
    "gshare_index", "mix64", "path_hash_step", "skew_h", "skew_h_inverse",
    "skew_hash", "xor_fold",
    # history
    "GlobalHistory", "LocalHistoryTable", "PathHistory",
    # randomness
    "Lfsr",
    # tables
    "DirectMappedTable", "TaggedEntryView", "TaggedTable",
]
