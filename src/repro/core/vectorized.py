"""Vectorized simulation engines for table-indexed predictors.

A pure-Python per-branch loop is orders of magnitude too slow to sweep
hundreds of traces, so this module evaluates table-indexed predictors
with numpy array passes that are **bit-exact** equivalents of their
scalar counterparts — property-tested against them — while running the
whole trace in a handful of vector operations.

The key observation is that these predictors' *inputs* are derivable
from the trace alone: the global history at branch ``t`` is just the
packed outcomes of the previous branches (and a per-address history is
the packed outcomes of the previous *same-key* branches), and the table
index is a pure hash of (ip, history).  What remains sequential is each
table entry's saturating counter — a ±1 random walk clamped to
``[lo, hi]`` — and clamped walks have an associative structure:

every update is the map ``s -> min(hi, max(lo, s + x))``, and the class
of maps ``s -> min(B, max(A, s + C))`` is **closed under composition**::

    (g . f)(s) = min(B', max(A', s + C'))
    C' = Cf + Cg
    A' = max(Ag, Af + Cg)
    B' = min(Bg, max(Ag, Bf + Cg))

so the counter state *before* every update is an exclusive prefix
composition — computable with a segmented Hillis-Steele scan in
``O(n log n)`` vector operations, with segments delimited by table index.

Those reusable passes — history/index derivation
(:func:`global_history_windows`, :func:`segmented_history_windows`,
:func:`xor_fold_array`, :func:`skew_hash_array`), the segmented
clamped-walk scan (:func:`clamped_walk_states`), per-table finish/count,
and a two-stream chooser combinator (:class:`TournamentKernel`) —
compose into *kernels* covering the whole table-indexed catalog:
bimodal, GShare, two-level, local, tournament, 2bc-gskew and YAGS.
Predictors advertise their kernel through
``Predictor.vector_kernel()``; :func:`simulate_vectorized` (or
``simulate(..., engine="vectorized")``) drives the kernel and produces
a :class:`~repro.core.output.SimulationResult` byte-identical to the
scalar engine's.  Predictors whose update rules read *other* tables'
current state (gskew's partial-update vote, YAGS's tag caches) use
hybrid kernels: every index/hash/history stream is precomputed with
array passes and only the irreducible cross-table update loop stays
scalar — over plain machine integers, far from the full per-branch
protocol cost.

This is the reproduction's analogue of MBPlib's C++-level speed work and
the subject of the ``benchmarks/test_vectorized_catalog.py`` benchmark.

Observability: :func:`simulate_vectorized` accepts an optional
``instrumentation`` object (:mod:`repro.telemetry`) and reports the
standard simulator's phase set ("trace_read", "simulate_loop",
"finalize"), so manifests and phase timers are engine-independent.  The
default is off and adds no calls, matching the standard simulator's
contract.  It likewise accepts an optional ``probe``
(:class:`repro.probe.PredictionProbe`), filled post-hoc from the
prediction arrays via the bulk hooks — per-component attribution
(including override accounting for arbitrated predictors), the full
per-branch profile, and the final tables' structural statistics
reconstructed from the scans.
"""

from __future__ import annotations

import hashlib
import time
import traceback
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Sequence

import numpy as np

from ..sbbt.trace import TraceData
from .errors import EngineNotSupportedError, SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..probe import PredictionProbe
    from ..telemetry.instrumentation import Instrumentation
    from ..telemetry.interval import IntervalRecorder
    from .output import SimulationResult
    from .predictor import Predictor
    from .simulator import SimulationConfig

__all__ = [
    "clamped_walk_states",
    "global_history_windows",
    "segmented_history_windows",
    "xor_fold_array",
    "skew_hash_array",
    "KernelRun",
    "SaturatingTableKernel",
    "stacked_saturating_runs",
    "TournamentKernel",
    "GskewKernel",
    "YagsKernel",
    "simulate_vectorized",
    "run_unit_group",
]


def clamped_walk_states(segments: np.ndarray, steps: np.ndarray,
                        lo: int, hi: int, initial: int = 0) -> np.ndarray:
    """State *before* each ±1 step of per-segment clamped walks.

    Parameters
    ----------
    segments:
        Segment key per element; elements of one segment must be
        contiguous and the array non-decreasing within runs (use a stable
        argsort by key to arrange this).  May be N-dimensional: the scan
        runs independently along the **last** axis, so a stack of
        same-length walks (one row per configuration) resolves in one
        pass — the config-batched evaluation path.
    steps:
        ``+1`` / ``-1`` increments, same shape as ``segments``.
    lo, hi:
        Clamp bounds.
    initial:
        Every segment's starting state.

    Returns the walk state seen by each element before its own step —
    i.e. the value the predictor read to make its prediction.
    """
    segments = np.asarray(segments)
    steps = np.asarray(steps)
    if steps.shape != segments.shape:
        raise SimulationError("segments and steps must have equal length")
    if lo > hi:
        raise SimulationError(f"empty clamp range [{lo}, {hi}]")
    n = segments.shape[-1]
    if n == 0:
        return np.zeros(segments.shape, dtype=np.int64)

    # ±1 steps and bounds from narrow counters: every A/B/C value stays
    # within ±(n + |lo| + |hi|), so int32 holds any realistic trace and
    # halves the scan's memory traffic against int64.  ``n`` is the walk
    # length (last axis), so a stacked call picks the same dtype as the
    # equivalent per-row calls.
    dtype = np.int32 if n + abs(lo) + abs(hi) < 2 ** 31 else np.int64

    # Inclusive element maps: s -> min(hi, max(lo, s + x)).
    A = np.full(segments.shape, lo, dtype=dtype)
    B = np.full(segments.shape, hi, dtype=dtype)
    C = steps.astype(dtype)

    positions = np.arange(n, dtype=dtype)  # broadcasts over leading axes
    is_start = np.empty(segments.shape, dtype=bool)
    is_start[..., 0] = True
    np.not_equal(segments[..., 1:], segments[..., :-1],
                 out=is_start[..., 1:])
    segment_start = np.maximum.accumulate(
        np.where(is_start, positions, 0), axis=-1)
    # Passes beyond the longest segment cannot change anything; for a
    # stacked input the bound is the longest segment of any row — the
    # extra passes on shorter-segment rows find no valid compositions,
    # so every row's scan stays bit-exact with its standalone 1-D run.
    longest = int((positions - segment_start).max()) + 1

    shift = 1
    while shift < longest:
        # Element i composes with element i - shift when both are in the
        # same segment: i - shift >= segment_start[i].  Expressed over
        # the aligned slices [shift:] / [:-shift] this is contiguous
        # arithmetic — no index arrays, no gather/scatter.
        valid = positions[:-shift] >= segment_start[..., shift:]
        a_prev = A[..., :-shift]
        b_prev = B[..., :-shift]
        c_prev = C[..., :-shift]
        a_cur = A[..., shift:]
        b_cur = B[..., shift:]
        c_cur = C[..., shift:]
        new_a = np.where(valid, np.maximum(a_cur, a_prev + c_cur), a_cur)
        new_b = np.where(
            valid, np.minimum(b_cur, np.maximum(a_cur, b_prev + c_cur)),
            b_cur)
        new_c = np.where(valid, c_prev + c_cur, c_cur)
        A[..., shift:] = new_a
        B[..., shift:] = new_b
        C[..., shift:] = new_c
        shift *= 2

    # Exclusive prefix: the state before element i is the inclusive map
    # of element i-1 applied to the initial state (identity at starts).
    before = np.full(segments.shape, initial, dtype=np.int64)
    before[..., 1:] = np.minimum(
        B[..., :-1], np.maximum(A[..., :-1], initial + C[..., :-1])
    )
    before[is_start] = initial
    return before


def global_history_windows(outcomes: np.ndarray,
                           history_length: int) -> np.ndarray:
    """Packed global history seen *before* each branch.

    ``result[t]`` has bit ``k`` equal to the outcome of branch
    ``t - 1 - k`` — the same convention as
    :class:`repro.utils.history.GlobalHistory` after ``t`` pushes.
    """
    if not 1 <= history_length <= 63:
        raise SimulationError("history_length must be in [1, 63]")
    n = len(outcomes)
    bits = outcomes.astype(np.uint64)
    history = np.zeros(n, dtype=np.uint64)
    for age in range(1, history_length + 1):
        history[age:] |= bits[:-age] << np.uint64(age - 1)
    return history


def xor_fold_array(values: np.ndarray, width: int) -> np.ndarray:
    """Vectorized :func:`repro.utils.hashing.xor_fold` over uint64s."""
    if width <= 0:
        raise SimulationError("width must be positive")
    mask = np.uint64((1 << width) - 1)
    shift = np.uint64(width)
    # astype already copies; fold the first pass out of the loop and
    # reuse one scratch buffer so each pass allocates nothing.
    remaining = values.astype(np.uint64)
    result = remaining & mask
    np.right_shift(remaining, shift, out=remaining)
    scratch = np.empty_like(remaining)
    while remaining.any():
        np.bitwise_and(remaining, mask, out=scratch)
        np.bitwise_xor(result, scratch, out=result)
        np.right_shift(remaining, shift, out=remaining)
    return result


def segmented_history_windows(keys: np.ndarray, outcomes: np.ndarray,
                              history_length: int) -> np.ndarray:
    """Packed *per-key* history seen before each branch.

    The vector analogue of a
    :class:`repro.utils.history.LocalHistoryTable`: ``result[t]`` has bit
    ``k`` equal to the outcome of the ``(k+1)``-th most recent earlier
    branch with the same ``keys[t]`` (0 bits where fewer exist, matching
    the table's all-zero reset).  Elements are grouped by key with a
    stable argsort, each group's packed windows are built in
    ``history_length`` shifted OR passes, and the result is scattered
    back to trace order.
    """
    if not 1 <= history_length <= 63:
        raise SimulationError("history_length must be in [1, 63]")
    n = len(outcomes)
    if len(keys) != n:
        raise SimulationError("keys and outcomes must have equal length")
    if n == 0:
        return np.zeros(0, dtype=np.uint64)
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    bits = outcomes[order].astype(np.uint64)
    positions = np.arange(n, dtype=np.int64)
    is_start = np.empty(n, dtype=bool)
    is_start[0] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=is_start[1:])
    segment_start = np.maximum.accumulate(np.where(is_start, positions, 0))
    history_sorted = np.zeros(n, dtype=np.uint64)
    for age in range(1, history_length + 1):
        valid = positions >= segment_start + age
        history_sorted[valid] |= bits[positions[valid] - age] \
            << np.uint64(age - 1)
    result = np.empty(n, dtype=np.uint64)
    result[order] = history_sorted
    return result


def _skew_h_array(values: np.ndarray, width: int) -> np.ndarray:
    """Vectorized :func:`repro.utils.hashing.skew_h` (inputs pre-masked)."""
    top = np.uint64(width - 1)
    one = np.uint64(1)
    msb = (values >> top) & one
    lsb = values & one
    return (values >> one) | ((msb ^ lsb) << top)


def _skew_h_inverse_array(values: np.ndarray, width: int) -> np.ndarray:
    """Vectorized :func:`repro.utils.hashing.skew_h_inverse`."""
    mask = np.uint64((1 << width) - 1)
    one = np.uint64(1)
    msb = (values >> np.uint64(width - 1)) & one
    next_msb = (values >> np.uint64(width - 2)) & one
    return ((values << one) & mask) | (msb ^ next_msb)


def skew_hash_array(v1: np.ndarray, v2: np.ndarray, bank: int,
                    width: int) -> np.ndarray:
    """Vectorized :func:`repro.utils.hashing.skew_hash` over uint64s."""
    if width <= 1:
        raise SimulationError("width must be > 1")
    if bank < 0:
        raise SimulationError("bank must be non-negative")
    mask = np.uint64((1 << width) - 1)
    a = v1.astype(np.uint64) & mask
    b = v2.astype(np.uint64) & mask
    keep = a.copy()
    for _ in range(bank + 1):
        a = _skew_h_array(a, width)
        b = _skew_h_inverse_array(b, width)
    return (a ^ b ^ keep) & mask


def _final_table_values(indices_sorted: np.ndarray, before: np.ndarray,
                        steps: np.ndarray, lo: int, hi: int,
                        size: int) -> np.ndarray:
    """Table contents *after* the whole run, reconstructed from the scan.

    ``before`` is the scan output (state seen by each element);
    applying each segment's last step to its own ``before`` yields the
    entry's final state.  Untouched entries stay at the reset value 0.
    """
    values = np.zeros(size, dtype=np.int64)
    if len(indices_sorted):
        is_last = np.empty(len(indices_sorted), dtype=bool)
        is_last[-1] = True
        np.not_equal(indices_sorted[1:], indices_sorted[:-1],
                     out=is_last[:-1])
        final = np.clip(before[is_last] + steps[is_last], lo, hi)
        values[indices_sorted[is_last].astype(np.int64)] = final
    return values


# ----------------------------------------------------------------------
# The batched table-op evaluator: per-predictor kernels and the driver.
# ----------------------------------------------------------------------


class _VectorContext:
    """Per-run inputs shared by every kernel.

    Exposes the conditional-branch streams (``ips``/``taken``), the
    *tracked* streams feeding history registers (all branches, or only
    the conditional ones under ``track_only_conditional``), and memoized
    history windows so composed kernels — and, under config-batched
    evaluation, *different configurations sharing one context* — pay for
    each derivation once.

    The memoization exploits the packed-window convention: bit ``k`` of a
    window is the outcome of the ``(k+1)``-th most recent tracked branch,
    so a length-``L`` window is the length-``L_max`` window masked to its
    low ``L`` bits.  Both caches therefore keep one *master* window array
    that is extended incrementally (one shifted-OR pass per new bit) and
    answer shorter lengths with a mask — a history-length sweep derives
    its windows once, not once per length.  ``reuse_count`` counts every
    request answered from a finished per-length entry (the
    ``context_reuse`` telemetry counter).
    """

    __slots__ = ("trace", "conditional", "ips", "taken", "n", "track_all",
                 "tracked_ips", "tracked_taken", "cond_positions",
                 "reuse_count", "_global_cache", "_global_master",
                 "_global_master_len", "_keyed_cache", "_branch_cache",
                 "_fold_cache")

    def __init__(self, data: TraceData, track_all: bool):
        self.trace = data
        self.conditional = data.conditional_mask()
        self.ips = data.ips[self.conditional]
        self.taken = data.taken[self.conditional]
        self.n = len(self.ips)
        self.track_all = track_all
        if track_all:
            self.tracked_ips = data.ips
            self.tracked_taken = data.taken
            self.cond_positions = np.flatnonzero(self.conditional)
        else:
            self.tracked_ips = self.ips
            self.tracked_taken = self.taken
            self.cond_positions = np.arange(self.n, dtype=np.int64)
        #: Finished global windows per requested length.
        self._global_cache: dict[int, np.ndarray] = {}
        #: Incrementally extended master global window (tracked stream).
        self._global_master: np.ndarray | None = None
        self._global_master_len = 0
        #: Per keyed stream (content-addressed): sort order, segment
        #: bounds, sorted outcome bits, master window and per-length
        #: results.
        self._keyed_cache: dict[Any, dict[str, Any]] = {}
        #: Per-warmup measured-region branch identity/occurrence/taken
        #: base — identical for every config sharing the warmup, so a
        #: batch pays the ``np.unique`` + ``tolist`` once.
        self._branch_cache: dict[int, tuple] = {}
        #: XOR-folds of the conditional address stream, keyed by width.
        self._fold_cache: dict[int, np.ndarray] = {}
        self.reuse_count = 0

    def branch_base(self, warmup: int, measured: np.ndarray) -> tuple:
        """Outcome-independent half of the per-branch profile.

        Returns ``(ips_list, inverse, bins, occurrences, taken_counts)``
        for the measured region of the given warmup; only the
        per-config ``wrong_counts`` bincount remains for the caller.
        """
        entry = self._branch_cache.get(warmup)
        if entry is None:
            unique_ips, inverse = np.unique(self.ips[measured],
                                            return_inverse=True)
            bins = len(unique_ips)
            occurrences = np.bincount(inverse, minlength=bins)
            taken_counts = np.bincount(inverse,
                                       weights=self.taken[measured],
                                       minlength=bins)
            entry = (unique_ips.tolist(), inverse, bins,
                     occurrences.tolist(), taken_counts.tolist())
            self._branch_cache[warmup] = entry
        return entry

    def global_history(self, history_length: int) -> np.ndarray:
        """Packed global history seen before each *conditional* branch."""
        cached = self._global_cache.get(history_length)
        if cached is not None:
            self.reuse_count += 1
            return cached
        if not 1 <= history_length <= 63:
            raise SimulationError("history_length must be in [1, 63]")
        if self._global_master is None:
            self._global_master = global_history_windows(
                self.tracked_taken, history_length)
            self._global_master_len = history_length
        elif history_length > self._global_master_len:
            bits = self.tracked_taken.astype(np.uint64)
            master = self._global_master
            for age in range(self._global_master_len + 1,
                             history_length + 1):
                master[age:] |= bits[:-age] << np.uint64(age - 1)
            self._global_master_len = history_length
        if history_length == self._global_master_len:
            windows = self._global_master
        else:
            # Shorter window = longer window masked to its low L bits.
            windows = self._global_master \
                & np.uint64((1 << history_length) - 1)
        cached = windows[self.cond_positions]
        self._global_cache[history_length] = cached
        return cached

    def folded_ips(self, width: int) -> np.ndarray:
        """XOR-fold of the conditional address stream, memoized by width.

        ``xor_fold`` is linear over XOR — the fold of ``a ^ b`` is the
        XOR of the two folds — so a kernel indexing by
        ``xor_fold(ip ^ h)`` can fold its config-dependent ``h``
        separately and XOR it with this shared fold.  A history-length
        sweep sharing one context then folds the (config-independent)
        address stream once, not once per configuration.
        """
        cached = self._fold_cache.get(width)
        if cached is not None:
            self.reuse_count += 1
            return cached
        cached = xor_fold_array(self.ips, width)
        self._fold_cache[width] = cached
        return cached

    def keyed_history(self, keys: np.ndarray,
                      history_length: int) -> np.ndarray:
        """Packed per-key history before each conditional branch.

        ``keys`` selects the history register per *tracked* branch
        (same length as ``tracked_ips``).  Streams are memoized by key
        *content* — callers rebuild their key arrays per request, so
        identity would never hit — and each stream's windows use the
        same master-and-mask scheme as :meth:`global_history`.
        """
        if not 1 <= history_length <= 63:
            raise SimulationError("history_length must be in [1, 63]")
        keys = np.asarray(keys)
        n = len(self.tracked_taken)
        if len(keys) != n:
            raise SimulationError("keys and outcomes must have equal length")
        if n == 0:
            return np.zeros(0, dtype=np.uint64)
        contiguous = np.ascontiguousarray(keys)
        stream_key = (keys.dtype.str, hashlib.blake2b(
            contiguous.tobytes(), digest_size=16).digest())
        entry = self._keyed_cache.get(stream_key)
        if entry is None:
            order = np.argsort(contiguous, kind="stable")
            sorted_keys = contiguous[order]
            positions = np.arange(n, dtype=np.int64)
            is_start = np.empty(n, dtype=bool)
            is_start[0] = True
            np.not_equal(sorted_keys[1:], sorted_keys[:-1],
                         out=is_start[1:])
            entry = {
                "order": order,
                "positions": positions,
                "segment_start": np.maximum.accumulate(
                    np.where(is_start, positions, 0)),
                "bits": self.tracked_taken[order].astype(np.uint64),
                "master": np.zeros(n, dtype=np.uint64),
                "master_len": 0,
                "per_length": {},
            }
            self._keyed_cache[stream_key] = entry
        per_length: dict[int, np.ndarray] = entry["per_length"]
        cached = per_length.get(history_length)
        if cached is not None:
            self.reuse_count += 1
            return cached
        master: np.ndarray = entry["master"]
        if history_length > entry["master_len"]:
            positions = entry["positions"]
            segment_start = entry["segment_start"]
            bits = entry["bits"]
            for age in range(entry["master_len"] + 1, history_length + 1):
                valid = positions >= segment_start + age
                master[valid] |= bits[positions[valid] - age] \
                    << np.uint64(age - 1)
            entry["master_len"] = history_length
        if history_length == entry["master_len"]:
            windows_sorted = master
        else:
            windows_sorted = master & np.uint64((1 << history_length) - 1)
        windows = np.empty(n, dtype=np.uint64)
        windows[entry["order"]] = windows_sorted
        cached = windows[self.cond_positions]
        per_length[history_length] = cached
        return cached


@dataclass(slots=True)
class KernelRun:
    """One kernel evaluation over a :class:`_VectorContext`.

    ``predictions`` is per conditional branch in trace order.
    ``fill_attribution(probe_like, measured)`` replays the predictor's
    measured-region ``probe.record`` accounting through the bulk hooks
    (``probe_like`` is the root probe or a scoped view).
    ``structure()`` rebuilds the end-of-run ``probe_stats()`` snapshot
    from the kernel's final table states.
    """

    predictions: np.ndarray
    fill_attribution: Callable[[Any, np.ndarray], None]
    structure: Callable[[], dict[str, Any]]


def _fill_component(probe_like: Any, ctx: _VectorContext, component: str,
                    provided_mask: np.ndarray, correct: np.ndarray,
                    overrides_mask: np.ndarray | None = None,
                    overridden: int = 0) -> None:
    """Replay one component's scalar ``record`` stream as bulk counts."""
    provided = int(provided_mask.sum())
    if overrides_mask is None:
        overrides = override_correct = 0
    else:
        overrides = int(overrides_mask.sum())
        override_correct = int((overrides_mask & correct).sum())
    probe_like.record_component_bulk(
        component, provided, int((provided_mask & correct).sum()),
        overrides=overrides, override_correct=override_correct,
        overridden=overridden)
    histogram = getattr(probe_like, "record_histogram_bulk", None)
    if histogram is not None and provided:
        unique_ips, counts = np.unique(ctx.ips[provided_mask],
                                       return_counts=True)
        for ip, count in zip(unique_ips.tolist(), counts.tolist()):
            histogram(int(ip), component, int(count))


class SaturatingTableKernel:
    """A single saturating-counter table with trace-derivable indices.

    Covers every predictor whose ``predict`` is ``counter >= 0`` and
    whose ``train`` is a clamped ±1 walk toward the outcome: bimodal,
    GShare and the whole two-level/local family (multiple pattern
    tables collapse into one index space).  ``index_fn(ctx)`` returns
    the per-conditional-branch index stream; because histories come
    from the *tracked* outcome stream, the same kernel also serves as a
    tournament's chooser via :meth:`run_masked` (trained only on
    disagreement branches, toward a synthetic outcome).

    ``component`` names the probe component recorded during ``train``
    (``None`` for predictors that record nothing); ``table_size`` sizes
    the structural snapshot (``None`` for predictors whose
    ``probe_stats`` is empty).
    """

    __slots__ = ("index_fn", "lo", "hi", "component", "table_size")

    def __init__(self, index_fn: Callable[[_VectorContext], np.ndarray],
                 counter_width: int, *, component: str | None = None,
                 table_size: int | None = None):
        if counter_width < 1:
            raise SimulationError("counter_width must be >= 1")
        self.index_fn = index_fn
        self.lo = -(1 << (counter_width - 1))
        self.hi = (1 << (counter_width - 1)) - 1
        self.component = component
        self.table_size = table_size

    def run(self, ctx: _VectorContext) -> KernelRun:
        return self.run_masked(ctx, ctx.taken, None)

    def run_masked(self, ctx: _VectorContext, outcomes: np.ndarray,
                   train_mask: np.ndarray | None) -> KernelRun:
        """Evaluate with training restricted to ``train_mask`` branches.

        Every branch still *reads* its counter (step 0 outside the
        mask), which is exactly a chooser's protocol: predict always,
        train only on disagreement.
        """
        indices = np.asarray(self.index_fn(ctx)).astype(np.int64)
        steps = np.where(outcomes, 1, -1).astype(np.int64)
        if train_mask is not None:
            steps = np.where(train_mask, steps, 0)
        order = np.argsort(indices, kind="stable")
        sorted_indices = indices[order]
        sorted_steps = steps[order]
        before = clamped_walk_states(sorted_indices, sorted_steps,
                                     self.lo, self.hi)
        predictions = np.empty(ctx.n, dtype=bool)
        predictions[order] = before >= 0
        return self._make_run(ctx, outcomes, train_mask, predictions,
                              lambda: (sorted_indices, before,
                                       sorted_steps))

    def _make_run(self, ctx: _VectorContext, outcomes: np.ndarray,
                  train_mask: np.ndarray | None, predictions: np.ndarray,
                  scan_arrays: Callable[[], tuple[np.ndarray, np.ndarray,
                                                  np.ndarray]]
                  ) -> KernelRun:
        """Build the :class:`KernelRun` from a finished scan.

        Shared by :meth:`run_masked` and the stacked batch path
        (:func:`stacked_saturating_runs`) — both produce closures over
        value-identical arrays and stay bit-exact by construction.
        ``scan_arrays`` is a thunk returning ``(sorted_indices, before,
        sorted_steps)``: only ``structure()`` (the probe path) reads
        them, so the stacked path can defer materialising per-row
        copies until a probe actually asks.
        """

        def fill_attribution(probe_like: Any, measured: np.ndarray) -> None:
            if self.component is None:
                return
            trained = (measured if train_mask is None
                       else measured & train_mask)
            _fill_component(probe_like, ctx, self.component, trained,
                            predictions == outcomes)

        def structure() -> dict[str, Any]:
            if self.table_size is None:
                return {}
            from ..utils.tables import distribution_stats

            sorted_indices, before, sorted_steps = scan_arrays()
            values = _final_table_values(sorted_indices, before,
                                         sorted_steps, self.lo, self.hi,
                                         self.table_size)
            return {self.component or "table":
                    distribution_stats(values, self.lo, self.hi)}

        return KernelRun(predictions, fill_attribution, structure)


#: Above this many python-loop iterations the time-stepped grouped
#: walk stops paying for itself; fall back to the doubling scan.  The
#: bound applies to ``loop_depth`` (iterations actually run), not the
#: longest segment — one pathologically hot table index only lengthens
#: the dense tail, which the doubling scan absorbs.
_GROUPED_WALK_LIMIT = 4096

#: Once fewer than this many segments remain live, the grouped loop is
#: pure per-iteration overhead; hand the survivors' tails to a dense
#: doubling scan instead.
_GROUPED_TAIL_WIDTH = 32


def _grouped_walk_states(segments: np.ndarray, steps: np.ndarray,
                         lo: int, hi: int) -> tuple[np.ndarray,
                                                    Callable[[], np.ndarray]]:
    """Time-step-parallel resolution of a stack of segmented ±1 walks.

    The doubling scan in :func:`clamped_walk_states` costs
    ``O(n log longest)`` over six working arrays; for the batched sweep
    path we instead *reorder* the exact scalar walk: elements are
    bucketed by depth (position within their segment), segments are
    ranked by length descending so the segments alive at depth ``p`` are
    exactly ranks ``[0, active_p)``, and one contiguous-slice python
    loop advances every live segment's state at once — each iteration is
    ``copy / add / clip`` over a shrinking prefix.  Because every
    element's before-state is produced by the same clamped walk the
    scalar loop performs, the result is bit-exact by construction (no
    algebraic composition involved).  The loop runs only while many
    segments are live; the few very long survivors' tails are compacted
    into a dense per-segment matrix — seeded by a first pseudo-step that
    carries each survivor's current state — and resolved by the doubling
    scan, whose passes are exact for any integer step size.

    Returns ``(predictions_sorted, before_fn)`` where
    ``predictions_sorted`` is the boolean ``state >= 0`` stream in
    sorted order and ``before_fn()`` materialises the full int64
    before-state array on demand (only the probe path needs it).
    """
    shape = segments.shape
    n = shape[-1]
    if n == 0:
        before = np.zeros(shape, dtype=np.int64)
        return before >= 0, lambda: before
    if not -128 <= lo <= hi <= 127:
        before = clamped_walk_states(segments, steps, lo, hi)
        return before >= 0, lambda: before
    is_start = np.empty(shape, dtype=bool)
    is_start[..., 0] = True
    np.not_equal(segments[..., 1:], segments[..., :-1], out=is_start[..., 1:])
    starts = np.flatnonzero(is_start.ravel()).astype(np.int32)
    num_segments = len(starts)
    total = int(np.prod(shape))
    lengths = np.empty(num_segments, dtype=np.int32)
    np.subtract(starts[1:], starts[:-1], out=lengths[:-1])
    lengths[-1] = total - starts[-1]
    longest = int(lengths.max())
    # active[p] = live segments at depth p = #(lengths > p), via the
    # length histogram — O(num_segments), no second 320k-element pass.
    length_counts = np.bincount(lengths, minlength=longest + 1)
    active = np.cumsum(length_counts[::-1])[::-1][1:]
    # Stop the sequential loop once the live prefix is narrow; the
    # survivors' tails go to the dense doubling scan below.
    cutoff = int(np.searchsorted(-active, -_GROUPED_TAIL_WIDTH))
    loop_depth = longest if longest - cutoff < 64 else cutoff
    if loop_depth > _GROUPED_WALK_LIMIT:
        before = clamped_walk_states(segments, steps, lo, hi)
        return before >= 0, lambda: before
    # Rank segments by length descending: every segment alive at depth p
    # (length > p) then outranks every dead one, so the live states are
    # always a contiguous prefix of the rank-ordered state array.  A
    # ``longest - length`` key that fits uint16 puts the rank sort on
    # the radix path; wider keys (one very hot index) pay a comparison
    # sort over num_segments elements, which the tail handover amortises.
    rank_key_dtype = np.uint16 if longest <= (1 << 16) else np.int32
    rank_order = np.argsort((longest - lengths).astype(rank_key_dtype),
                            kind="stable")
    rank_of_seg = np.empty(num_segments, dtype=np.int32)
    rank_of_seg[rank_order] = np.arange(num_segments, dtype=np.int32)
    bounds = np.concatenate(([0], np.cumsum(active))).astype(np.int32)
    # dest = bounds[depth] + rank: both terms come from one repeat each
    # (segment start / rank broadcast over the segment's elements).
    depth = np.arange(total, dtype=np.int32)
    depth -= np.repeat(starts, lengths)
    dest = np.take(bounds, depth)
    dest += np.repeat(rank_of_seg, lengths)
    # ±1 steps clamped to a counter range within int8: quarter the
    # memory traffic of the sequential loop.
    grouped_steps = np.empty(total, dtype=np.int8)
    grouped_steps[dest] = steps.ravel()
    grouped_before = np.empty(total, dtype=np.int8)
    states = np.zeros(num_segments, dtype=np.int8)
    ends = bounds[:loop_depth + 1].tolist()
    # Raw ufunc calls instead of np.clip: the clip wrapper re-derives
    # dtype limits per call, which at thousands of tiny iterations is
    # real overhead.
    lo8 = np.int8(lo)
    hi8 = np.int8(hi)
    add = np.add
    minimum = np.minimum
    maximum = np.maximum
    for p in range(loop_depth):
        a = ends[p]
        b = ends[p + 1]
        live = states[:b - a]
        grouped_before[a:b] = live
        add(live, grouped_steps[a:b], out=live)
        minimum(live, hi8, out=live)
        maximum(live, lo8, out=live)
    if loop_depth < longest:
        # Dense tail: rows = surviving segments (ranks [0, k)), columns
        # = remaining depths, padded with zero steps; column 0 is a
        # pseudo-step carrying each survivor's state at the handover
        # depth (maps the scan's initial 0 to exactly that state, since
        # it lies within [lo, hi]).
        k = int(active[loop_depth])
        tail = longest - loop_depth
        row = np.arange(k, dtype=np.int32)[:, None]
        idx = bounds[loop_depth:longest][None, :] + row
        valid = row < active[loop_depth:longest][None, :]
        dense_steps = np.zeros((k, tail + 1), dtype=np.int8)
        dense_steps[:, 0] = states[:k]
        np.copyto(dense_steps[:, 1:],
                  grouped_steps[np.minimum(idx, total - 1)], where=valid)
        rows = np.broadcast_to(row, (k, tail + 1))
        dense_before = clamped_walk_states(rows, dense_steps, lo, hi)
        grouped_before[idx[valid]] = dense_before[:, 1:][valid]
    predictions = np.take(grouped_before >= 0, dest).reshape(shape)

    def before_fn() -> np.ndarray:
        return np.take(grouped_before.astype(np.int64), dest).reshape(shape)

    return predictions, before_fn


def stacked_saturating_runs(ctx: _VectorContext,
                            kernels: Sequence[SaturatingTableKernel],
                            ) -> list[KernelRun]:
    """Evaluate same-bounds saturating-table kernels as one stacked pass.

    All ``kernels`` must share ``(lo, hi)``.  Their index streams are
    stacked along a leading config axis, one row-wise stable argsort
    (over the narrowest dtype that holds the indices — radix sorting
    uint16 keys is an order of magnitude faster than comparison-sorting
    int64) and one grouped walk resolve every table walk at once; each
    kernel gets its own :class:`KernelRun` built from its row — bit-exact
    with running the kernels one by one (stable sort order and walk
    states are value-identical to the standalone path's).
    """
    if len(kernels) == 1:
        return [kernels[0].run(ctx)]
    lo = kernels[0].lo
    hi = kernels[0].hi
    for kernel in kernels:
        if kernel.lo != lo or kernel.hi != hi:
            raise SimulationError(
                "stacked kernels must share their clamp bounds")
    rows = [np.asarray(k.index_fn(ctx)) for k in kernels]
    if ctx.n == 0:
        return [k.run(ctx) for k in kernels]
    lowest = min(int(row.min()) for row in rows)
    highest = max(int(row.max()) for row in rows)
    if 0 <= lowest and highest < (1 << 16):
        key_dtype = np.uint16
    elif -(1 << 31) <= lowest and highest < (1 << 31):
        key_dtype = np.int32
    else:
        key_dtype = np.int64
    sort_keys = np.empty((len(rows), ctx.n), dtype=key_dtype)
    for i, row in enumerate(rows):
        sort_keys[i] = row
    order = np.argsort(sort_keys, axis=-1, kind="stable")
    sorted_keys = np.take_along_axis(sort_keys, order, axis=-1)
    steps = np.where(ctx.taken, np.int8(1), np.int8(-1))
    sorted_steps = np.take(steps, order)
    pred_sorted, before_fn = _grouped_walk_states(sorted_keys, sorted_steps,
                                                  lo, hi)
    predictions = np.empty(sort_keys.shape, dtype=bool)
    np.put_along_axis(predictions, order, pred_sorted, axis=-1)
    # The probe path is the only consumer of the scan arrays; share one
    # lazily materialised before-state stack across all rows.
    lazy: dict[str, np.ndarray] = {}

    def row_arrays(row: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        before = lazy.get("before")
        if before is None:
            before = lazy["before"] = before_fn()
        return (sorted_keys[row].astype(np.int64), before[row],
                sorted_steps[row].astype(np.int64))

    return [
        kernel._make_run(ctx, ctx.taken, None, predictions[row],
                         lambda row=row: row_arrays(row))
        for row, kernel in enumerate(kernels)
    ]


class TournamentKernel:
    """The two-stream chooser combinator.

    Both base kernels run standalone (a tournament trains its bases
    unconditionally with the real outcome, so their streams are exact);
    the chooser is a :class:`SaturatingTableKernel` scanned with steps
    only on disagreement branches toward the synthetic outcome
    "predictor 1 was correct" — the partial-update policy of
    :class:`repro.predictors.Tournament`.
    """

    __slots__ = ("meta", "bp0", "bp1")

    def __init__(self, meta: SaturatingTableKernel, bp0: Any, bp1: Any):
        self.meta = meta
        self.bp0 = bp0
        self.bp1 = bp1

    def run(self, ctx: _VectorContext) -> KernelRun:
        run0 = self.bp0.run(ctx)
        run1 = self.bp1.run(ctx)
        p0 = run0.predictions
        p1 = run1.predictions
        disagreed = p0 != p1
        synthetic = p1 == ctx.taken
        meta_run = self.meta.run_masked(ctx, synthetic, disagreed)
        chooser = meta_run.predictions
        final = np.where(chooser, p1, p0)

        def fill_attribution(probe_like: Any, measured: np.ndarray) -> None:
            correct = final == ctx.taken
            for name, chose in (("predictor_0", ~chooser),
                                ("predictor_1", chooser)):
                provided_mask = measured & chose
                _fill_component(
                    probe_like, ctx, name, provided_mask, correct,
                    overrides_mask=provided_mask & disagreed,
                    overridden=int((measured & ~chose & disagreed).sum()))
            meta_run.fill_attribution(probe_like.scoped("metapredictor"),
                                      measured)
            run0.fill_attribution(probe_like.scoped("predictor_0"),
                                  measured)
            run1.fill_attribution(probe_like.scoped("predictor_1"),
                                  measured)

        def structure() -> dict[str, Any]:
            stats: dict[str, Any] = {}
            for role, sub in (("metapredictor", meta_run),
                              ("predictor_0", run0),
                              ("predictor_1", run1)):
                sub_stats = sub.structure()
                if sub_stats:
                    stats[role] = sub_stats
            return stats

        return KernelRun(final, fill_attribution, structure)


class GskewKernel:
    """Hybrid kernel for :class:`repro.predictors.TwoBcGskew`.

    All four bank index streams are precomputed with array passes
    (history windows, xor folds, skewed hashes); the cross-bank
    partial-update policy reads the other banks' current signs, which
    is irreducibly sequential, so the per-branch update runs as a tight
    scalar loop over plain integer lists.
    """

    __slots__ = ("log_bank_size", "history_length_g0", "history_length_g1")

    def __init__(self, log_bank_size: int, history_length_g0: int,
                 history_length_g1: int):
        self.log_bank_size = log_bank_size
        self.history_length_g0 = history_length_g0
        self.history_length_g1 = history_length_g1

    def run(self, ctx: _VectorContext) -> KernelRun:
        w = self.log_bank_size
        one = np.uint64(1)
        ghist = ctx.global_history(max(self.history_length_g0,
                                       self.history_length_g1))
        mask0 = np.uint64((1 << self.history_length_g0) - 1)
        mask1 = np.uint64((1 << self.history_length_g1) - 1)
        folded_ip = xor_fold_array(ctx.ips, w)
        v0 = xor_fold_array(ctx.ips ^ ((ghist & mask0) << one), w)
        v1 = xor_fold_array(ctx.ips ^ ((ghist & mask1) << one), w)
        bim_idx = folded_ip.astype(np.int64).tolist()
        g0_idx = skew_hash_array(v0, folded_ip, 0, w).astype(
            np.int64).tolist()
        g1_idx = skew_hash_array(v1, folded_ip, 1, w).astype(
            np.int64).tolist()
        outcomes = ctx.taken.tolist()

        size = 1 << w
        bim = [0] * size
        g0 = [0] * size
        g1 = [0] * size
        meta = [0] * size
        finals = []
        used_gskew = []
        disagreements = []
        for i in range(ctx.n):
            bi = bim_idx[i]
            i0 = g0_idx[i]
            i1 = g1_idx[i]
            taken = outcomes[i]
            bim_pred = bim[bi] >= 0
            g0_pred = g0[i0] >= 0
            g1_pred = g1[i1] >= 0
            majority = (bim_pred + g0_pred + g1_pred) >= 2
            use_gskew = meta[bi] >= 0
            final = majority if use_gskew else bim_pred
            finals.append(final)
            used_gskew.append(use_gskew)
            disagreed = bim_pred != majority
            disagreements.append(disagreed)
            if disagreed:
                v = meta[bi]
                if majority == taken:
                    if v < 1:
                        meta[bi] = v + 1
                elif v > -2:
                    meta[bi] = v - 1
            if final == taken:
                if use_gskew:
                    if bim_pred == taken:
                        v = bim[bi]
                        if taken:
                            if v < 1:
                                bim[bi] = v + 1
                        elif v > -2:
                            bim[bi] = v - 1
                    if g0_pred == taken:
                        v = g0[i0]
                        if taken:
                            if v < 1:
                                g0[i0] = v + 1
                        elif v > -2:
                            g0[i0] = v - 1
                    if g1_pred == taken:
                        v = g1[i1]
                        if taken:
                            if v < 1:
                                g1[i1] = v + 1
                        elif v > -2:
                            g1[i1] = v - 1
                else:
                    v = bim[bi]
                    if taken:
                        if v < 1:
                            bim[bi] = v + 1
                    elif v > -2:
                        bim[bi] = v - 1
            else:
                for table, index in ((bim, bi), (g0, i0), (g1, i1)):
                    v = table[index]
                    if taken:
                        if v < 1:
                            table[index] = v + 1
                    elif v > -2:
                        table[index] = v - 1
        predictions = np.array(finals, dtype=bool)
        gskew_provided = np.array(used_gskew, dtype=bool)
        disagreed = np.array(disagreements, dtype=bool)

        def fill_attribution(probe_like: Any, measured: np.ndarray) -> None:
            correct = predictions == ctx.taken
            for name, provided in (("gskew", gskew_provided),
                                   ("bimodal", ~gskew_provided)):
                provided_mask = measured & provided
                _fill_component(
                    probe_like, ctx, name, provided_mask, correct,
                    overrides_mask=provided_mask & disagreed,
                    overridden=int((measured & ~provided
                                    & disagreed).sum()))

        def structure() -> dict[str, Any]:
            from ..utils.tables import distribution_stats

            return {
                "bimodal": distribution_stats(bim, -2, 1),
                "g0": distribution_stats(g0, -2, 1),
                "g1": distribution_stats(g1, -2, 1),
                "meta": distribution_stats(meta, -2, 1),
            }

        return KernelRun(predictions, fill_attribution, structure)


class YagsKernel:
    """Hybrid kernel for :class:`repro.predictors.Yags`.

    Choice indices, cache indices and partial tags are precomputed with
    array passes; the exception caches' install/refine policy depends
    on each entry's current tag, so the update loop stays scalar over
    plain integer lists.
    """

    __slots__ = ("log_choice_size", "log_cache_size", "tag_width",
                 "history_length")

    def __init__(self, log_choice_size: int, log_cache_size: int,
                 tag_width: int, history_length: int):
        self.log_choice_size = log_choice_size
        self.log_cache_size = log_cache_size
        self.tag_width = tag_width
        self.history_length = history_length

    def run(self, ctx: _VectorContext) -> KernelRun:
        ghist = ctx.global_history(self.history_length)
        choice_mask = np.uint64((1 << self.log_choice_size) - 1)
        choice_idx = (ctx.ips & choice_mask).astype(np.int64).tolist()
        cache_idx = xor_fold_array(ctx.ips ^ ghist,
                                   self.log_cache_size).astype(
            np.int64).tolist()
        tags = xor_fold_array(ctx.ips >> np.uint64(1),
                              self.tag_width).astype(np.int64).tolist()
        outcomes = ctx.taken.tolist()

        choice = [0] * (1 << self.log_choice_size)
        cache_size = 1 << self.log_cache_size
        taken_tags = [-1] * cache_size
        taken_ctrs = [0] * cache_size
        not_taken_tags = [-1] * cache_size
        not_taken_ctrs = [0] * cache_size
        finals = []
        # 0 = choice provided, 1 = taken_cache, 2 = not_taken_cache.
        providers = []
        overrode_choice = []
        for i in range(ctx.n):
            ci = choice_idx[i]
            ki = cache_idx[i]
            tag = tags[i]
            taken = outcomes[i]
            bias_taken = choice[ci] >= 0
            if bias_taken:
                entry_tags, entry_ctrs = not_taken_tags, not_taken_ctrs
            else:
                entry_tags, entry_ctrs = taken_tags, taken_ctrs
            hit = entry_tags[ki] == tag
            final = (entry_ctrs[ki] >= 0) if hit else bias_taken
            finals.append(final)
            providers.append((2 if bias_taken else 1) if hit else 0)
            overrode_choice.append(hit and final != bias_taken)
            if not (bias_taken != taken and hit and final == taken):
                value = choice[ci] + (1 if taken else -1)
                choice[ci] = min(1, max(-2, value))
            if taken != bias_taken or hit:
                if entry_tags[ki] != tag:
                    entry_tags[ki] = tag
                    entry_ctrs[ki] = 0 if taken else -1
                else:
                    value = entry_ctrs[ki] + (1 if taken else -1)
                    entry_ctrs[ki] = min(1, max(-2, value))
        predictions = np.array(finals, dtype=bool)
        provider_codes = np.array(providers, dtype=np.int8)
        overrides = np.array(overrode_choice, dtype=bool)

        def fill_attribution(probe_like: Any, measured: np.ndarray) -> None:
            correct = predictions == ctx.taken
            _fill_component(probe_like, ctx, "choice",
                            measured & (provider_codes == 0), correct,
                            overridden=int((measured & overrides).sum()))
            for name, code in (("taken_cache", 1), ("not_taken_cache", 2)):
                provided_mask = measured & (provider_codes == code)
                _fill_component(probe_like, ctx, name, provided_mask,
                                correct,
                                overrides_mask=provided_mask & overrides)

        def structure() -> dict[str, Any]:
            from ..utils.tables import distribution_stats

            def cache_stats(entry_tags: list[int],
                            entry_ctrs: list[int]) -> dict[str, Any]:
                stats = distribution_stats(entry_ctrs, -2, 1)
                live = sum(1 for tag in entry_tags if tag != -1)
                stats["live_fraction"] = live / len(entry_tags)
                return stats

            return {
                "choice": distribution_stats(choice, -2, 1),
                "taken_cache": cache_stats(taken_tags, taken_ctrs),
                "not_taken_cache": cache_stats(not_taken_tags,
                                               not_taken_ctrs),
            }

        return KernelRun(predictions, fill_attribution, structure)


def _plan_accounting(data: TraceData, limit: int | None,
                     ) -> tuple[TraceData, np.ndarray, int, int, bool]:
    """Replicate the scalar loop's instruction accounting.

    A branch is simulated iff its cumulative instruction count stays
    within the limit; trailing non-branch instructions count only while
    they fit.  Returns ``(work, numbers, included, instructions,
    exhausted)`` — the (possibly truncated) trace to evaluate, its
    cumulative instruction numbers, the included branch count, the
    executed instruction total and the exhausted-trace flag.
    """
    numbers = data.instruction_numbers()
    num_branches = len(numbers)
    if limit is not None:
        included = int(np.searchsorted(numbers, limit, side="right"))
    else:
        included = num_branches
    truncated = included < num_branches
    if truncated:
        work = data.slice(0, included)
        numbers = numbers[:included]
    else:
        work = data
    instructions = int(numbers[included - 1]) if included else 0
    exhausted = not truncated
    if exhausted and data.num_instructions > instructions:
        trailing = data.num_instructions - instructions
        if limit is not None and instructions + trailing > limit:
            instructions = limit
            exhausted = False
        else:
            instructions += trailing
    return work, numbers, included, instructions, exhausted


def _finish_unit(predictor: "Predictor", name: str,
                 config: "SimulationConfig", ctx: _VectorContext,
                 run: KernelRun, numbers: np.ndarray, included: int,
                 instructions: int, exhausted: bool, start: float,
                 telemetry: "IntervalRecorder | None",
                 probe: "PredictionProbe | None",
                 instrumentation: "Instrumentation | None",
                 ) -> "SimulationResult":
    """Turn one finished kernel run into a :class:`SimulationResult`.

    The single finisher shared by :func:`simulate_vectorized` and the
    config-batched path (:func:`run_unit_group`): measured-region
    counting, interval-telemetry replay, probe fill, ``most_failed`` and
    result assembly all live here, so a batched unit's result is
    byte-identical to a per-unit one by construction.  ``start`` is the
    unit's simulation start time (``simulation_time`` runs from it to
    the end of the telemetry replay, matching the standalone engine).
    """
    from .metrics import MostFailedEntry, accuracy, mpki
    from .output import SimulationResult

    instr = instrumentation
    warmup = config.warmup_instructions
    cond_numbers = numbers[ctx.conditional]
    measured = cond_numbers > warmup
    wrong = run.predictions != ctx.taken
    conditional_branches = int(measured.sum())
    mispredictions = int((wrong & measured).sum())

    recorder = telemetry
    if recorder is not None:
        # Replay the scalar loop's interval protocol: a record fires at
        # the first branch whose cumulative count reaches the next mark,
        # then sampling realigns to the grid.
        recorder.start(warmup)
        mark_step = recorder.interval
        contributes = np.zeros(included, dtype=np.int64)
        cond_positions = np.flatnonzero(ctx.conditional)
        contributes[cond_positions[measured]] = 1
        cum_cond = np.cumsum(contributes)
        contributes[:] = 0
        contributes[cond_positions[measured & wrong]] = 1
        cum_misp = np.cumsum(contributes)
        index = int(np.searchsorted(numbers, mark_step, side="left"))
        while index < included:
            at = int(numbers[index])
            recorder.record(at, int(cum_cond[index]), int(cum_misp[index]))
            next_mark = (at // mark_step + 1) * mark_step
            index = int(np.searchsorted(numbers, next_mark, side="left"))

    elapsed = time.perf_counter() - start

    if recorder is not None:
        recorder.finish(instructions, conditional_branches, mispredictions)

    final_start = time.perf_counter() if instr is not None else 0.0
    measured_instructions = max(0, instructions - warmup)

    per_branch = None
    wrong_counts = None
    ips_list = occurrences = None
    if (probe is not None or config.collect_most_failed) and measured.any():
        ips_list, inverse, bins, occurrences, taken_counts = \
            ctx.branch_base(warmup, measured)
        wrong_counts = np.bincount(inverse, weights=wrong[measured],
                                   minlength=bins)
        per_branch = (ips_list, occurrences, taken_counts,
                      wrong_counts.tolist())

    probe_report = None
    if probe is not None:
        probe.start()
        run.fill_attribution(probe, measured)
        if per_branch is not None:
            for ip, occ, taken_count, wrong_count in zip(*per_branch):
                probe.record_branch_bulk(int(ip), int(occ),
                                         int(taken_count),
                                         int(wrong_count))
        probe.set_structure(run.structure())
        probe_report = probe.report()

    most_failed = []
    if config.collect_most_failed and wrong_counts is not None \
            and mispredictions:
        # Vectorized equivalent of :func:`metrics.most_failed_branches`:
        # rank by (-mispredictions, ip) — ``ips_list`` is ascending from
        # ``np.unique``, so a stable sort on the negated counts breaks
        # ties by address — and take the shortest prefix covering half
        # the mispredictions (rounded up).
        failing = np.flatnonzero(wrong_counts)
        ranked = failing[np.argsort(-wrong_counts[failing], kind="stable")]
        target = (mispredictions + 1) // 2
        covered = np.cumsum(wrong_counts[ranked])
        take = int(np.searchsorted(covered, target)) + 1
        for i in ranked[:take].tolist():
            failed = int(wrong_counts[i])
            occ = int(occurrences[i])
            most_failed.append(MostFailedEntry(
                ip=int(ips_list[i]), occurrences=occ,
                mispredictions=failed,
                mpki=mpki(failed, measured_instructions),
                accuracy=accuracy(failed, occ)))

    phases_snapshot = None
    if instr is not None:
        instr.add_phase("simulate_loop", elapsed)
        instr.add_phase("finalize", time.perf_counter() - final_start)
        recorded = getattr(instr, "phases", None)
        if recorded is not None:
            phases_snapshot = dict(recorded)
    return SimulationResult(
        trace_name=name,
        warmup_instructions=warmup,
        simulation_instructions=measured_instructions,
        exhausted_trace=exhausted,
        num_branch_instructions=included,
        num_conditional_branches=conditional_branches,
        mispredictions=mispredictions,
        simulation_time=elapsed,
        predictor_metadata=predictor.metadata_stats(),
        predictor_statistics=predictor.execution_stats(),
        most_failed=most_failed,
        phases=phases_snapshot,
        probe_report=probe_report,
    )


def simulate_vectorized(predictor: "Predictor", trace: Any,
                        config: "SimulationConfig | None" = None, *,
                        trace_name: str | None = None,
                        instrumentation: "Instrumentation | None" = None,
                        telemetry: "IntervalRecorder | None" = None,
                        probe: "PredictionProbe | None" = None
                        ) -> "SimulationResult":
    """Vectorized counterpart of :func:`repro.core.simulator.simulate`.

    Evaluates ``predictor``'s vector kernel over the whole trace and
    returns a :class:`~repro.core.output.SimulationResult` byte-identical
    (up to wall-clock ``simulation_time``) to the scalar engine's —
    including warmup/``max_instructions`` accounting, ``most_failed``,
    interval telemetry records and the probe report.  Raises
    :class:`~repro.core.errors.EngineNotSupportedError` when the
    predictor has no kernel.  The predictor instance itself is never
    trained — only its configuration is read.
    """
    from .simulator import SimulationConfig, _resolve_trace

    config = config or SimulationConfig()
    kernel = predictor.vector_kernel()
    if kernel is None:
        raise EngineNotSupportedError(
            f"predictor {predictor.name()!r} does not provide a vector "
            "kernel; run it with engine='scalar' (or 'auto' to fall back "
            "automatically)")
    instr = instrumentation

    read_start = time.perf_counter() if instr is not None else 0.0
    data, default_name = _resolve_trace(trace)
    if instr is not None:
        instr.add_phase("trace_read", time.perf_counter() - read_start)
    name = trace_name if trace_name is not None else default_name

    start = time.perf_counter()
    work, numbers, included, instructions, exhausted = _plan_accounting(
        data, config.max_instructions)

    ctx = _VectorContext(work, track_all=not config.track_only_conditional)
    run = kernel.run(ctx)
    if instr is not None and ctx.reuse_count:
        instr.count("context_reuse", ctx.reuse_count)
    return _finish_unit(predictor, name, config, ctx, run, numbers,
                        included, instructions, exhausted, start,
                        telemetry, probe, instr)


def run_unit_group(data: TraceData, units: Sequence[tuple],
                   ) -> tuple[list[Any], dict[str, int]]:
    """Evaluate several configs over one decoded trace in batched passes.

    ``units`` is a sequence of ``(factory, config, name, probe,
    sim_engine, prebuilt)`` tuples — the fields of a
    :class:`~repro.core.plan.WorkUnit` plus an optional prebuilt
    predictor instance.  The trace context is built once per
    ``(max_instructions, track_only_conditional)`` combination, derived
    history windows are memoized across configs inside it, and
    same-bounds :class:`SaturatingTableKernel` units are stacked into a
    single N-D scan (:func:`stacked_saturating_runs`); hybrid kernels
    run per unit over the shared context, and units without a kernel —
    or with ``sim_engine="scalar"`` — fall back to the per-unit funnel
    path one by one.  Any per-unit error (including a failed stack,
    retried unit by unit) becomes that unit's
    :class:`~repro.core.batch.TraceFailure`; the other units are
    unaffected.

    Returns ``(outcomes, info)``: one
    :class:`~repro.core.output.SimulationResult` or ``TraceFailure``
    per unit, in order, byte-identical (up to wall clock) to the
    per-unit path, plus an ``info`` dict with ``context_reuse`` — the
    number of derived-history recomputations the shared contexts
    avoided.
    """
    from .batch import TraceFailure, _run_one
    from .simulator import SimulationConfig

    outcomes: list[Any] = [None] * len(units)
    prepared: dict[int, tuple[Any, Any, Any, str, bool]] = {}
    accts: dict[Any, tuple] = {}
    ctxs: dict[Any, _VectorContext] = {}
    stacks: dict[Any, list[int]] = {}
    singles: list[int] = []

    def failure(name: str, exc: BaseException) -> "TraceFailure":
        return TraceFailure(name, error=f"{type(exc).__name__}: {exc}",
                            details=traceback.format_exc())

    for position, unit in enumerate(units):
        factory, config, name, probe, sim_engine, prebuilt = unit
        try:
            predictor = prebuilt if prebuilt is not None else factory()
            kernel = predictor.vector_kernel()
        except Exception as exc:
            outcomes[position] = failure(name, exc)
            continue
        if kernel is None or sim_engine not in ("vectorized", "auto"):
            # No batchable kernel (or an explicitly scalar unit): the
            # existing per-unit fault barrier reproduces every edge of
            # the funnel path, including EngineNotSupportedError
            # wrapping for sim_engine="vectorized".
            outcomes[position] = _run_one(factory, data, config, name,
                                          probe, predictor=predictor,
                                          sim_engine=sim_engine)
            continue
        cfg = config or SimulationConfig()
        prepared[position] = (predictor, kernel, cfg, name, probe)
        ctx_key = (cfg.max_instructions, cfg.track_only_conditional)
        if isinstance(kernel, SaturatingTableKernel):
            stacks.setdefault((ctx_key, kernel.lo, kernel.hi),
                              []).append(position)
        else:
            singles.append(position)

    def context_for(cfg: "SimulationConfig") -> _VectorContext:
        ctx_key = (cfg.max_instructions, cfg.track_only_conditional)
        ctx = ctxs.get(ctx_key)
        if ctx is None:
            acct = accts.get(cfg.max_instructions)
            if acct is None:
                acct = _plan_accounting(data, cfg.max_instructions)
                accts[cfg.max_instructions] = acct
            ctx = _VectorContext(
                acct[0], track_all=not cfg.track_only_conditional)
            ctxs[ctx_key] = ctx
        return ctx

    def finish(position: int, ctx: _VectorContext, run: KernelRun,
               start: float) -> "SimulationResult":
        predictor, _kernel, cfg, name, probe = prepared[position]
        _work, numbers, included, instructions, exhausted = (
            accts[cfg.max_instructions])
        probe_obj = None
        if probe:
            from ..probe import PredictionProbe

            probe_obj = PredictionProbe()
        return _finish_unit(predictor, name, cfg, ctx, run, numbers,
                            included, instructions, exhausted, start,
                            None, probe_obj, None)

    def run_alone(position: int) -> None:
        _predictor, kernel, cfg, name, _probe = prepared[position]
        try:
            ctx = context_for(cfg)
            start = time.perf_counter()
            outcomes[position] = finish(position, ctx, kernel.run(ctx),
                                        start)
        except Exception as exc:
            outcomes[position] = failure(name, exc)

    for (ctx_key, _lo, _hi), members in stacks.items():
        cfg = prepared[members[0]][2]
        try:
            ctx = context_for(cfg)
        except Exception as exc:
            for position in members:
                outcomes[position] = failure(prepared[position][3], exc)
            continue
        shared_start = time.perf_counter()
        try:
            runs = stacked_saturating_runs(
                ctx, [prepared[p][1] for p in members])
        except Exception:
            # One bad kernel must not poison its stack-mates: retry the
            # whole sub-batch unit by unit so only the failing unit
            # reports a TraceFailure.
            for position in members:
                run_alone(position)
            continue
        share = (time.perf_counter() - shared_start) / len(members)
        for position, run in zip(members, runs):
            try:
                outcomes[position] = finish(
                    position, ctx, run, time.perf_counter() - share)
            except Exception as exc:
                outcomes[position] = failure(prepared[position][3], exc)

    for position in singles:
        run_alone(position)

    info = {"context_reuse":
            sum(ctx.reuse_count for ctx in ctxs.values())}
    return outcomes, info
