"""The :class:`PredictionProbe` accumulator and its scoped views.

Attribution model
-----------------
Every *composed* predictor decides, per branch, which component's answer
becomes the final prediction.  During ``train`` — after the predict-time
state has been re-established but before any table is mutated — the
predictor calls::

    probe.record(ip, provider, correct, overrode=loser_or_None)

``provider`` is the component whose answer was returned, ``correct`` is
whether that final answer matched the outcome, and ``overrode`` names
the component whose *disagreeing* answer was discarded (``None`` when
there was no disagreement).  Counts land in per-scope matrices; a scope
is a ``/``-joined component path (the root scope is ``""``), so a
tournament whose arm is itself composed reports both levels.

Invariant: within every scope, ``sum(provided)`` over its components
equals that scope's ``predictions`` total, and the root scope's total
equals the simulator's measured conditional-branch count.

Branch profiling records ``(occurrences, taken, mispredictions)`` per
instruction pointer plus, for root-scope events, a provider histogram
used to label each branch with its *dominant component*.  Structural
snapshots are whatever ``predictor.probe_stats()`` returns (nested dicts
of table statistics from :func:`repro.utils.tables.distribution_stats`).
"""

from __future__ import annotations

from typing import Any

__all__ = [
    "PROBE_SCHEMA",
    "PredictionProbe",
    "ScopedProbe",
    "probe_consistent_with",
]

#: Version of the probe report layout (``report()["schema"]``).
PROBE_SCHEMA = 1

# Indices into a component's count cell.
_PROVIDED, _CORRECT, _OVERRIDES, _OVERRIDE_CORRECT, _OVERRIDDEN = range(5)


class PredictionProbe:
    """Accumulates component attribution, branch profiles and structure.

    One probe observes one run: call :meth:`start` before simulating
    (``warmup_active=True`` defers counting until :meth:`arm`), let the
    predictor's ``record``/``record_branch`` calls accumulate, then
    :meth:`finish` to snapshot structural statistics and :meth:`report`
    to obtain the JSON-ready result.

    ``top_branches`` bounds the rendered top-offenders table, not the
    tracking: every measured branch is profiled (the per-branch dict is
    the same bookkeeping the simulator already does for
    ``most_failed``).
    """

    def __init__(self, *, top_branches: int = 20):
        self.top_branches = top_branches
        self._armed = True
        # scope -> component -> [provided, correct, overrides,
        #                        override_correct, overridden]
        self._scopes: dict[str, dict[str, list[int]]] = {}
        self._scope_totals: dict[str, int] = {}
        # ip -> [occurrences, taken, mispredictions]
        self._branches: dict[int, list[int]] = {}
        # ip -> {component: root-scope provided count}
        self._branch_components: dict[int, dict[str, int]] = {}
        self._structure: dict[str, Any] = {}

    # -- lifecycle ----------------------------------------------------

    def start(self, *, warmup_active: bool = False) -> None:
        """Reset all counts; defer counting when a warmup phase runs."""
        self._armed = not warmup_active
        self._scopes.clear()
        self._scope_totals.clear()
        self._branches.clear()
        self._branch_components.clear()
        self._structure = {}

    def arm(self) -> None:
        """Begin counting (the simulator calls this when warmup ends)."""
        self._armed = True

    def finish(self, predictor: Any = None) -> None:
        """Snapshot end-of-run structural statistics from ``predictor``."""
        if predictor is not None:
            stats = predictor.probe_stats()
            if stats:
                self._structure = stats

    def set_structure(self, structure: dict[str, Any]) -> None:
        """Install structural statistics directly (vectorized engines)."""
        self._structure = dict(structure)

    # -- event hooks (called from predictors' train paths) ------------

    def record(self, ip: int, provider: str, correct: bool,
               overrode: str | None = None, scope: str = "") -> None:
        """One attributed prediction: ``provider`` supplied the answer.

        ``overrode`` names the component whose disagreeing answer lost;
        the provider's override counters and the loser's ``overridden``
        counter advance together.
        """
        if not self._armed:
            return
        components = self._scopes.get(scope)
        if components is None:
            components = self._scopes[scope] = {}
        self._scope_totals[scope] = self._scope_totals.get(scope, 0) + 1
        cell = components.get(provider)
        if cell is None:
            cell = components[provider] = [0, 0, 0, 0, 0]
        cell[_PROVIDED] += 1
        if correct:
            cell[_CORRECT] += 1
        if overrode is not None:
            cell[_OVERRIDES] += 1
            if correct:
                cell[_OVERRIDE_CORRECT] += 1
            loser = components.get(overrode)
            if loser is None:
                loser = components[overrode] = [0, 0, 0, 0, 0]
            loser[_OVERRIDDEN] += 1
        if scope == "":
            histogram = self._branch_components.get(ip)
            if histogram is None:
                histogram = self._branch_components[ip] = {}
            histogram[provider] = histogram.get(provider, 0) + 1

    def record_branch(self, ip: int, taken: bool, mispredicted: bool) -> None:
        """Profile one measured conditional branch (simulator hook)."""
        if not self._armed:
            return
        cell = self._branches.get(ip)
        if cell is None:
            cell = self._branches[ip] = [0, 0, 0]
        cell[0] += 1
        if taken:
            cell[1] += 1
        if mispredicted:
            cell[2] += 1

    # -- bulk hooks (vectorized engines) ------------------------------

    def record_component_bulk(self, provider: str, provided: int,
                              correct: int, *, overrides: int = 0,
                              override_correct: int = 0,
                              overridden: int = 0,
                              scope: str = "") -> None:
        """Attribute a component's aggregate counts, overrides included.

        ``provided``/``correct`` count the component's predictions and
        how many were right; for arbitrated predictors
        ``overrides``/``override_correct`` count the provider's wins over
        a disagreeing loser, ``overridden`` its own losses.  Mirrors
        :meth:`record` cell semantics — a component that neither
        provided nor was overridden gets no cell, and only provided
        predictions advance the scope total.
        """
        if not self._armed or (provided <= 0 and overridden <= 0):
            return
        components = self._scopes.setdefault(scope, {})
        if provided > 0:
            self._scope_totals[scope] = (
                self._scope_totals.get(scope, 0) + provided)
        cell = components.setdefault(provider, [0, 0, 0, 0, 0])
        cell[_PROVIDED] += provided
        cell[_CORRECT] += correct
        cell[_OVERRIDES] += overrides
        cell[_OVERRIDE_CORRECT] += override_correct
        cell[_OVERRIDDEN] += overridden

    def record_histogram_bulk(self, ip: int, component: str,
                              count: int) -> None:
        """Count ``count`` root-scope provisions of ``component`` at ``ip``.

        Feeds the dominant-component labelling of the top-offenders
        table.  Deliberately absent from :class:`ScopedProbe`: only
        root-scope :meth:`record` events feed the histogram, so bulk
        fillers probing ``hasattr`` skip it inside scopes exactly like
        the scalar path does.
        """
        if not self._armed or count <= 0:
            return
        histogram = self._branch_components.setdefault(ip, {})
        histogram[component] = histogram.get(component, 0) + count

    def record_branch_bulk(self, ip: int, occurrences: int, taken: int,
                           mispredictions: int,
                           component: str | None = None) -> None:
        """Profile one branch's aggregate counts in a single call."""
        if not self._armed or occurrences <= 0:
            return
        cell = self._branches.setdefault(ip, [0, 0, 0])
        cell[0] += occurrences
        cell[1] += taken
        cell[2] += mispredictions
        if component is not None:
            histogram = self._branch_components.setdefault(ip, {})
            histogram[component] = histogram.get(component, 0) + occurrences

    # -- reporting ----------------------------------------------------

    def scoped(self, name: str) -> "ScopedProbe":
        """A view recording into the child scope ``name``."""
        return ScopedProbe(self, name)

    def report(self) -> dict[str, Any]:
        """The JSON-ready probe report (plain dicts and ints only)."""
        attribution: dict[str, Any] = {}
        for scope in sorted(self._scopes):
            components = {}
            for name in sorted(self._scopes[scope]):
                cell = self._scopes[scope][name]
                components[name] = {
                    "provided": cell[_PROVIDED],
                    "correct": cell[_CORRECT],
                    "overrides": cell[_OVERRIDES],
                    "override_correct": cell[_OVERRIDE_CORRECT],
                    "overridden": cell[_OVERRIDDEN],
                }
            attribution[scope] = {
                "predictions": self._scope_totals.get(scope, 0),
                "components": components,
            }
        offenders = []
        ranked = sorted(self._branches.items(),
                        key=lambda item: (-item[1][2], item[0]))
        for ip, (occurrences, taken, mispredictions) in ranked:
            if len(offenders) >= self.top_branches:
                break
            histogram = self._branch_components.get(ip)
            dominant = (max(sorted(histogram), key=histogram.get)
                        if histogram else None)
            offenders.append({
                "ip": ip,
                "occurrences": occurrences,
                "taken": taken,
                "taken_rate": taken / occurrences,
                "mispredictions": mispredictions,
                "misprediction_rate": mispredictions / occurrences,
                "dominant_component": dominant,
            })
        return {
            "schema": PROBE_SCHEMA,
            "attribution": attribution,
            "branches": {
                "tracked": len(self._branches),
                "top_offenders": offenders,
            },
            "structure": self._structure,
        }

    def __repr__(self) -> str:
        return (f"PredictionProbe(scopes={sorted(self._scopes)}, "
                f"branches={len(self._branches)}, armed={self._armed})")


class ScopedProbe:
    """A prefix-scoped view of a :class:`PredictionProbe`.

    Composed predictors hand each sub-component
    ``probe.scoped("role")`` in ``attach_probe``; the component records
    exactly as if it were the root, and its events land under the
    ``role`` scope.  Scoping nests: ``scoped("a").scoped("b")`` records
    into scope ``"a/b"``.
    """

    __slots__ = ("_probe", "_scope")

    def __init__(self, probe: PredictionProbe, scope: str):
        self._probe = probe
        self._scope = scope

    def record(self, ip: int, provider: str, correct: bool,
               overrode: str | None = None, scope: str = "") -> None:
        path = f"{self._scope}/{scope}" if scope else self._scope
        self._probe.record(ip, provider, correct, overrode, scope=path)

    def record_component_bulk(self, provider: str, provided: int,
                              correct: int, *, overrides: int = 0,
                              override_correct: int = 0,
                              overridden: int = 0,
                              scope: str = "") -> None:
        path = f"{self._scope}/{scope}" if scope else self._scope
        self._probe.record_component_bulk(
            provider, provided, correct, overrides=overrides,
            override_correct=override_correct, overridden=overridden,
            scope=path)

    def scoped(self, name: str) -> "ScopedProbe":
        return ScopedProbe(self._probe, f"{self._scope}/{name}")

    def __repr__(self) -> str:
        return f"ScopedProbe({self._scope!r})"


def probe_consistent_with(report: dict[str, Any], result: Any) -> bool:
    """Check a probe report against its run's :class:`SimulationResult`.

    Verifies the accounting invariants: per scope, component
    ``provided`` counts sum to the scope's ``predictions``; the root
    scope (when it recorded attribution) saw exactly the measured
    conditional branches, with ``correct`` summing to the non-
    mispredicted count; and the branch profile totals match the run's
    branch and misprediction counts.
    """
    attribution = report.get("attribution", {})
    for scope in attribution.values():
        provided = sum(c["provided"] for c in scope["components"].values())
        if provided != scope["predictions"]:
            return False
    root = attribution.get("")
    if root is not None:
        if root["predictions"] != result.num_conditional_branches:
            return False
        correct = sum(c["correct"] for c in root["components"].values())
        if correct != (result.num_conditional_branches
                       - result.mispredictions):
            return False
    branches = report.get("branches", {})
    tracked = branches.get("tracked", 0)
    if tracked:
        # Offenders are a bounded slice, so totals can only be checked
        # when every tracked branch is listed.
        offenders = branches.get("top_offenders", [])
        if tracked == len(offenders):
            if (sum(o["occurrences"] for o in offenders)
                    != result.num_conditional_branches):
                return False
            if (sum(o["mispredictions"] for o in offenders)
                    != result.mispredictions):
                return False
    return True
