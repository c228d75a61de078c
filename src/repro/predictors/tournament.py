"""The generalized tournament predictor (paper Listing 4; Evers et al.).

A tournament is a meta-predictor: a chooser component whose "outcome"
guesses which of two base predictors to believe.  The original McFarling
tournament paired a bimodal with a GShare; the generalization takes *any*
three predictors.

This class is the paper's flagship composability example: it exploits the
``train``/``track`` split by training the chooser **only** when the base
predictions differ (a partial-update policy) while still tracking every
branch through all three components — something that is impossible when a
single ``update`` function does both jobs.
"""

from __future__ import annotations

from typing import Any

from ..core.branch import Branch
from ..core.predictor import Predictor

__all__ = ["Tournament", "mcfarling_tournament"]


class Tournament(Predictor):
    """Choose between two predictors with a third one as the chooser.

    ``meta.predict(ip)`` returning ``True`` selects ``bp1``, ``False``
    selects ``bp0`` — the chooser's "taken" bit is reinterpreted as
    "predictor 1 is right" (Listing 4 line 36).

    Like the listing, the three sub-predictions for an address are cached
    between ``predict`` and ``train`` so a simulator (or an enclosing
    meta-predictor) calling both does not pay twice, and the cache is
    invalidated by ``track``.
    """

    def __init__(self, meta: Predictor, bp0: Predictor, bp1: Predictor):
        self.meta = meta
        self.bp0 = bp0
        self.bp1 = bp1
        self._predicted_ip: int | None = None
        self._tracked = True
        self._provider = False
        self._prediction = [False, False]

    def predict(self, ip: int) -> bool:
        """Predict with both bases; the chooser arbitrates."""
        if self._predicted_ip == ip and not self._tracked:
            return self._prediction[self._provider]
        self._predicted_ip = ip
        self._tracked = False
        self._provider = self.meta.predict(ip)
        self._prediction[0] = self.bp0.predict(ip)
        self._prediction[1] = self.bp1.predict(ip)
        return self._prediction[self._provider]

    def train(self, branch: Branch) -> None:
        """Train the bases always; the chooser only on disagreement.

        When the bases disagree, the chooser is trained with a synthetic
        branch whose outcome says "predictor 1 was correct" — the partial
        update policy of Listing 4.
        """
        self.predict(branch.ip)  # ensure the cache matches this branch
        probe = self._probe
        if probe is not None:
            provider = "predictor_1" if self._provider else "predictor_0"
            loser = "predictor_0" if self._provider else "predictor_1"
            disagreed = self._prediction[0] != self._prediction[1]
            probe.record(branch.ip, provider,
                         self._prediction[self._provider] == branch.taken,
                         overrode=loser if disagreed else None)
        self.bp0.train(branch)
        self.bp1.train(branch)
        if self._prediction[0] != self._prediction[1]:
            meta_branch = branch.with_outcome(
                self._prediction[1] == branch.taken
            )
            self.meta.train(meta_branch)

    def track(self, branch: Branch) -> None:
        """Track every component with the program branch."""
        self.meta.track(branch)
        self.bp0.track(branch)
        self.bp1.track(branch)
        self._tracked = True

    def metadata_stats(self) -> dict[str, Any]:
        """Nested self-description (Listing 4 line 48): components include
        their own descriptions, courtesy of the JSON output format."""
        return {
            "name": "repro Tournament",
            "metapredictor": self.meta.metadata_stats(),
            "predictor_0": self.bp0.metadata_stats(),
            "predictor_1": self.bp1.metadata_stats(),
        }

    def spec(self) -> dict[str, Any]:
        """Cache-key identity, built from the components' own specs."""
        return {
            "name": "repro Tournament",
            "metapredictor": self.meta.spec(),
            "predictor_0": self.bp0.spec(),
            "predictor_1": self.bp1.spec(),
        }

    def execution_stats(self) -> dict[str, Any]:
        """Merge component statistics under their role names."""
        stats: dict[str, Any] = {}
        for role, component in (("metapredictor", self.meta),
                                ("predictor_0", self.bp0),
                                ("predictor_1", self.bp1)):
            component_stats = component.execution_stats()
            if component_stats:
                stats[role] = component_stats
        return stats

    def on_warmup_end(self) -> None:
        """Propagate the warm-up boundary to every component."""
        self.meta.on_warmup_end()
        self.bp0.on_warmup_end()
        self.bp1.on_warmup_end()

    def attach_probe(self, probe: Any) -> None:
        """Attach the probe here and scoped views to every component."""
        self._probe = probe
        for role, component in (("metapredictor", self.meta),
                                ("predictor_0", self.bp0),
                                ("predictor_1", self.bp1)):
            component.attach_probe(
                None if probe is None else probe.scoped(role))

    def probe_stats(self) -> dict[str, Any]:
        """Merge component structural statistics under their role names."""
        stats: dict[str, Any] = {}
        for role, component in (("metapredictor", self.meta),
                                ("predictor_0", self.bp0),
                                ("predictor_1", self.bp1)):
            component_stats = component.probe_stats()
            if component_stats:
                stats[role] = component_stats
        return stats

    def vector_kernel(self) -> Any:
        """The chooser combinator over the components' kernels.

        The bases are trained unconditionally, so any kernels serve
        (tournaments nest); the chooser's disagreement-only partial
        update requires the masked-scan protocol, which only the
        saturating-table kernel implements — a chooser without one (or
        any component without a kernel) keeps the whole composition on
        the scalar engine.
        """
        from ..core.vectorized import SaturatingTableKernel, TournamentKernel

        meta_kernel = self.meta.vector_kernel()
        if not isinstance(meta_kernel, SaturatingTableKernel):
            return None
        bp0_kernel = self.bp0.vector_kernel()
        bp1_kernel = self.bp1.vector_kernel()
        if bp0_kernel is None or bp1_kernel is None:
            return None
        return TournamentKernel(meta_kernel, bp0_kernel, bp1_kernel,
                                self.metadata_stats(),
                                self.execution_stats())


def mcfarling_tournament(log_table_size: int = 14,
                         history_length: int = 12) -> Tournament:
    """The classic combination: bimodal vs GShare with a bimodal chooser.

    ``log_table_size`` sizes all three tables; ``history_length`` is the
    GShare history.
    """
    from .bimodal import Bimodal
    from .gshare import GShare

    return Tournament(
        meta=Bimodal(log_table_size=log_table_size),
        bp0=Bimodal(log_table_size=log_table_size),
        bp1=GShare(history_length=history_length,
                   log_table_size=log_table_size),
    )
