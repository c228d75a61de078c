"""The predictor registry shared by every front door.

One table maps short public names (``"gshare"``, ``"tage"``, ...) to
zero-argument predictor factories.  The CLI (``mbp simulate --predictor
gshare``), the serve daemon (``{"op": "simulate", "predictor":
"gshare"}``) and the championship driver all resolve names here, so a
new predictor registers **once** and is immediately reachable from every
interface — previously the CLI and serve each kept their own copy and
could drift.  The same table backs the paper's Table II collection
(:data:`repro.predictors.TABLE2_PREDICTORS`).  A name's predictor
module is imported on its first lookup, not when this module loads.

Factories must be picklable (module-level classes or functions): they
travel to worker processes through the execution engine and through
work plans.  :func:`predictor_factory` binds one to its parameters as a
:class:`~repro.core.configured.ConfiguredFactory`.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from importlib import import_module
from typing import TYPE_CHECKING, Any, Callable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .core.configured import ConfiguredFactory
    from .core.predictor import Predictor

__all__ = [
    "PREDICTOR_CHOICES",
    "ENGINE_CHOICES",
    "UnknownPredictorError",
    "resolve_predictor",
    "predictor_factory",
    "make_predictor",
]

#: Public name -> ``"module:attr"`` of its zero-argument factory: paper
#: Table II defaults, plus the extra catalog members grown since.
_FACTORIES = {
    "bimodal": "repro.predictors.bimodal:Bimodal",
    "two-level": "repro.predictors.twolevel:GAs",
    "gshare": "repro.predictors.gshare:GShare",
    "tournament": "repro.predictors.tournament:mcfarling_tournament",
    "gskew": "repro.predictors.gskew:TwoBcGskew",
    "local": "repro.predictors.local:LocalPredictor",
    "yags": "repro.predictors.yags:Yags",
    "perceptron": "repro.predictors.perceptron:HashedPerceptron",
    "tage": "repro.predictors.tage:Tage",
    "batage": "repro.predictors.batage:Batage",
}

#: Paper Table II name -> public name, in the paper's order.
_TABLE2 = {
    "Bimodal": "bimodal",
    "Two-Level": "two-level",
    "GShare": "gshare",
    "Tournament": "tournament",
    "2bc-gskew": "gskew",
    "Hashed Perc.": "perceptron",
    "TAGE": "tage",
    "BATAGE": "batage",
}


class FactoryTable(Mapping):
    """A read-only ``name -> factory`` mapping over ``"module:attr"``
    targets.  A factory's module is imported on the first lookup of its
    name, so naming one predictor never imports the others."""

    def __init__(self, targets: dict[str, str]):
        self._targets = targets
        self._resolved: dict[str, Callable[[], Predictor]] = {}

    def __getitem__(self, name: str) -> Callable[[], Predictor]:
        factory = self._resolved.get(name)
        if factory is None:
            module, attr = self._targets[name].split(":")
            factory = self._resolved[name] = getattr(import_module(module),
                                                     attr)
        return factory

    def __iter__(self) -> Iterator[str]:
        return iter(self._targets)

    def __len__(self) -> int:
        return len(self._targets)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self._targets!r})"


#: Public name -> zero-argument predictor factory.
PREDICTOR_CHOICES = FactoryTable(_FACTORIES)

#: The Table II collection keyed by the names used in the paper's
#: evaluation tables, each mapped to a zero-argument factory producing
#: the default configuration.  The Table III benchmarks iterate this.
TABLE2_PREDICTORS = FactoryTable(
    {label: _FACTORIES[name] for label, name in _TABLE2.items()})

#: Simulation-engine choices accepted by ``--engine`` / ``sim_engine``.
ENGINE_CHOICES = ("scalar", "vectorized", "auto")


class UnknownPredictorError(KeyError):
    """``name`` is not in :data:`PREDICTOR_CHOICES`.

    The message already lists the valid choices; front ends only need to
    translate the exception type (``SystemExit`` for the CLI, a protocol
    error frame for the daemon).
    """

    def __init__(self, name: str):
        super().__init__(name)
        self.name = name
        self.message = (
            f"unknown predictor {name!r}; choose from "
            f"{', '.join(sorted(PREDICTOR_CHOICES))}"
        )

    def __str__(self) -> str:
        return self.message


def resolve_predictor(name: str) -> Callable[[], Predictor]:
    """The registered factory for ``name``.

    Raises :class:`UnknownPredictorError` (a ``KeyError``) for names the
    registry does not know.
    """
    try:
        return PREDICTOR_CHOICES[name]
    except KeyError:
        raise UnknownPredictorError(name) from None


def predictor_factory(name: str,
                      parameters: dict[str, Any] | None = None,
                      ) -> ConfiguredFactory:
    """The configured factory of ``name`` with optional constructor
    overrides: picklable, zero-argument, interned, and deriving its spec,
    cache key prefix, vector kernel and cold stats once
    (:func:`repro.core.configured.configure`)."""
    from .core.configured import configure

    return configure(resolve_predictor(name), parameters)


def make_predictor(name: str) -> Predictor:
    """Instantiate a predictor by its registered name."""
    return resolve_predictor(name)()
