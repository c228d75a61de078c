"""The examples library (paper Section V, Table II).

One of the largest collections of branch-predictor implementations,
written in a uniform style on top of :mod:`repro.utils`:

==============================  ==========================================
Predictor                       Module
==============================  ==========================================
Bimodal (Lee & Smith)           :mod:`repro.predictors.bimodal`
Two-Level, all 9 variants       :mod:`repro.predictors.twolevel`
GShare (McFarling)              :mod:`repro.predictors.gshare`
Generalized tournament          :mod:`repro.predictors.tournament`
2bc-gskew (Seznec & Michaud)    :mod:`repro.predictors.gskew`
Hashed perceptron               :mod:`repro.predictors.perceptron`
TAGE (Seznec & Michaud)         :mod:`repro.predictors.tage`
BATAGE (Michaud)                :mod:`repro.predictors.batage`
==============================  ==========================================

plus the static baselines, a loop predictor, branch filters, and the
extension set beyond the paper's table: YAGS, O-GEHL, and a statistical
corrector that assembles TAGE-SC(-L) by composition.  All examples
double as *components*: they can be sub-predictors of a bigger design
(Section VI-D).
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    ".batage": ("Batage", "dual_counter_confidence"),
    ".bimodal": ("Bimodal",),
    ".corrector": ("StatisticalCorrector", "tage_sc", "tage_sc_l"),
    ".gehl": ("OGehl",),
    ".filters": ("ConditionalOnlyFilter", "NeverTakenFilter"),
    ".gshare": ("GShare",),
    ".local": ("LocalPredictor", "alpha21264"),
    ".gskew": ("TwoBcGskew",),
    ".loop": ("LoopPredictor", "WithLoopPredictor"),
    ".perceptron": ("HashedPerceptron",),
    ".static": ("AlwaysNotTaken", "AlwaysTaken", "Btfnt"),
    ".tage": ("Tage", "geometric_history_lengths"),
    ".tournament": ("Tournament", "mcfarling_tournament"),
    ".yags": ("Yags",),
    ".twolevel": ("GAg", "GAp", "GAs", "PAg", "PAp", "PAs", "SAg", "SAp",
                  "SAs", "Scope", "TwoLevel"),
    # The Table II collection keyed by the names used in the paper's
    # evaluation tables; it shares the registry's one factory table.
    "..registry": ("TABLE2_PREDICTORS",),
})

__all__ = [
    "AlwaysNotTaken", "AlwaysTaken", "Btfnt",
    "Batage", "dual_counter_confidence",
    "Bimodal",
    "ConditionalOnlyFilter", "NeverTakenFilter",
    "GShare",
    "OGehl",
    "StatisticalCorrector", "tage_sc", "tage_sc_l",
    "TwoBcGskew",
    "Yags",
    "LocalPredictor", "alpha21264",
    "LoopPredictor", "WithLoopPredictor",
    "HashedPerceptron",
    "Tage", "geometric_history_lengths",
    "Tournament", "mcfarling_tournament",
    "GAg", "GAp", "GAs", "PAg", "PAp", "PAs", "SAg", "SAp", "SAs",
    "Scope", "TwoLevel",
    "TABLE2_PREDICTORS",
]
