"""Tuning mechanisms: the heart of MicroGrad.

The paper's contribution is a gradient-descent tuner over the knob lattice
(Listing 3), evaluated against the genetic-algorithm tuning used by prior
stress-test generators (Table I parameters) and a brute-force oracle.  All
tuners share the same :class:`~repro.tuning.evaluator.Evaluator` (knob
config -> metrics, with memoization and evaluation accounting) and loss
functions, so comparisons count work identically.
"""

from repro.tuning.knobs import (
    Knob,
    KnobSpace,
    default_cloning_space,
    instruction_mix_space,
    full_stress_space,
)
from repro.tuning.loss import (
    CloningLoss,
    CombinedStressLoss,
    StressLoss,
    accuracy_report,
    mean_accuracy,
)
from repro.tuning.evaluator import Evaluator
from repro.tuning.base import EpochRecord, Tuner, TuningResult
from repro.tuning.gradient import GDParams, GradientDescentTuner
from repro.tuning.genetic import GAParams, GeneticTuner
from repro.tuning.brute import BruteForceSearch, class_mix_configs
from repro.tuning.random_search import RandomSearch

__all__ = [
    "Knob",
    "KnobSpace",
    "default_cloning_space",
    "instruction_mix_space",
    "full_stress_space",
    "CloningLoss",
    "CombinedStressLoss",
    "StressLoss",
    "accuracy_report",
    "mean_accuracy",
    "Evaluator",
    "Tuner",
    "TuningResult",
    "EpochRecord",
    "GradientDescentTuner",
    "GDParams",
    "GeneticTuner",
    "GAParams",
    "BruteForceSearch",
    "class_mix_configs",
    "RandomSearch",
]
