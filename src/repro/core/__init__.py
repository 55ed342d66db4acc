"""Dike — the paper's primary contribution.

Components mirror Figure 3 of the paper: Observer, Selector, Predictor,
Decider, Migrator and Optimizer, composed by :class:`DikeScheduler`.
"""

from repro.core.config import (
    QUANTA_CHOICES_S,
    SWAP_SIZE_CHOICES,
    AdaptationGoal,
    DikeConfig,
    all_configurations,
)
from repro.core.decider import Decider
from repro.core.dike import DikeScheduler
from repro.core.migrator import Migrator
from repro.core.observer import Observer, ObserverReport
from repro.core.optimizer import Optimizer, classify_workload
from repro.core.predictor import PairPrediction, Predictor
from repro.core.selector import Selector, ThreadPair

__all__ = [
    "QUANTA_CHOICES_S",
    "SWAP_SIZE_CHOICES",
    "AdaptationGoal",
    "DikeConfig",
    "all_configurations",
    "Decider",
    "DikeScheduler",
    "Migrator",
    "Observer",
    "ObserverReport",
    "Optimizer",
    "classify_workload",
    "PairPrediction",
    "Predictor",
    "Selector",
    "ThreadPair",
]
