"""Bayesian-observer toolkit for length-reproduction experiments.

Modules: model (closed-form observer), records (the columnar trial table
and the one CSV writer of every output table), trialtext (the numpy text
of a block of trial CSV rows), simulate (seeded schedules and synthetic
cohorts), analysis (empirical error-decomposition pipeline), stats
(t-tests and effect sizes), fitting (shared-prior grid fits), cli
(command-line pipeline).  The only runtime dependency is numpy.
"""
from .model import (
    DEFAULT_STIMULI,
    GaussianBelief,
    MotorCombination,
    MotorNoiseSpec,
    NoiseModel,
    StimulusSet,
    fuse_gaussians,
)
from .records import Trials

__all__ = [
    "DEFAULT_STIMULI",
    "DemonstratorNoise",
    "GaussianBelief",
    "MotorCombination",
    "MotorNoiseSpec",
    "NoiseModel",
    "ObserverParams",
    "ScheduleConfig",
    "StimulusSet",
    "Trials",
    "fuse_gaussians",
]

__version__ = "0.1.0"


def __getattr__(name):
    # only `schedule` and `simulate` need the simulator, so it is imported
    # on first access to one of its names
    if name in ("DemonstratorNoise", "ObserverParams", "ScheduleConfig"):
        from . import simulate

        return getattr(simulate, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
