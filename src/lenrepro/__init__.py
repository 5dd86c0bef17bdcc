"""Bayesian-observer toolkit for length-reproduction experiments.

Modules: model (closed-form observer), records (the columnar trial table
and the one CSV writer that every output table goes through), simulate
(seeded schedules and synthetic cohorts), analysis (empirical
error-decomposition pipeline), stats (t-tests and effect sizes), fitting
(shared-prior grid fits), cli (command-line pipeline).  The only runtime
dependency is numpy.
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
from .simulate import DemonstratorNoise, ObserverParams, ScheduleConfig

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
