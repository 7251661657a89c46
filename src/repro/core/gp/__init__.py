"""Genetic-programming symbolic regression (the paper's formula inference)."""

from .functions import DEFAULT_FUNCTION_NAMES, FUNCTION_SET, GpFunction
from .batch import batched_maes
from .cache import FitnessCache
from .engine import GeneticProgrammer, GpConfig, GpResult, polish_constants

__all__ = [
    "batched_maes",
    "DEFAULT_FUNCTION_NAMES",
    "FUNCTION_SET",
    "GpFunction",
    "FitnessCache",
    "GeneticProgrammer",
    "GpConfig",
    "GpResult",
    "polish_constants",
]
