"""Genetic-programming symbolic regression (the paper's formula inference)."""

from .functions import DEFAULT_FUNCTION_NAMES, FUNCTION_SET, GpFunction
from .tree import Node
from .batch import batched_maes
from .cache import FitnessCache
from .program import random_tree
from .engine import GeneticProgrammer, GpConfig, GpResult, polish_constants
from .serialize import tree_from_tokens, tree_to_tokens
from .simplify import fold_constants, pretty

__all__ = [
    "batched_maes",
    "DEFAULT_FUNCTION_NAMES",
    "FUNCTION_SET",
    "GpFunction",
    "Node",
    "random_tree",
    "FitnessCache",
    "tree_to_tokens",
    "tree_from_tokens",
    "GeneticProgrammer",
    "GpConfig",
    "GpResult",
    "polish_constants",
    "fold_constants",
    "pretty",
]
