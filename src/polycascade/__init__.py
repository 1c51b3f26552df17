"""Polynomial system solving by homotopy continuation.

Finds all isolated solutions of a square polynomial system and witness
points on its positive-dimensional solution components, by embedding the
system with generic hyperplane slices and cascading down one dimension at
a time.

The root exports the library entry points below; every other name is
imported from its own module.
"""

__version__ = "0.1.0"

from .cascade import (CascadeConfig, CascadeOutput, run_cascade,
                      solve_total_degree, verify_witness)
from .embedding import embed
from .polynomials import load_system, parse_system
from .tracking import PathResult, TrackerConfig
