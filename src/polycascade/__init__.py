"""Polynomial system solving by homotopy continuation.

Finds all isolated solutions of a square polynomial system and witness
points on its positive-dimensional solution components, by embedding the
system with generic hyperplane slices and cascading down one dimension at
a time.
"""

__version__ = "0.1.0"

from .cascade import (CascadeConfig, CascadeOutput, LevelStats,
                      NonSquareSystemError, SolutionClass, WitnessPoint,
                      WitnessSuperset, classify_endpoint, cluster_points,
                      cluster_witnesses, run_cascade, solve_total_degree,
                      verify_witness)
from .embedding import (CascadeHomotopy, EmbeddedSystem,
                        LevelOutOfRangeError, ParameterSample, StartHomotopy,
                        embed, sample_parameters)
from .linalg import (LUFactors, RandomSource, SingularMatrixError,
                     condition_estimate, lu_factor, lu_solve)
from .polynomials import (DimensionMismatchError, ParseError, Polynomial,
                          PolynomialSystem, UnknownVariableError, load_system,
                          parse_system)
from .start_systems import StartSystem, ZeroPolynomialError, build_start_system
from .tracking import (PathResult, PathStatus, TrackerConfig, euler_predict,
                       newton_correct, refine_endpoint, track_batch, track_path)

__all__ = [
    "__version__",
    "CascadeConfig", "CascadeOutput", "LevelStats", "NonSquareSystemError",
    "SolutionClass", "WitnessPoint", "WitnessSuperset",
    "classify_endpoint", "cluster_points", "cluster_witnesses",
    "run_cascade", "solve_total_degree", "verify_witness",
    "CascadeHomotopy", "EmbeddedSystem", "LevelOutOfRangeError",
    "ParameterSample", "StartHomotopy", "embed", "sample_parameters",
    "LUFactors", "RandomSource", "SingularMatrixError", "condition_estimate",
    "lu_factor", "lu_solve",
    "DimensionMismatchError", "ParseError", "Polynomial", "PolynomialSystem",
    "UnknownVariableError", "load_system", "parse_system",
    "StartSystem", "ZeroPolynomialError", "build_start_system",
    "PathResult", "PathStatus", "TrackerConfig", "euler_predict",
    "newton_correct", "refine_endpoint", "track_batch", "track_path",
]
