"""Finite elements for elliptic problems with an immersed interface whose
flux jump enters as a surface layer source, plus distance-weighted error
norms and the convergence-study tooling built on top of them."""

from .assembly import assemble_interface_load
from .geometry import SphericalInterface
from .mesh import build_uniform_mesh
from .norms import ConvergenceRecord, eoc, reference_solution, weighted_errors
from .solver import solve
from .space import FeSpace, interpolate
from .study import (ConfigError, StudyConfig, StudyError, emit_table, run_study)

__version__ = "0.1.0"

__all__ = [
    "assemble_interface_load", "SphericalInterface", "build_uniform_mesh",
    "ConvergenceRecord", "eoc", "reference_solution",
    "weighted_errors", "solve", "FeSpace", "interpolate",
    "ConfigError", "StudyConfig", "StudyError", "emit_table", "run_study",
]
