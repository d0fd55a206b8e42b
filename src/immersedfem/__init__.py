"""Finite elements for elliptic problems with an immersed interface whose
flux jump enters as a surface layer source, plus distance-weighted error
norms and the convergence-study tooling built on top of them."""

from .assembly import assemble_interface_load, assemble_volume_load
from .geometry import InterfaceQuadrature, SphericalInterface, immersed_quadrature
from .mesh import CellClassification, Mesh, build_uniform_mesh, classify_cells
from .norms import (ConvergenceRecord, RadialSolution, discrete_norm, eoc,
                    layer_source_strength, reference_solution, weighted_errors)
from .potential import green, jump_check, single_layer, surface_samples
from .quadrature import CellQuadrature, gauss_rule, split_cut_cell
from .solver import solve
from .space import FeSpace, interpolate, interpolate_outside_layer, shape_eval
from .study import (ConfigError, StudyConfig, StudyError, emit_table, run_study)

__version__ = "0.1.0"

__all__ = [
    "assemble_interface_load", "assemble_volume_load", "InterfaceQuadrature",
    "SphericalInterface", "immersed_quadrature", "CellClassification", "Mesh",
    "build_uniform_mesh", "classify_cells", "ConvergenceRecord", "RadialSolution",
    "discrete_norm", "eoc", "layer_source_strength", "reference_solution",
    "weighted_errors", "green", "jump_check", "single_layer", "surface_samples",
    "CellQuadrature", "gauss_rule", "split_cut_cell", "solve", "FeSpace", "interpolate",
    "interpolate_outside_layer", "shape_eval", "ConfigError", "StudyConfig", "StudyError",
    "emit_table", "run_study",
]
