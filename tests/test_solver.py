import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.sparse.linalg import splu

from conftest import element_scatter_stiffness, eliminate, stiffness_apply
import immersedfem
from immersedfem import (FeSpace, SphericalInterface, assemble_interface_load,
                         build_uniform_mesh, immersed_quadrature, layer_source_strength,
                         reference_solution, solve)


def study_problem(dim, degree, cells):
    """The layer-source problem ``run_study`` solves at one level: the space,
    the interface load and the Dirichlet data."""
    interface = SphericalInterface((0.3,) * dim, 0.2)
    mesh = build_uniform_mesh(dim, cells)
    space = FeSpace(mesh, degree)
    load = assemble_interface_load(space, immersed_quadrature(interface, mesh),
                                   lambda y: layer_source_strength(interface))
    return space, load, reference_solution(interface).values


def test_identity_system():
    # one Q1 cell has no interior dof: the solution is the boundary interpolant
    space, load, g = study_problem(2, 1, 1)
    solution, residual = solve(space, load, g)
    assert np.array_equal(solution, g(space.dof_coords))
    assert residual == 0.0


def test_zero_rhs_short_circuits():
    space, _, _ = study_problem(2, 2, 4)
    solution, residual = solve(space, np.zeros(space.n_dofs), lambda x: 0.0)
    assert np.array_equal(solution, np.zeros(space.n_dofs))
    assert residual == 0.0


def test_agrees_with_direct_solve():
    # oracle: splu of the element-scatter stiffness after symmetric
    # elimination, with one step of iterative refinement
    for dim, degree, cells in ((2, 1, 256), (2, 2, 64), (2, 3, 32), (3, 1, 16), (3, 2, 8)):
        space, load, g = study_problem(dim, degree, cells)
        solution, residual = solve(space, load, g)
        # the residual is the true one of the eliminated system, from the operator
        interior, boundary = space.interior_dofs(), space.boundary_dofs
        lifted = np.zeros(space.n_dofs)
        lifted[boundary] = g(space.dof_coords[boundary])
        apply = stiffness_apply(space)
        scale = np.hypot(np.linalg.norm((load - apply(lifted))[interior]),
                         np.linalg.norm(lifted[boundary]))
        true = np.linalg.norm((load - apply(solution))[interior]) / scale
        assert residual == pytest.approx(true, rel=1e-12)
        assert residual <= 1e-13, (dim, degree, cells)
        matrix, rhs = eliminate(element_scatter_stiffness(space), load, space, g)
        assert np.linalg.norm(rhs - matrix @ solution) <= 1e-13 * np.linalg.norm(rhs)
        lu = splu(matrix.tocsc())
        direct = lu.solve(rhs)
        direct += lu.solve(rhs - matrix @ direct)
        assert np.max(np.abs(solution - direct)) <= 1e-12 * np.max(np.abs(direct))


def test_rejects_bad_arguments():
    space, load, g = study_problem(2, 1, 4)
    for bad in (np.nan, np.inf):
        bad_load = load.copy()
        bad_load[7] = bad
        with pytest.raises(ValueError, match="finite"):
            solve(space, bad_load, g)
        with pytest.raises(ValueError, match="finite"):
            solve(space, load, lambda x: np.where(x[:, 1] == 1.0, bad, g(x)))


def test_import_loads_no_scipy():
    # the library and its command line run on numpy alone; scipy serves only
    # the tests' direct-solve oracles
    code = ("import sys, immersedfem, immersedfem.cli; "
            "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])")
    src = os.path.dirname(os.path.dirname(os.path.abspath(immersedfem.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"
