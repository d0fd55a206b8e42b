import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.sparse.linalg import splu

import immersedfem
from immersedfem import (FeSpace, SphericalInterface, apply_dirichlet, assemble_interface_load,
                         assemble_stiffness, build_uniform_mesh, immersed_quadrature,
                         layer_source_strength, reference_solution, solve)


def study_system(dim, degree, cells):
    """The eliminated layer-source system ``run_study`` solves at one level."""
    interface = SphericalInterface((0.3,) * dim, 0.2)
    exact = reference_solution(interface)
    mesh = build_uniform_mesh(dim, cells)
    space = FeSpace(mesh, degree)
    load = assemble_interface_load(space, immersed_quadrature(interface, mesh),
                                   lambda y: layer_source_strength(interface))
    matrix, rhs = apply_dirichlet(assemble_stiffness(space), load, space, exact.values)
    return space, matrix, rhs


def test_identity_system():
    # one Q1 cell has no interior dof: the eliminated matrix is the identity
    space, matrix, rhs = study_system(2, 1, 1)
    assert np.array_equal(matrix.toarray(), np.eye(4))
    solution, residual = solve(space, matrix, rhs)
    assert np.array_equal(solution, rhs)
    assert residual == 0.0


def test_zero_rhs_short_circuits():
    space, matrix, _ = study_system(2, 2, 4)
    solution, residual = solve(space, matrix, np.zeros(space.n_dofs))
    assert np.array_equal(solution, np.zeros(space.n_dofs))
    assert residual == 0.0


def test_agrees_with_direct_solve():
    # oracle: splu with one step of iterative refinement
    for dim, degree, cells in ((2, 1, 256), (2, 2, 64), (2, 3, 32), (3, 1, 16), (3, 2, 8)):
        space, matrix, rhs = study_system(dim, degree, cells)
        solution, residual = solve(space, matrix, rhs)
        assert residual == pytest.approx(np.linalg.norm(rhs - matrix @ solution)
                                         / np.linalg.norm(rhs), rel=1e-12)
        assert residual <= 1e-13, (dim, degree, cells)
        lu = splu(matrix.tocsc())
        direct = lu.solve(rhs)
        direct += lu.solve(rhs - matrix @ direct)
        assert np.max(np.abs(solution - direct)) <= 1e-12 * np.max(np.abs(direct))


def test_rejects_bad_arguments():
    space, matrix, rhs = study_system(2, 1, 4)
    for bad in (np.nan, np.inf):
        bad_rhs = rhs.copy()
        bad_rhs[7] = bad
        with pytest.raises(ValueError, match="finite"):
            solve(space, matrix, bad_rhs)


def test_import_loads_no_scipy_linalg():
    # the study imports only scipy.sparse; scipy's dense and sparse linear
    # algebra packages would add to the start-up time of every run
    code = ("import sys, immersedfem; "
            "print([m for m in sys.modules if m.startswith(('scipy.linalg', "
            "'scipy.sparse.linalg'))])")
    src = os.path.dirname(os.path.dirname(os.path.abspath(immersedfem.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"
