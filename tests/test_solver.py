import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from conftest import bitwise_equal, element_scatter_stiffness, eliminate, stiffness_apply
import fdm
import immersedfem
from immersedfem import (FeSpace, SphericalInterface, assemble_interface_load,
                         build_uniform_mesh, quadrature, reference_solution, solve, solver)


def study_problem(dim, degree, cells):
    """The layer-source problem ``run_study`` solves at one level: the space,
    the interface load and the Dirichlet data."""
    interface = SphericalInterface((0.3,) * dim, 0.2)
    mesh = build_uniform_mesh(dim, cells)
    space = FeSpace(mesh, degree)
    exact = reference_solution(interface)
    load = assemble_interface_load(space, interface, exact.density)
    return space, load, exact.values


def test_identity_system():
    # one Q1 cell has no interior dof: the solution is the boundary interpolant
    space, load, g = study_problem(2, 1, 1)
    solution, residual = solve(space, load, g)
    assert np.array_equal(solution, g(space.dof_coords(np.arange(space.n_dofs))))
    assert residual == 0.0


def test_zero_rhs_short_circuits():
    space, _, _ = study_problem(2, 2, 4)
    solution, residual = solve(space, np.zeros(space.n_dofs), lambda x: 0.0)
    assert np.array_equal(solution, np.zeros(space.n_dofs))
    assert residual == 0.0


def test_agrees_with_direct_solve():
    # oracle: splu of the element-scatter stiffness after symmetric
    # elimination, with one step of iterative refinement; odd and tiny grids
    # and degree 3 reach the modes at ω = 0 and π and the phase fix
    for dim, degree, cells in ((2, 1, 256), (2, 2, 64), (2, 3, 32), (3, 1, 16), (3, 2, 8),
                               (2, 1, 1), (2, 2, 1), (2, 3, 1), (2, 1, 2), (2, 2, 2),
                               (2, 1, 3), (2, 2, 5), (2, 3, 3), (3, 3, 3), (3, 3, 2),
                               (3, 1, 5)):
        space, load, g = study_problem(dim, degree, cells)
        solution, residual = solve(space, load, g)
        # the residual is the true one of the eliminated system, from the operator
        boundary = space.boundary_dofs
        interior = np.setdiff1d(np.arange(space.n_dofs), boundary)
        lifted = np.zeros(space.n_dofs)
        lifted[boundary] = g(space.dof_coords(boundary))
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



#: exact 1D element matrices on the unit cell, mass and stiffness, in long
#: double (test oracle)
EXACT_ELEMENTS = {
    1: (np.array([[2, 1], [1, 2]], np.longdouble) / 6,
        np.array([[1, -1], [-1, 1]], np.longdouble)),
    2: (np.array([[4, 2, -1], [2, 16, 2], [-1, 2, 4]], np.longdouble) / 30,
        np.array([[7, -8, 1], [-8, 16, -8], [1, -8, 7]], np.longdouble) / 3),
}


@pytest.mark.parametrize("degree, cells", [(1, 256), (2, 64)])
def test_matches_long_double_reference(degree, cells):
    # the exact discrete solution: splu corrections of a long-double residual
    # of the 2D stiffness scattered from exact element matrices; the dense
    # fast diagonalisation was 2.3e-13 away at both levels
    space, load, g = study_problem(2, degree, cells)
    solution, _ = solve(space, load, g)
    mass, stiffness = EXACT_ELEMENTS[degree]
    mass, stiffness = mass / cells, stiffness * cells
    element = np.kron(mass, stiffness) + np.kron(stiffness, mass)
    cell_dofs = space.cell_dofs(np.arange(space.mesh.n_cells))
    n_loc = element.shape[0]
    exact = sp.coo_matrix((np.tile(element.ravel(), space.mesh.n_cells),
                           (np.repeat(cell_dofs, n_loc, axis=1).ravel(),
                            np.tile(cell_dofs, (1, n_loc)).ravel())),
                          shape=(space.n_dofs,) * 2).tocsr()
    matrix, rhs = eliminate(element_scatter_stiffness(space), load, space, g)
    lu = splu(matrix.tocsc())
    reference = lu.solve(rhs).astype(np.longdouble)
    for _ in range(3):
        residual = load - exact @ reference
        residual[space.boundary_dofs] = 0.0
        reference += lu.solve(residual.astype(float))
    reference = reference.astype(float)
    assert np.max(np.abs(solution - reference)) <= 1e-14 * np.max(np.abs(reference))


@pytest.mark.parametrize("degree", [1, 2, 3, 4])
def test_modes_diagonalise_dense_factors(degree):
    # oracle: the interior blocks of the 1D factors scattered densely from the
    # element matrices, and their generalised eigenvalues from LAPACK
    for cells in (1, 2, 3, 5, 8):
        space = FeSpace(build_uniform_mesh(2, cells), degree)
        (mass, _), (stiffness, _) = solver._elements_1d(space)
        factors = []
        for element in (mass, stiffness):
            dense = np.zeros((degree * cells + 1,) * 2)
            for c in range(cells):
                dense[degree * c:degree * (c + 1) + 1, degree * c:degree * (c + 1) + 1] += element
            factors.append(dense[1:-1, 1:-1])
        values, analysis, synthesis = solver._modes_1d(mass, stiffness, cells)
        values = values.ravel()
        modes = np.isfinite(values)
        n = degree * cells - 1
        assert modes.sum() == n
        if n == 0:
            continue
        want = scipy.linalg.eigh(factors[1], factors[0], eigvals_only=True)
        assert np.max(np.abs(np.sort(values[modes]) - want)) <= 1e-14 * want[-1]
        # columns of V, the synthesis of unit coefficients: Vᵀ M V = I,
        # Vᵀ K V = diag(λ), the other slots carry nothing, and the analysis is Vᵀ
        v = solver._synthesise(np.eye(values.size), synthesis, cells)
        assert np.all(v[:, ~modes] == 0.0)
        v = v[:, modes]
        assert np.max(np.abs(v.T @ factors[0] @ v - np.eye(n))) <= 1e-14
        assert np.max(np.abs(v.T @ factors[1] @ v - np.diag(values[modes]))) <= 1e-14 * want[-1]
        assert np.max(np.abs(solver._analyse(np.eye(n), analysis, cells).T[:, modes] - v)) <= 1e-14


@pytest.mark.parametrize("degree", [1, 2, 3, 4])
def test_bands_match_the_loop_oracle(degree):
    # the one scatter per row sum and band against the strided loop it
    # replaced (tests/fdm.py), on the study's element pairs and on a random
    # symmetric element whose entries include both zeros
    rng = np.random.default_rng(degree)
    random = rng.standard_normal((degree + 1,) * 2)
    random = random + random.T
    random[0, -1] = random[-1, 0] = -0.0
    sums = rng.standard_normal(degree + 1)
    sums[:2] = -0.0, 0.0
    for cells in range(1, 8):
        elements = solver._elements_1d(FeSpace(build_uniform_mesh(2, cells), degree))
        for element in (*elements, (random, sums)):
            got, want = solver._bands(element, cells), fdm.loop_bands(element, cells)
            assert bitwise_equal(got[0], want[0])
            assert len(got[1]) == len(want[1]) == degree
            assert all(bitwise_equal(g, w) for g, w in zip(got[1], want[1]))


#: odd and tiny grids of every degree, 2D and 3D; with a small
#: ``quadrature.BATCH_POINTS`` (read by ``quadrature._batch`` at call time)
#: their slabs and chunks are many and ragged
ORACLE_SIZES = [(2, 1, 7), (2, 2, 5), (2, 3, 4), (3, 1, 5), (3, 2, 3), (3, 3, 2)]


@pytest.mark.parametrize("batch", [1, 97])
def test_slabs_match_whole_grid_oracle(monkeypatch, batch):
    # the chunked applies and the slab-wise transforms are bitwise the
    # whole-grid forms they replaced (tests/fdm.py), whose transforms keep
    # the transformed axis last
    monkeypatch.setattr(quadrature, "BATCH_POINTS", batch)
    rng = np.random.default_rng(batch)
    for dim, degree, cells in ORACLE_SIZES:
        elements = solver._elements_1d(FeSpace(build_uniform_mesh(dim, cells), degree))
        mass, stiffness = (solver._bands(element, cells) for element in elements)
        n = degree * cells + 1
        u = rng.standard_normal((n,) * dim)
        for matrix in (mass, stiffness):
            for axis in range(dim):
                out = np.empty(u.shape)
                solver._apply_1d(matrix, u, axis, out)
                assert bitwise_equal(out, fdm.apply_1d(matrix, u, axis))
        assert bitwise_equal(solver._kronecker_sum(mass, stiffness, u),
                             fdm.kronecker_sum(mass, stiffness, u))
        _, analysis, synthesis = solver._modes_1d(*(matrix for matrix, _ in elements), cells)
        x = rng.standard_normal((n - 2,) * dim)
        assert bitwise_equal(solver._analyse(x, analysis, cells),
                             np.moveaxis(fdm.analyse(x, analysis, cells), -1, 0))
        c = rng.standard_normal((n - 2,) * (dim - 1) + (degree * (cells + 1),))
        assert bitwise_equal(solver._synthesise(c, synthesis, cells),
                             np.moveaxis(fdm.synthesise(c, synthesis, cells), -1, 0))


@pytest.mark.parametrize("batch", [1, 97, quadrature.BATCH_POINTS])
def test_solve_matches_whole_grid_oracle(monkeypatch, batch):
    # the bounded-memory solve returns the bits of the whole-grid one
    monkeypatch.setattr(quadrature, "BATCH_POINTS", batch)
    for dim, degree, cells in ((2, 1, 33), (2, 2, 17), (2, 3, 9), (3, 1, 7), (3, 2, 5),
                               (3, 3, 3), (2, 1, 1), (2, 2, 1), (3, 2, 1)):
        space, load, g = study_problem(dim, degree, cells)
        solution, residual = solve(space, load, g)
        want, want_residual = fdm.solve(space, load, g)
        assert bitwise_equal(solution, want), (dim, degree, cells)
        assert bitwise_equal(residual, want_residual), (dim, degree, cells)


@pytest.mark.parametrize("dim, degree, cells", [
    pytest.param(2, 1, 512, id="1-512"), pytest.param(2, 2, 256, id="2-256"),
    pytest.param(3, 1, 64, id="3d-1-64")])
def test_peak_memory_2d_solve(dim, degree, cells):
    # one solve of the finest level of study2d and of study2d-q2; the dense
    # fast diagonalisation peaked at 24.0 MiB (Q1), the per-mode solve with
    # whole-grid transforms at 20.1 and 20.2 MiB, the slab-wise one at
    # 8.9–9.1 MiB: four grid-sized arrays of 2 MiB and the slabs.  The 3D Q1
    # solve at n_c = 64 (65³ dofs, 2.1 MiB a grid) peaks at 9.2 MiB
    space, load, g = study_problem(dim, degree, cells)
    tracemalloc.start()
    try:
        solve(space, load, g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2 ** 20


def test_csv_independent_of_blas_threads(tmp_path):
    # nothing on the grid goes through BLAS, so the thread count of OpenBLAS
    # moves no bit; the dense solve changed 6 of the 30 rows of the first
    # study, and the error pass's weighted sums would go through a threaded
    # ddot if they were dot products, near the surface in 2D Q2 and 3D too
    src = os.path.dirname(os.path.dirname(os.path.abspath(immersedfem.__file__)))
    for flags in (["--dim", "2", "--max-exp", "7"], ["--dim", "3", "--max-exp", "3"],
                  ["--dim", "2", "--degree", "2", "--max-exp", "5"]):
        tables = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}.csv"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
                filter(None, [src, os.environ.get("PYTHONPATH")])))
            subprocess.run([sys.executable, "-m", "immersedfem.cli", *flags, "--out", str(out)],
                           env=env, check=True, timeout=300)
            tables.append(out.read_bytes())
        assert tables[0] == tables[1], flags


def test_rejects_bad_arguments():
    space, load, g = study_problem(2, 1, 4)
    for bad in (np.nan, np.inf):
        bad_load = load.copy()
        bad_load[7] = bad
        with pytest.raises(ValueError, match="finite"):
            solve(space, bad_load, g)
        with pytest.raises(ValueError, match="finite"):
            solve(space, load, lambda x: np.where(x[:, 1] == 1.0, bad, g(x)))
    # a column vector would be taken as the load, a short one fail in a reshape
    for shape in ((space.n_dofs, 1), (space.n_dofs - 1,), (space.n_dofs + 1,), ()):
        with pytest.raises(ValueError, match="load must have shape"):
            solve(space, np.ones(shape), g)
