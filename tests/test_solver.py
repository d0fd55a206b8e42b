import itertools
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

import immersedfem
from immersedfem import (FeSpace, SphericalInterface, apply_dirichlet, assemble_interface_load,
                         assemble_stiffness, build_uniform_mesh, cg_solve, immersed_quadrature,
                         layer_source_strength, multigrid_preconditioner, reference_solution,
                         weighted_errors)
from immersedfem.solver import prolongation


def random_spd(rng, n):
    b = rng.standard_normal((n, n))
    return sp.csr_matrix(b @ b.T + n * np.eye(n))


def test_identity_system():
    rhs = np.array([3.0, -1.0, 2.0])
    solution, report = cg_solve(sp.identity(3, format="csr"), rhs)
    assert np.allclose(solution, rhs, atol=1e-14)
    assert report.converged
    assert report.iterations <= 1


def test_tridiagonal_poisson():
    matrix = sp.diags([-1.0, 2.0, -1.0], offsets=(-1, 0, 1), shape=(5, 5)).tocsr()
    rhs = np.ones(5)
    oracle = np.linalg.solve(matrix.toarray(), rhs)
    assert np.allclose(oracle, [2.5, 4.0, 4.5, 4.0, 2.5], atol=1e-12)
    solution, report = cg_solve(matrix, rhs, tol=1e-12)
    assert report.converged
    assert np.allclose(solution, [2.5, 4.0, 4.5, 4.0, 2.5], atol=1e-10)


def test_zero_rhs_short_circuits():
    matrix = sp.identity(4, format="csr")
    solution, report = cg_solve(matrix, np.zeros(4))
    assert np.array_equal(solution, np.zeros(4))
    assert report.iterations == 0
    assert report.converged
    assert report.final_relative_residual == 0.0


def test_agrees_with_direct_solve():
    rng = np.random.default_rng(17)
    for n in (5, 20, 50):
        matrix = random_spd(rng, n)
        rhs = rng.standard_normal(n)
        oracle = np.linalg.solve(matrix.toarray(), rhs)
        solution, report = cg_solve(matrix, rhs, tol=1e-12)
        assert report.converged
        assert np.linalg.norm(solution - oracle) <= 1e-8 * np.linalg.norm(oracle)


def test_monotone_energy_error():
    rng = np.random.default_rng(8)
    for _ in range(5):
        n = int(rng.integers(10, 50))
        matrix = random_spd(rng, n)
        rhs = rng.standard_normal(n)
        star = np.linalg.solve(matrix.toarray(), rhs)
        energies = []
        cg_solve(matrix, rhs, tol=1e-14,
                 callback=lambda x: energies.append(
                     float((x - star) @ (matrix @ (x - star)))))
        assert all(b <= a + 1e-12 * abs(a) for a, b in zip(energies[:-1], energies[1:]))


def test_jacobi_matches_unpreconditioned():
    rng = np.random.default_rng(23)
    matrix = random_spd(rng, 40)
    # scale rows/cols to make the diagonal non-trivial
    d = sp.diags(rng.uniform(0.5, 10.0, size=40))
    matrix = (d @ matrix @ d).tocsr()
    rhs = rng.standard_normal(40)
    tol = 1e-11
    plain, rep1 = cg_solve(matrix, rhs, tol=tol)
    jacobi, rep2 = cg_solve(matrix, rhs, tol=tol, preconditioner="jacobi")
    assert rep1.converged and rep2.converged
    scale = np.linalg.norm(plain)
    assert np.linalg.norm(plain - jacobi) <= 10.0 * tol * max(scale, 1.0) * 100


def test_nonconvergence_reported():
    rng = np.random.default_rng(5)
    matrix = random_spd(rng, 30)
    rhs = rng.standard_normal(30)
    solution, report = cg_solve(matrix, rhs, tol=1e-14, max_iter=2)
    assert not report.converged
    assert report.iterations == 2
    assert report.final_relative_residual > 0.0


def test_rejects_bad_arguments():
    matrix = sp.identity(3, format="csr")
    with pytest.raises(ValueError):
        cg_solve(matrix, np.ones(3), tol=0.0)
    with pytest.raises(ValueError, match="finite"):
        cg_solve(matrix, np.ones(3), tol=np.nan)
    with pytest.raises(ValueError):
        cg_solve(matrix, np.ones(3), preconditioner="ilu")
    space = FeSpace(build_uniform_mesh(2, 6), 1)
    with pytest.raises(ValueError, match="power-of-two"):
        multigrid_preconditioner(assemble_stiffness(space), space)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            cg_solve(matrix, np.array([1.0, bad, 0.0]))


def study_system(dim, degree, cells):
    """The eliminated layer-source system ``run_study`` solves at one level."""
    interface = SphericalInterface((0.3,) * dim, 0.2)
    exact = reference_solution(interface)
    mesh = build_uniform_mesh(dim, cells)
    space = FeSpace(mesh, degree)
    load = assemble_interface_load(space, immersed_quadrature(interface, mesh),
                                   lambda y: layer_source_strength(interface))
    matrix, rhs = apply_dirichlet(assemble_stiffness(space), load, space, exact.value)
    return space, matrix, rhs, interface, exact


class TestMultigrid:
    @pytest.mark.parametrize("dim,degree,coarse", [(2, 1, 4), (2, 2, 4), (2, 3, 2), (3, 1, 2),
                                                   (3, 2, 2)])
    def test_prolongation_reproduces_polynomials(self, dim, degree, coarse):
        coarse_space, coarse_matrix, _, _, _ = study_system(dim, degree, coarse)
        fine_space, fine_matrix, _, _, _ = study_system(dim, degree, 2 * coarse)
        p = prolongation(degree, dim, coarse)
        assert p.shape == (fine_space.n_dofs, coarse_space.n_dofs)
        assert np.all(p[fine_space.boundary_dofs].toarray() == 0.0)
        assert np.all(p[:, coarse_space.boundary_dofs].toarray() == 0.0)
        # fine dofs at least one coarse cell from the wall see no coarse boundary function
        x = fine_space.dof_coords
        away = np.all((x >= 1.0 / coarse - 1e-12) & (x <= 1.0 - 1.0 / coarse + 1e-12), axis=1)
        assert away.any()
        for powers in itertools.product(range(degree + 1), repeat=dim):
            coarse_values = np.prod(coarse_space.dof_coords ** np.array(powers), axis=1)
            coarse_values[coarse_space.boundary_dofs] = 0.0
            fine_values = np.prod(x ** np.array(powers), axis=1)
            assert np.max(np.abs((p @ coarse_values - fine_values)[away])) <= 1e-13
        # nested spaces: the Galerkin product of the eliminated fine system is the
        # eliminated coarse system, up to the identity rows on the coarse boundary
        boundary = np.zeros(coarse_space.n_dofs)
        boundary[coarse_space.boundary_dofs] = 1.0
        galerkin = p.T @ fine_matrix @ p + sp.diags(boundary)
        scale = np.max(np.abs(coarse_matrix.data))
        assert np.max(np.abs((galerkin - coarse_matrix).toarray())) <= 1e-12 * scale

    @pytest.mark.parametrize("dim,degree,cells", [(2, 1, 32), (2, 2, 16), (3, 1, 8)])
    def test_preconditioner_symmetric_positive(self, dim, degree, cells):
        space, matrix, _, _, _ = study_system(dim, degree, cells)
        apply = multigrid_preconditioner(matrix, space)
        rng = np.random.default_rng(11)
        for _ in range(10):
            r1, r2 = rng.standard_normal((2, space.n_dofs))
            m1, m2 = apply(r1), apply(r2)
            assert r1 @ m1 > 0.0 and r2 @ m2 > 0.0
            assert abs(m1 @ r2 - r1 @ m2) <= 1e-12 * np.sqrt((r1 @ m1) * (r2 @ m2))

    @pytest.mark.parametrize("dim,degree,cells", [
        *((2, 1, n) for n in (8, 16, 32, 64, 128)),
        *((2, 2, n) for n in (8, 16, 32, 64)),
        *((3, 1, n) for n in (4, 8, 16)),
    ])
    def test_iterations_bounded(self, dim, degree, cells):
        space, matrix, rhs, _, _ = study_system(dim, degree, cells)
        _, report = cg_solve(matrix, rhs, tol=1e-10,
                             preconditioner=multigrid_preconditioner(matrix, space))
        assert report.converged
        assert report.iterations <= 15

    def test_errors_match_direct_solve(self):
        # at the study's tol of 1e-12 the algebraic error is far below the
        # 1e-9 bound; 1e-10 moved these errors by up to 2.6e-8 (Jacobi: 1.1e-8)
        space, matrix, rhs, interface, exact = study_system(2, 1, 64)
        solution, report = cg_solve(matrix, rhs, tol=1e-12,
                                    preconditioner=multigrid_preconditioner(matrix, space))
        assert report.converged
        direct = splu(matrix.tocsc()).solve(rhs)
        alphas = (0.0, 0.25, 0.49)
        got = weighted_errors(space, solution, exact, interface, alphas)
        want = weighted_errors(space, direct, exact, interface, alphas)
        for key, value in want.items():
            assert got[key] == pytest.approx(value, rel=1e-9)


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
