import numpy as np
import pytest
import scipy.sparse as sp

from immersedfem import cg_solve


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
    with pytest.raises(ValueError):
        cg_solve(matrix, np.ones(3), preconditioner="ilu")
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            cg_solve(matrix, np.array([1.0, bad, 0.0]))
