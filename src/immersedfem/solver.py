"""Preconditioned conjugate gradients for the eliminated SPD systems, and a
geometric multigrid V-cycle to precondition them on uniform grids."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .space import FeSpace, _lagrange_1d

#: grids with at most this many cells per axis are solved densely
COARSEST_CELLS = 4
#: damped-Jacobi sweeps before and after each coarse-grid correction
SMOOTHING_SWEEPS = 2


@dataclass(frozen=True)
class SolveReport:
    iterations: int
    final_relative_residual: float
    converged: bool


def cg_solve(matrix, rhs, tol: float = 1e-10, max_iter: int | None = None,
             preconditioner=None, callback=None):
    """Preconditioned conjugate gradients.

    ``preconditioner`` is a callable ``r -> M r`` that applies a symmetric
    positive definite approximation M of the inverse, such as
    ``multigrid_preconditioner``, or None for the identity.
    Stops once the 2-norm residual drops below ``tol`` relative to the
    right-hand side.  A zero right-hand side returns the zero vector without
    iterating.  On non-convergence the iterate with the smallest residual is
    returned and the report carries ``converged=False``; the caller decides
    how to proceed.  A right-hand side with NaN or infinite entries raises
    ValueError.
    """
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    rhs = np.asarray(rhs, dtype=float)
    if not np.all(np.isfinite(rhs)):
        raise ValueError("right-hand side must be finite")
    n = rhs.shape[0]
    if max_iter is None:
        max_iter = 10 * n
    rhs_norm = float(np.linalg.norm(rhs))
    if rhs_norm == 0.0:
        return np.zeros(n), SolveReport(0, 0.0, True)

    apply_prec = preconditioner if preconditioner is not None else (lambda r: r)
    x = np.zeros(n)
    r = rhs.copy()
    z = apply_prec(r)
    p = z.copy()
    rz = float(r @ z)
    best_x, best_res = x.copy(), rhs_norm
    last_replaced = rhs_norm
    iterations = 0
    for iterations in range(1, max_iter + 1):
        ap = matrix @ p
        pap = float(p @ ap)
        if pap <= 0.0:
            break  # matrix not positive definite along p; keep best iterate
        alpha = rz / pap
        x = x + alpha * p
        r = r - alpha * ap
        res = float(np.linalg.norm(r))
        if res < best_res:
            best_x, best_res = x.copy(), res
        if callback is not None:
            callback(x)
        if res <= tol * rhs_norm:
            # the recurrence residual drifts below the true one in finite
            # precision; convergence is only declared on the true residual
            true_res = float(np.linalg.norm(rhs - matrix @ x))
            if true_res <= tol * rhs_norm:
                return x, SolveReport(iterations, true_res / rhs_norm, True)
            if true_res >= 0.5 * last_replaced:
                break  # replacement no longer improves: stagnated
            last_replaced = true_res
            r = rhs - matrix @ x
            res = float(np.linalg.norm(r))
            if res < best_res:
                best_x, best_res = x.copy(), res
            z = apply_prec(r)
            p = z.copy()
            rz = float(r @ z)
            continue  # restart the search direction from the exact residual
        z = apply_prec(r)
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    true_res = float(np.linalg.norm(rhs - matrix @ best_x))
    return best_x, SolveReport(iterations, true_res / rhs_norm,
                               true_res <= tol * rhs_norm)


def _kron_power(factor, dim: int):
    out = factor
    for _ in range(dim - 1):
        out = sp.kron(out, factor, format="csr")
    return out


def prolongation(degree: int, dim: int, coarse_cells: int) -> sp.csr_matrix:
    """Interpolation from the Q^degree space with ``coarse_cells`` cells per
    axis to the space with twice as many, as an (n_fine, n_coarse) matrix.

    It is the Kronecker power of one 1D matrix, the coarse Lagrange basis
    at the fine nodes, whose boundary rows and columns are zeroed: it maps
    vectors vanishing on the boundary to vectors vanishing on the boundary.
    """
    n_fine, n_coarse = 2 * degree * coarse_cells + 1, degree * coarse_cells + 1
    node = np.arange(n_fine)
    cell = np.minimum(node // (2 * degree), coarse_cells - 1)
    # fine node i sits at reference coordinate (i - 2*degree*cell) / (2*degree)
    table, _ = _lagrange_1d(degree, np.arange(2 * degree + 1) / (2 * degree))
    values = table[node - 2 * degree * cell].ravel()
    rows = np.repeat(node, degree + 1)
    cols = (degree * cell[:, None] + np.arange(degree + 1)).ravel()
    keep = ((values != 0.0) & (rows > 0) & (rows < n_fine - 1)
            & (cols > 0) & (cols < n_coarse - 1))
    p1 = sp.csr_matrix((values[keep], (rows[keep], cols[keep])), shape=(n_fine, n_coarse))
    return _kron_power(p1, dim)


def multigrid_preconditioner(matrix, space: FeSpace):
    """Geometric multigrid V-cycle for a Dirichlet-eliminated system on ``space``.

    The grids halve down to ``COARSEST_CELLS`` cells per axis, linked by
    ``prolongation``.  Coarse operators are the Galerkin products P^T A P
    with identity on the coarse boundary dofs; the coarsest is inverted
    densely.  Each level smooths with ``SMOOTHING_SWEEPS`` damped-Jacobi
    sweeps before and after the correction (weight 0.6 for degree 1, 0.5
    above), so the returned ``r -> M r`` is symmetric positive definite and
    can precondition ``cg_solve``.  The cells per axis must be a power of two.
    """
    dim, degree, cells = space.mesh.dim, space.degree, space.mesh.cells_per_axis
    if cells & (cells - 1):
        raise ValueError(f"multigrid needs a power-of-two number of cells per axis, got {cells}")
    omega = 0.6 if degree == 1 else 0.5
    levels = []  # (operator, omega / diagonal, prolongation from the next level, its transpose)
    a = sp.csr_matrix(matrix)
    while cells > COARSEST_CELLS:
        cells //= 2
        p = prolongation(degree, dim, cells)
        restrict = p.T.tocsr()
        levels.append((a, omega / a.diagonal(), p, restrict))
        keep = np.ones(degree * cells + 1)
        keep[[0, -1]] = 0.0
        interior = _kron_power(sp.diags(keep), dim)
        a = (restrict @ a @ p + sp.identity(interior.shape[0]) - interior).tocsr()
    inverse = np.linalg.inv(a.toarray())
    inverse = 0.5 * (inverse + inverse.T)

    def cycle(level, r):
        if level == len(levels):
            return inverse @ r
        a, scaled_inv_diag, p, restrict = levels[level]
        x = scaled_inv_diag * r
        for _ in range(SMOOTHING_SWEEPS - 1):
            x += scaled_inv_diag * (r - a @ x)
        x += p @ cycle(level + 1, restrict @ (r - a @ x))
        for _ in range(SMOOTHING_SWEEPS):
            x += scaled_inv_diag * (r - a @ x)
        return x

    return lambda r: cycle(0, r)
