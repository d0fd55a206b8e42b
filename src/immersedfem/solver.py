"""Preconditioned conjugate gradients for the eliminated SPD systems."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SolveReport:
    iterations: int
    final_relative_residual: float
    converged: bool


def cg_solve(matrix, rhs, tol: float = 1e-10, max_iter: int | None = None,
             preconditioner: str = "none", callback=None):
    """Conjugate gradients with optional Jacobi preconditioning.

    Stops once the 2-norm residual drops below ``tol`` relative to the
    right-hand side.  A zero right-hand side returns the zero vector without
    iterating.  On non-convergence the iterate with the smallest residual is
    returned and the report carries ``converged=False``; the caller decides
    how to proceed.  A right-hand side with NaN or infinite entries raises
    ValueError.
    """
    if tol <= 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    if preconditioner not in ("none", "jacobi"):
        raise ValueError(f"unknown preconditioner {preconditioner!r}")
    rhs = np.asarray(rhs, dtype=float)
    if not np.all(np.isfinite(rhs)):
        raise ValueError("right-hand side must be finite")
    n = rhs.shape[0]
    if max_iter is None:
        max_iter = 10 * n
    rhs_norm = float(np.linalg.norm(rhs))
    if rhs_norm == 0.0:
        return np.zeros(n), SolveReport(0, 0.0, True)

    if preconditioner == "jacobi":
        diag = np.asarray(matrix.diagonal(), dtype=float)
        inv_diag = 1.0 / np.where(diag == 0.0, 1.0, diag)
        apply_prec = lambda r: inv_diag * r
    else:
        apply_prec = lambda r: r

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
