"""Direct solve of the Dirichlet-eliminated stiffness system by fast
diagonalisation (Lynch, Rice & Thomas, Numer. Math. 6, 1964): the interior
block is a Kronecker sum of one 1D mass/stiffness pair, so one 1D generalised
eigenproblem inverts it."""

from __future__ import annotations

import numpy as np

from .assembly import _factors_1d
from .space import FeSpace


def solve(space: FeSpace, matrix, rhs):
    """Solve ``matrix x = rhs`` for the stiffness of ``space`` after
    ``apply_dirichlet``; returns ``(x, relative_residual)``.

    With ``K V = M V Λ`` and ``Vᵀ M V = I`` for the interior blocks of the 1D
    factors, the interior block is inverted by ``S = (V⊗…⊗V) diag(Σ_d λ)⁻¹
    (V⊗…⊗V)ᵀ``, applied axis by axis; the eliminated boundary rows are
    identity, so the boundary entries are copied from ``rhs``.  One
    correction ``x_I += S (rhs − matrix x)_I`` follows.  The residual is the
    true one, ``|rhs − matrix x| / |rhs|`` (0 for a zero ``rhs``); a matrix
    other than the eliminated stiffness shows there.  A ``rhs`` with NaN or
    infinite entries raises ValueError.
    """
    rhs = np.asarray(rhs, dtype=float)
    if not np.all(np.isfinite(rhs)):
        raise ValueError("right-hand side must be finite")
    rhs_norm = float(np.linalg.norm(rhs))
    if rhs_norm == 0.0:
        return np.zeros_like(rhs), 0.0
    mass, stiffness = (factor.toarray()[1:-1, 1:-1] for factor in _factors_1d(space))
    # L⁻¹ K L⁻ᵀ = Q Λ Qᵀ with M = L Lᵀ, so V = L⁻ᵀ Q
    lower = np.linalg.cholesky(mass)
    scaled = np.linalg.solve(lower, np.linalg.solve(lower, stiffness).T)
    eigenvalues, q = np.linalg.eigh(scaled)
    v = np.linalg.solve(lower.T, q)
    dim = space.mesh.dim
    total = sum(eigenvalues.reshape((-1,) + (1,) * (dim - 1 - axis)) for axis in range(dim))

    def apply_inverse(r):
        for _ in range(dim):  # Vᵀ along each axis; dim contractions cycle the axes back
            r = np.tensordot(r, v, axes=(0, 0))
        r = r / total
        for _ in range(dim):
            r = np.tensordot(r, v, axes=(0, 1))
        return r

    interior = (slice(1, -1),) * dim
    x = rhs.copy()
    grid = x.reshape((v.shape[0] + 2,) * dim)
    grid[interior] = apply_inverse(grid[interior])
    grid[interior] += apply_inverse((rhs - matrix @ x).reshape(grid.shape)[interior])
    return x, float(np.linalg.norm(rhs - matrix @ x)) / rhs_norm
