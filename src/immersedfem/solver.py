"""The Poisson stiffness operator of a ``Q^degree`` space and the direct solve
of its Dirichlet problem.

The grid is uniform and the elements are tensor products, so the stiffness
matrix is the Kronecker sum ``Σ_d M⊗…⊗K⊗…⊗M`` of one 1D mass/stiffness pair
(``_factors_1d``); it is applied axis by axis and never assembled.  The
Dirichlet problem is solved by fast diagonalisation (Lynch, Rice & Thomas,
Numer. Math. 6, 1964): the interior block is the Kronecker sum of the
interior 1D blocks, so one 1D generalised eigenproblem inverts it."""

from __future__ import annotations

import math

import numpy as np

from .quadrature import gauss_rule
from .space import FeSpace, _field_values, _lagrange_1d


def _factors_1d(space: FeSpace):
    """Mass and stiffness matrices (dense) of the 1D ``Q^degree`` space on the
    grid's cells per axis, from degree + 2 Gauss points per cell.  Every
    axis of the grid carries this same pair."""
    degree, cells = space.degree, space.mesh.cells_per_axis
    n = degree * cells + 1
    rule = gauss_rule(1, degree + 2)
    values, derivs = _lagrange_1d(degree, rule.points[:, 0])  # (n_q, degree + 1)
    dofs = degree * np.arange(cells)[:, None] + np.arange(degree + 1)
    flat = (n * np.repeat(dofs, degree + 1, axis=1) + np.tile(dofs, (1, degree + 1))).ravel()
    factors = []
    for table, scale in ((values, space.mesh.edge), (derivs, 1.0 / space.mesh.edge)):
        element = np.einsum("q,qi,qj->ij", rule.weights, table, table)
        element = 0.5 * (element + element.T) * scale
        factors.append(np.bincount(flat, weights=np.tile(element.ravel(), cells),
                                   minlength=n * n).reshape(n, n))
    return factors


def _kronecker_sum(mass, stiffness, u):
    """``A u`` for the stiffness ``A = Σ_d M⊗…⊗K⊗…⊗M`` and a grid array ``u``
    of shape ``(n,) * dim`` (dof order); one contraction per axis and term.
    ``A`` is symmetric positive semidefinite with the constants in its
    kernel."""
    out = np.zeros_like(u)
    for axis in range(u.ndim):
        term = u
        for other in range(u.ndim):  # dim contractions cycle the axes back
            term = np.tensordot(term, stiffness if other == axis else mass, axes=(0, 1))
        out += term
    return out


def solve(space: FeSpace, load, g):
    """Solve the Poisson problem of ``space`` with right-hand side ``load``
    and ``u = g`` on the boundary dofs; returns ``(u, relative_residual)``.

    ``g`` is called once on the boundary dof coordinates (see
    ``space._field_values``).  With ``K V = M V Λ`` and ``Vᵀ M V = I`` for
    the interior blocks of the 1D factors, the interior block ``A_II`` is
    inverted by ``S = (V⊗…⊗V) diag(Σ_d λ)⁻¹ (V⊗…⊗V)ᵀ``, applied axis by
    axis, and one correction ``u_I += S (load − A u)_I`` follows.  The
    residual is the true one of the Dirichlet-eliminated system,
    ``|(load − A u)_I| / |[(load − A u_B)_I ; g_B]|``, with ``u_B`` the
    boundary data alone; zero ``load`` and ``g`` give exact zeros and residual
    0.  A ``load`` or ``g`` with NaN or infinite entries raises ValueError.
    """
    load = np.asarray(load, dtype=float)
    if not np.all(np.isfinite(load)):
        raise ValueError("load must be finite")
    mass, stiffness = _factors_1d(space)
    dim = space.mesh.dim
    interior = (slice(1, -1),) * dim
    u = np.zeros((mass.shape[0],) * dim)
    boundary = _field_values(g, space.dof_coords[space.boundary_dofs])
    u.reshape(-1)[space.boundary_dofs] = boundary
    load = load.reshape(u.shape)[interior]

    def residual():
        return load - _kronecker_sum(mass, stiffness, u)[interior]

    lifted = residual()
    scale = math.hypot(np.linalg.norm(lifted), np.linalg.norm(boundary))
    if scale == 0.0:
        return np.zeros(space.n_dofs), 0.0
    # L⁻¹ K L⁻ᵀ = Q Λ Qᵀ with M = L Lᵀ, so V = L⁻ᵀ Q
    lower = np.linalg.cholesky(mass[1:-1, 1:-1])
    scaled = np.linalg.solve(lower, np.linalg.solve(lower, stiffness[1:-1, 1:-1]).T)
    eigenvalues, q = np.linalg.eigh(scaled)
    v = np.linalg.solve(lower.T, q)
    total = sum(eigenvalues.reshape((-1,) + (1,) * (dim - 1 - axis)) for axis in range(dim))

    def apply_inverse(r):
        for _ in range(dim):  # Vᵀ along each axis; dim contractions cycle the axes back
            r = np.tensordot(r, v, axes=(0, 0))
        r = r / total
        for _ in range(dim):
            r = np.tensordot(r, v, axes=(0, 1))
        return r

    u[interior] = apply_inverse(lifted)
    u[interior] += apply_inverse(residual())
    return u.reshape(-1), float(np.linalg.norm(residual())) / scale
