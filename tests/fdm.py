"""The fast-diagonalisation solve on whole grids (test oracle).

The package applies the stiffness in chunks and transforms in slabs sized by
``quadrature._batch``, which reads ``quadrature.BATCH_POINTS`` at call time
(``solver._apply_1d``, ``_kronecker_sum``, ``_analyse``, ``_synthesise``);
these are the whole-grid forms it replaced, each a few grid-sized
temporaries, with ``solve`` on top, so every chunk and slab can be checked
against them bit for bit.  The transforms here keep the transformed axis last; the
package's move it to the front.  ``loop_bands`` is the loop form of the
banded scatter (``solver._bands``).
"""

import math

import numpy as np

from immersedfem import solver
from immersedfem.space import _field_values


def loop_bands(element, cells):
    """``solver._bands`` by strided slices, one local dof at a time: the row
    sums and the upper bands of the 1D matrix scattered from ``element``."""
    element, element_sums = element
    degree = element.shape[0] - 1
    n = degree * cells + 1
    sums = np.zeros(n)
    for a in range(degree + 1):
        sums[a:a + degree * cells:degree] += element_sums[a]
    bands = []
    for s in range(1, degree + 1):
        band = np.zeros(n - s)
        for a in range(degree + 1 - s):  # dofs a and a + s of every cell
            band[a:a + degree * cells:degree] += element[a, a + s]
        bands.append(band)
    return sums, bands


def apply_1d(matrix, u, axis):
    """``B u`` along ``axis`` of ``u`` for ``B = (row sums, upper bands)``."""
    sums, bands = matrix
    u = np.moveaxis(u, axis, -1)
    out = sums * u
    for s, band in enumerate(bands, 1):
        flux = band * (u[..., s:] - u[..., :-s])
        out[..., :-s] += flux
        out[..., s:] -= flux
    return np.moveaxis(out, -1, axis)


def kronecker_sum(mass, stiffness, u):
    """``A u`` for ``A = Σ_d M⊗…⊗K⊗…⊗M``, ``K`` applied first in each term."""
    total = 0.0
    for axis in range(u.ndim):
        term = apply_1d(stiffness, u, axis)
        for other in range(u.ndim):
            if other != axis:
                term = apply_1d(mass, term, other)
        total = total + term
    return total


def analyse(x, analysis, cells):
    """Mode coefficients ``Vᵀ x`` along the last axis of ``x``, kept last."""
    real, imag = analysis
    degree = real.shape[0]
    n = degree * cells
    odd = np.zeros(x.shape[:-1] + (2 * n,))
    odd[..., 1:n] = x
    odd[..., n + 1:] = -x[..., ::-1]
    spectrum = np.empty(x.shape[:-1] + (degree, cells + 1), dtype=complex)
    np.fft.rfft(odd.reshape(x.shape[:-1] + (2 * cells, degree)).swapaxes(-1, -2), out=spectrum)
    out = (np.einsum("...aj,kaj->...kj", spectrum.imag, real)
           + np.einsum("...aj,kaj->...kj", spectrum.real, imag))
    return out.reshape(x.shape[:-1] + (degree * (cells + 1),))


def synthesise(coefficients, synthesis, cells):
    """Interior dof values ``V c`` along the last axis of ``c``, kept last."""
    real, imag = synthesis
    degree = real.shape[0]
    c = coefficients.reshape(coefficients.shape[:-1] + (degree, cells + 1))
    spectrum = np.empty(c.shape, dtype=complex)
    np.einsum("...kj,akj->...aj", c, real, out=spectrum.real)
    np.einsum("...kj,akj->...aj", c, imag, out=spectrum.imag)
    values = np.empty(c.shape[:-2] + (2 * cells, degree))
    np.fft.irfft(spectrum, n=2 * cells, out=values.swapaxes(-1, -2))
    return values.reshape(c.shape[:-2] + (2 * degree * cells,))[..., 1:degree * cells]


def solve(space, load, g):
    """``solver.solve`` with whole-grid transforms and three whole-grid
    operator applies, the first on the boundary data alone."""
    load = np.asarray(load, dtype=float)
    cells, dim = space.mesh.cells_per_axis, space.mesh.dim
    elements = solver._elements_1d(space)
    mass, stiffness = (solver._bands(element, cells) for element in elements)
    interior = (slice(1, -1),) * dim
    u = np.zeros((space.degree * cells + 1,) * dim)
    boundary = _field_values(g, space.dof_coords(space.boundary_dofs))
    u.reshape(-1)[space.boundary_dofs] = boundary
    load = load.reshape(u.shape)[interior]

    def residual():
        return load - kronecker_sum(mass, stiffness, u)[interior]

    lifted = residual()
    scale = math.hypot(solver._norm(lifted), solver._norm(boundary))
    if scale == 0.0:
        return np.zeros(space.n_dofs), 0.0
    values, analysis, synthesis = solver._modes_1d(*(matrix for matrix, _ in elements), cells)
    values = values.ravel()
    total = sum(values.reshape((-1,) + (1,) * (dim - 1 - axis)) for axis in range(dim))

    def apply_inverse(r):
        for _ in range(dim):
            r = np.moveaxis(analyse(r, analysis, cells), -1, 0)
        r = r / total
        for _ in range(dim):
            r = np.moveaxis(synthesise(r, synthesis, cells), -1, 0)
        return r

    u[interior] = apply_inverse(lifted)
    u[interior] += apply_inverse(residual())
    return u.reshape(-1), solver._norm(residual()) / scale
