"""The Poisson stiffness operator of a ``Q^degree`` space and the direct solve
of its Dirichlet problem.

The grid is uniform and the elements are tensor products, so the stiffness
matrix is the Kronecker sum ``Σ_d M⊗…⊗K⊗…⊗M`` of one 1D mass/stiffness pair,
both scattered from one cell's element matrices (``_elements_1d``).  The 1D
factors are banded: they are applied from their row sums and degree upper
bands by shifted slices, axis by axis, and never assembled
(``_kronecker_sum``).

The Dirichlet problem is solved by fast diagonalisation (Lynch, Rice &
Thomas, Numer. Math. 6, 1964): the interior block is the Kronecker sum of the
interior 1D blocks, so the 1D generalised eigenvectors invert it.  Every cell
carries the same element matrices, so these eigenvectors are Fourier modes
over the cells, as in FFT Poisson solvers (Swarztrauber, SIAM Rev. 19, 1977):
one ``degree × degree`` eigenproblem per frequency (``_modes_1d``), and the
transforms are real FFTs of the odd extension (``_analyse``, ``_synthesise``;
for Q1 the DST-I).  No grid-sized array reaches BLAS or LAPACK, so the result
does not depend on the BLAS library's thread count.

A solve holds at most four grid-sized arrays at once: ``u``, the interior
residual, and the input and output of one transform; while the operator is
applied, its total and two work arrays take the place of the last three.
Everything else works on slabs sized by ``quadrature._batch``: the odd
extension, spectrum and mixing of the transforms, the fluxes of the banded
applies and the eigenvalue sums of the division."""

from __future__ import annotations

import math

import numpy as np

from .quadrature import _batch, gauss_points_1d
from .space import FeSpace, _field_values, _lagrange_1d


def _elements_1d(space: FeSpace):
    """Mass and stiffness element matrices, ``(degree + 1) × (degree + 1)``,
    of the 1D ``Q^degree`` space on one cell of the grid, from degree + 2
    Gauss points, each with its row sums: the integrals against the constant
    1, whose derivative is 0, so the stiffness rows sum to exactly zero.
    Every cell of every axis carries this same pair."""
    x, weights = gauss_points_1d(space.degree + 2)
    values, derivs = _lagrange_1d(space.degree, x)  # (n_q, degree + 1)
    elements = []
    for table, constant, scale in ((values, 1.0, space.mesh.edge),
                                   (derivs, 0.0, 1.0 / space.mesh.edge)):
        element = np.einsum("q,qi,qj->ij", weights, table, table)
        sums = np.einsum("q,qi->i", weights, table) * constant
        elements.append((0.5 * (element + element.T) * scale, sums * scale))
    return elements


def _bands(element, cells: int):
    """The symmetric 1D matrix scattered from ``element`` (a matrix and its
    row sums, see ``_elements_1d``) on ``cells`` cells, as its row sums and
    its upper off-diagonal bands: band ``s`` holds the entries ``(m, m + s)``,
    ``s = 1 … degree``.  The diagonal is implied by the row sums."""
    element, element_sums = element
    degree = element.shape[0] - 1
    n = degree * cells + 1
    # (cell c, local dof a): the row degree c + a of the dof
    rows = degree * np.arange(cells)[:, None] + np.arange(degree + 1)
    bands = [np.bincount(rows[:, :-s].ravel(), np.tile(np.diagonal(element, s), cells), n - s)
             for s in range(1, degree + 1)]
    return np.bincount(rows.ravel(), np.tile(element_sums, cells), n), bands


def _apply_1d(matrix, u, axis: int, out) -> None:
    """``out = B u`` along ``axis`` of the grid array ``u``, for the symmetric
    banded 1D matrix ``B = (row sums, upper bands)`` of ``_bands``.  Row
    ``m`` is its row sum times ``u_m`` plus each band entry times the
    difference of ``u`` from ``u_m``.  Differences of a smooth ``u`` are
    small, and exact where neighbours lie within a factor of two, so the
    stiffness, whose rows sum to zero, is applied without the cancellation
    of ``O(|u| / h)`` products.  The bands act by slices along ``axis`` on
    chunks of rows taken along another axis (``_batch``), each flux formed
    in place in one work array; every entry sees the same operations as in
    one whole-grid pass."""
    sums, bands = matrix
    along = (-1,) + (1,) * (u.ndim - 1 - axis)  # a 1D factor broadcast along axis
    across = 1 if axis == 0 else 0
    row = u.size // u.shape[across]
    step = _batch(u.shape[across], row)
    work = np.empty(step * row)
    for start in range(0, u.shape[across], step):
        chunk = (slice(None),) * across + (slice(start, start + step),)
        x, y = u[chunk], out[chunk]
        np.multiply(sums.reshape(along), x, out=y)
        for s, band in enumerate(bands, 1):
            upper = (slice(None),) * axis + (slice(s, None),)
            lower = (slice(None),) * axis + (slice(None, -s),)
            shape = x[lower].shape
            flux = work[:math.prod(shape)].reshape(shape)
            np.subtract(x[upper], x[lower], out=flux)
            flux *= band.reshape(along)
            y[lower] += flux
            y[upper] -= flux


def _kronecker_sum(mass, stiffness, u):
    """``A u`` for the stiffness ``A = Σ_d M⊗…⊗K⊗…⊗M`` and a grid array
    ``u`` (dof order), with ``M`` and ``K`` as ``_bands`` gives them.  Each
    term applies ``K`` first, to ``u`` itself, then ``M`` along the other
    axes in order, between two work arrays, and is added into one total.
    ``A`` is symmetric positive semidefinite with the constants in its
    kernel."""
    total = np.zeros(u.shape)
    term, work = np.empty(u.shape), np.empty(u.shape)
    for axis in range(u.ndim):
        _apply_1d(stiffness, u, axis, term)
        for other in range(u.ndim):
            if other != axis:
                _apply_1d(mass, term, other, work)
                term, work = work, term
        total += term
    return total


def _modes_1d(mass, stiffness, cells: int):
    """The M-orthonormal eigenvectors ``v`` of ``K v = λ M v`` for the interior
    blocks of the 1D factors scattered from the element matrices ``mass`` and
    ``stiffness`` on ``cells`` cells, as Fourier modes.

    At ``ω_j = jπ/cells``, ``j = 0 … cells``, a mode has the value
    ``Im(w_a e^{iω_j c})`` at dof ``a < degree`` of cell ``c``, where ``w``
    solves the ``degree × degree`` Hermitian symbols of the two factors on
    the periodic grid of ``2 cells`` cells.  The phase of ``w`` is fixed by
    the odd reflection (``w_0`` real, ``w_{ℓ−a} = e^{iω} conj(w_a)``), so the
    mode is real and vanishes at both ends.  At ``ω = 0`` and ``π`` only the
    eigenvectors the reflection maps to ``−w`` give a mode (``w`` imaginary);
    the others carry nothing.  Modes are ordered by ``k`` (the eigenvalue's
    place in its symbol), then ``j``.  Returns ``(eigenvalues, analysis,
    synthesis)``: eigenvalues of shape ``(degree, cells + 1)``, infinite where
    no mode is, and the real and imaginary parts of the per-mode mixing of
    ``_analyse`` (``[k, a, j]``) and ``_synthesise`` (``[a, k, j]``)."""
    degree = mass.shape[0] - 1
    omega = np.pi * np.arange(cells + 1) / cells
    shift = np.exp(1j * omega)
    # a cell's dofs as the degree dofs of its period: dof ``degree`` is the
    # next period's dof 0
    gather = np.zeros((cells + 1, degree + 1, degree), dtype=complex)
    gather[:, np.arange(degree), np.arange(degree)] = 1.0
    gather[:, degree, 0] = shift
    mass_hat, stiffness_hat = (np.einsum("jpa,pq,jqb->jab", gather.conj(), element, gather)
                               for element in (mass, stiffness))
    # L⁻¹ K̂ L⁻ᴴ = Y Λ Yᴴ with M̂ = L Lᴴ, so w = L⁻ᴴ Y and wᴴ M̂ w = I
    inverse = np.linalg.inv(np.linalg.cholesky(mass_hat))
    values, vectors = np.linalg.eigh(
        np.einsum("jab,jbc,jdc->jad", inverse, stiffness_hat, inverse.conj()))
    w = np.einsum("jba,jbk->jak", inverse.conj(), vectors)

    reflected = np.r_[0, degree - 1:0:-1]
    factor = np.where(np.arange(degree) == 0, 1.0, shift[:, None])[:, :, None]

    def reflect(w):
        return factor * w[:, reflected].conj()

    # reflect(w) = e^{iθ} w for a simple eigenvalue; e^{iθ/2} w is fixed
    turn = np.sum(w.conj() * reflect(w), axis=1, keepdims=True)
    w = w * np.sqrt(turn / np.abs(turn))
    w = 0.5 * (w + reflect(w))
    ends = [0, cells]
    keep = np.sum(w[ends].imag ** 2, axis=1) > np.sum(w[ends].real ** 2, axis=1)
    w[ends] = 1j * w[ends].imag * keep[:, None, :]
    values[ends] = np.where(keep, values[ends], np.inf)
    # the odd extension's M-norm is 2 cells for a mode and 4 cells for the
    # odd part of the others; half of it lies on the interior
    norm = np.full(cells + 1, math.sqrt(2.0 / cells))
    norm[ends] = math.sqrt(1.0 / cells)
    # Vᵀ x = -Im(Σ_a conj(w_a) F_a) norm / 2 with F the FFT of the odd
    # extension; V c = irfft(-2i c w / norm), as irfft weighs the end
    # frequencies by 1/(2 cells) and the others by 1/cells, both norm² / 2
    analysis = (-0.5 * norm[:, None, None] * w.conj()).transpose(2, 1, 0)
    synthesis = (-2j / norm[:, None, None] * w).transpose(1, 2, 0)
    # contiguous, for the einsum loops of the transforms
    return values.T, *((np.ascontiguousarray(mixing.real), np.ascontiguousarray(mixing.imag))
                       for mixing in (analysis, synthesis))


def _analyse(x, analysis, cells: int):
    """Mode coefficients ``Vᵀ x`` along the last axis of ``x``, which holds
    the ``degree · cells − 1`` interior dofs, as a new array with that axis
    first: ``degree · (cells + 1)`` coefficients in the order of
    ``_modes_1d``, then the other axes of ``x``.  The rows of ``x`` go
    through the odd extension, the FFT and the mixing in slabs sized by
    their odd extension (``_batch``), in work arrays made once."""
    real, imag = analysis
    degree = real.shape[0]
    n = degree * cells
    count = math.prod(x.shape[:-1])
    rows = x.reshape(count, n - 1)
    out = np.empty((degree * (cells + 1), count))
    step = _batch(count, 2 * n)
    odd = np.zeros((step, 2 * n))
    spectrum = np.empty((step, degree, cells + 1), dtype=complex)
    mixed = np.empty((2, step, degree, cells + 1))
    for start in range(0, count, step):
        block = rows[start:start + step]
        k = block.shape[0]
        odd[:k, 1:n] = block
        np.negative(block[:, ::-1], out=odd[:k, n + 1:])
        # one FFT over the cells per dof a of a period, into contiguous rows
        np.fft.rfft(odd[:k].reshape(k, 2 * cells, degree).swapaxes(-1, -2), out=spectrum[:k])
        # Im(P F) = Re P Im F + Im P Re F, summed over a
        np.einsum("...aj,kaj->...kj", spectrum[:k].imag, real, out=mixed[0, :k])
        np.einsum("...aj,kaj->...kj", spectrum[:k].real, imag, out=mixed[1, :k])
        np.add(mixed[0, :k].reshape(k, -1), mixed[1, :k].reshape(k, -1),
               out=out[:, start:start + k].T)
    return out.reshape(out.shape[:1] + x.shape[:-1])


def _synthesise(coefficients, synthesis, cells: int):
    """Interior dof values ``V c`` along the last axis of the mode
    coefficients ``c`` (the layout of ``_analyse``), as a new array with that
    axis first, in slabs as ``_analyse`` makes them."""
    real, imag = synthesis
    degree = real.shape[0]
    n = degree * cells
    count = math.prod(coefficients.shape[:-1])
    rows = coefficients.reshape(count, degree, cells + 1)
    out = np.empty((n - 1, count))
    step = _batch(count, 2 * n)
    spectrum = np.empty((step, degree, cells + 1), dtype=complex)
    values = np.empty((step, 2 * cells, degree))
    for start in range(0, count, step):
        c = rows[start:start + step]
        k = c.shape[0]
        np.einsum("...kj,akj->...aj", c, real, out=spectrum[:k].real)
        np.einsum("...kj,akj->...aj", c, imag, out=spectrum[:k].imag)
        # the FFT over the cells per dof a of a period, back into dof order
        np.fft.irfft(spectrum[:k], n=2 * cells, out=values[:k].swapaxes(-1, -2))
        out[:, start:start + k] = values[:k].reshape(k, 2 * n)[:, 1:n].T
    return out.reshape(out.shape[:1] + coefficients.shape[:-1])


def _norm(x) -> float:
    """Euclidean norm from a numpy sum, which no BLAS thread count reorders."""
    return math.sqrt(np.sum(np.square(x)))


def solve(space: FeSpace, load, g):
    """Solve the Poisson problem of ``space`` with right-hand side ``load``
    and ``u = g`` on the boundary dofs; returns ``(u, relative_residual)``.

    ``g`` is called once on the boundary dof coordinates (see
    ``space._field_values``).  With ``K V = M V Λ`` and ``Vᵀ M V = I`` for
    the interior blocks of the 1D factors (``_modes_1d``), the interior block
    ``A_II`` is inverted by ``S = (V⊗…⊗V) diag(Σ_d λ)⁻¹ (V⊗…⊗V)ᵀ``: ``Vᵀ``
    and ``V`` are real FFTs along each axis with a per-mode mixing, and one
    correction ``u_I += S (load − A u)_I`` follows.  The residual is the true
    one of the Dirichlet-eliminated system, ``|(load − A u)_I| / |[(load −
    A u_B)_I ; g_B]|``, with ``u_B`` the boundary data alone and ``A``
    applied from its bands; zero ``load`` and ``g`` give exact zeros and
    residual 0.  Nothing on the grid goes through BLAS, so the result is
    the same for every BLAS thread count.  A ``load`` of another shape than
    ``(n_dofs,)``, or a ``load`` or ``g`` with NaN or infinite entries,
    raises ValueError.
    """
    load = np.asarray(load, dtype=float)
    if load.shape != (space.n_dofs,):
        raise ValueError(f"load must have shape ({space.n_dofs},), got {load.shape}")
    if not np.all(np.isfinite(load)):
        raise ValueError("load must be finite")
    cells, dim = space.mesh.cells_per_axis, space.mesh.dim
    elements = _elements_1d(space)
    mass, stiffness = (_bands(element, cells) for element in elements)
    interior = (slice(1, -1),) * dim
    u = np.zeros((space.degree * cells + 1,) * dim)
    boundary = _field_values(g, space.dof_coords(space.boundary_dofs))
    u.reshape(-1)[space.boundary_dofs] = boundary
    load = load.reshape(u.shape)[interior]

    def residual():
        return load - _kronecker_sum(mass, stiffness, u)[interior]

    lifted = residual()
    scale = math.hypot(_norm(lifted), _norm(boundary))
    if scale == 0.0:
        return np.zeros(space.n_dofs), 0.0
    values, analysis, synthesis = _modes_1d(*(matrix for matrix, _ in elements), cells)
    values = values.ravel()
    step = _batch(values.size, values.size ** (dim - 1))

    def apply_inverse(r):
        for _ in range(dim):  # one axis at a time, last first; each moves its axis to the front
            r = _analyse(r, analysis, cells)
        for start in range(0, len(r), step):  # over Σ_d λ_d, slab by slab along the first axis
            r[start:start + step] /= sum(
                (values[start:start + step] if axis == 0 else values).reshape(
                    (-1,) + (1,) * (dim - 1 - axis)) for axis in range(dim))
        for _ in range(dim):
            r = _synthesise(r, synthesis, cells)
        return r

    u[interior] = apply_inverse(lifted)
    del lifted  # the correction's residual takes its place
    u[interior] += apply_inverse(residual())
    return u.reshape(-1), _norm(residual()) / scale
