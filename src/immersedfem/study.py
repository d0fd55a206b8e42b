"""Convergence studies: solve the layer-source model problem on a sequence of
halved meshes, evaluate weighted errors for a grid of exponents, and render
the records as CSV or markdown tables."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import assemble_interface_load
from .geometry import SphericalInterface
from .mesh import _integer, build_uniform_mesh
from .norms import ConvergenceRecord, _check_alphas, eoc, reference_solution, weighted_errors
from .solver import solve
from .space import FeSpace

CSV_HEADER = ("dim,n_cells_per_axis,h,n_dofs,alpha,"
              "err_L2_alpha,err_H1semi_alpha,eoc_L2,eoc_H1")
#: a level whose solve leaves a larger relative residual fails the study;
#: the direct solve reaches about 1e-15
MAX_RELATIVE_RESIDUAL = 1e-10


class ConfigError(ValueError):
    """Invalid study configuration (CLI exit code 1)."""


class StudyError(RuntimeError):
    """A level's solve left a non-finite relative residual or one above
    ``MAX_RELATIVE_RESIDUAL`` (CLI exit code 2)."""


@dataclass
class StudyConfig:
    """Parameters of a convergence study over meshes n_c = 2^min_exp ... 2^max_exp:
    what ``run_study`` reads; the table's format and path are the CLI's.

    Unset levels fall back to dimension-dependent defaults: 8..256 in 2D and
    4..32 in 3D.  The error quadrature is not configurable: degree + 3
    points per axis, twice that per piece on cells near the interface.
    The linear solve is direct and has nothing to configure.  Each field
    is checked by what uses it: the integers by ``mesh._integer``, the
    exponents by ``norms._check_alphas`` (stored sorted), the centre and
    radius, down to its floor, by ``SphericalInterface``; the config adds the
    level bounds and strict containment in the unit box, and raises every
    failure as ConfigError.
    """

    dim: int = 2
    min_exp: int | None = None
    max_exp: int | None = None
    alphas: tuple = (0.0, 0.1, 0.2, 0.3, 0.4, 0.49)
    degree: int = 1
    center: tuple | None = None
    radius: float = 0.2

    def __post_init__(self):
        try:
            self.dim = _integer("dim", self.dim, 2, 3)
            if self.min_exp is None:
                self.min_exp = 3 if self.dim == 2 else 2
            if self.max_exp is None:
                self.max_exp = 8 if self.dim == 2 else 5
            self.min_exp = _integer("min_exp", self.min_exp, 2)
            self.max_exp = _integer("max_exp", self.max_exp, self.min_exp)
            self.degree = _integer("degree", self.degree, 1)
            self.alphas = tuple(sorted(_check_alphas(self.alphas)))
            if self.center is None:
                self.center = (0.3,) * self.dim
            if np.shape(self.center) != (self.dim,):
                raise ValueError(f"center must have {self.dim} coordinates")
            self.center = tuple(SphericalInterface(self.center, self.radius).center.tolist())
            if any(c - self.radius <= 0.0 or c + self.radius >= 1.0 for c in self.center):
                raise ValueError("interface must lie strictly inside the unit box")
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc


def run_study(config: StudyConfig):
    """Solve every refinement level and return records sorted by (n_c, alpha).

    Each level assembles the interface load of the constant jump density of
    the reference solution, solves the Poisson problem with the reference
    solution's trace as Dirichlet data directly (``solver.solve``, on the
    stiffness operator, which is never assembled), and evaluates both
    weighted error norms for every exponent; the config's surface has points
    in every level's load.  Raises StudyError if a solve leaves a relative
    residual that is not finite or exceeds ``MAX_RELATIVE_RESIDUAL``.
    """
    interface = SphericalInterface(config.center, config.radius)
    exact = reference_solution(interface)
    levels = []
    for exponent in range(config.min_exp, config.max_exp + 1):
        n_c = 2 ** exponent
        mesh = build_uniform_mesh(config.dim, n_c)
        space = FeSpace(mesh, config.degree)
        load = assemble_interface_load(space, interface, exact.density)
        solution, residual = solve(space, load, exact.values)
        if not residual <= MAX_RELATIVE_RESIDUAL:
            raise StudyError(f"solve failed at n_c = {n_c}: relative residual {residual:.3e}")
        levels.append((n_c, mesh.h_cell, space.n_dofs,
                       weighted_errors(space, solution, exact, interface, config.alphas)))
    # one rate series per (alpha, norm); the coarsest level has no rate
    rates = {key: [None] + eoc([(h, errors[key]) for _, h, _, errors in levels])
             for key in levels[0][3]}
    return [ConvergenceRecord(dim=config.dim, n_cells_per_axis=n_c, h=h, n_dofs=n_dofs,
                              alpha=alpha, err_l2=errors[(alpha, 0)],
                              err_h1_semi=errors[(alpha, 1)],
                              eoc_l2=rates[(alpha, 0)][k], eoc_h1=rates[(alpha, 1)][k])
            for k, (n_c, h, n_dofs, errors) in enumerate(levels) for alpha in config.alphas]


def _num(value: float) -> str:
    return f"{value:.16e}"


def emit_table(records, fmt: str = "csv") -> str:
    """Render records as CSV (fixed column schema, 17 significant digits so
    rates recompute exactly from the file) or as one markdown table per
    exponent."""
    records = list(records)
    if not records:
        raise ValueError("no records to emit")
    if fmt == "csv":
        lines = [CSV_HEADER]
        for r in records:
            lines.append(",".join([
                str(r.dim), str(r.n_cells_per_axis), _num(r.h), str(r.n_dofs),
                _num(r.alpha), _num(r.err_l2), _num(r.err_h1_semi),
                "" if r.eoc_l2 is None else _num(r.eoc_l2),
                "" if r.eoc_h1 is None else _num(r.eoc_h1),
            ]))
        return "\n".join(lines) + "\n"
    if fmt != "markdown":
        raise ValueError(f"format must be csv or markdown, got {fmt!r}")
    lines = []
    for alpha in sorted({r.alpha for r in records}):
        lines.append(f"## alpha = {alpha:g}")
        lines.append("")
        lines.append("| h | n_dofs | err_L2_alpha | eoc_L2 | err_H1semi_alpha | eoc_H1 |")
        lines.append("|---|---|---|---|---|---|")
        group = [r for r in records if r.alpha == alpha]
        for r in sorted(group, key=lambda rec: -rec.h):
            lines.append("| {h:.6e} | {n} | {e0:.6e} | {r0} | {e1:.6e} | {r1} |".format(
                h=r.h, n=r.n_dofs, e0=r.err_l2,
                r0="-" if r.eoc_l2 is None else f"{r.eoc_l2:.3f}",
                e1=r.err_h1_semi,
                r1="-" if r.eoc_h1 is None else f"{r.eoc_h1:.3f}",
            ))
        lines.append("")
    return "\n".join(lines)
