"""Acceptance suite: every criterion prints one PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  The two convergence
studies (2D up to n_c = 256, 3D up to n_c = 32) run once as fixtures and are
shared across criteria.
"""

import math
import time

import numpy as np
import pytest

from conftest import element_scatter_stiffness, eliminate, operator_matrix
from immersedfem import (FeSpace, SphericalInterface, StudyConfig,
                         assemble_interface_load, build_uniform_mesh, classify_cells,
                         discrete_norm, immersed_quadrature, interpolate,
                         interpolate_outside_layer, jump_check,
                         reference_solution, run_study, single_layer, solve,
                         weighted_errors)

CIRCLE = SphericalInterface((0.3, 0.3), 0.2)
SPHERE = SphericalInterface((0.3, 0.3, 0.3), 0.2)
ALPHAS = (0.0, 0.1, 0.2, 0.3, 0.4, 0.49)


def report(criterion: str, ok: bool, detail: str):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


def mean_final_eoc(records, alpha: float, which: str, count: int = 3) -> float:
    rates = [getattr(r, which) for r in records
             if r.alpha == alpha and getattr(r, which) is not None]
    return float(np.mean(rates[-count:]))


@pytest.fixture(scope="module")
def study_2d():
    start = time.perf_counter()
    records = run_study(StudyConfig(dim=2, alphas=ALPHAS))
    return records, time.perf_counter() - start


@pytest.fixture(scope="module")
def study_3d():
    start = time.perf_counter()
    records = run_study(StudyConfig(dim=3, alphas=ALPHAS))
    return records, time.perf_counter() - start


def test_criterion_1_rates_2d(study_2d):
    records, elapsed = study_2d
    l2 = mean_final_eoc(records, 0.0, "eoc_l2")
    h1 = mean_final_eoc(records, 0.0, "eoc_h1")
    ok = (1.35 <= l2 <= 1.65) and (0.35 <= h1 <= 0.65) and elapsed < 180.0
    report("1 (2D rates, alpha=0)", ok,
           f"EOC L2={l2:.3f} in 1.5+-0.15, H1={h1:.3f} in 0.5+-0.15, "
           f"runtime {elapsed:.1f}s < 180s")


def test_criterion_2_weighted_optimality_2d(study_2d):
    records, _ = study_2d
    l2_49 = mean_final_eoc(records, 0.49, "eoc_l2")
    h1_49 = mean_final_eoc(records, 0.49, "eoc_h1")
    ok = l2_49 >= 1.8 and h1_49 >= 0.8
    detail = f"EOC(0.49) L2={l2_49:.3f}>=1.8, H1={h1_49:.3f}>=0.8"
    for which in ("eoc_l2", "eoc_h1"):
        rates = [mean_final_eoc(records, a, which) for a in ALPHAS]
        steps_ok = all(b >= a - 0.05 for a, b in zip(rates[:-1], rates[1:]))
        ok = ok and steps_ok
        detail += f"; {which} over alpha " + ("monotone" if steps_ok else
                                              f"NOT monotone {rates}")
    report("2 (2D weighted optimality)", ok, detail)


def test_criterion_3_rates_3d(study_3d):
    records, elapsed = study_3d
    l2 = mean_final_eoc(records, 0.0, "eoc_l2")
    h1 = mean_final_eoc(records, 0.0, "eoc_h1")
    l2_49 = mean_final_eoc(records, 0.49, "eoc_l2")
    ok = (1.25 <= l2 <= 1.75) and (0.25 <= h1 <= 0.75) and l2_49 >= 1.7 \
        and elapsed < 600.0
    report("3 (3D rates)", ok,
           f"EOC L2={l2:.3f} in 1.5+-0.25, H1={h1:.3f} in 0.5+-0.25, "
           f"L2(0.49)={l2_49:.3f}>=1.7, runtime {elapsed:.1f}s < 600s")


def test_criterion_4_oracle_consistency():
    rng = np.random.default_rng(42)
    worst = 0.0
    for interface, density in ((CIRCLE, 5.0), (SPHERE, 25.0)):
        exact = reference_solution(interface)
        checked = 0
        while checked < 50:
            x = rng.uniform(0.02, 0.98, size=interface.dim)
            if interface.distance(x) <= 0.05:
                continue
            value = single_layer(interface, lambda y: density, x)
            want = exact.values(x)[0]
            worst = max(worst, abs(value - want) / abs(want))
            checked += 1
    jump_2d = jump_check(CIRCLE, reference_solution(CIRCLE).values, lambda y: 5.0)
    jump_3d = jump_check(SPHERE, reference_solution(SPHERE).values, lambda y: 25.0)
    ok = worst <= 1e-3 and jump_2d < 1e-2 and jump_3d < 1e-2
    report("4 (potential oracle)", ok,
           f"single layer rel err {worst:.2e}<=1e-3, jump residuals "
           f"{jump_2d:.2e}/{jump_3d:.2e}<1e-2")


def test_criterion_5_geometry_exactness():
    q2 = immersed_quadrature(CIRCLE, build_uniform_mesh(2, 8))
    err_2d = abs(q2.total_weight() - 2.0 * math.pi * 0.2)
    q3 = immersed_quadrature(SPHERE, build_uniform_mesh(3, 8))
    err_3d = abs(q3.total_weight() - 4.0 * math.pi * 0.04)
    ok = err_2d <= 1e-10 and err_3d <= 1e-6
    bounds = []
    for interface, dim in ((CIRCLE, 2), (SPHERE, 3)):
        for n in (8, 16, 32):
            mesh = build_uniform_mesh(dim, n)
            per = immersed_quadrature(interface, mesh).weight_per_cell(mesh.n_cells)
            bounds.append(per.max() / (2.0 * math.sqrt(dim) * mesh.h_cell))
    ok = ok and max(bounds) <= 1.0
    report("5 (geometry exactness)", ok,
           f"total weight errs {err_2d:.1e}<=1e-10 (2D), {err_3d:.1e}<=1e-6 (3D); "
           f"per-cell measure/(2*sqrt(dim)*h) max {max(bounds):.3f}<=1")


def test_criterion_6_norm_equivalence():
    rng = np.random.default_rng(11)
    ratios = []
    for n in (8, 16, 32):
        mesh = build_uniform_mesh(2, n)
        space = FeSpace(mesh, 1)
        cls = classify_cells(mesh, CIRCLE, math.sqrt(2.0))
        zero = _ZeroField()
        for _ in range(10):
            coeffs = rng.uniform(-1.0, 1.0, size=space.n_dofs)
            for alpha in (0.25, 0.49):
                dn = discrete_norm(space, coeffs, cls, alpha)
                wn = weighted_errors(space, coeffs, zero, CIRCLE,
                                     [alpha])[(alpha, 0)]
                ratios.append(dn / wn)
    ok = min(ratios) >= 0.2 and max(ratios) <= 5.0
    report("6 (norm equivalence)", ok,
           f"ratio range [{min(ratios):.3f}, {max(ratios):.3f}] within [0.2, 5]")


class _ZeroField:
    def values(self, points, side=None):
        return np.zeros(np.atleast_2d(points).shape[0])

    def gradients(self, points, side=None):
        return np.zeros_like(np.atleast_2d(points))


def test_criterion_7a_masked_interpolant_without_layer():
    far = SphericalInterface((10.0, 10.0), 0.2)
    mesh = build_uniform_mesh(2, 8)
    space = FeSpace(mesh, 1)
    cls = classify_cells(mesh, far, math.sqrt(2.0))
    g = lambda x: np.sin(x[:, 0]) * x[:, 1]
    same = np.array_equal(interpolate_outside_layer(space, cls, g),
                          interpolate(space, g))
    report("7a (masked interpolant = interpolation, empty layer)", same,
           "exact coefficient match" if same else "coefficients differ")


def test_criterion_7b_masked_interpolant_weighted_rate():
    # The masked interpolant loses accuracy only in the layer.  Checks:
    # (1) out-cell weighted H1 EOC at alpha = 0.49 is >= 0.8;
    # (2) full-domain weighted L2 EOC at alpha = 0.49 is >= 0.8;
    # (3) full-domain weighted H1 EOC is within 0.1 of alpha - 1/2: zeroing
    # the O(1) nodal values leaves a ring of width ~h where |grad e| ~ |u|/h
    # and d ~ h, so |e|_{1,alpha}^2 ~ h * h^-2 * h^(2 alpha) = h^(2 alpha - 1).
    exact = reference_solution(CIRCLE)
    alphas = (0.0, 0.25, 0.49)
    full, outside = [], []
    for n in (16, 32, 64):
        mesh = build_uniform_mesh(2, n)
        space = FeSpace(mesh, 1)
        cls = classify_cells(mesh, CIRCLE, math.sqrt(2.0))
        coeffs = interpolate_outside_layer(space, cls, exact.values)
        full.append(weighted_errors(space, coeffs, exact, CIRCLE, alphas))
        outside.append(weighted_errors(space, coeffs, exact, CIRCLE, [0.49],
                                       cell_ids=cls.out_cells)[(0.49, 1)])

    def rates(errors):
        return [math.log2(a / b) for a, b in zip(errors[:-1], errors[1:])]

    def fmt(values):
        return "[" + ", ".join(f"{v:.3f}" for v in values) + "]"

    out_h1 = rates(outside)
    full_l2 = rates([e[(0.49, 0)] for e in full])
    ok = all(r >= 0.8 for r in out_h1) and all(r >= 0.8 for r in full_l2)
    detail = (f"EOC over 16/32/64: out-cell H1(0.49)={fmt(out_h1)}>=0.8, "
              f"full L2(0.49)={fmt(full_l2)}>=0.8")
    for a in alphas:
        full_h1 = rates([e[(a, 1)] for e in full])
        ok = ok and all(abs(r - (a - 0.5)) <= 0.1 for r in full_h1)
        detail += f", full H1({a})={fmt(full_h1)} in {a - 0.5:.2f}+-0.1"
    report("7b (masked interpolant weighted H1 rate)", ok, detail)


def test_criterion_8_invariant_suites():
    space = FeSpace(build_uniform_mesh(2, 8), 1)
    # the dense matrix of the solver's matrix-free stiffness operator
    matrix = operator_matrix(space)
    row_sum = float(np.max(np.abs(matrix.sum(axis=1))))
    asym_max = float(np.max(np.abs(matrix - matrix.T)))

    quad = immersed_quadrature(CIRCLE, space.mesh)
    load = assemble_interface_load(space, quad, lambda y: 5.0)
    pu_err = abs(float(np.sum(load)) - 5.0 * 2.0 * math.pi * 0.2)

    # oracle: the element-scatter stiffness, eliminated and solved densely
    exact = reference_solution(CIRCLE)
    system, rhs = eliminate(element_scatter_stiffness(space), load, space, exact.values)
    oracle = np.linalg.solve(system.toarray(), rhs)
    solution, _ = solve(space, load, exact.values)
    solve_err = float(np.linalg.norm(solution - oracle) / np.linalg.norm(oracle))

    ok = row_sum <= 1e-12 and asym_max <= 1e-12 and pu_err <= 1e-8 \
        and solve_err <= 1e-8
    report("8 (invariant suites)", ok,
           f"row sum {row_sum:.1e}<=1e-12, asymmetry {asym_max:.1e}<=1e-12, "
           f"interface load sum err {pu_err:.1e}<=1e-8, solve vs direct "
           f"{solve_err:.1e}<=1e-8")
