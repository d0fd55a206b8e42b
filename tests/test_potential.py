import math

import numpy as np
import pytest

from immersedfem import SphericalInterface, reference_solution
from potential import green, jump_check, normal, single_layer, surface_samples

CIRCLE = SphericalInterface((0.3, 0.3), 0.2)
SPHERE = SphericalInterface((0.3, 0.3, 0.3), 0.2)


class TestGreen:
    def test_2d_unit_distance(self):
        assert green(2, [1.0, 0.0]) == pytest.approx(0.0, abs=1e-15)

    def test_3d_unit_distance(self):
        assert green(3, [0.0, 1.0, 0.0]) == pytest.approx(1.0 / (4.0 * math.pi),
                                                          abs=1e-15)

    def test_2d_distance_e(self):
        r = [math.e / math.sqrt(2.0)] * 2
        assert green(2, r) == pytest.approx(-1.0 / (2.0 * math.pi), abs=1e-14)

    def test_rejects_origin(self):
        with pytest.raises(ValueError):
            green(2, [0.0, 0.0])
        with pytest.raises(ValueError):
            green(4, [1.0, 0.0])


class TestSingleLayer:
    def test_2d_center_value(self):
        # mean value of the log kernel over a circle about its own centre
        value = single_layer(CIRCLE, lambda y: 5.0, [0.3, 0.3])
        assert value == pytest.approx(-math.log(0.2), abs=1e-12)

    def test_3d_center_value(self):
        value = single_layer(SPHERE, lambda y: 25.0, [0.3, 0.3, 0.3])
        assert value == pytest.approx(5.0, abs=1e-10)

    def test_2d_monopole_far_field(self):
        x = CIRCLE.center + np.array([10.0, 0.0])
        value = single_layer(CIRCLE, lambda y: 5.0, x)
        assert value == pytest.approx(-math.log(10.0), abs=1e-3)

    def test_matches_reference_solution_2d(self):
        rng = np.random.default_rng(19)
        exact = reference_solution(CIRCLE)
        count = 0
        while count < 25:
            x = rng.uniform(0.02, 0.98, size=2)
            if CIRCLE.distance(x) <= 0.05:
                continue
            value = single_layer(CIRCLE, lambda y: 5.0, x)
            assert value == pytest.approx(exact.values(x)[0], rel=1e-3)
            count += 1

    def test_matches_reference_solution_3d(self):
        rng = np.random.default_rng(20)
        exact = reference_solution(SPHERE)
        count = 0
        while count < 10:
            x = rng.uniform(0.02, 0.98, size=3)
            if SPHERE.distance(x) <= 0.05:
                continue
            value = single_layer(SPHERE, lambda y: 25.0, x)
            assert value == pytest.approx(exact.values(x)[0], rel=1e-3)
            count += 1

    def test_continuity_across_surface(self):
        # the single layer is continuous: values just inside and outside agree
        step = 1e-4
        for y in surface_samples(CIRCLE, 8):
            nu = normal(CIRCLE, y)
            outer = single_layer(CIRCLE, lambda q: 5.0, y + step * nu)
            inner = single_layer(CIRCLE, lambda q: 5.0, y - step * nu)
            assert abs(outer - inner) <= 50.0 * step

    def test_harmonic_off_surface_2d(self):
        # 5-point Laplacian at points clear of the surface
        rng = np.random.default_rng(6)
        h = 1e-3
        checked = 0
        while checked < 20:
            x = rng.uniform(0.05, 0.95, size=2)
            if CIRCLE.distance(x) <= 0.05:
                continue
            p = lambda q: single_layer(CIRCLE, lambda y: 5.0, q)
            lap = (p(x + [h, 0]) + p(x - [h, 0]) + p(x + [0, h]) + p(x - [0, h])
                   - 4.0 * p(x)) / h**2
            assert abs(lap) <= 1e-3 * max(abs(p(x)), 1.0)
            checked += 1

    def test_harmonic_off_surface_3d(self):
        rng = np.random.default_rng(9)
        h = 5e-4
        checked = 0
        while checked < 20:
            x = rng.uniform(0.05, 0.95, size=3)
            if SPHERE.distance(x) <= 0.05:
                continue
            p = lambda q: single_layer(SPHERE, lambda y: 25.0, q)
            lap = sum(p(x + h * e) + p(x - h * e) for e in np.eye(3)) - 6.0 * p(x)
            lap /= h**2
            assert abs(lap) <= 1e-3 * max(abs(p(x)), 1.0) * 10.0
            checked += 1

    def test_rejects_points_near_surface(self):
        y = surface_samples(CIRCLE, 1)[0]
        with pytest.raises(ValueError):
            single_layer(CIRCLE, lambda q: 1.0, y)


class TestJumpCheck:
    def test_reference_2d(self):
        exact = reference_solution(CIRCLE)
        residual = jump_check(CIRCLE, exact.values, lambda y: 5.0)
        assert residual < 1e-3

    def test_reference_3d(self):
        exact = reference_solution(SPHERE)
        residual = jump_check(SPHERE, exact.values, lambda y: 25.0)
        assert residual < 1e-2

    def test_globally_smooth_function_has_no_jump(self):
        residual = jump_check(CIRCLE, lambda x: x[:, 0], lambda y: 0.0)
        assert residual < 1e-10
