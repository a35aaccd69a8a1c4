"""Checks of the benchmark's oracles against mpmath and known geometry.

Run from the repository root: python3 -m pytest perfbench/test_oracles.py
"""

from __future__ import annotations

import math
import os
import sys

import mpmath
import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import oracles  # noqa: E402

mpmath.mp.dps = 30


def _mp_fd(m, lam, radius, rho):
    s = mpmath.sqrt(lam)
    return -rho * mpmath.besseli(m, s * radius) * mpmath.besselk(m, s * rho) ** 2 / mpmath.besselk(m, s * radius)


def _mp_fn(m, lam, radius, rho):
    s = mpmath.sqrt(lam)
    x = s * radius
    ip = (mpmath.besseli(m - 1, x) + mpmath.besseli(m + 1, x)) / 2
    kp = -(mpmath.besselk(m - 1, x) + mpmath.besselk(m + 1, x)) / 2
    return -rho * ip * mpmath.besselk(m, s * rho) ** 2 / kp


def _mp_md(m, lam, radius):
    x = mpmath.sqrt(lam) * radius
    return -radius * mpmath.besseli(m, x) * mpmath.besselk(m, x)


def _modes(values_by_m, count):
    vals = [values_by_m(0)] + [v for m in range(1, count) for v in (values_by_m(m),) * 2]
    return sorted(vals, key=lambda v: -abs(v))[:count]


@pytest.mark.parametrize("lam", [0.5, 2.0, 128.0])
def test_circle_data_operators_match_mpmath(lam):
    radius, rho, count = 1.3, 4.0, 7
    for oracle, reference in (
        (oracles.circle_fd_eigenvalues, _mp_fd),
        (oracles.circle_fn_eigenvalues, _mp_fn),
    ):
        got = oracle(lam, radius, rho, count)
        want = _modes(lambda m: float(reference(m, lam, radius, rho)), count)
        np.testing.assert_allclose(got, want, rtol=1e-12)


def test_m_d_matches_mpmath_and_is_negative():
    got = oracles.circle_md_eigenvalues(2.0, 1.0, 9)
    want = _modes(lambda m: float(_mp_md(m, 2.0, 1.0)), 9)
    np.testing.assert_allclose(got, want, rtol=1e-12)
    assert np.all(got < 0)


def test_mode_multiplicity_pairs_nonzero_modes():
    got = oracles.circle_fd_eigenvalues(2.0, 1.0, 4.0, 5)
    assert got[1] == got[2] and got[3] == got[4] and got[0] != got[1]


@pytest.mark.parametrize("theta,radius", [(-0.5, 1.0), (-2.0, 0.7)])
def test_theta_bound_root_matches_mpmath(theta, radius):
    def mode0(lam):
        x = mpmath.sqrt(lam) * radius
        return theta + lam * radius * mpmath.besseli(1, x) * mpmath.besselk(1, x)

    want = float(mpmath.findroot(mode0, 1.0))
    assert oracles.theta_bound_root(theta, radius) == pytest.approx(want, rel=1e-10)


def test_theta_bound_root_value():
    assert oracles.theta_bound_root(-0.5) == pytest.approx(1.68055, abs=1e-5)


def _analytic_inside(points):
    """Each horizontal line |y| < 1.5 meets the kite twice, at
    t = asin(y/1.5) and pi - asin(y/1.5); inside lies between."""
    x, y = points[:, 0], points[:, 1]
    inside = np.zeros(len(points), dtype=bool)
    band = np.abs(y) < 1.5
    t = np.arcsin(y[band] / 1.5)
    xa = oracles.kite_point(t)[:, 0]
    xb = oracles.kite_point(math.pi - t)[:, 0]
    inside[band] = (x[band] > np.minimum(xa, xb)) & (x[band] < np.maximum(xa, xb))
    return inside


def test_polygon_containment_on_points_of_known_side():
    poly = oracles.kite_polygon()
    # at y = 1.4 the kite spans x in (-1.49, -0.77), at y = -1.2 (-1.43, -0.23)
    known = np.array([[0.0, 0.0], [0.9, 0.0], [-0.95, 0.0], [-1.0, 1.4], [-0.8, -1.2],
                      [1.1, 0.0], [-1.05, 0.0], [0.0, 1.4], [-0.1, -1.2], [0.0, 1.6]])
    np.testing.assert_array_equal(
        oracles.polygon_contains(poly, known),
        [True] * 5 + [False] * 5,
    )
    rng = np.random.default_rng(3)
    pts = rng.uniform(-2.0, 2.0, size=(4000, 2))
    far = oracles.polygon_distance(poly, pts) > 1e-3
    np.testing.assert_array_equal(
        oracles.polygon_contains(poly, pts)[far], _analytic_inside(pts)[far]
    )


def test_polygon_distance_along_normals():
    t = np.linspace(0.1, 6.2, 40)
    on = oracles.kite_point(t)
    tangent = np.stack([-np.sin(t) - 1.3 * np.sin(2 * t), 1.5 * np.cos(t)], axis=1)
    normal = np.stack([tangent[:, 1], -tangent[:, 0]], axis=1)
    normal /= np.linalg.norm(normal, axis=1)[:, None]
    d = 0.05
    poly = oracles.kite_polygon()
    np.testing.assert_allclose(oracles.polygon_distance(poly, on + d * normal), d, atol=1e-5)
    np.testing.assert_allclose(oracles.polygon_distance(poly, on), 0.0, atol=1e-5)
    assert not oracles.polygon_contains(poly, on + d * normal).any()
    assert oracles.polygon_contains(poly, on - d * normal).all()


def test_kite_jaccard_scores_the_oracle_mask_as_one():
    xs = np.linspace(-2.5, 2.5, 41)
    pts = np.stack(np.meshgrid(xs, xs), axis=-1).reshape(-1, 2)
    truth = _analytic_inside(pts)
    assert oracles.kite_jaccard(pts, truth, 0.1) == 1.0
    assert oracles.kite_jaccard(pts, np.ones(len(pts), dtype=bool), 0.1) < 0.3
