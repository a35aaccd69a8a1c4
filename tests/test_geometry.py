"""Geometry tests: discretized curves, screens, probes, grids, predicates.

The ellipse perimeter reference was computed first with
scipy.special.ellipe (4 a E(1 - b^2/a^2)) and frozen below.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from lapscat.errors import GeometryError, ScreenError
from lapscat.geometry import (
    _distances,
    _signed_distance,
    distance_to_boundary,
    make_curve,
    make_grid,
    make_probe,
    make_screen,
    validate_grid_covers,
    validate_separation,
    winding_fraction,
)

TWO_PI = 2.0 * math.pi

# scipy.special.ellipe oracle: 4 * 2 * ellipe(1 - 1/4), frozen
ELLIPSE_2_1_PERIMETER = 9.688448220547675


def test_circle_nodes_and_weights():
    geom = make_curve("circle", {"radius": 2.0}, n_nodes=32)
    assert geom.n_nodes == 32
    r = np.linalg.norm(geom.nodes, axis=1)
    np.testing.assert_allclose(r, 2.0, rtol=1e-14)
    # trapezoid rule on a circle is exact for the perimeter
    assert abs(geom.perimeter() - 2.0 * math.pi * 2.0) < 1e-12
    assert abs(geom.weights.sum() - geom.perimeter()) < 1e-12
    assert abs(geom.diameter() - 4.0) < 1e-12


def test_ellipse_perimeter_frozen_oracle():
    assert ELLIPSE_2_1_PERIMETER == float(8.0 * special.ellipe(1.0 - 0.25))
    geom = make_curve("ellipse", {"a": 2.0, "b": 1.0}, n_nodes=64)
    # spectral accuracy of the periodic trapezoid rule
    assert abs(geom.perimeter() - ELLIPSE_2_1_PERIMETER) < 1e-10


def test_tangent_normal_frames():
    geom = make_curve("kite", n_nodes=64)
    jac = np.linalg.norm(geom.tangents, axis=1)
    np.testing.assert_allclose(jac, geom.jacobians, rtol=1e-14)
    # normals are unit and orthogonal to the tangents
    np.testing.assert_allclose(np.linalg.norm(geom.normals, axis=1), 1.0, rtol=1e-14)
    dots = np.einsum("ij,ij->i", geom.normals, geom.tangents)
    assert np.max(np.abs(dots)) < 1e-13
    # outward orientation: on a circle the normal is the radial direction
    circ = make_curve("circle", {"radius": 1.0}, n_nodes=16)
    np.testing.assert_allclose(circ.normals, circ.nodes, atol=1e-13)


def test_make_curve_validation():
    with pytest.raises(GeometryError):
        make_curve("circle", {"radius": -1.0})
    with pytest.raises(GeometryError):
        make_curve("triangle")
    with pytest.raises(GeometryError):
        make_curve("circle", n_nodes=7)
    with pytest.raises(GeometryError):
        make_curve("circle", n_nodes=6)
    with pytest.raises(GeometryError):
        make_curve("ellipse", {"a": 0.0})


@pytest.mark.parametrize("shape, params", [
    ("circle", {"radius": "1"}),
    ("circle", {"radius": True}),
    ("circle", {"center": [0.0, "0"]}),
    ("ellipse", {"a": True}),
    ("ellipse", {"b": "1"}),
    ("ellipse", {"center": [False, 0.0]}),
    ("peanut", {"scale": "1"}),
])
def test_shape_parameters_take_numbers_only(shape, params):
    # float() read "1" and true as 1.0: each built a curve
    with pytest.raises(GeometryError, match="not a number"):
        make_curve(shape, params, n_nodes=16)


def test_cluster_grading_concentrates_nodes():
    plain = make_curve("circle", {"radius": 1.0}, n_nodes=64)
    graded = make_curve(
        "circle", {"radius": 1.0}, n_nodes=64, cluster=(0.0, math.pi, 0.6)
    )
    # total measure is unchanged
    assert abs(graded.perimeter() - plain.perimeter()) < 1e-10
    # node spacing shrinks near the cluster points 0 and pi
    gaps = np.linalg.norm(np.roll(graded.nodes, -1, axis=0) - graded.nodes, axis=1)
    near0 = gaps[np.abs(graded.shape_params - 0.0) < 0.3]
    bulk = gaps[np.abs(graded.shape_params - 0.5 * math.pi) < 0.3]
    assert near0.mean() < 0.5 * bulk.mean()
    with pytest.raises(GeometryError):
        make_curve("circle", cluster=(0.0, math.pi, 1.0))


def test_screen_half_open_node_counts():
    # [0, pi) on an equispaced even grid takes exactly half the nodes
    for n in (32, 64, 128):
        geom = make_curve("circle", {"radius": 1.0}, n_nodes=n)
        screen = make_screen(geom, (0.0, math.pi))
        assert screen.n_active == n // 2
        assert screen.active_indices.tolist() == list(range(n // 2))
    geom = make_curve("circle", {"radius": 1.0}, n_nodes=64)
    quarter = make_screen(geom, (0.0, 0.5 * math.pi))
    assert quarter.n_active == 16


def test_screen_must_be_proper():
    geom = make_curve("circle", {"radius": 1.0}, n_nodes=32)
    with pytest.raises(ScreenError):
        make_screen(geom, (0.0, TWO_PI))
    with pytest.raises(ScreenError):
        make_screen(geom, (0.0, 0.0))
    with pytest.raises(ScreenError):
        make_screen(geom, (0.0, 0.01))  # fewer than 4 nodes


def test_probe_ring_weights():
    probe = make_probe((1.0, -2.0), 3.0, 16)
    assert probe.points.shape == (16, 2)
    d = np.linalg.norm(probe.points - np.array([1.0, -2.0]), axis=1)
    np.testing.assert_allclose(d, 3.0, rtol=1e-14)
    assert abs(probe.weights.sum() - TWO_PI * 3.0) < 1e-12


def test_probe_disk_grid_weights():
    # 81 requested points -> 9x9 lattice of cell (2/9)^2, 69 cells inside;
    # total weight 69*(2/9)^2 = 3.4074... overshoots pi on this coarse
    # lattice and converges from above as the lattice is refined
    probe = make_probe((0.0, 0.0), 1.0, 81, layout="disk_grid")
    assert probe.points.shape[0] == 69
    assert abs(probe.weights.sum() - 69.0 * (2.0 / 9.0) ** 2) < 1e-13
    fine = make_probe((0.0, 0.0), 1.0, 4096, layout="disk_grid")
    assert abs(fine.weights.sum() - math.pi) / math.pi < 0.02
    assert abs(fine.weights.sum() - math.pi) < abs(probe.weights.sum() - math.pi)


def test_probe_validation():
    with pytest.raises(GeometryError):
        make_probe((0.0, 0.0), 1.0, 4)
    with pytest.raises(GeometryError):
        make_probe((0.0, 0.0), -1.0, 16)
    with pytest.raises(GeometryError):
        make_probe((0.0, 0.0), 1.0, 16, layout="hexagonal")


# a JSON number past the float range loads as inf: such a probe was refused
# as overlapping the scatterer, or failed in the kernel after assembly
@pytest.mark.parametrize("center, radius", [
    ((0.0, 0.0), math.inf),
    ((0.0, 0.0), math.nan),
    ((math.inf, 0.0), 4.0),
    ((0.0, math.nan), 4.0),
])
def test_probe_refuses_a_non_finite_center_or_radius(center, radius):
    with pytest.raises(GeometryError, match="finite"):
        make_probe(center, radius, 16)


def test_grid_layout_and_validation():
    grid = make_grid(((-1.0, 1.0), (0.0, 2.0)), 5)
    assert grid.points.shape == (25, 2)
    assert grid.points[0, 0] == -1.0 and grid.points[4, 0] == 1.0
    assert grid.points[0, 1] == 0.0 and grid.points[-1, 1] == 2.0
    # row-major over (y, x): the first row sweeps x at fixed y
    np.testing.assert_allclose(grid.points[:5, 1], 0.0)
    with pytest.raises(GeometryError):
        make_grid(((-1.0, 1.0), (0.0, 2.0)), 1)
    with pytest.raises(GeometryError):
        make_grid(((1.0, -1.0), (0.0, 2.0)), 4)


@pytest.mark.parametrize("bounds", [
    ((-math.inf, 2.5), (-2.5, 2.5)),
    ((-2.5, math.inf), (-2.5, 2.5)),
    ((-2.5, 2.5), (-2.5, math.nan)),
])
def test_grid_refuses_non_finite_bounds(bounds):
    with pytest.raises(GeometryError, match="finite"):
        make_grid(bounds, 8)


def test_containment_circle_analytic():
    geom = make_curve("circle", {"radius": 1.0}, n_nodes=128)
    pts = np.array([[0.0, 0.0], [0.6, 0.5], [1.5, 0.0], [0.9, 0.9]])
    dist = _signed_distance(geom, pts)
    assert (dist < 0.0).tolist() == [True, True, False, False]
    np.testing.assert_array_equal(np.abs(dist), distance_to_boundary(geom, pts))


def test_containment_matches_ray_casting_oracle():
    # independent even-odd ray-casting on the node polygon
    geom = make_curve("kite", n_nodes=256)
    poly = geom.nodes
    rng = np.random.default_rng(7)
    pts = rng.uniform(-2.2, 2.2, size=(300, 2))
    pts = pts[distance_to_boundary(geom, pts) > 0.05]

    def ray_cast(p):
        x, y = p
        crossings = 0
        for (x1, y1), (x2, y2) in zip(poly, np.roll(poly, -1, axis=0)):
            if (y1 > y) != (y2 > y):
                x_hit = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
                if x_hit > x:
                    crossings += 1
        return crossings % 2 == 1

    mine = _signed_distance(geom, pts) < 0.0
    oracle = np.array([ray_cast(p) for p in pts])
    assert np.array_equal(mine, oracle)


@pytest.mark.parametrize("shape, params", [
    ("circle", {"radius": 1.0}), ("ellipse", None), ("kite", None), ("peanut", None),
])
def test_crossing_parity_agrees_with_the_winding_rule_off_the_polygon(shape, params):
    geom = make_curve(shape, params, n_nodes=96)
    rng = np.random.default_rng(11)
    pts = np.concatenate([rng.uniform(-2.6, 2.6, (4000, 2)),
                          make_grid(((-2.5, 2.5), (-2.5, 2.5)), 64).points])
    pts = pts[distance_to_boundary(geom, pts) > 1e-3]
    winding = np.abs(winding_fraction(geom, pts))
    # off the polygon the winding number is 0 or 1 to rounding
    assert np.all((winding < 1e-9) | (np.abs(winding - 1.0) < 1e-9))
    np.testing.assert_array_equal(_signed_distance(geom, pts) < 0.0, winding > 0.5)


def test_winding_fraction_values():
    geom = make_curve("circle", {"radius": 1.0}, n_nodes=64)
    f_in = winding_fraction(geom, np.array([[0.0, 0.0]]))[0]
    f_out = winding_fraction(geom, np.array([[3.0, 0.0]]))[0]
    assert abs(abs(f_in) - 1.0) < 1e-12
    assert abs(f_out) < 1e-12


def test_distance_to_boundary():
    geom = make_curve("circle", {"radius": 1.0}, n_nodes=256)
    d = distance_to_boundary(geom, np.array([[0.0, 0.0], [2.0, 0.0]]))
    assert abs(d[0] - 1.0) < 1e-3  # node-set approximation
    assert abs(d[1] - 1.0) < 1e-3


def test_validate_separation():
    geom = make_curve("circle", {"radius": 1.0}, n_nodes=64)
    far = make_probe((0.0, 0.0), 4.0, 16)
    assert validate_separation(geom, far, margin=0.5)
    touching = make_probe((0.0, 0.0), 1.05, 16)
    assert not validate_separation(geom, touching, margin=0.1)
    inside = make_probe((0.0, 0.0), 0.5, 16)
    assert not validate_separation(geom, inside, margin=0.01)
    with pytest.raises(GeometryError):
        validate_separation(geom, far, margin=0.0)


def test_validate_grid_covers():
    geom = make_curve("circle", {"radius": 1.0}, n_nodes=32)
    assert validate_grid_covers(geom, make_grid(((-2.0, 2.0), (-2.0, 2.0)), 8))
    assert not validate_grid_covers(geom, make_grid(((-0.5, 2.0), (-2.0, 2.0)), 8))


def test_geometry_arrays_immutable():
    geom = make_curve("circle", {"radius": 1.0}, n_nodes=16)
    with pytest.raises(ValueError):
        geom.nodes[0, 0] = 99.0
    screen = make_screen(geom, (0.0, math.pi))
    with pytest.raises(ValueError):
        screen.active_mask[0] = False


@given(st.integers(min_value=4, max_value=64))
@settings(max_examples=30, deadline=None)
def test_screen_node_count_matches_interval_fraction(k):
    # [0, k/64 * 2pi) on 64 equispaced nodes activates exactly k of them
    geom = make_curve("circle", {"radius": 1.0}, n_nodes=64)
    b = TWO_PI * k / 64.0
    if k == 64:
        with pytest.raises(ScreenError):
            make_screen(geom, (0.0, b))
        return
    screen = make_screen(geom, (0.0, b))
    assert screen.n_active == k


@given(
    st.floats(min_value=0.2, max_value=3.0),
    st.floats(min_value=-1.0, max_value=1.0),
    st.floats(min_value=-1.0, max_value=1.0),
)
@settings(max_examples=40, deadline=None)
def test_circle_containment_is_radius_test(radius, px, py):
    geom = make_curve("circle", {"radius": radius}, n_nodes=128)
    p = np.array([px, py]) * radius
    rho = np.linalg.norm(p) / radius
    if abs(rho - 1.0) < 0.05:
        return  # too close to the boundary for the polygonal test
    assert (_signed_distance(geom, p)[0] < 0.0) == (rho < 1.0)


def test_plane_wise_pair_forms_are_bit_identical():
    # distances, cross and dot products built from the x and y planes must
    # equal the (m, n, 2) difference + norm/einsum forms bit for bit
    geom = make_curve("kite", n_nodes=256)
    grid = make_grid(((-2.5, 2.5), (-2.5, 2.5)), 128).points
    rng = np.random.default_rng(7)
    pts = np.concatenate([grid, rng.uniform(-3.0, 3.0, (1000, 2))])
    nodes = geom.nodes
    for lo in range(0, pts.shape[0], 2048):
        blk = pts[lo:lo + 2048]
        dist = np.linalg.norm(blk[:, None, :] - nodes[None, :, :], axis=-1)
        np.testing.assert_array_equal(distance_to_boundary(geom, blk), dist.min(axis=1))
        # the gram identity's (node, volume point) distances
        np.testing.assert_array_equal(
            _distances(nodes, blk),
            np.linalg.norm(nodes[:, None, :] - blk[None, :, :], axis=-1),
        )
        v = nodes[None, :, :] - blk[:, None, :]
        v_next = np.roll(v, -1, axis=1)
        cross = v[:, :, 0] * v_next[:, :, 1] - v[:, :, 1] * v_next[:, :, 0]
        dot = np.einsum("mnk,mnk->mn", v, v_next)
        np.testing.assert_array_equal(
            winding_fraction(geom, blk), np.sum(np.arctan2(cross, dot), axis=1) / TWO_PI
        )
    assert geom.diameter() == float(
        np.max(np.linalg.norm(nodes[:, None, :] - nodes[None, :, :], axis=-1))
    )
