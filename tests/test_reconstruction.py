"""Indicator and segmentation tests for the range-test reconstruction."""

import csv
import json
import math
import pathlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lapscat.boundary_ops import BoundaryCondition
from lapscat.data_operator import DataOperator, _sorted_eigh, add_noise, assemble_F
from lapscat.errors import ConstraintError, DomainError, SegmentationError
from lapscat.geometry import (
    _ROW_BLOCK,
    EvaluationGrid,
    _shape_functions,
    _signed_distance,
    make_curve,
    make_grid,
    make_probe,
    make_screen,
)
from lapscat.kernels import SpectralParam, _gl_panels, fundamental_solution
from lapscat.reconstruction import (
    IndicatorGrid,
    TestArc,
    TestVector,
    arc_sweep,
    inf_indicator,
    make_screen_test_vector,
    _picard_sums,
    _point_fields,
    make_test_vector,
    picard_indicator,
    segment,
    sweep,
    write_indicator_csv,
    write_indicator_pgm,
    write_metrics_json,
)

LAM = SpectralParam(2.0)


def circle_operator(n_nodes=96, n_probe=48, kind="D"):
    geom = make_curve("circle", {"radius": 1.0}, n_nodes=n_nodes)
    probe = make_probe((0.0, 0.0), 4.0, n_probe)
    return geom, probe, assemble_F(BoundaryCondition(kind), geom, probe, LAM)


def test_picard_on_top_eigenvector():
    # g = v_1 has a single unit coefficient, so the truncated sum is
    # 1/|mu_1| and the indicator is exactly |mu_1|
    _, _, f = circle_operator()
    g = TestVector(values=f.eigenvectors[:, 0])
    w = picard_indicator(f, g)
    assert abs(w - abs(f.eigenvalues[0])) < 1e-10 * abs(f.eigenvalues[0])


def test_picard_scale_equivariance():
    _, probe, f = circle_operator()
    g = make_test_vector(probe, np.array([0.2, 0.1]), LAM)
    w1 = picard_indicator(f, g)
    g3 = TestVector(values=3.0 * g.values)
    assert abs(picard_indicator(f, g3) - w1 / 9.0) < 1e-12 * w1


def test_picard_monotone_in_truncation():
    # admitting more spectral terms can only grow the sum, shrinking W
    _, probe, f = circle_operator()
    g = make_test_vector(probe, np.array([1.5, 0.0]), LAM)
    floors = (1e-2, 1e-4, 1e-6, 1e-8, 1e-10)
    ws = [picard_indicator(f, g, truncation_floor=fl) for fl in floors]
    assert all(a >= b * (1.0 - 1e-14) for a, b in zip(ws, ws[1:]))


def test_picard_validation():
    _, probe, f = circle_operator()
    g = make_test_vector(probe, np.array([0.4, -0.2]), LAM)
    for bad in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(DomainError):
            picard_indicator(f, g, truncation_floor=bad)
    with pytest.raises(DomainError):
        TestVector(values=np.zeros(4))
    with pytest.raises(DomainError):
        TestVector(values=np.array([1.0, np.nan]))


def test_inf_indicator_agrees_with_picard_for_definite_operator():
    # for a sign-definite operator the constrained infimum has the same
    # closed form as the reciprocal Picard sum
    _, probe, f = circle_operator()
    for x in ((0.0, 0.0), (0.5, 0.2), (1.6, 0.3)):
        g = make_test_vector(probe, np.array(x), LAM)
        w_p = picard_indicator(f, g)
        w_i = inf_indicator(f, g)
        assert abs(w_p - w_i) <= 1e-8 * max(w_p, 1e-30)


def test_inf_indicator_zero_for_indefinite_restriction():
    vals, vecs = _sorted_eigh(np.diag([2.0, -1.0, 0.5, -0.25]))
    fake = DataOperator(
        matrix=np.diag([2.0, -1.0, 0.5, -0.25]),
        eigenvalues=vals,
        eigenvectors=vecs,
        lam=LAM,
    )
    g = TestVector(values=np.array([1.0, 1.0, 1.0, 1.0]))
    assert inf_indicator(fake, g, subspace_k=4) == 0.0
    with pytest.raises(DomainError):
        inf_indicator(fake, g, subspace_k=9)
    # exactly orthogonal to the two leading eigenvectors
    orth = TestVector(values=np.array([0.0, 0.0, 1.0, 0.0]))
    with pytest.raises(ConstraintError):
        inf_indicator(fake, orth, subspace_k=2)


def random_operator(n_pos, n_neg, seed, extra=2):
    """Seeded DataOperator whose leading n_pos + n_neg eigenvalues have the
    given inertia, with magnitudes in [1e-3, 1] and `extra` trailing ones."""
    rng = np.random.default_rng(seed)
    k = n_pos + n_neg
    n = k + extra
    mags = np.sort(10.0 ** rng.uniform(-3.0, 0.0, n))[::-1]
    signs = np.concatenate([rng.permutation([1.0] * n_pos + [-1.0] * n_neg),
                            rng.choice([-1.0, 1.0], extra)])
    mu = signs * mags
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    op = DataOperator(matrix=(q * mu) @ q.T, eigenvalues=mu, eigenvectors=q, lam=LAM)
    g = TestVector(values=rng.standard_normal(n))
    return op, g, mu[:k], q[:, :k].T @ g.values, rng


@pytest.mark.parametrize("inertia", [(5, 0), (0, 5), (1, 4), (4, 1), (2, 2)])
@pytest.mark.parametrize("seed", range(4))
def test_inf_indicator_is_the_infimum_on_the_slice(inertia, seed):
    # in eigen-coordinates c the form is Q(c) = sum mu_k c_k^2 on the
    # affine slice gamma.c = 1
    op, g, mu, gamma, rng = random_operator(*inertia, seed)
    w = inf_indicator(op, g, subspace_k=mu.size)

    def q_form(c):
        return float(mu @ c**2)

    if min(inertia) == 0:
        c_star = (gamma / mu) / float(gamma @ (gamma / mu))
        assert abs(float(gamma @ c_star) - 1.0) < 1e-12
        assert abs(abs(q_form(c_star)) - w) <= 1e-12 * w
        for _ in range(50):
            z = rng.standard_normal(mu.size)
            z -= (z @ gamma) / (gamma @ gamma) * gamma
            c = c_star + rng.uniform(-2.0, 2.0) * z * np.linalg.norm(c_star)
            assert abs(float(gamma @ c) - 1.0) < 1e-9
            assert abs(q_form(c)) >= w * (1.0 - 1e-12)
        return

    assert w == 0.0
    # feasible points e_i / gamma_i of either sign of Q, then bisection
    # on the segment between them, which stays on the slice
    pos, neg = np.flatnonzero(mu > 0), np.flatnonzero(mu < 0)
    i = pos[np.argmax(np.abs(gamma[pos]))]
    j = neg[np.argmax(np.abs(gamma[neg]))]
    c_pos = np.zeros(mu.size)
    c_pos[i] = 1.0 / gamma[i]
    c_neg = np.zeros(mu.size)
    c_neg[j] = 1.0 / gamma[j]
    assert q_form(c_pos) > 0.0 > q_form(c_neg)
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if q_form((1.0 - mid) * c_pos + mid * c_neg) > 0.0:
            lo = mid
        else:
            hi = mid
    root = (1.0 - lo) * c_pos + lo * c_neg
    assert abs(float(gamma @ root) - 1.0) < 1e-12
    assert abs(q_form(root)) < 1e-12


def noisy_kite_operator():
    geom = make_curve("kite", None, n_nodes=64)
    probe = make_probe((0.0, 0.0), 4.0, 32)
    f = assemble_F(BoundaryCondition("D"), geom, probe, LAM)
    return geom, probe, add_noise(f, 1e-3, seed=0)


@pytest.mark.parametrize("case", ["clean_circle", "noisy_kite"])
def test_sweep_inf_values_match_inf_indicator(case):
    _, probe, f = circle_operator() if case == "clean_circle" else noisy_kite_operator()
    k = int(np.count_nonzero(np.abs(f.eigenvalues) >= 1e-8 * np.abs(f.eigenvalues[0])))
    definite = np.all(f.eigenvalues[:k] > 0) or np.all(f.eigenvalues[:k] < 0)
    assert definite == (case == "clean_circle")
    grid = make_grid(((-2.0, 2.0), (-2.0, 2.0)), 15)
    ig = sweep(f, probe, grid, mode="both")
    for idx in range(0, grid.points.shape[0], 7):
        w = inf_indicator(f, make_test_vector(probe, grid.points[idx], LAM))
        assert abs(ig.inf_values[idx] - w) <= 1e-10 * w
        if not definite:
            assert ig.inf_values[idx] == w == 0.0


def test_indicator_dichotomy_interior_vs_exterior():
    _, probe, f = circle_operator()
    w_in = picard_indicator(f, make_test_vector(probe, np.array([0.3, 0.2]), LAM))
    w_out = picard_indicator(f, make_test_vector(probe, np.array([1.8, 0.9]), LAM))
    assert w_in / w_out > 1e3


def test_sweep_finite_positive_and_mirror_symmetric():
    _, probe, f = circle_operator()
    grid = make_grid(((-2.0, 2.0), (-2.0, 2.0)), 21)
    ig = sweep(f, probe, grid)
    assert ig.picard_values.shape == (441,)
    assert np.all(np.isfinite(ig.picard_values))
    assert np.all(ig.picard_values > 0.0)
    # the arrangement is mirror symmetric in x, so the field must be too
    img = ig.picard_values.reshape(21, 21)
    assert np.max(np.abs(img - img[:, ::-1])) < 1e-9 * img.max()
    assert ig.truncation_k >= 1


def test_sweep_modes_and_validation():
    _, probe, f = circle_operator(n_nodes=32, n_probe=16)
    grid = make_grid(((-2.0, 2.0), (-2.0, 2.0)), 5)
    both = sweep(f, probe, grid, mode="both")
    assert both.inf_values is not None
    assert np.all(np.isfinite(both.inf_values))
    picard_only = sweep(f, probe, grid)
    assert picard_only.inf_values is None
    np.testing.assert_array_equal(picard_only.picard_values, both.picard_values)
    with pytest.raises(DomainError):
        sweep(f, probe, grid, mode="maximum")


def test_range_test_fields_are_the_fundamental_solution_bit_for_bit():
    # the sweep's fields and both test vectors come from G's kernel sampler;
    # each is fundamental_solution's values, weighted, bit for bit
    geom = make_curve("kite", None, n_nodes=128)
    probe = make_probe((0.0, 0.0), 4.0, 64)
    f = assemble_F(BoundaryCondition("D"), geom, probe, LAM)
    grid = make_grid(((-2.5, 2.5), (-2.5, 2.5)), 40)  # 1600 points: four sweep blocks
    sw = np.sqrt(probe.weights)
    ref = fundamental_solution(LAM, grid.points[:, None, :], probe.points[None, :, :]) * sw
    np.testing.assert_array_equal(_point_fields(probe, grid.points, LAM), ref)
    ig = sweep(f, probe, grid)
    sums = np.concatenate([_picard_sums(f, ref[lo:lo + _ROW_BLOCK], ig.truncation_k)
                           for lo in range(0, len(ref), _ROW_BLOCK)])
    np.testing.assert_array_equal(ig.picard_values, 1.0 / sums)
    for x in grid.points[::97]:
        np.testing.assert_array_equal(make_test_vector(probe, x, LAM).values,
                                      fundamental_solution(LAM, x, probe.points) * sw)
    pos, der = _shape_functions("kite", None)
    t, w = _gl_panels(0.3, 1.1, 0.8, 256)
    vals = fundamental_solution(LAM, pos(t)[:, None, :], probe.points[None, :, :])
    np.testing.assert_array_equal(
        make_screen_test_vector(probe, TestArc("kite", None, (0.3, 1.1)), LAM).values,
        sw * ((w * np.linalg.norm(der(t), axis=1)) @ vals))


def _one_shot_sweep(f, probe, points):
    # the whole grid x probe kernel matrix in one pass, global cap
    k = int(np.count_nonzero(np.abs(f.eigenvalues) >= 1e-8 * np.abs(f.eigenvalues[0])))
    ghat = fundamental_solution(LAM, points[:, None, :], probe.points[None, :, :])
    ghat = ghat * np.sqrt(probe.weights)[None, :]
    sums = ((ghat @ f.eigenvectors[:, :k]) ** 2 / np.abs(f.eigenvalues[:k])).sum(axis=1)
    with np.errstate(divide="ignore"):
        picard = np.where(sums > 0.0, 1.0 / sums, np.inf)
    finite = np.isfinite(picard)
    picard = np.where(finite, picard, picard[finite].max())
    mu = f.eigenvalues[:k]
    one_signed = np.all(mu > 0) or np.all(mu < 0)
    return picard, (picard.copy() if one_signed else np.zeros_like(picard)), finite


@pytest.mark.parametrize("case", ["clean_kite", "noisy_kite"])
def test_blocked_sweep_equals_one_shot_sweep_across_block_edges(case):
    # 37^2 = 1369 points: two full 512-point blocks and one of 345.  The
    # last 40 points sit where every probe sample underflows to 0, so
    # their Picard sums vanish and take the cap, which is the largest
    # finite value over the whole grid, not over their own block
    geom = make_curve("kite", None, n_nodes=64)
    probe = make_probe((0.0, 0.0), 4.0, 32)
    f = assemble_F(BoundaryCondition("D"), geom, probe, LAM)
    if case == "noisy_kite":
        f = add_noise(f, 1e-3, seed=0)
    base = make_grid(((-2.5, 2.5), (-2.5, 2.5)), 37)
    pts = base.points.copy()
    pts[-40:] += 1e4
    grid = EvaluationGrid(points=pts, bounds=base.bounds, resolution=37)
    picard, inf_vals, finite = _one_shot_sweep(f, probe, pts)
    assert np.all(finite[:-40]) and not np.any(finite[-40:])
    cap = picard[finite].max()
    assert picard[1024:-40].max() < cap   # a per-block cap would differ here
    np.testing.assert_array_equal(picard[-40:], cap)
    assert np.any(inf_vals == 0.0) == (case == "noisy_kite")
    for mode in ("picard", "inf", "both"):
        ig = sweep(f, probe, grid, mode=mode)
        np.testing.assert_array_equal(ig.picard_values, picard)
        if mode == "picard":
            assert ig.inf_values is None
        else:
            np.testing.assert_array_equal(ig.inf_values, inf_vals)


@pytest.mark.parametrize("resolution", [128, 256])
def test_sweep_peak_memory_is_flat_in_grid_size(resolution):
    # one pass over the whole grid x probe kernel matrix peaked at
    # 27.8 MB (128^2) and 103 MB (256^2) here; the row blocks stay
    # near 4 MB at both sizes
    geom = make_curve("kite", None, n_nodes=128)
    probe = make_probe((0.0, 0.0), 4.0, 64)
    f = assemble_F(BoundaryCondition("D"), geom, probe, LAM)
    grid = make_grid(((-3.0, 3.0), (-3.0, 3.0)), resolution)
    tracemalloc.start()
    try:
        sweep(f, probe, grid, mode="both")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def test_screen_test_vector_short_arc_limit():
    # an arc-integrated test vector divided by arc length converges to
    # the point test vector at the arc midpoint (quadratically)
    _, probe, _ = circle_operator()
    c = 0.7
    mid = np.array([math.cos(c), math.sin(c)])
    pt = make_test_vector(probe, mid, LAM)
    rels = []
    for length in (1e-2, 1e-3):
        arc = TestArc("circle", {"radius": 1.0}, (c - length / 2, c + length / 2))
        tv = make_screen_test_vector(probe, arc, LAM, n_quad=32)
        rels.append(
            np.linalg.norm(tv.values / length - pt.values) / np.linalg.norm(pt.values)
        )
    assert rels[0] < 1e-4
    assert rels[1] < 1e-6


def test_screen_arcs_separate_inside_from_complement():
    probe = make_probe((0.0, 0.0), 4.0, 48)
    geom = make_curve(
        "circle", {"radius": 1.0}, n_nodes=96, cluster=(0.0, math.pi, 0.6)
    )
    screen = make_screen(geom, (0.0, math.pi))
    f = assemble_F(BoundaryCondition("D", screen=screen), geom, probe, LAM)
    arc_len = math.pi / 8.0
    inside, outside = [], []
    for c in np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False):
        arc = TestArc("circle", {"radius": 1.0}, (c - arc_len / 2, c + arc_len / 2))
        w = picard_indicator(f, make_screen_test_vector(probe, arc, LAM, n_quad=64))
        lo = (c - arc_len / 2) % (2.0 * math.pi)
        if lo >= -1e-12 and lo + arc_len <= math.pi + 1e-12:
            inside.append(w)
        else:
            outside.append(w)
    assert np.mean(inside) / np.mean(outside) > 10.0


@pytest.mark.parametrize(
    "interval",
    [(-0.5 * math.pi, 0.5 * math.pi), (1.5 * math.pi, 2.5 * math.pi), (0.0, math.pi)],
    ids=["through_zero", "past_two_pi", "zero_to_pi"],
)
def test_arc_sweep_flags_arcs_on_screens_through_zero(interval):
    # a screen whose parameter interval wraps through 0 carries the same
    # 7 of 16 arcs as [0, pi] carries (rotated), and separates them as well
    a, b = interval
    probe = make_probe((0.0, 0.0), 4.0, 64)
    geom = make_curve("circle", {"radius": 1.0}, n_nodes=128, cluster=(a, b, 0.6))
    screen = make_screen(geom, interval)
    f = assemble_F(BoundaryCondition("D", screen=screen), geom, probe, LAM)
    _, indicators, inside = arc_sweep(
        f, probe, "circle", {"radius": 1.0}, interval, math.pi / 8.0, 16, n_quad=96
    )
    want = [1, 2, 3, 4, 5, 6, 7] if a == 0.0 else [0, 1, 2, 3, 13, 14, 15]
    assert np.flatnonzero(inside).tolist() == want
    assert np.mean(indicators[inside]) / np.mean(indicators[~inside]) >= 10.0


def test_arc_sweep_equals_per_arc_picard_indicators():
    # the stacked sweep sums every arc's field in one matrix product; a
    # per-arc picard_indicator loop gives the same indicators and mask
    interval = (0.0, math.pi)
    params = {"radius": 1.0}
    probe = make_probe((0.0, 0.0), 4.0, 64)
    geom = make_curve("circle", params, n_nodes=128, cluster=(*interval, 0.6))
    screen = make_screen(geom, interval)
    f = assemble_F(BoundaryCondition("D", screen=screen), geom, probe, LAM)
    arc_len, count = math.pi / 8.0, 32
    centers, indicators, inside = arc_sweep(
        f, probe, "circle", params, interval, arc_len, count, n_quad=96
    )
    want = np.array([
        picard_indicator(f, make_screen_test_vector(
            probe, TestArc("circle", params, (c - arc_len / 2, c + arc_len / 2)), LAM, n_quad=96
        ))
        for c in np.linspace(0.0, 2.0 * math.pi, count, endpoint=False)
    ])
    np.testing.assert_array_equal(centers, np.linspace(0.0, 2.0 * math.pi, count, endpoint=False))
    np.testing.assert_allclose(indicators, want, rtol=1e-13, atol=0)
    rel = (centers - arc_len / 2) % (2.0 * math.pi)
    np.testing.assert_array_equal(inside, rel + arc_len <= math.pi + 1e-12)


def test_arc_sweep_validation(monkeypatch):
    # no arcs, arcs of no or of more than full length, or no arc inside
    # the screen or none outside gave a report (separation ratio inf or 0)
    # or a traceback instead of an error; each is refused before any test
    # vector is built
    import lapscat.reconstruction as rec

    probe = make_probe((0.0, 0.0), 4.0, 16)
    geom = make_curve("circle", {"radius": 1.0}, n_nodes=32)
    screen = make_screen(geom, (0.0, math.pi))
    f = assemble_F(BoundaryCondition("D", screen=screen), geom, probe, LAM)
    built = []
    monkeypatch.setattr(rec, "make_screen_test_vector", lambda *args, **kw: built.append(args))
    half, full = (0.0, math.pi), (0.5, 0.5 + 2.0 * math.pi)
    for interval, arc_length, count in ((half, 0.3, 0), (half, 0.3, -3), (half, 0.0, 8),
                                        (half, 7.0, 8), ((0.0, math.pi - 1e-5), 3.2, 8),
                                        (full, 0.3, 8)):
        with pytest.raises(DomainError):
            arc_sweep(f, probe, "circle", {"radius": 1.0}, interval,
                      arc_length, count, n_quad=16)
    assert built == []


def test_test_arc_validation():
    with pytest.raises(DomainError):
        TestArc("circle", {"radius": 1.0}, (1.0, 1.0))
    with pytest.raises(DomainError):
        make_screen_test_vector(
            make_probe((0.0, 0.0), 4.0, 16),
            TestArc("circle", {"radius": 1.0}, (0.0, 0.5)),
            LAM,
            n_quad=1,
        )


def synthetic_grid(resolution=41, inside_value=1.0, outside_value=1e-6):
    grid = make_grid(((-2.0, 2.0), (-2.0, 2.0)), resolution)
    r = np.linalg.norm(grid.points, axis=1)
    values = np.where(r < 1.0, inside_value, outside_value)
    return grid, IndicatorGrid(
        grid=grid, picard_values=values, inf_values=None, truncation_k=5
    )


def test_segment_fixed_threshold_definition():
    geom = make_curve("circle", {"radius": 1.0}, n_nodes=128)
    _, ig = synthetic_grid()
    seg = segment(ig, geom, rule="fixed_threshold", level=0.5, margin_band=0.2)
    np.testing.assert_array_equal(seg.mask, ig.picard_values >= 0.5 * 1.0)
    assert seg.threshold == 0.5
    assert seg.jaccard == 1.0
    assert seg.accuracy == 1.0
    assert seg.n_scored < ig.picard_values.size  # margin band excluded points


def test_segment_otsu_on_bimodal_field():
    geom = make_curve("circle", {"radius": 1.0}, n_nodes=128)
    _, ig = synthetic_grid(inside_value=1e4, outside_value=1e-3)
    seg = segment(ig, geom, rule="otsu", margin_band=0.2)
    assert seg.jaccard == 1.0
    assert 1e-3 < seg.threshold < 1e4


def test_segment_validation():
    geom = make_curve("circle", {"radius": 1.0}, n_nodes=64)
    grid = make_grid(((-2.0, 2.0), (-2.0, 2.0)), 11)
    flat = IndicatorGrid(
        grid=grid,
        picard_values=np.ones(121),
        inf_values=None,
        truncation_k=1,
    )
    with pytest.raises(SegmentationError):
        segment(flat, geom)
    _, ig = synthetic_grid()
    with pytest.raises(DomainError):
        segment(ig, geom, rule="kmeans")
    with pytest.raises(DomainError):
        segment(ig, geom, level=0.0)
    with pytest.raises(SegmentationError):
        segment(ig, geom, margin_band=100.0)
    unscored = segment(ig)  # no geometry: mask only
    assert unscored.jaccard is None and unscored.accuracy is None


def test_indicator_grid_rejects_bad_values():
    grid = make_grid(((-1.0, 1.0), (-1.0, 1.0)), 3)
    with pytest.raises(DomainError):
        IndicatorGrid(
            grid=grid, picard_values=-np.ones(9), inf_values=None, truncation_k=1
        )
    with pytest.raises(DomainError):
        IndicatorGrid(
            grid=grid,
            picard_values=np.full(9, np.inf),
            inf_values=None,
            truncation_k=1,
        )


def test_indicator_csv_writer(tmp_path):
    _, ig = synthetic_grid(resolution=5)
    path = tmp_path / "ind.csv"
    write_indicator_csv(ig, str(path))
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x", "y", "picard"]
    assert len(rows) == 26
    assert float(rows[1][2]) == ig.picard_values[0]


def test_indicator_pgm_format(tmp_path):
    grid = make_grid(((-1.0, 1.0), (-1.0, 1.0)), 4)
    # linear-in-y field: brightest row must be written first (top = max y)
    values = grid.points[:, 1].copy() + 2.0
    ig = IndicatorGrid(grid=grid, picard_values=values, inf_values=None, truncation_k=1)
    path = tmp_path / "ind.pgm"
    write_indicator_pgm(ig, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "P2"
    assert lines[1] == "4 4"
    assert lines[2] == "255"
    img = np.array([[int(v) for v in line.split()] for line in lines[3:]])
    assert img.shape == (4, 4)
    assert img.min() >= 0 and img.max() <= 255
    assert np.all(img[0] == 255) and np.all(img[-1] == 0)


def test_metrics_json_writer(tmp_path):
    geom = make_curve("circle", {"radius": 1.0}, n_nodes=64)
    _, ig = synthetic_grid()
    seg = segment(ig, geom, level=0.5, margin_band=0.2)
    path = tmp_path / "metrics.json"
    write_metrics_json(str(path), seg, ig, extra={"case": "synthetic"})
    payload = json.loads(path.read_text())
    assert payload["jaccard"] == 1.0
    assert payload["threshold"] == 0.5
    assert payload["truncation_k"] == 5
    assert payload["case"] == "synthetic"
    text = path.read_text()
    assert text.endswith("\n")
    assert json.dumps(payload, indent=2, sort_keys=True) + "\n" == text


@given(st.floats(min_value=-1.8, max_value=1.8), st.floats(min_value=-1.8, max_value=1.8))
@settings(max_examples=20, deadline=None)
def test_picard_indicator_positive_everywhere(px, py):
    if px * px + py * py < 1e-4:
        px = 0.1
    _, probe, f = _CACHED_OPERATOR
    g = make_test_vector(probe, np.array([px, py]), LAM)
    w = picard_indicator(f, g)
    assert w > 0.0 and np.isfinite(w)


_CACHED_OPERATOR = circle_operator(n_nodes=64, n_probe=32)


def _indicator_csv_reference(igrid, path):
    # indicator.csv as it was first written: csv.writer, one repr per value
    columns = [igrid.grid.points, igrid.picard_values]
    header = ["x", "y", "picard"]
    if igrid.inf_values is not None:
        columns.append(igrid.inf_values)
        header.append("inf")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in np.column_stack(columns):
            writer.writerow([repr(float(v)) for v in row])


def _indicator(grid, with_inf, seed=0):
    values = np.random.default_rng(seed).lognormal(0.0, 3.0, grid.points.shape[0])
    inf_values = np.where(values > 1.0, values, 0.0) if with_inf else None
    return IndicatorGrid(grid=grid, picard_values=values, inf_values=inf_values,
                         truncation_k=3)


@pytest.mark.parametrize("with_inf", [False, True])
@pytest.mark.parametrize("resolution", [2, 7, 128])
def test_indicator_csv_bytes_match_the_csv_writer(resolution, with_inf, tmp_path):
    grid = make_grid(((-2.5, 2.5), (-1.0, 3.0)), resolution)
    ig = _indicator(grid, with_inf, seed=resolution)
    ref_path, path = tmp_path / "ref.csv", tmp_path / "new.csv"
    _indicator_csv_reference(ig, ref_path)
    write_indicator_csv(ig, str(path))
    assert path.read_bytes() == ref_path.read_bytes()


@pytest.mark.parametrize("with_inf", [False, True])
def test_indicator_csv_of_points_off_a_tensor_grid(with_inf, tmp_path):
    # repeated, signed-zero and scattered coordinates in no lattice order
    rng = np.random.default_rng(9)
    pts = np.concatenate([
        rng.uniform(-2.0, 2.0, (20, 2)),
        [[0.0, -0.0], [-0.0, 0.0], [0.0, 0.0], [1.5, 1.5], [1.5, -1.5], [-1.5, 1.5]],
        np.round(rng.uniform(-2.0, 2.0, (23, 2)), 1),
    ])
    grid = EvaluationGrid(points=pts, bounds=((-2.0, 2.0), (-2.0, 2.0)), resolution=7)
    ig = _indicator(grid, with_inf)
    ref_path, path = tmp_path / "ref.csv", tmp_path / "new.csv"
    _indicator_csv_reference(ig, ref_path)
    write_indicator_csv(ig, str(path))
    assert path.read_bytes() == ref_path.read_bytes()


@pytest.mark.parametrize("resolution", [2, 7, 64])
def test_indicator_pgm_bytes_match_per_pixel_formatting(resolution, tmp_path):
    grid = make_grid(((-2.5, 2.5), (-2.5, 2.5)), resolution)
    ig = _indicator(grid, False, seed=resolution)
    path = tmp_path / "ind.pgm"
    write_indicator_pgm(ig, str(path))
    img = ig.picard_values.reshape(resolution, resolution)
    levels = np.rint(255.0 * (img - img.min()) / (img.max() - img.min())).astype(int)
    lines = ["P2", f"{resolution} {resolution}", "255"]
    lines += [" ".join(str(int(v)) for v in row) for row in levels[::-1]]
    assert path.read_text() == "\n".join(lines) + "\n"


# Frozen from the winding-number scoring (contains_many as |winding| > 0.5,
# a second distance_to_boundary pass for the band), before scoring became
# one crossing-parity pass: per case the Jaccard index, accuracy and point
# count scored, the segmentation mask, and the scored and oracle masks
# (np.packbits).  The field is the Gaussian bump below at level 0.3.
SEGMENT_GOLDEN = pathlib.Path(__file__).parent / "data" / "segment_golden.npz"
GOLDEN_SHAPES = {"circle": ({"radius": 1.0}, 128), "ellipse": (None, 128),
                 "kite": (None, 256), "peanut": (None, 128)}


@pytest.mark.parametrize("shape", sorted(GOLDEN_SHAPES))
def test_segment_scores_match_the_winding_rule_golden(shape):
    golden = np.load(SEGMENT_GOLDEN)
    params, n_nodes = GOLDEN_SHAPES[shape]
    geom = make_curve(shape, params, n_nodes=n_nodes)
    for res in (32, 64, 128):
        grid = make_grid(((-2.5, 2.5), (-2.5, 2.5)), res)
        x, y = grid.points[:, 0], grid.points[:, 1]
        values = np.exp(-((x - 0.1) ** 2 / 1.2 + (y + 0.05) ** 2 / 0.9))
        ig = IndicatorGrid(grid=grid, picard_values=values, inf_values=None, truncation_k=1)
        signed = _signed_distance(geom, grid.points)
        inside, dist = signed < 0.0, np.abs(signed)
        unpack = lambda key: np.unpackbits(golden[key], count=res * res).astype(bool)  # noqa: E731
        np.testing.assert_array_equal(inside, unpack(f"{shape}_{res}_oracle"))
        for name, margin in (("0.05", 0.05), ("diam", None), ("0.3", 0.3)):
            key = f"{shape}_{res}_{name}"
            seg = segment(ig, geom, level=0.3, margin_band=margin)
            band = 0.1 * geom.diameter() if margin is None else margin
            assert [seg.jaccard, seg.accuracy, seg.n_scored] == golden[key + "_scores"].tolist()
            np.testing.assert_array_equal(seg.mask, unpack(key + "_mask"))
            np.testing.assert_array_equal(dist > band, unpack(key + "_scored"))


@pytest.mark.parametrize("band", [-0.1, -1e-300, math.nan, math.inf, -math.inf])
def test_segment_refuses_a_negative_or_non_finite_margin_band(band):
    geom = make_curve("circle", {"radius": 1.0}, n_nodes=64)
    _, ig = synthetic_grid()
    with pytest.raises(DomainError):
        segment(ig, geom, margin_band=band)
    # a zero band leaves out only the grid point on a node, (1, 0)
    assert segment(ig, geom, margin_band=0.0).n_scored == ig.picard_values.size - 1
