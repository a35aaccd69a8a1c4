"""Boundary-integral operator tests.

The separation-of-variables eigenvalues on the unit circle are the main
oracle.  They were computed first with scipy.special and frozen below:

    single-layer trace,  mode m:  mu_m = R I_m(s R) K_m(s R)
    hypersingular trace, mode m:  nu_m = lam R I'_m(s R) K'_m(s R)

with s = sqrt(lam), at lam = 1, R = 1 (scipy.special.iv/kv/ivp/kvp).
Two independent confirmations are run live: adaptive quadrature of the
kernel integral, and a 512-node composite Gauss-Legendre brute force.
"""

import functools
import gc
import math
import os
import subprocess
import sys
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special

from lapscat.errors import (
    AssemblyError,
    CoefficientError,
    DomainError,
    GeometryError,
    QuadratureError,
    SpectralParameterError,
    TruncationError,
)
from lapscat.boundary_ops import (
    BoundaryCondition,
    BOUND_LAM_MIN,
    EULER_GAMMA,
    OVERSAMPLE,
    _FINEST_LEAF,
    _NEAR_UPSAMPLE,
    _PANEL_ROWS,
    _assembly_plan,
    _gram_tail_bound,
    _kress_vector,
    _layer_matrix,
    _refined_geometry,
    _row_blocks,
    _sl_core,
    _spectral_derivative,
    _trace,
    _trig_upsample,
    _volume_rule,
    admissible_class,
    assemble_M,
    estimate_lambda_bound,
    evaluate_potential,
    gram_identity_residual,
    jump_relation_residual,
    resolvable_lambda_cap,
    sign_check,
)
from lapscat.geometry import _distances, make_curve, make_screen
from lapscat.kernels import _BLOCK, SpectralParam, _bessel_i0, _k01, fundamental_solution

TWO_PI = 2.0 * math.pi
DATA = os.path.join(os.path.dirname(__file__), "data")
GOLDEN = os.path.join(DATA, "assembly_golden.npz")
# the golden of the assembly that built the whole (nf x nf) core, before the row blocks
DENSE_CORE_GOLDEN = os.path.join(DATA, "assembly_golden_dense_core.npz")
# M_D and M_N on the ellipse at n = 64, lambda = 32: the discrete rule in 34-digit mpmath
MPMATH_REFERENCE = os.path.join(DATA, "ellipse_lam32_mpmath34.npz")

# I_m(1) K_m(1), frozen from scipy.special.iv/kv
SL_CIRCLE_EIGS = {
    0: 0.5330446749562686,
    1: 0.3401733509048675,
    2: 0.2205680942365663,
    3: 0.15742381179815224,
    4: 0.12106943984074957,
    5: 0.09798750082924212,
    6: 0.08216993288763998,
    7: 0.07069667286187134,
    8: 0.06201007637963873,
    9: 0.0552116767426825,
    10: 0.04974942972055118,
    11: 0.045266356620231984,
    12: 0.041521754705482944,
    13: 0.03834758721552822,
    14: 0.03562306675152435,
    15: 0.03325918010616692,
    16: 0.031188907241777815,
    17: 0.02936083658965915,
    18: 0.027734878636359008,
    19: 0.02627931636985878,
    20: 0.0249687308869687,
}

# I'_m(1) K'_m(1), frozen from scipy.special.ivp/kvp (all negative)
DL_CIRCLE_EIGS = {
    0: -0.3401733509048675,
    1: -0.7169797355012849,
    2: -1.1310709582977747,
    3: -1.5876330732220278,
    4: -2.06481669376569,
    5: -2.5513072070952476,
    6: -3.0424596708005964,
    7: -3.536226974865336,
    8: -4.031599063099156,
    9: -4.528025569207377,
    10: -5.025181988736574,
}

# root of lam |I'_1... binding mode 0:  lam |I'_0 K'_0|(sqrt(lam)) = 1.2,
# frozen from scipy.optimize.brentq (the coercivity transition for the
# constant jump coefficient -1.2 on the unit circle)
THETA_MINUS_1_2_TRANSITION = 6.605776504907098

# root of -0.5 + lam I_1(sqrt lam) K_1(sqrt lam) = 0, where M_theta for
# theta = -0.5 on the unit circle turns definite, frozen from
# scipy.optimize.brentq (the root the benchmark's lambda_bound check brackets)
THETA_MINUS_0_5_TRANSITION = 1.6805465837259002

# estimate_lambda_bound's answers when it scanned a x4 ladder of lambda
# before a linear bisection, frozen: (shape, nodes, kind, coefficient,
# bound).  The log bisection must agree to its tolerance, 1e-2 max(1, bound).
LADDER_BOUNDS = {
    "circle128-theta-0.5": ("circle", 128, "theta", -0.5, 1.6840000000000002),
    "kite128-theta1": ("kite", 128, "theta", 1.0, 0.0),
    "circle64-alpha1": ("circle", 64, "alpha", 1.0, 0.0),
    "circle64-theta-1.2": ("circle", 64, "theta", -1.2, 6.640000000000001),
    "circle128-alpha-5": ("circle", 128, "alpha", -5.0, 6.5920000000000005),
    "circle128-alpha-10": ("circle", 128, "alpha", -10.0, 25.408),
    "circle128-alpha-20": ("circle", 128, "alpha", -20.0, 100.29343750000001),
    "kite128-alpha-10": ("kite", 128, "alpha", -10.0, 26.752000000000002),
    "ellipse128-alpha-10": ("ellipse", 128, "alpha", -10.0, 25.275437500000002),
    "kite128-theta-1": ("kite", 128, "theta", -1.0, 6.064),
    "circle64-alpha-signcos": ("circle", 64, "alpha", lambda t: np.sign(np.cos(t)) * 0.5,
                               math.inf),
}


def circle_rayleigh(matrix, geom, m):
    """Rayleigh quotient of the weighted matrix on the mode-m cosine."""
    v = np.sqrt(geom.weights) * np.cos(m * geom.params)
    return float(v @ matrix @ v) / float(v @ v)


def trace(layer, geom, lam):
    """The weighted matrix of gamma0 SL (``layer`` "SL") or gamma1 DL
    ("DL"): minus M_D or M_N, negation being exact."""
    return -assemble_M(BoundaryCondition({"SL": "D", "DL": "N"}[layer]), geom, lam).matrix


def test_frozen_sl_eigs_match_live_scipy():
    for m, want in SL_CIRCLE_EIGS.items():
        assert want == float(special.iv(m, 1.0) * special.kv(m, 1.0))
    for m, want in DL_CIRCLE_EIGS.items():
        assert want == float(special.ivp(m, 1.0) * special.kvp(m, 1.0))


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_sl_eigs_confirmed_by_adaptive_quadrature():
    # mu_m = (1/2pi) int_0^{2pi} K_0(2 |sin(u/2)|) cos(m u) du at lam = R = 1
    # (quad flags roundoff near its 1e-14 target; the check below is 1e-12)
    for m in (0, 1, 5, 20):
        val, _ = integrate.quad(
            lambda u: special.kv(0, 2.0 * abs(np.sin(0.5 * u))) * np.cos(m * u),
            0.0,
            TWO_PI,
            points=[0.0, TWO_PI],
            limit=400,
            epsabs=1e-14,
            epsrel=1e-13,
        )
        val /= TWO_PI
        assert abs(val - SL_CIRCLE_EIGS[m]) < 1e-12


def test_sl_eigs_confirmed_by_dense_brute_force():
    # 512-node composite 8-point Gauss-Legendre: 31 uniform panels on
    # [pi/32, pi] plus 33 panels graded geometrically into the log
    # singularity at u = 0; integrand is even about 0 and pi
    xg, wg = np.polynomial.legendre.leggauss(8)
    delta = math.pi / 32.0
    edges = [0.0] + [delta * 0.62**k for k in range(31, 0, -1)]
    edges += list(np.linspace(delta, math.pi, 33))
    nodes, weights = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        nodes.append(0.5 * (b - a) * xg + 0.5 * (a + b))
        weights.append(0.5 * (b - a) * wg)
    nodes = np.concatenate(nodes)
    weights = np.concatenate(weights)
    assert nodes.size == 512
    kvals = special.kv(0, 2.0 * np.sin(0.5 * nodes))
    for m, want in SL_CIRCLE_EIGS.items():
        mu = float(np.sum(weights * kvals * np.cos(m * nodes))) / math.pi
        assert abs(mu - want) / want < 1e-8


def test_assembled_sl_matches_oracle():
    geom = make_curve("circle", {"radius": 1.0}, n_nodes=128)
    sl = trace("SL", geom, SpectralParam(1.0))
    worst = 0.0
    for m, want in SL_CIRCLE_EIGS.items():
        got = circle_rayleigh(sl, geom, m)
        worst = max(worst, abs(got - want) / want)
    assert worst < 1e-6


def test_assembled_dl_matches_oracle():
    geom = make_curve("circle", {"radius": 1.0}, n_nodes=128)
    dl = trace("DL", geom, SpectralParam(1.0))
    worst = 0.0
    for m, want in DL_CIRCLE_EIGS.items():
        got = circle_rayleigh(dl, geom, m)
        worst = max(worst, abs(got - want) / abs(want))
    assert worst < 1e-6


def test_sl_oracle_scales_with_radius_and_lambda():
    # mu_m(R, lam) = R I_m(s R) K_m(s R); spot-check off the frozen grid
    geom = make_curve("circle", {"radius": 1.7}, n_nodes=128)
    lam = SpectralParam(3.0)
    sl = trace("SL", geom, lam)
    s = math.sqrt(3.0)
    for m in (0, 2, 7):
        want = 1.7 * float(special.iv(m, s * 1.7) * special.kv(m, s * 1.7))
        got = circle_rayleigh(sl, geom, m)
        assert abs(got - want) / want < 1e-9


def kress_matrix(n):
    """The log rule's matrix R, folded by gap from `_kress_vector`."""
    d = (np.arange(n)[:, None] - np.arange(n)) % n
    return _kress_vector(n)[np.minimum(d, n - d)]


def test_kress_log_weights_integrate_cosines():
    # (1/2pi) int ln(4 sin^2((t-u)/2)) cos(m u) du = -cos(m t)/m  (m >= 1)
    # and 0 for m = 0; the product rule reproduces this exactly through
    # the Nyquist mode
    n = 32
    r = kress_matrix(n)
    t = TWO_PI * np.arange(n) / n
    assert np.max(np.abs(r @ np.ones(n))) < 1e-13
    for m in (1, 2, 5, 15, 16):
        got = r @ np.cos(m * t)
        want = -(TWO_PI / m) * np.cos(m * t)
        assert np.max(np.abs(got - want)) < 1e-12
    with pytest.raises(AssemblyError):
        _kress_vector(7)


@pytest.mark.parametrize("n", [4, 32, 1024])
def test_kress_log_weights_are_exactly_symmetric_and_circulant(n):
    r = kress_matrix(n)
    assert np.array_equal(r, r.T)
    assert np.array_equal(r, np.roll(r, (1, 1), axis=(0, 1)))
    # folding loses nothing: a row of R is the rule over every gap d = 0..n-1,
    # R[0, d] = -(4pi/n) sum_{m<n/2} cos(m t_d)/m - (4pi/n^2)(-1)^d
    t, m = TWO_PI * np.arange(n) / n, np.arange(1, n // 2)
    row = (-(2.0 * TWO_PI / n) * (np.cos(np.outer(t, m)) / m).sum(axis=1)
           - (2.0 * TWO_PI / n**2) * (-1.0) ** np.arange(n))
    np.testing.assert_allclose(r[0], row, rtol=0, atol=1e-13)


def test_spectral_derivative_exact_on_band():
    n = 16
    t = TWO_PI * np.arange(n) / n
    for m in range(1, n // 2):
        np.testing.assert_allclose(
            _spectral_derivative(np.sin(m * t)), m * np.cos(m * t), atol=1e-11
        )
        np.testing.assert_allclose(
            _spectral_derivative(np.cos(m * t)), -m * np.sin(m * t), atol=1e-11
        )
    # the band-edge cosine is annihilated by convention (real antisymmetric rule)
    np.testing.assert_allclose(_spectral_derivative(np.cos((n // 2) * t)), 0.0, atol=1e-11)


@pytest.mark.parametrize("n", [8, 16, 64])
def test_spectral_derivative_is_the_cotangent_matrix(n):
    # D[i, j] = (1/2) (-1)^(i-j) cot(pi (i-j) / n), D[i, i] = 0: the
    # classical differentiation matrix on n equispaced periodic nodes
    want = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                want[i, j] = 0.5 * (-1.0) ** (i - j) / math.tan(math.pi * (i - j) / n)
    got = _spectral_derivative(np.eye(n))
    assert np.max(np.abs(got - want)) < 1e-13
    assert got.flags.owndata


def test_assembly_plan_holds_only_the_gap_vector_and_factors():
    # the plan keeps W's gap vector (gaps 0..nf/2) and the two (nf x n)
    # congruence factors, equal to their dense forms; pair values are
    # recomputed by every assembly, so no array in it exceeds nf x n.  Q
    # joins on the first Maue assembly, and SP is not rebuilt for it
    geom = make_curve("kite", n_nodes=64)
    plan = _assembly_plan(geom)
    assert plan.q is None
    sp = plan.sp
    plan = _assembly_plan(geom, maue=True)
    assert plan.sp is sp and _assembly_plan(geom) is plan
    fine, nf, n = plan.fine, plan.fine.n_nodes, geom.n_nodes
    floats = {name for name, value in vars(plan).items()
              if isinstance(value, np.ndarray) and value.dtype.kind == "f"}
    assert floats == {"wvec", "sp", "q"}
    for value in (*vars(plan).values(), *vars(fine).values()):
        if isinstance(value, np.ndarray):
            assert value.size <= nf * n
    # W by gap d = 0..nf/2 only: W[d] = -(R[0, d] - h log 4 sin^2(pi d / nf)) / 4pi
    assert plan.wvec.shape == (nf // 2 + 1,)
    d = np.arange(1, nf // 2 + 1)
    logsin = np.log(4.0 * np.sin((np.pi / nf) * d) ** 2)
    np.testing.assert_array_equal(
        plan.wvec[d], (-0.25 / np.pi) * (_kress_vector(nf)[d] - (TWO_PI / nf) * logsin))
    assert plan.wvec[0] == -_kress_vector(nf)[0] / (4.0 * math.pi)
    assert plan.sp.shape == plan.q.shape == (nf, n)
    assert plan.sp.flags.owndata and plan.q.flags.owndata
    prolong = (np.sqrt(fine.weights)[:, None] * _trig_upsample(np.eye(n), OVERSAMPLE)
               / np.sqrt(geom.weights))
    sj = np.sqrt(fine.jacobians)[:, None]
    np.testing.assert_allclose(plan.sp, sj * prolong, rtol=0, atol=1e-15)
    q = _spectral_derivative(prolong / sj)
    assert np.max(np.abs(plan.q - q)) <= 4e-15 * np.max(np.abs(q))


def dense_cores(plan, lam):
    """The symmetric cores (C, C_nn) that `_sl_core` takes by row blocks, in
    one pass over the whole strict upper triangle: W from the dense R and the
    log term by gap, the pair distances and normal products of the refined
    curve, and one Bessel call."""
    fine, nf, s = plan.fine, plan.fine.n_nodes, lam.sqrt_lam
    i, j = np.triu_indices(nf, 1)
    logsin = np.log(4.0 * np.sin((np.pi / nf) * np.minimum(j - i, nf - (j - i))) ** 2)
    w = (-0.25 / np.pi) * (kress_matrix(nf)[i, j] - (TWO_PI / nf) * logsin)
    z = s * _distances(fine.nodes, fine.nodes)[i, j]
    i0 = _bessel_i0(z)
    vals = i0 * w + _k01(0, z, i0) * (1.0 / nf)
    nx, ny = fine.normals.T
    c2 = (0.5 / np.pi) * (-np.log(0.5 * s * fine.jacobians) - EULER_GAMMA)
    diag = (-0.25 / np.pi) * _kress_vector(nf)[0] + (TWO_PI / nf) * c2
    cores = []
    for v in (vals, vals * (nx[i] * nx[j] + ny[i] * ny[j])):
        core = np.empty((nf, nf))
        core[i, j] = core[j, i] = v
        np.fill_diagonal(core, diag)
        cores.append(core)
    return cores


def _relative(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


@pytest.mark.parametrize("n, block, ranges", [
    (8, _BLOCK, [16]), (32, _BLOCK, [64]), (192, _BLOCK, [97, 157, 130]),
    (192, 2048, [32] * 10 + [64]),
    (512, _BLOCK, [32, 33, 34, 36, 37, 39, 41, 43, 46, 49, 54, 59, 67, 79, 101, 177, 97]),
], ids=["nf-16", "one-block", "three-blocks", "row-floor", "nf-1024"])
def test_blocked_cores_equal_one_dense_pass(monkeypatch, n, block, ranges):
    # row ranges of at most _BLOCK pairs: nf = 16 and 64 fit one range,
    # nf = 384 takes three and nf = 1024 seventeen, each of 32 rows or
    # more; at 2048 pairs, ranges as thin as those of n = 2048 would hold
    # 5 to 39 rows, and the floor of _PANEL_ROWS = 32 rows binds.  Each
    # product T = U' F, U' the strict upper triangle plus half the diagonal,
    # is the dense one's, and the traces X + X^T are exactly symmetric
    # congruences.  lambda 2, but 0.5 at n = 8, whose resolvable cap is 0.78
    import lapscat.boundary_ops as boundary_ops

    monkeypatch.setattr(boundary_ops, "_BLOCK", block)
    geom = make_curve("kite", n_nodes=n)
    plan = _assembly_plan(geom, maue=True)
    nf, lam = plan.fine.n_nodes, SpectralParam(0.5 if n == 8 else 2.0)
    assert [hi - lo for lo, hi in _row_blocks(nf)] == ranges
    core, core_nn = dense_cores(plan, lam)

    def upper(c):
        return np.triu(c, 1) + np.diag(0.5 * np.diag(c))

    sl_only = _sl_core(plan, lam, maue=False)
    maue = _sl_core(plan, lam, maue=True)
    wants = (upper(core) @ plan.sp, upper(core) @ plan.q, upper(core_nn) @ plan.sp)
    for got, want in zip((*sl_only, *maue), wants):
        assert _relative(got, want) <= 1e-14
    sl, dl = _trace(geom, lam, "SL"), _trace(geom, lam, "DL")
    want_sl = plan.sp.T @ core @ plan.sp
    want_dl = -(plan.q.T @ core @ plan.q) - lam.lam * (plan.sp.T @ core_nn @ plan.sp)
    for got, want in ((sl, want_sl), (dl, want_dl)):
        np.testing.assert_array_equal(got, got.T)
        assert _relative(got, want) <= 1e-14


def test_row_ranges_tile_the_triangle_under_the_pair_bound_and_row_floor():
    # every even nf from 16 to 4096: the ranges tile [0, nf), all but the
    # last hold _PANEL_ROWS rows or more, and a range holds at most _BLOCK
    # pairs (row i holds nf - 1 - i) unless the floor binds, when it holds
    # exactly _PANEL_ROWS rows; up to nf = 1040 (n = 520) it never binds
    for nf in range(16, 4097, 2):
        ranges = list(_row_blocks(nf))
        assert [lo for lo, _ in ranges] == [0] + [hi for _, hi in ranges[:-1]]
        assert ranges[-1][1] == nf
        for k, (lo, hi) in enumerate(ranges):
            pairs = sum(range(nf - hi, nf - lo))
            assert hi - lo >= _PANEL_ROWS or k == len(ranges) - 1
            assert pairs <= _BLOCK or hi - lo == _PANEL_ROWS
            if nf <= 1040:
                assert pairs <= _BLOCK


@pytest.mark.parametrize("n", [64, 128])
@pytest.mark.parametrize("lam_value", [2.0, 32.0])
def test_circle_rayleigh_quotients_match_closed_form(n, lam_value):
    # unit circle: mu_m = I_m(s) K_m(s) and nu_m = lam I'_m(s) K'_m(s) on
    # the mode-m cosine, modes 0..n/4.  Floors: twice the errors measured
    # before the congruence form (SL, DL): n=64: 5.81e-15, 5.98e-15 at
    # lam=2 and 5.56e-12, 3.89e-12 at lam=32; n=128: 1.53e-14, 1.96e-14
    # and 1.59e-11, 1.47e-11
    floors = {(64, 2.0): (1.16e-14, 1.2e-14), (64, 32.0): (1.11e-11, 7.8e-12),
              (128, 2.0): (3.07e-14, 3.93e-14), (128, 32.0): (3.18e-11, 2.95e-11)}
    geom = make_curve("circle", {"radius": 1.0}, n_nodes=n)
    lam = SpectralParam(lam_value)
    s = math.sqrt(lam_value)
    sl, dl = trace("SL", geom, lam), trace("DL", geom, lam)
    worst_sl = worst_dl = 0.0
    for m in range(n // 4 + 1):
        want_sl = float(special.iv(m, s) * special.kv(m, s))
        want_dl = lam_value * float(special.ivp(m, s) * special.kvp(m, s))
        worst_sl = max(worst_sl, abs(circle_rayleigh(sl, geom, m) - want_sl) / want_sl)
        worst_dl = max(worst_dl, abs(circle_rayleigh(dl, geom, m) - want_dl) / abs(want_dl))
    floor_sl, floor_dl = floors[(n, lam_value)]
    assert worst_sl < floor_sl
    assert worst_dl < floor_dl


# Closed-form errors (SL, DL) of the assembly that added R C1 and h C2 as
# two products of size I_0, rounded up to three digits; measured: n=64:
# 3.84081e-14, 3.72475e-14 at lam=8 and 3.49736e-7, 3.16160e-7 at lam=128;
# n=128: 1.04211e-13, 1.03071e-13 and 8.49296e-7, 6.59858e-7; n=256:
# 2.82602e-13, 2.82929e-13 and 1.75430e-6, 1.58290e-6
CIRCLE_ERROR_CEILINGS = {
    (64, 8.0): (3.85e-14, 3.73e-14), (64, 128.0): (3.50e-7, 3.17e-7),
    (128, 8.0): (1.05e-13, 1.04e-13), (128, 128.0): (8.50e-7, 6.60e-7),
    (256, 8.0): (2.83e-13, 2.83e-13), (256, 128.0): (1.76e-6, 1.59e-6),
}


@pytest.mark.parametrize("n, lam_value", sorted(CIRCLE_ERROR_CEILINGS))
def test_circle_closed_form_errors_below_two_term_fold_ceilings(n, lam_value):
    # worst relative error of the mode-m Rayleigh quotients, modes 0..n/4,
    # against I_m K_m (SL) and lam I'_m K'_m (DL)
    geom = make_curve("circle", {"radius": 1.0}, n_nodes=n)
    lam = SpectralParam(lam_value)
    s = math.sqrt(lam_value)
    ops = (trace("SL", geom, lam), trace("DL", geom, lam))
    modes = range(n // 4 + 1)
    wants = ([float(special.iv(m, s) * special.kv(m, s)) for m in modes],
             [lam_value * float(special.ivp(m, s) * special.kvp(m, s)) for m in modes])
    for mat, want, ceiling in zip(ops, wants, CIRCLE_ERROR_CEILINGS[(n, lam_value)]):
        worst = max(abs(circle_rayleigh(mat, geom, m) - w) / abs(w) for m, w in zip(modes, want))
        assert worst <= ceiling


def test_trig_upsample_preserves_band_and_nyquist():
    n, factor = 32, 2
    tau = TWO_PI * np.arange(n) / n
    fine = TWO_PI * np.arange(n * factor) / (n * factor)
    for m in (0, 1, 5, 15):
        up = _trig_upsample(np.cos(m * tau), factor)
        np.testing.assert_allclose(up, np.cos(m * fine), atol=1e-12)
    # Nyquist cosine: the symmetric (real) interpolant is cos((n/2) tau)
    up = _trig_upsample(np.cos((n // 2) * tau), factor)
    np.testing.assert_allclose(up, np.cos((n // 2) * fine), atol=1e-12)


def test_operator_symmetry_and_metadata():
    # an assembled M carries exactly its matrix, its condition and lambda
    import dataclasses

    from lapscat.boundary_ops import BoundaryOperator

    assert [f.name for f in dataclasses.fields(BoundaryOperator)] == ["matrix", "bc", "lam"]
    geom = make_curve("kite", n_nodes=64)
    lam = SpectralParam(2.0)
    for kind in ("D", "N"):
        bc = BoundaryCondition(kind)
        op = assemble_M(bc, geom, lam)
        assert np.array_equal(op.matrix, op.matrix.T)
        assert op.size == 64 and op.kind == "M_" + kind
        assert op.bc is bc and op.lam is lam


def test_assemble_M_matrix_structure():
    geom = make_curve("circle", {"radius": 1.0}, n_nodes=32)
    lam = SpectralParam(1.5)
    sl, dl = trace("SL", geom, lam), trace("DL", geom, lam)
    m_alpha = assemble_M(BoundaryCondition("alpha", coefficient=2.0), geom, lam)
    np.testing.assert_allclose(m_alpha.matrix, -(np.eye(32) / 2.0 + sl), atol=1e-15)
    m_theta = assemble_M(BoundaryCondition("theta", coefficient=-0.5), geom, lam)
    np.testing.assert_allclose(m_theta.matrix, -0.5 * np.eye(32) - dl, atol=1e-15)


def test_reused_plan_matches_fresh_geometry():
    # the second assembly on a geometry runs on its cached plan; it must
    # equal, bit for bit, an assembly on a freshly built copy
    def build():
        return make_curve("kite", n_nodes=64, cluster=(0.0, math.pi, 0.6))

    def conditions(geom):
        return [
            BoundaryCondition("D"),
            BoundaryCondition("N"),
            BoundaryCondition("alpha", coefficient=-0.7),
            BoundaryCondition("theta", coefficient=1.3),
            BoundaryCondition("N", screen=make_screen(geom, (0.0, math.pi))),
        ]

    geom = build()
    for bc in conditions(geom):
        assemble_M(bc, geom, SpectralParam(0.5))
    lam = SpectralParam(3.0)
    for i, bc in enumerate(conditions(geom)):
        fresh = build()
        np.testing.assert_array_equal(
            assemble_M(bc, geom, lam).matrix,
            assemble_M(conditions(fresh)[i], fresh, lam).matrix,
        )


def test_assembly_plan_does_not_keep_geometry_alive():
    geom = make_curve("circle", {"radius": 1.0}, n_nodes=32)
    assemble_M(BoundaryCondition("N"), geom, SpectralParam(2.0))
    ref = weakref.ref(geom)
    del geom
    gc.collect()
    assert ref() is None


def _counting(monkeypatch, module, name, shape=None):
    """Replace ``module.name`` by a wrapper; returns the list of its calls
    (of arguments of ``shape`` only, when given)."""
    calls = []
    real = getattr(module, name)

    def counting(*args, **kwargs):
        if shape is None or np.shape(args[0]) == shape:
            calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_memo_returns_the_kept_M_and_misses_on_any_other_call(monkeypatch):
    # a hit needs the same condition object and an equal lambda; another
    # lambda or an equal but distinct condition assembles anew, and the
    # geometry keeps only the last M
    import lapscat.boundary_ops as boundary_ops

    cores = _counting(monkeypatch, boundary_ops, "_sl_core")
    geom = make_curve("kite", n_nodes=32)
    bc = BoundaryCondition("D")
    first = assemble_M(bc, geom, SpectralParam(2.0))
    again = assemble_M(bc, geom, SpectralParam(2.0))
    assert len(cores) == 1 and again is first
    assert assemble_M(bc, geom, SpectralParam(3.0)).matrix is not first.matrix
    assert len(cores) == 2
    assert assemble_M(bc, geom, SpectralParam(2.0)).matrix is not first.matrix
    assert len(cores) == 3
    equal = BoundaryCondition("D")
    assert equal == bc and equal is not bc
    assemble_M(equal, geom, SpectralParam(2.0))
    assert len(cores) == 4


def test_a_miss_drops_the_kept_M_before_assembling(monkeypatch):
    # the geometry's old M is not held through the new assembly, so the
    # memo adds no n x n array to an assembly's peak
    import lapscat.boundary_ops as boundary_ops

    geom = make_curve("kite", n_nodes=32)
    bc = BoundaryCondition("D")
    kept = weakref.ref(assemble_M(bc, geom, SpectralParam(2.0)).matrix)
    freed = []
    real = boundary_ops._sl_core

    def core(*args, **kwargs):
        freed.append(kept() is None)
        return real(*args, **kwargs)

    monkeypatch.setattr(boundary_ops, "_sl_core", core)
    assemble_M(bc, geom, SpectralParam(3.0))
    assert freed == [True]


def test_sign_check_reuses_its_report_only_for_the_kept_matrix(monkeypatch):
    # the report is made once per operator object, and the kept M is the
    # same object; an operator rebuilt around another matrix, such as a
    # sign flip, is classified afresh
    import dataclasses

    geom = make_curve("circle", {"radius": 1.0}, n_nodes=32)
    eigs = _counting(monkeypatch, np.linalg, "eigvalsh", shape=(32, 32))
    bc = BoundaryCondition("D")
    op = assemble_M(bc, geom, SpectralParam(2.0))
    report = sign_check(op)
    assert sign_check(assemble_M(bc, geom, SpectralParam(2.0))) is report
    assert len(eigs) == 1 and report.classification == "definite_negative"
    flipped = sign_check(dataclasses.replace(op, matrix=-op.matrix))
    assert len(eigs) == 2 and flipped.classification == "definite_positive"
    assert sign_check(op) is report and len(eigs) == 2


def test_memoized_M_is_read_only_and_equals_a_fresh_assembly():
    def build():
        return make_curve("kite", n_nodes=64, cluster=(0.0, math.pi, 0.6))

    def conditions(geom):
        return [
            BoundaryCondition("D"),
            BoundaryCondition("N"),
            BoundaryCondition("alpha", coefficient=-0.7),
            BoundaryCondition("theta", coefficient=np.full(64, 1.3)),
            BoundaryCondition("N", screen=make_screen(geom, (0.0, math.pi))),
        ]

    geom, lam = build(), SpectralParam(2.0)
    for i, bc in enumerate(conditions(geom)):
        kept = assemble_M(bc, geom, lam).matrix
        hit = assemble_M(bc, geom, lam).matrix
        assert hit is kept and not hit.flags.writeable
        with pytest.raises(ValueError):
            hit[0, 0] = 0.0
        fresh = build()
        np.testing.assert_array_equal(hit, assemble_M(conditions(fresh)[i], fresh, lam).matrix)


def test_array_coefficient_is_kept_as_a_read_only_copy():
    # the memo is keyed on the condition object, so its coefficient must
    # not change under it
    geom = make_curve("circle", {"radius": 1.0}, n_nodes=32)
    for coef in (np.full(32, 1.3), [1.3] * 32):
        bc = BoundaryCondition("theta", coefficient=coef)
        assert bc.coefficient is not coef and not bc.coefficient.flags.writeable
        before = assemble_M(bc, geom, SpectralParam(2.0)).matrix
        coef[0] = 40.0
        np.testing.assert_array_equal(bc.resolve_coefficient(geom), np.full(32, 1.3))
        assert assemble_M(bc, geom, SpectralParam(2.0)).matrix is before


def test_geometry_with_a_memoized_screen_condition_dies_without_gc():
    # the memo holds the condition, and nothing in a screen condition refers
    # back to the geometry: no cycle, so reference counting alone frees both
    geom = make_curve("circle", {"radius": 1.0}, n_nodes=32)
    bc = BoundaryCondition("N", screen=make_screen(geom, (0.0, math.pi)))
    sign_check(assemble_M(bc, geom, SpectralParam(2.0)))
    ref = weakref.ref(geom)
    gc.disable()
    try:
        del geom, bc
        assert ref() is None
    finally:
        gc.enable()


def test_q_is_built_only_for_maue_conditions():
    # D and alpha use SP alone; the first N or theta assembly adds Q to the
    # plan and keeps its SP
    geom = make_curve("kite", n_nodes=32)
    for bc in (BoundaryCondition("D"), BoundaryCondition("alpha", coefficient=0.5)):
        assemble_M(bc, geom, SpectralParam(2.0))
    plan = vars(geom)["_assembly_plan"]
    assert plan.q is None
    assemble_M(BoundaryCondition("theta", coefficient=1.0), geom, SpectralParam(2.0))
    assert vars(geom)["_assembly_plan"].q is not None
    assert vars(geom)["_assembly_plan"].sp is plan.sp


def test_resolvable_cap_is_worked_out_once_per_geometry(monkeypatch):
    from lapscat.geometry import BoundaryGeometry

    diameters = _counting(monkeypatch, BoundaryGeometry, "diameter")
    geom = make_curve("kite", n_nodes=32)
    for lam in (1.0, 2.0):
        assemble_M(BoundaryCondition("D"), geom, SpectralParam(lam))
    assert resolvable_lambda_cap(geom) == resolvable_lambda_cap(make_curve("kite", n_nodes=32))
    assert len(diameters) == 2   # once per geometry


def test_maue_assembly_evaluates_i0_once_per_pair(monkeypatch):
    # the row blocks share out the nf (nf - 1) / 2 pairs, each once, in
    # kernel calls of at most _BLOCK points, one call per block
    import lapscat.boundary_ops as boundary_ops
    import lapscat.kernels as kernels

    seen = []
    real_i0 = kernels._bessel_i0

    def counting(z):
        seen.append(np.size(z))
        return real_i0(z)

    for module in (kernels, boundary_ops):
        monkeypatch.setattr(module, "_bessel_i0", counting)
    # n = 8 (cap 0.78) and 32: one block; n = 192: three; n = 512: 17
    for n, lams, calls in ((8, (0.5,), 1), (32, (0.5, 2.0), 1), (192, (0.5, 2.0), 3),
                           (512, (0.5, 2.0), 17)):
        geom = make_curve("kite", n_nodes=n)
        n_f = OVERSAMPLE * geom.n_nodes
        for lam_val in lams:
            seen.clear()
            assemble_M(BoundaryCondition("N"), geom, SpectralParam(lam_val))
            assert sum(seen) == n_f * (n_f - 1) // 2
            assert max(seen) <= _BLOCK
            assert len(seen) == calls


def test_assembly_matches_frozen_golden():
    # M of each condition on three shapes at n = 64, frozen (upper triangles,
    # row-major) from the row-block assembly by tests/data/regenerate.py
    golden = np.load(GOLDEN)
    assert len(golden.files) == 24
    upper = np.triu_indices(64)
    for shape in ("circle", "kite", "ellipse"):
        geom = make_curve(shape, n_nodes=64)
        for lam_value in (0.5, 32.0):
            for kind, coef in (("D", None), ("N", None), ("alpha", -0.7), ("theta", 1.3)):
                bc = BoundaryCondition(kind, coefficient=coef)
                m = assemble_M(bc, geom, SpectralParam(lam_value)).matrix
                want = golden[f"{shape}_{kind}_{lam_value:g}"]
                np.testing.assert_array_equal(m, m.T)
                assert np.max(np.abs(m[upper] - want)) <= 1e-13 * np.max(np.abs(want))


def test_golden_moved_from_the_dense_core_assembly_by_rounding_only():
    # the row blocks and the I_0 tables moved every cell by at most 3.5e-14,
    # relative, but the ellipse at lambda = 32, whose single layer cancels
    # I_0 terms about 1e3 times its size: 5.0e-12 (D), 1.1e-11 (N),
    # 2.0e-13 (alpha) and 9.2e-12 (theta)
    new, old = np.load(GOLDEN), np.load(DENSE_CORE_GOLDEN)
    assert sorted(new.files) == sorted(old.files)
    for key in new.files:
        moved = _relative(new[key], old[key])
        assert moved <= (2e-11 if key.startswith("ellipse") and key.endswith("_32") else 1e-13)


def test_assembly_rounding_against_extended_precision():
    # the discrete rule on the float64 plan in 34-digit mpmath: the float64
    # assembly may be no further from it than the dense-core assembly was
    # (1.655e-11 for D, 3.083e-11 for N); the row blocks measured 1.48e-11
    # and 2.85e-11
    ref = np.load(MPMATH_REFERENCE)
    geom = make_curve("ellipse", n_nodes=64)
    upper = np.triu_indices(64)
    for kind, floor in (("D", 1.66e-11), ("N", 3.09e-11)):
        m = assemble_M(BoundaryCondition(kind), geom, SpectralParam(32.0)).matrix
        assert _relative(m[upper], ref[kind]) <= floor


def _assembly_peaks(kind):
    """tracemalloc peaks of a cold and a warm assembly at n = 512 on the
    unit circle: cold builds the plan (SP, and Q for N), warm finds it."""
    geom = make_curve("circle", {"radius": 1.0}, n_nodes=512)
    peaks = []
    for lam in (2.0, 3.0):
        vars(geom).pop("_kept_M", None)
        tracemalloc.start()
        try:
            assemble_M(BoundaryCondition(kind), geom, SpectralParam(lam))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return peaks


def test_cold_assembly_peak_memory():
    # no (nf x nf) array: a row block's pairs live one block at a time and
    # its products one run of blocks, and T = U' SP is freed once X = SP^T T
    # is formed.  The row blocks peaked at 11.9 MB cold and 7.6 MB warm, the
    # dense (nf x nf) core at 19.0 and 14.7 MB, pair arrays kept in the
    # plan at 37.1 MB
    cold, warm = _assembly_peaks("D")
    assert cold < 13e6 and warm < 9.5e6


def test_cold_maue_assembly_peak_memory():
    # as for D, with T = U' Q and U'_nn SP: 20.2 MB cold and 11.8 MB warm,
    # where the dense cores C and C_nn peaked at 33.6 and 25.2 MB
    cold, warm = _assembly_peaks("N")
    assert cold < 22e6 and warm < 13e6


def test_coefficient_resolution_forms():
    geom = make_curve("circle", {"radius": 1.0}, n_nodes=16)
    lam = SpectralParam(1.0)
    by_scalar = assemble_M(BoundaryCondition("alpha", coefficient=1.0), geom, lam)
    by_array = assemble_M(
        BoundaryCondition("alpha", coefficient=np.ones(16)), geom, lam
    )
    by_callable = assemble_M(
        BoundaryCondition("alpha", coefficient=lambda t: np.ones_like(t)), geom, lam
    )
    np.testing.assert_array_equal(by_scalar.matrix, by_array.matrix)
    np.testing.assert_array_equal(by_scalar.matrix, by_callable.matrix)


@pytest.mark.parametrize("kind", [["D"], {"D": 1}, 5, None])
def test_boundary_condition_refuses_a_kind_that_is_not_a_string(kind):
    # a list or a dict raised TypeError (unhashable) from the LAYER lookup
    with pytest.raises(DomainError):
        BoundaryCondition(kind)


def test_boundary_condition_validation():
    geom = make_curve("circle", {"radius": 1.0}, n_nodes=16)
    lam = SpectralParam(1.0)
    with pytest.raises(DomainError):
        BoundaryCondition("robin")
    with pytest.raises(CoefficientError):
        BoundaryCondition("alpha")
    with pytest.raises(SpectralParameterError):
        BoundaryCondition("D", lambda_bound=-1.0)
    with pytest.raises(CoefficientError):
        assemble_M(BoundaryCondition("alpha", coefficient=0.0), geom, lam)
    with pytest.raises(CoefficientError):
        assemble_M(BoundaryCondition("alpha", coefficient=np.ones(7)), geom, lam)
    with pytest.raises(CoefficientError):
        assemble_M(BoundaryCondition("theta", coefficient=np.nan), geom, lam)
    with pytest.raises(SpectralParameterError):
        assemble_M(BoundaryCondition("D", lambda_bound=2.0), geom, SpectralParam(1.5))
    with pytest.raises(SpectralParameterError):
        assemble_M(BoundaryCondition("D", lambda_bound=1.0), geom, SpectralParam(1.0))


def test_assembly_accepts_minimum_node_count():
    geom = make_curve("circle", {"radius": 1.0}, n_nodes=8)
    op = assemble_M(BoundaryCondition("D"), geom, SpectralParam(1.0))
    assert op.size == 8


def test_assembly_overflow_guard():
    geom = make_curve("circle", {"radius": 1.0}, n_nodes=32)
    with pytest.raises(AssemblyError):
        assemble_M(BoundaryCondition("D"), geom, SpectralParam(1.0e7))


def test_screen_compression_is_principal_submatrix():
    geom = make_curve("circle", {"radius": 1.0}, n_nodes=64)
    screen = make_screen(geom, (0.0, math.pi))
    lam = SpectralParam(2.0)
    full = assemble_M(BoundaryCondition("D"), geom, lam)
    idx = screen.active_indices
    sub = assemble_M(BoundaryCondition("D", screen=screen), geom, lam)
    assert sub.size == 32 and sub.matrix.flags.c_contiguous
    np.testing.assert_array_equal(sub.matrix, full.matrix[np.ix_(idx, idx)])
    # a negative definite matrix stays negative definite on the subspace
    assert sign_check(sub).classification == "definite_negative"


def test_alpha_on_a_screen_must_keep_one_sign(monkeypatch):
    # only the active nodes count: alpha of both signs there is refused
    # before any assembly, a sign change off the screen is not
    import lapscat.boundary_ops as boundary_ops

    cores = _counting(monkeypatch, boundary_ops, "_sl_core")
    geom = make_curve("circle", {"radius": 1.0}, n_nodes=32)
    screen = make_screen(geom, (0.0, math.pi))
    lam = SpectralParam(2.0)
    mixed = BoundaryCondition("alpha", coefficient=lambda t: np.cos(t) + 0.3, screen=screen)
    with pytest.raises(CoefficientError, match="alpha must have constant sign on a screen"):
        assemble_M(mixed, geom, lam)
    assert cores == []
    signs = np.where(np.arange(32) < 16, 1.0, -1.0)
    op = assemble_M(BoundaryCondition("alpha", coefficient=signs, screen=screen), geom, lam)
    assert op.size == 16 and len(cores) == 1


@pytest.mark.parametrize("kind, coef", [("D", None), ("N", None), ("alpha", 1.0),
                                        ("theta", 1.0)])
def test_screen_of_another_node_count_is_refused_before_assembly(monkeypatch, kind, coef):
    # a screen is an index set on its curve's nodes; on a geometry of another
    # node count alpha raised numpy's IndexError, and D, N and theta
    # assembled the full M before refusing it
    import lapscat.boundary_ops as boundary_ops

    cores = _counting(monkeypatch, boundary_ops, "_sl_core")
    geom = make_curve("circle", {"radius": 1.0}, n_nodes=32)
    screen = make_screen(make_curve("circle", {"radius": 1.0}, n_nodes=64), (0.0, math.pi))
    bc = BoundaryCondition(kind, coefficient=coef, screen=screen)
    with pytest.raises(GeometryError, match="screen of 64 nodes on a geometry of 32"):
        assemble_M(bc, geom, SpectralParam(2.0))
    with pytest.raises(GeometryError):
        admissible_class(bc, geom)
    assert cores == []


@pytest.mark.parametrize("kind, coef", [("D", 5.0), ("N", lambda t: np.cos(t)),
                                        ("D", np.ones(32))])
def test_D_and_N_refuse_a_coefficient(kind, coef):
    # the coefficient was ignored: M was plain Dirichlet or Neumann
    with pytest.raises(CoefficientError, match=f"{kind} condition takes no coefficient"):
        BoundaryCondition(kind, coefficient=coef)


def test_jump_relation_three_densities():
    geom = make_curve("circle", {"radius": 1.0}, n_nodes=128)
    lam = SpectralParam(2.0)
    t = geom.params
    for dens in (np.ones_like(t), np.cos(t), 1.0 + 0.5 * np.sin(2.0 * t)):
        assert jump_relation_residual(geom, lam, dens, kind="SL") < 1e-4
        assert jump_relation_residual(geom, lam, dens, kind="DL") < 1e-4
    with pytest.raises(DomainError):
        jump_relation_residual(geom, lam, np.zeros_like(t), kind="SL")
    with pytest.raises(DomainError):
        jump_relation_residual(geom, lam, np.ones_like(t), kind="volume")


# SL and DL jump residuals on the unit circle (n = 128, lambda = 2) of
# 1, cos t and 1 + 0.3 sin 2t, from one density per call, with the rungs
# at h0, h0/2 and h0/4 on the curve refined 4, 8 and 16 times; the DL
# values are those of the double-layer kernel in the order G samples it,
# (g'(r)/r dx) n_x + (g'(r)/r dy) n_y
JUMP_RESIDUALS = {
    "SL": [2.7450802272045716e-05, 4.1130337549727537e-05, 3.2103934606444124e-05],
    "DL": [9.186293072155523e-06, 1.8693747560642545e-05, 1.289434829226699e-05],
}

# the jump pins as every rung on the 16 x refined curve gave them
JUMP_16X_PINS = {
    "SL": [2.7450776481362762e-05, 4.11303117563687e-05, 3.210391056929173e-05],
    "DL": [9.186267210341966e-06, 1.869372169624694e-05, 1.2894326810805923e-05],
}


def test_jump_relation_batch_matches_single_densities():
    geom = make_curve("circle", {"radius": 1.0}, n_nodes=128)
    lam = SpectralParam(2.0)
    t = geom.params
    stack = np.stack([np.ones_like(t), np.cos(t), 1.0 + 0.3 * np.sin(2.0 * t)], axis=1)
    for kind, want in JUMP_RESIDUALS.items():
        assert list(jump_relation_residual(geom, lam, stack, kind)) == want
        single = [jump_relation_residual(geom, lam, stack[:, i].copy(), kind) for i in range(3)]
        assert single == want


def test_jump_relation_per_offset_refinement_keeps_the_16x_residuals():
    geom = make_curve("circle", {"radius": 1.0}, n_nodes=128)
    t = geom.params
    stack = np.stack([np.ones_like(t), np.cos(t), 1.0 + 0.3 * np.sin(2.0 * t)], axis=1)
    for kind, want in JUMP_16X_PINS.items():
        got = jump_relation_residual(geom, SpectralParam(2.0), stack, kind)
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=0.0)


def test_jump_ladder_refines_each_rung_by_its_offset(monkeypatch):
    # the trapezoid error at offset h falls like exp(-2 pi h / spacing), so
    # each rung is refined until its fine spacing is at most h / 4, not all
    # of them as far as the smallest offset h0 / 4 needs
    geom = make_curve("circle", {"radius": 1.0}, n_nodes=128)
    refined = []

    def keep(*args):
        refined.append((args[1], _refined_geometry(*args)))
        return refined[-1][1]

    monkeypatch.setattr("lapscat.boundary_ops._refined_geometry", keep)
    jump_relation_residual(geom, SpectralParam(2.0), np.cos(geom.params), "SL")
    assert [factor for factor, _ in refined] == [4, 8, 16]
    h0 = 0.05 * geom.perimeter() / (2.0 * math.pi)
    for rung, (_, fine) in zip((1, 2, 4), refined):
        assert float(np.max(fine.weights)) <= 0.25 * h0 / rung


def test_jump_relation_peak_memory():
    # kernel matrices fill in row blocks and one side of the ladder is held
    # at a time; whole (targets x fine nodes) temporaries and both sides
    # together peaked at 14.2 MB
    geom = make_curve("circle", {"radius": 1.0}, n_nodes=128)
    t = geom.params
    stack = np.stack([np.ones_like(t), np.cos(t), 1.0 + 0.3 * np.sin(2.0 * t)], axis=1)
    tracemalloc.start()
    try:
        jump_relation_residual(geom, SpectralParam(2.0), stack, "SL")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8e6


@pytest.mark.parametrize("mode", ["SL", "DL", "directions"])
def test_layer_matrix_row_blocks_match_row_by_row(mode):
    # 700 targets against 128 nodes span three row blocks of _BLOCK entries
    geom = make_curve("kite", None, n_nodes=128)
    rng = np.random.default_rng(7)
    targets = rng.uniform(-4.0, 4.0, size=(700, 2))
    dirs = rng.normal(size=(700, 2)) if mode == "directions" else None
    kind = "DL" if mode == "DL" else "SL"
    lam = SpectralParam(2.0)
    assert 700 > 2 * (_BLOCK // geom.n_nodes)
    full = _layer_matrix(kind, geom.nodes, targets, lam, geom.normals, dirs)
    assert full.shape == (700, 128)
    for i in range(700):
        row = _layer_matrix(kind, geom.nodes, targets[i : i + 1], lam, geom.normals,
                            None if dirs is None else dirs[i : i + 1])
        assert np.array_equal(full[i], row[0])


def test_refined_curves_are_read_only(monkeypatch):
    # the plan's fine curve and the curve a near-singular potential refines
    # come from the constructor of every user curve, read-only like them
    geom = make_curve("kite", None, n_nodes=64)
    refined = [_assembly_plan(geom).fine]

    def keep(*args):
        refined.append(_refined_geometry(*args))
        return refined[-1]

    monkeypatch.setattr("lapscat.boundary_ops._refined_geometry", keep)
    with pytest.warns(UserWarning, match="near-singular"):
        evaluate_potential(geom, "SL", np.ones(64), 1.01 * geom.nodes[:1], SpectralParam(2.0))
    assert [c.n_nodes for c in refined] == [64 * OVERSAMPLE, 64 * _NEAR_UPSAMPLE]
    for curve in refined:
        for name in ("nodes", "tangents", "normals", "weights", "params", "shape_params"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(curve, name)[0] = 0.0


def test_jump_relation_batch_guards_act_per_column():
    geom = make_curve("circle", {"radius": 1.0}, n_nodes=128)
    lam = SpectralParam(2.0)
    t = geom.params
    with pytest.raises(DomainError, match="zero density"):
        jump_relation_residual(geom, lam, np.stack([np.cos(t), 0.0 * t], axis=1))
    # cos 48t decays over the ladder's offsets, so its differences grow
    with pytest.raises(QuadratureError, match="density 1"):
        jump_relation_residual(geom, lam, np.stack([np.cos(t), np.cos(48.0 * t)], axis=1))


def test_jump_relation_rejects_bad_densities():
    geom = make_curve("circle", {"radius": 1.0}, n_nodes=32)
    lam = SpectralParam(2.0)
    bad = np.ones(32)
    bad[5] = np.nan
    for dens in (np.ones(16), np.ones((16, 2)), np.ones((32, 2, 2)), bad):
        with pytest.raises(DomainError):
            jump_relation_residual(geom, lam, dens, kind="SL")


def test_gram_identity_residual_small_config():
    geom = make_curve("circle", {"radius": 1.0}, n_nodes=64)
    figures = gram_identity_residual(
        geom, 1.0, 2.0, volume_radius=12.0, volume_resolution=120
    )
    assert figures["residual"] < 1e-2
    assert figures["volume_points"] > 0 and 0.0 < figures["tail_share"] < 1e-6
    with pytest.raises(DomainError):
        gram_identity_residual(geom, 1.0, 1.0)


_SHAPE_PARAMS = {"circle": {"radius": 1.0}, "kite": None}


@functools.lru_cache(maxsize=None)
def _gram_figures(shape, n, res):
    geom = make_curve(shape, _SHAPE_PARAMS[shape], n_nodes=n)
    return gram_identity_residual(geom, 1.0, 2.0, 12.0, res)


def _gram_residual(shape, n, res):
    return _gram_figures(shape, n, res)["residual"]


# Frozen Gram identity residuals (circle and kite, lambda 1 and 2, R = 12)
# of the 2 x 2 Gauss rule on the leaves of the graded volume rule; the
# truncation guard takes no part in the volume sums behind them, and the
# pairwise norms and 64-point padding keep them equal at every BLAS
# thread count
GRAM_RESIDUALS = {
    ("circle", 128, 200): 0.0005072566428208237,
    ("circle", 64, 120): 0.000997669771282395,
    ("kite", 128, 120): 0.0006889271844396211,
    ("circle", 128, 400): 9.41841452510984e-05,
}

# the Gram pins of the midpoint rule on a finer tree (grading 0.6, finest
# leaf side cell/8), which the Gauss rule replaced
MIDPOINT_RULE_PINS = {
    ("circle", 128, 200): 0.001095625983735313,
    ("circle", 64, 120): 0.0026587160730725885,
    ("kite", 128, 120): 0.002337326897182987,
    ("circle", 128, 400): 0.0003227087399443915,
}

# the Gram pins as the sums over 4096-point volume blocks and the dense-core
# assembly of M_D gave them, before 1024-point blocks and the row-block
# assembly: the re-freeze moved them by at most 9.2e-13, relative
GRAM_4096_POINT_PINS = {
    ("circle", 128, 200): 0.0010956259837356511,
    ("circle", 64, 120): 0.002658716073073195,
    ("kite", 128, 120): 0.00233732689718303,
    ("circle", 128, 400): 0.0003227087399446876,
}

# both pin tables as the forward-series and Clenshaw Bessel evaluators
# gave them, before the Horner tables: the re-freeze moved last digits only
SERIES_EVALUATOR_PINS = {
    "SL": [2.7450776481328064e-05, 4.11303117563356e-05, 3.210391056924364e-05],
    "DL": [9.186267210298598e-06, 1.8693721696192447e-05, 1.289432681074048e-05],
    ("circle", 128, 200): 0.0010956259837355095,
    ("circle", 64, 120): 0.0026587160730731805,
    ("kite", 128, 120): 0.002337326897183003,
    ("circle", 128, 400): 0.00032270873994456287,
}

# the residuals of the uniform midpoint lattice with its 8 x 8 band
# sub-rule, which the graded rule replaced; no rule may do worse
GRAM_RESIDUAL_FLOORS = {
    ("circle", 128, 200): 1.7630e-3,
    ("circle", 64, 120): 2.7590e-3,
    ("kite", 128, 120): 2.4005e-3,
    ("circle", 128, 400): 7.3222e-4,
}


def test_refrozen_pins_moved_by_rounding_only():
    pins = {**JUMP_16X_PINS, **MIDPOINT_RULE_PINS}
    assert pins.keys() == SERIES_EVALUATOR_PINS.keys()
    for key, want in pins.items():
        np.testing.assert_allclose(want, SERIES_EVALUATOR_PINS[key], rtol=1e-11, atol=0.0)
    assert MIDPOINT_RULE_PINS.keys() == GRAM_4096_POINT_PINS.keys()
    for key, want in MIDPOINT_RULE_PINS.items():
        np.testing.assert_allclose(want, GRAM_4096_POINT_PINS[key], rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("key", list(MIDPOINT_RULE_PINS), ids=lambda k: "-".join(map(str, k)))
def test_gram_identity_residual_at_most_half_the_midpoint_pin(key):
    assert _gram_residual(*key) <= 0.5 * MIDPOINT_RULE_PINS[key]


def test_gram_identity_volume_points_at_the_verify_configuration():
    # the midpoint rule summed over 14,872 points here, the Gauss rule 6,832
    assert _gram_figures("circle", 128, 200)["volume_points"] <= 7500


def test_gram_identity_residuals_are_bit_identical():
    for key, want in GRAM_RESIDUALS.items():
        assert _gram_residual(*key) == want


def test_gram_identity_residual_ignores_blas_thread_count():
    # 3312 volume points, not a multiple of 64, so the padding takes part
    code = (
        "from lapscat.boundary_ops import gram_identity_residual as g\n"
        "from lapscat.geometry import make_curve\n"
        "c = make_curve('circle', {'radius': 1.0}, n_nodes=64)\n"
        "print(repr(g(c, 1.0, 2.0, 12.0, 120)['residual']))\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    outs = {
        threads: subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads},
        ).stdout
        for threads in ("1", "2")
    }
    assert outs["1"] == outs["2"] == f"{GRAM_RESIDUALS[('circle', 64, 120)]!r}\n"


def test_assembly_ignores_blas_thread_count():
    # each row block's product is padded to an inner width the BLAS splits
    # alike on one and on two threads; unpadded, rows 99 to 648 of U' SP
    # took other bits on two threads at n = 512
    code = (
        "import hashlib\n"
        "from lapscat.boundary_ops import BoundaryCondition, assemble_M\n"
        "from lapscat.geometry import make_curve\n"
        "from lapscat.kernels import SpectralParam\n"
        "for shape, n in (('circle', 512), ('kite', 192)):\n"
        "    geom = make_curve(shape, n_nodes=n)\n"
        "    for kind in 'DN':\n"
        "        m = assemble_M(BoundaryCondition(kind), geom, SpectralParam(2.0)).matrix\n"
        "        print(hashlib.sha256(m.tobytes()).hexdigest())\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    outs = [
        subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads},
        ).stdout
        for threads in ("1", "2")
    ]
    assert outs[0] == outs[1] and len(outs[0].split()) == 4


@pytest.mark.parametrize("key", list(GRAM_RESIDUAL_FLOORS), ids=lambda k: "-".join(map(str, k)))
def test_gram_identity_residual_at_most_lattice_floor(key):
    assert _gram_residual(*key) <= GRAM_RESIDUAL_FLOORS[key]


@pytest.mark.parametrize("shape", ["circle", "kite"])
def test_volume_rule_leaves_tile_the_square(shape):
    geom = make_curve(shape, _SHAPE_PARAMS[shape], n_nodes=64)
    radius, resolution = 3.0, 40
    pts, areas = _volume_rule(geom, radius, resolution)
    sides = np.sqrt(areas)
    fine = 2.0 * radius / resolution * _FINEST_LEAF
    half = float(np.max(np.abs(pts) + 0.5 * sides[:, None]))
    assert half >= radius and np.min(sides) == pytest.approx(fine)
    assert np.sum(areas) == pytest.approx((2.0 * half) ** 2, rel=1e-12)
    # count the leaves over each cell of the finest grid: exactly one each
    lo = np.rint((pts - 0.5 * sides[:, None] + half) / fine).astype(int)
    hi = np.rint((pts + 0.5 * sides[:, None] + half) / fine).astype(int)
    size = int(round(2.0 * half / fine))
    cover = np.zeros((size + 1, size + 1), dtype=int)
    np.add.at(cover, (lo[:, 0], lo[:, 1]), 1)
    np.add.at(cover, (hi[:, 0], lo[:, 1]), -1)
    np.add.at(cover, (lo[:, 0], hi[:, 1]), -1)
    np.add.at(cover, (hi[:, 0], hi[:, 1]), 1)
    cover = np.cumsum(np.cumsum(cover, axis=0), axis=1)[:size, :size]
    assert np.all(cover == 1)


def _sampled_annulus_norm(geom, radius, resolution, lam1, lam2):
    """|W^{1/2} Gram W^{1/2}|_F over the leaves of the volume rule of
    `gram_identity_residual` whose centres lie beyond R."""
    pts, areas = _volume_rule(geom, radius, resolution)
    out = np.hypot(pts[:, 0], pts[:, 1]) > radius
    pts, areas = pts[out], areas[out]
    k1 = fundamental_solution(SpectralParam(lam1), geom.nodes[:, None, :], pts[None, :, :])
    k2 = fundamental_solution(SpectralParam(lam2), geom.nodes[:, None, :], pts[None, :, :])
    sw = np.sqrt(geom.weights)
    return float(np.linalg.norm(sw[:, None] * ((k2 * areas) @ k1.T) * sw[None, :]))


@pytest.mark.parametrize("shape", ["circle", "kite"])
def test_gram_tail_bound_dominates_sampled_annulus(shape):
    geom = make_curve(shape, _SHAPE_PARAMS[shape], n_nodes=64)
    for radius in (2.5, 3.0, 4.0, 6.0, 12.0):
        bound = _gram_tail_bound(geom, 1.0, math.sqrt(2.0), radius)
        assert bound >= _sampled_annulus_norm(geom, radius, 120, 1.0, 2.0)


def test_gram_truncation_guard_refuses_small_disks():
    circle = make_curve("circle", {"radius": 1.0}, n_nodes=64)
    kite = make_curve("kite", None, n_nodes=64)
    with pytest.raises(TruncationError):
        gram_identity_residual(circle, 1.0, 2.0, volume_radius=3.0, volume_resolution=120)
    with pytest.raises(TruncationError):
        gram_identity_residual(kite, 1.0, 2.0, volume_radius=4.0, volume_resolution=120)


def test_gram_identity_rejects_bad_volume_radius():
    geom = make_curve("circle", {"radius": 1.0}, n_nodes=32)
    # negative, empty and too small disks, NaN and an infinite one
    for radius in (-12.0, 0.0, 0.9, float("nan"), float("inf")):
        with pytest.raises(DomainError):
            gram_identity_residual(geom, 1.0, 2.0, volume_radius=radius, volume_resolution=16)


@pytest.mark.parametrize("lambdas", [(math.nan, 2.0), (1.0, math.nan), (math.inf, 2.0),
                                     (1.0, math.inf), (math.inf, math.inf)])
def test_gram_identity_refuses_non_finite_lambda_before_any_work(monkeypatch, lambdas):
    # NaN and inf passed the sign guard and failed after the quadtree with
    # "bessel_k requires z > 0"; inf twice was called degenerate
    import lapscat.boundary_ops as boundary_ops

    rules = _counting(monkeypatch, boundary_ops, "_volume_rule")
    geom = make_curve("circle", {"radius": 1.0}, n_nodes=32)
    with pytest.raises(DomainError, match="spectral parameters must be positive and finite"):
        gram_identity_residual(geom, *lambdas, 12.0, 16)
    assert rules == []


def test_gram_identity_peak_memory_at_the_verify_configuration():
    # each (n, 1024) factor fills in node-row blocks, so only the two
    # factors outlive a block; whole-block distance and kernel temporaries
    # peaked at 19.5 MB, 4096-point blocks at 11.9 MB and 1024-point ones
    # at 5.7 MB
    geom = make_curve("circle", {"radius": 1.0}, n_nodes=128)
    tracemalloc.start()
    try:
        gram_identity_residual(geom, 1.0, 2.0, volume_radius=12.0, volume_resolution=200)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 7e6


def test_gram_identity_peak_memory():
    # the volume sums run over blocks of points; one (n, all points)
    # pass peaked at 70 MB on this configuration, 4096-point blocks at
    # 7.0 MB and 1024-point ones at 4.2 MB
    geom = make_curve("circle", {"radius": 1.0}, n_nodes=64)
    tracemalloc.start()
    try:
        gram_identity_residual(geom, 1.0, 2.0, volume_radius=12.0, volume_resolution=120)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5e6


def test_exterior_reproduction_from_interior_sources():
    # solving M_D phi = -trace reproduces the kernel of an interior
    # source everywhere outside
    from lapscat.kernels import fundamental_solution

    geom = make_curve("circle", {"radius": 1.0}, n_nodes=128)
    lam = SpectralParam(2.0)
    m = assemble_M(BoundaryCondition("D"), geom, lam)
    sw = np.sqrt(geom.weights)
    ang = np.linspace(0.0, TWO_PI, 8, endpoint=False)
    targets = np.stack([3.0 * np.cos(ang), 3.0 * np.sin(ang)], axis=1)
    for x in ((0.0, 0.0), (0.3, 0.1), (-0.2, 0.25), (0.1, -0.3), (-0.35, -0.1)):
        trace = fundamental_solution(lam, geom.nodes, np.array(x))
        phi = -np.linalg.solve(m.matrix, sw * trace) / sw
        field = evaluate_potential(geom, "SL", phi, targets, lam)
        ref = fundamental_solution(lam, targets, np.array(x))
        assert np.linalg.norm(field - ref) / np.linalg.norm(ref) < 1e-6


def test_evaluate_potential_matches_mode_expansion():
    # SL of cos(m.) on the circle is R I_m(s R) K_m(s r) cos(m.) outside
    geom = make_curve("circle", {"radius": 1.0}, n_nodes=128)
    lam = SpectralParam(2.0)
    s = math.sqrt(2.0)
    for m in (0, 1, 3):
        dens = np.cos(m * geom.params)
        far = evaluate_potential(geom, "SL", dens, np.array([[2.0, 0.0]]), lam)
        want = float(special.iv(m, s) * special.kv(m, s * 2.0))
        assert abs(far[0] - want) / abs(want) < 1e-12
        with pytest.warns(UserWarning):
            near = evaluate_potential(geom, "SL", dens, np.array([[1.05, 0.0]]), lam)
        want_near = float(special.iv(m, s) * special.kv(m, s * 1.05))
        assert abs(near[0] - want_near) / abs(want_near) < 1e-10


def test_evaluate_potential_validation():
    geom = make_curve("circle", {"radius": 1.0}, n_nodes=32)
    lam = SpectralParam(1.0)
    with pytest.raises(DomainError):
        evaluate_potential(geom, "volume", np.ones(32), np.array([[2.0, 0.0]]), lam)
    with pytest.raises(DomainError):
        evaluate_potential(geom, "SL", np.ones(16), np.array([[2.0, 0.0]]), lam)


def test_resolvable_lambda_cap_scaling():
    # band ceiling grows with node count until the precision ceiling
    # (26/diameter)^2 takes over
    c32 = resolvable_lambda_cap(make_curve("circle", {"radius": 1.0}, n_nodes=32))
    c64 = resolvable_lambda_cap(make_curve("circle", {"radius": 1.0}, n_nodes=64))
    c256 = resolvable_lambda_cap(make_curve("circle", {"radius": 1.0}, n_nodes=256))
    assert c32 == (32 * OVERSAMPLE / 8.0) ** 2
    assert c64 == c256 == (26.0 / 2.0) ** 2
    kite = make_curve("kite", n_nodes=128)
    assert resolvable_lambda_cap(kite) == pytest.approx((26.0 / kite.diameter()) ** 2)


def test_lambda_bound_zero_for_always_definite_kinds():
    geom = make_curve("circle", {"radius": 1.0}, n_nodes=64)
    for bc in (
        BoundaryCondition("D"),
        BoundaryCondition("N"),
        BoundaryCondition("alpha", coefficient=1.0),
    ):
        bound, report = estimate_lambda_bound(bc, geom)
        assert bound == 0.0
        assert all(report["definite"])
        assert report["certified_up_to"] == report["resolvable_cap"]


def test_lambda_bound_locates_theta_transition():
    # frozen scipy.optimize.brentq transition, re-derived live
    def binding(lmb):
        s = math.sqrt(lmb)
        return lmb * abs(float(special.ivp(0, s) * special.kvp(0, s))) - 1.2

    from scipy.optimize import brentq

    live = brentq(binding, 1.0, 50.0)
    assert abs(live - THETA_MINUS_1_2_TRANSITION) < 1e-9

    geom = make_curve("circle", {"radius": 1.0}, n_nodes=64)
    bc = BoundaryCondition("theta", coefficient=-1.2)
    bound, report = estimate_lambda_bound(bc, geom)
    assert abs(bound - THETA_MINUS_1_2_TRANSITION) < 0.15
    lo, hi = report["transition"]
    assert lo <= bound <= hi
    # above the bound the operator really is definite
    op = assemble_M(bc, geom, SpectralParam(bound * 1.1))
    assert sign_check(op).classification == "definite_positive"
    below = assemble_M(bc, geom, SpectralParam(bound * 0.8))
    assert sign_check(below).classification == "indefinite"


def test_lambda_bound_infinite_for_sign_changing_alpha():
    geom = make_curve("circle", {"radius": 1.0}, n_nodes=64)
    bc = BoundaryCondition("alpha", coefficient=lambda t: np.sign(np.cos(t)) * 0.5)
    bound, report = estimate_lambda_bound(bc, geom)
    assert bound == math.inf
    assert report["certified_up_to"] == report["resolvable_cap"]


def test_lambda_bound_validation(monkeypatch):
    # a large curve's resolvable cap, (26 / 1000)^2 = 6.8e-4, lies below
    # the bisection's bottom: refused before any probe is assembled
    geom = make_curve("circle", {"radius": 500.0}, n_nodes=64)
    assert resolvable_lambda_cap(geom) < BOUND_LAM_MIN
    calls = _counting_assemblies(monkeypatch)
    with pytest.raises(SpectralParameterError, match="bisection top"):
        estimate_lambda_bound(BoundaryCondition("D"), geom)
    assert calls == []


def _bound_case(name):
    shape, n, kind, coef, frozen = LADDER_BOUNDS[name]
    params = {"radius": 1.0} if shape == "circle" else None
    return make_curve(shape, params, n_nodes=n), BoundaryCondition(kind, coef), frozen


def _counting_assemblies(monkeypatch):
    import lapscat.boundary_ops as boundary_ops

    calls = []
    real_assemble = boundary_ops.assemble_M

    def counting(*args, **kwargs):
        calls.append(args[2].lam)
        return real_assemble(*args, **kwargs)

    monkeypatch.setattr(boundary_ops, "assemble_M", counting)
    return calls


@pytest.mark.parametrize("name", LADDER_BOUNDS)
def test_lambda_bound_agrees_with_ladder(name):
    geom, bc, frozen = _bound_case(name)
    bound, report = estimate_lambda_bound(bc, geom)
    if frozen in (0.0, math.inf):
        assert bound == frozen
    else:
        assert abs(bound - frozen) <= 1e-2 * max(1.0, bound)
        lo, hi = report["transition"]
        assert lo < hi == bound


@pytest.mark.parametrize("name, at_most", [
    ("kite128-theta1", 2), ("circle128-theta-0.5", 14), ("circle64-alpha-signcos", 1),
])
def test_lambda_bound_probe_counts(monkeypatch, name, at_most):
    # lam_max first, then lam_min, then the bisection; the x4 ladder took
    # 10, 18 and 10 assemblies here
    geom, bc, _ = _bound_case(name)
    calls = _counting_assemblies(monkeypatch)
    _, report = estimate_lambda_bound(bc, geom)
    assert calls == report["probes"]
    assert len(report["definite"]) == len(calls) <= at_most
    assert calls[0] == report["certified_up_to"]


def test_lambda_bound_brackets_benchmark_root():
    circle, bc, _ = _bound_case("circle128-theta-0.5")
    _, report = estimate_lambda_bound(bc, circle)
    lo, hi = report["transition"]
    assert lo <= THETA_MINUS_0_5_TRANSITION <= hi
    kite, bc, _ = _bound_case("kite128-theta1")
    assert estimate_lambda_bound(bc, kite)[0] == 0.0


@pytest.mark.parametrize("theta", [-40.0, -100.0])
def test_lambda_bound_infinite_for_unresolved_theta(theta):
    # the true bound solves lam I_1 K_1(sqrt lam) = -theta, far past the
    # cap 169; below it the 128-node M_theta is negative definite, which
    # is not the positive class M_theta keeps as lambda grows
    geom = make_curve("circle", {"radius": 1.0}, n_nodes=128)
    bound, report = estimate_lambda_bound(BoundaryCondition("theta", theta), geom)
    assert bound == math.inf
    assert report["definite"] == [False]
    assert report["certified_up_to"] == report["resolvable_cap"]


@pytest.mark.parametrize("shape, kind, coef, cls", [
    ("circle", "theta", -1.2, "definite_positive"),
    ("circle", "alpha", -5.0, "definite_positive"),
    ("kite", "theta", -1.0, "definite_positive"),
    ("kite", "alpha", 2.0, "definite_negative"),
    ("kite", "D", None, "definite_negative"),
])
def test_admissible_lambda_form_one_final_interval(shape, kind, coef, cls):
    # M_lambda increases with lambda, so once it has the class it keeps
    # as lambda -> inf it keeps it up to the cap
    params = {"radius": 1.0} if shape == "circle" else None
    geom = make_curve(shape, params, n_nodes=64)
    bc = BoundaryCondition(kind, coef)
    lams = np.geomspace(1e-3, resolvable_lambda_cap(geom), 24)
    flags = [sign_check(assemble_M(bc, geom, SpectralParam(v))).classification == cls
             for v in lams]
    assert flags[-1]
    assert flags == sorted(flags)


def test_callable_coefficient_sees_the_shape_parameter():
    # on a graded curve the quadrature parameter tau_j and the shape
    # parameter t_j = w(tau_j) differ; the coefficient is a function of t,
    # which on the unit circle is the node's polar angle
    geom = make_curve("circle", {"radius": 1.0}, n_nodes=128, cluster=(0.0, math.pi, 0.6))
    vals = BoundaryCondition("alpha", np.cos).resolve_coefficient(geom)
    angle = np.arctan2(geom.nodes[:, 1], geom.nodes[:, 0])
    assert np.max(np.abs(vals - np.cos(angle))) < 1e-12


def test_refused_assembly_builds_no_plan():
    # circle n = 256 at lambda 400 (cap 169): the cap is tested before the
    # plan is built, so a refusal leaves nothing cached on the geometry
    geom = make_curve("circle", {"radius": 1.0}, n_nodes=256)
    for bc in (BoundaryCondition("D"), BoundaryCondition("N")):
        with pytest.raises(AssemblyError, match="resolvable cap"):
            assemble_M(bc, geom, SpectralParam(400.0))
    assert "_assembly_plan" not in vars(geom)


def test_assembly_refuses_past_resolvable_cap():
    # ellipse (3, 1): cap 18.8; at lambda 50 the assembled -gamma0 SL
    # was indefinite (the true operator is negative definite) and no
    # error was raised
    geom = make_curve("ellipse", {"a": 3.0, "b": 1.0}, n_nodes=128)
    cap = resolvable_lambda_cap(geom)
    assert 18.0 < cap < 19.0
    for bc in (BoundaryCondition("D"), BoundaryCondition("N")):
        with pytest.raises(AssemblyError, match="resolvable cap"):
            assemble_M(bc, geom, SpectralParam(50.0))
    # at the cap itself the operator is assembled and keeps its sign
    op = assemble_M(BoundaryCondition("D"), geom, SpectralParam(cap))
    assert sign_check(op).classification == "definite_negative"


@given(
    st.floats(min_value=0.2, max_value=12.0),
    st.floats(min_value=0.5, max_value=2.0),
)
@settings(max_examples=12, deadline=None)
def test_sl_positive_definite_property(lam_value, radius):
    geom = make_curve("circle", {"radius": radius}, n_nodes=32)
    assert np.linalg.eigvalsh(trace("SL", geom, SpectralParam(lam_value)))[0] > 0.0
