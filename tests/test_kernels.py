"""Kernel and Bessel-function tests.

Reference values below were computed first with scipy.special (kv/iv) and
frozen; one test re-derives them live so a stale freeze cannot go unnoticed.
The table in data/bessel_k_mpmath40.npy is `_mpmath_k` (40-digit mpmath)
on 3000 points, frozen the same way and spot-checked live.
"""

import os

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.chebyshev import cheb2poly
from scipy import special

from lapscat import kernels
from lapscat.errors import (
    DomainError,
    SingularityError,
    SpectralParameterError,
    UnsupportedOrderError,
)
from lapscat.kernels import (
    SpectralParam,
    _bessel_i0,
    _gauss_legendre,
    _gl_panels,
    _k01,
    _radial_g,
    bessel_k,
    fundamental_solution,
)

# scipy.special.kv(order, x), frozen
K0_REFERENCE = {
    0.1: 2.427069024702017,
    0.5: 0.9244190712276656,
    1.0: 0.42102443824070834,
    2.0: 0.11389387274953341,
    5.0: 0.0036910983340425942,
    10.0: 1.778006231616765e-05,
}
K1_REFERENCE = {
    0.1: 9.853844780870606,
    0.5: 1.6564411200033007,
    1.0: 0.6019072301972346,
    2.0: 0.13986588181652246,
    5.0: 0.004044613445452164,
    10.0: 1.8648773453825585e-05,
}


def test_bessel_k_frozen_reference_values():
    for x, want in K0_REFERENCE.items():
        assert abs(bessel_k(0, x) - want) <= 1e-14 * want
    for x, want in K1_REFERENCE.items():
        assert abs(bessel_k(1, x) - want) <= 1e-14 * want


def test_frozen_values_match_live_scipy():
    # guards the frozen tables themselves
    for x, want in K0_REFERENCE.items():
        assert want == float(special.kv(0, x))
    for x, want in K1_REFERENCE.items():
        assert want == float(special.kv(1, x))


def test_bessel_k_against_scipy_on_wide_grid():
    # spans the series/Chebyshev switch at z = 2 and the far tail
    z = np.geomspace(1e-6, 650.0, 400)
    for order in (0, 1):
        mine = bessel_k(order, z)
        ref = special.kv(order, z)
        assert np.max(np.abs(mine - ref) / ref) < 5e-15


def test_bessel_k_scalar_and_shape():
    assert isinstance(bessel_k(0, 1.0), float)
    z = np.linspace(0.5, 3.0, 6).reshape(2, 3)
    assert bessel_k(1, z).shape == (2, 3)


def test_bessel_k_rejects_bad_input():
    with pytest.raises(DomainError):
        bessel_k(0, 0.0)
    with pytest.raises(DomainError):
        bessel_k(0, -1.0)
    with pytest.raises(DomainError):
        bessel_k(1, np.array([1.0, np.inf]))
    with pytest.raises(UnsupportedOrderError):
        bessel_k(2, 1.0)
    with pytest.raises(UnsupportedOrderError):
        bessel_k(-0.5, 1.0)
    with pytest.raises(UnsupportedOrderError):
        bessel_k(0.5, 1.0)


@given(st.floats(min_value=0.05, max_value=30.0))
@settings(max_examples=60, deadline=None)
def test_k0_derivative_is_minus_k1(x):
    # d/dx K_0(x) = -K_1(x), central difference
    h = 1e-6 * max(1.0, x)
    fd = (bessel_k(0, x + h) - bessel_k(0, x - h)) / (2.0 * h)
    assert abs(fd + bessel_k(1, x)) <= 1e-7 * bessel_k(1, x) + 1e-14


@given(st.floats(min_value=0.1, max_value=50.0))
@settings(max_examples=60, deadline=None)
def test_bessel_k_positive_decreasing(x):
    assert bessel_k(0, x) > 0.0
    assert bessel_k(0, 1.1 * x) < bessel_k(0, x)


def test_spectral_param_validation():
    p = SpectralParam(4.0)
    assert p.sqrt_lam == 2.0
    with pytest.raises(SpectralParameterError):
        SpectralParam(0.0)
    with pytest.raises(SpectralParameterError):
        SpectralParam(-1.0)
    with pytest.raises(SpectralParameterError):
        SpectralParam(np.nan)
    with pytest.raises(SpectralParameterError):
        SpectralParam(np.inf)


def test_kernel_2d_is_scaled_k0():
    lam = SpectralParam(3.0)
    x = np.array([0.3, -0.2])
    y = np.array([1.4, 0.9])
    r = np.linalg.norm(y - x)
    want = special.kv(0, np.sqrt(3.0) * r) / (2.0 * np.pi)
    got = fundamental_solution(lam, x, y)
    assert abs(got - want) <= 1e-14 * want


def test_kernel_symmetry_in_arguments():
    lam = SpectralParam(1.7)
    rng = np.random.default_rng(1)
    x = rng.standard_normal((5, 2))
    y = rng.standard_normal((5, 2)) + 2.0
    np.testing.assert_allclose(
        fundamental_solution(lam, x, y),
        fundamental_solution(lam, y, x),
        rtol=1e-15,
    )


def test_kernel_broadcasting():
    lam = SpectralParam(1.0)
    xs = np.zeros((4, 1, 2))
    ys = np.ones((1, 3, 2))
    vals = fundamental_solution(lam, xs, ys)
    assert vals.shape == (4, 3)
    assert np.all(vals == vals[0, 0])


def test_kernel_rejects_bad_dim_and_coincidence():
    lam = SpectralParam(1.0)
    with pytest.raises(DomainError):
        fundamental_solution(lam, np.zeros(3), np.ones(3))
    with pytest.raises(SingularityError):
        fundamental_solution(lam, np.zeros(2), np.zeros(2))


@given(
    st.floats(min_value=0.2, max_value=20.0),
    st.floats(min_value=0.1, max_value=5.0),
)
@settings(max_examples=40, deadline=None)
def test_kernel_decreasing_in_lambda_and_r(lam_value, r):
    # stronger damping or larger separation can only shrink the kernel
    x = np.array([0.0, 0.0])
    y = np.array([r, 0.0])
    y2 = np.array([1.5 * r, 0.0])
    g1 = fundamental_solution(SpectralParam(lam_value), x, y)
    g2 = fundamental_solution(SpectralParam(1.5 * lam_value), x, y)
    g3 = fundamental_solution(SpectralParam(lam_value), x, y2)
    assert g2 < g1
    assert g3 < g1


def _blocks_test_array() -> np.ndarray:
    # block 0 wholly at z <= 2, block 1 wholly at z > 2, block 2 and the
    # 17-element tail mixed (the two sides alternate, each rising, so later
    # elements need more I_0 terms); z = 2 and its two neighbouring floats
    # end block 0, start block 1 and open the mixed runs
    b = kernels._BLOCK
    edge = [np.nextafter(2.0, 0.0), 2.0, np.nextafter(2.0, 3.0)]
    z = np.empty(3 * b + 17)
    z[:b] = np.geomspace(1e-8, 2.0, b)
    z[b:2 * b] = np.geomspace(edge[2], 700.0, b)
    mixed = z[2 * b:]
    mixed[0::2] = np.geomspace(1e-8, 2.0, mixed[0::2].size)
    mixed[1::2] = np.geomspace(edge[2], 700.0, mixed[1::2].size)
    z[b - 2:b] = edge[:2]
    for lo in (2 * b, 3 * b):
        z[lo:lo + 3] = edge
    assert np.all(z[:b] <= 2.0) and np.all(z[b:2 * b] > 2.0)
    assert all(np.any(z[lo:lo + b] <= 2.0) and np.any(z[lo:lo + b] > 2.0) for lo in (2 * b, 3 * b))
    return z


def test_bessel_blocks_match_elementwise_evaluation():
    z = _blocks_test_array()
    i0 = _bessel_i0(z)
    whole = {
        "k0": bessel_k(0, z),
        "k1": bessel_k(1, z),
        "i0": i0,
        "k0_given_i0": _k01(0, z, i0),
    }
    # K_0 from its own I_0 polynomial or from the given I_0: the same bits
    np.testing.assert_array_equal(whole["k0_given_i0"], whole["k0"])
    # every block boundary neighbourhood, z = 2 and its neighbours, the
    # whole tail block, plus a stride
    idx = np.unique(np.concatenate([
        np.arange(0, z.size, 101),
        *(np.arange(lo - 3, lo + 3) for lo in range(kernels._BLOCK, z.size, kernels._BLOCK)),
        np.flatnonzero(np.abs(z - 2.0) <= 4.5e-16),
        np.arange(z.size - 40, z.size),
    ]))
    for i in idx:
        one = z[i:i + 1]
        single = {
            "k0": bessel_k(0, one),
            "k1": bessel_k(1, one),
            "i0": _bessel_i0(one),
            "k0_given_i0": _k01(0, one, i0[i:i + 1]),
        }
        for name, val in single.items():
            assert val[0] == whole[name][i], (name, i, z[i])


# Chebyshev coefficients of K_nu(z) e^z sqrt(z) in x = 4/z - 1 for z > 2,
# generated with 60-digit mpmath; kernels holds them in powers of x
K0_CHEBYSHEV = [
    1.2201515410329777, -0.03144810131196437, 0.0015698838857299497,
    -0.0001284954958162349, 1.3949813718866258e-05, -1.83175552268351e-06,
    2.766813632696905e-07, -4.660489883867097e-08, 8.574033618357213e-09,
    -1.6975340746598802e-09, 3.577391716191869e-10, -7.957463673498612e-11,
    1.855940522039359e-11, -4.5150067259792985e-12, 1.1393205219835931e-12,
    -2.973177259946169e-13, 8.077596562642335e-14, -2.1987242944206904e-14,
    6.033820786006286e-15, -1.1729747607996219e-15, 7.578478907223895e-16,
    4.440892098500626e-16, -9.364489859881755e-16,
]
K1_CHEBYSHEV = [
    1.3603130952422213, 0.10392373657681737, -0.0028578168596228542,
    0.00019521551847141052, -1.936197974172771e-05, 2.4064849478168937e-06,
    -3.5019606084550564e-07, 5.741084133696315e-08, -1.0345762932341468e-08,
    2.015050213644975e-09, -4.1903609085040995e-10, 9.218335273863471e-11,
    -2.1299715614452946e-11, 5.1392127268765915e-12, -1.2902818909928417e-12,
    3.354997439284647e-13, -8.930054763289302e-14, 2.5153792092703003e-14,
    -7.390223698700498e-15, 2.736941108532451e-15, -4.102998134484274e-16,
    9.533436841889932e-16, -9.750654390186157e-16,
]

# I_0(z) e^-z sqrt(z) on z > 7.75 in x = 15.5/z - 1: the first 24 Chebyshev
# coefficients of its interpolant at 64 Chebyshev points, in 40-digit mpmath
I0_CHEBYSHEV = [
    0.4023589034301764, 0.0034876771026373706, 7.40856222573413e-05,
    3.249942531669863e-06, 2.4299531430552774e-07, 2.8370482604934725e-08,
    4.332640055461383e-09, 5.778732074243006e-10, -2.277520588805752e-11,
    -5.335508698299919e-11, -1.8182100469122763e-11, -1.2407659913065849e-12,
    1.4248818166844845e-12, 5.084265101214693e-13, -4.221924226785864e-14,
    -6.879179225202733e-14, -6.50689883615322e-15, 8.044848744159226e-15,
    1.8216936221655667e-15, -9.718437613574041e-16, -3.3181841137768624e-16,
    1.328570351286924e-16, 5.470329831726796e-17, -2.1398114949027165e-17,
]


def test_large_argument_tables_are_the_chebyshev_expansions():
    for cheb, mono in ((K0_CHEBYSHEV, kernels._K0_LARGE), (K1_CHEBYSHEV, kernels._K1_LARGE),
                       (I0_CHEBYSHEV, kernels._I0_LARGE)):
        assert len(mono) == len(cheb)
        np.testing.assert_allclose(mono, cheb2poly(cheb), rtol=0.0, atol=1e-16)


def test_i0_chebyshev_coefficients_rederived_in_mpmath():
    # c_k = (2/N) sum_j f(cos th_j) cos(k th_j), th_j = pi (j + 1/2) / N, N = 64,
    # halved at k = 0, for f(x) = I_0(z) e^-z sqrt(z), z = 15.5 / (1 + x)
    nodes = 64
    with mpmath.workdps(40):
        theta = [mpmath.pi * (j + mpmath.mpf(0.5)) / nodes for j in range(nodes)]
        z = [mpmath.mpf(15.5) / (1 + mpmath.cos(t)) for t in theta]
        f = [mpmath.besseli(0, v) * mpmath.exp(-v) * mpmath.sqrt(v) for v in z]
        cheb = [float(2 * mpmath.fsum(v * mpmath.cos(k * t) for v, t in zip(f, theta)) / nodes)
                for k in range(len(I0_CHEBYSHEV))]
    cheb[0] /= 2
    np.testing.assert_allclose(cheb, I0_CHEBYSHEV, rtol=0.0, atol=1e-17)


def test_small_argument_tables_are_the_series_coefficients():
    # A&S 9.6.10-9.6.13 in t = z^2/4 with 40-digit mpmath, to one rounding
    n = kernels._K_TERMS + 1
    with mpmath.workdps(40):
        fac = [mpmath.factorial(k) for k in range(n + 1)]
        want = {
            "_I0_SERIES": [1 / fac[k] ** 2 for k in range(n)],
            "_I0_MID": [1 / mpmath.factorial(k) ** 2 for k in range(22)],
            "_K0_SERIES": [mpmath.harmonic(k) / fac[k] ** 2 for k in range(n)],
            "_I1_SERIES": [1 / (fac[k] * fac[k + 1]) for k in range(n)],
            "_K1_SERIES": [
                (mpmath.digamma(k + 1) + mpmath.digamma(k + 2)) / (2 * fac[k] * fac[k + 1])
                for k in range(n)
            ],
        }
        for name, ref in want.items():
            ref = np.array([float(v) for v in ref])
            np.testing.assert_allclose(getattr(kernels, name), ref, rtol=2.3e-16, atol=0.0)


def test_kernel_planes_match_difference_form():
    # fundamental_solution builds r from the coordinate planes; bit for
    # bit the (..., 2) difference + norm form
    lam = SpectralParam(2.0)
    rng = np.random.default_rng(3)
    x = rng.uniform(-2.0, 2.0, (300, 1, 2))
    y = rng.uniform(-2.0, 2.0, (1, 64, 2))
    diff = y - x
    r = np.linalg.norm(diff, axis=-1)
    np.testing.assert_array_equal(fundamental_solution(lam, x, y), _radial_g(lam.sqrt_lam, r))


def _mpmath_k(order: int, z: np.ndarray) -> np.ndarray:
    with mpmath.workdps(40):
        return np.array([float(mpmath.besselk(order, mpmath.mpf(float(v)))) for v in z])


K_TABLE = os.path.join(os.path.dirname(__file__), "data", "bessel_k_mpmath40.npy")


def test_bessel_accuracy_floor_against_mpmath():
    # rows z, K_0, K_1 on 3000 log-spaced points in [1e-6, 700]; floors
    # set on the evaluators before their block rewrite (3.65e-15, 2.74e-15),
    # K_0's tightened on the Horner tables (3.13e-15)
    z, k0, k1 = np.load(K_TABLE)
    np.testing.assert_array_equal(z, np.geomspace(1e-6, 700.0, 3000))
    sample = slice(0, None, 150)   # live guard on the frozen table
    for order, ref in ((0, k0), (1, k1)):
        np.testing.assert_array_equal(_mpmath_k(order, z[sample]), ref[sample])
    assert np.max(np.abs(bessel_k(0, z) - k0) / k0) <= 3.5e-15
    assert np.max(np.abs(bessel_k(1, z) - k1) / k1) <= 4e-15
    # I_0 up to sqrt(lambda) r = 26, the resolvable cap's precision limit
    # (1.92e-15 by the series to the block's term count, 4.80e-16 by the
    # fixed tables), and on to 700 (the series lost 6.5e-5 there)
    for x in (np.linspace(0.0, 26.0, 3000), np.linspace(26.0, 700.0, 300)):
        with mpmath.workdps(40):
            ref = np.array([float(mpmath.besseli(0, mpmath.mpf(float(v)))) for v in x])
        assert np.max(np.abs(_bessel_i0(x) - ref) / ref) <= 5e-16


def test_one_gauss_legendre_panel_is_the_affine_map_of_the_rule():
    # screen test vectors and the pulse's normalisation take one panel: it
    # must map the rule onto [a, b] as 0.5(b - a) x + 0.5(b + a), with
    # weights 0.5(b - a) w, bit for bit, so arcs.csv keeps its bytes
    rng = np.random.default_rng(5)
    for _ in range(2000):
        a = rng.uniform(-10.0, 10.0)
        b = a + 10.0 ** rng.uniform(-3.0, 1.0)
        order = int(rng.integers(2, 257))
        x, w = _gauss_legendre(order)
        nodes, weights = _gl_panels(a, b, b - a, order)
        assert np.array_equal(nodes, 0.5 * (b - a) * x + 0.5 * (b + a))
        assert np.array_equal(weights, 0.5 * (b - a) * w)

