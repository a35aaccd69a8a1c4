"""Kernel and Bessel-function tests.

Reference values below were computed first with scipy.special (kv/iv) and
frozen; one test re-derives them live so a stale freeze cannot go unnoticed.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from lapscat.errors import (
    DomainError,
    SingularityError,
    SpectralParameterError,
    UnsupportedOrderError,
)
from lapscat.kernels import (
    SpectralParam,
    bessel_k,
    fundamental_solution,
    fundamental_solution_gradient,
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
    assert SpectralParam(2.0, lower_bound=1.0).lam == 2.0
    with pytest.raises(SpectralParameterError):
        SpectralParam(0.0)
    with pytest.raises(SpectralParameterError):
        SpectralParam(-1.0)
    with pytest.raises(SpectralParameterError):
        SpectralParam(1.0, lower_bound=1.0)
    with pytest.raises(SpectralParameterError):
        SpectralParam(1.0, lower_bound=-0.5)
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


def test_gradient_matches_finite_differences():
    lam = SpectralParam(2.0)
    x = np.array([0.1, -0.3])
    y = np.array([1.2, 0.8])
    grad = fundamental_solution_gradient(lam, x, y)
    h = 1e-6
    for k in range(2):
        e = np.zeros(2)
        e[k] = h
        fd = (
            fundamental_solution(lam, x, y + e)
            - fundamental_solution(lam, x, y - e)
        ) / (2.0 * h)
        assert abs(grad[k] - fd) < 1e-8 * abs(fd)


def test_gradient_antisymmetric():
    lam = SpectralParam(1.0)
    x = np.array([0.0, 0.5])
    y = np.array([1.0, -0.4])
    gxy = fundamental_solution_gradient(lam, x, y)
    gyx = fundamental_solution_gradient(lam, y, x)
    np.testing.assert_allclose(gxy, -gyx, rtol=1e-14)


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
    with pytest.raises(SingularityError):
        fundamental_solution_gradient(lam, np.ones(2), np.ones(2))


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
