"""Fundamental solution of (-Delta + lambda) in the plane and the
modified Bessel functions it needs.

The radial profile of the free-space kernel is

    g(r) = K_0(sqrt(lambda) r) / (2 pi)

with K_0 the modified Bessel function of the second kind; its
derivative g'(r), from which `boundary_ops` builds the double-layer
kernel, brings in K_1.  For z <= 2, K_0, K_1 and I_0 are their power
series (A&S 9.6.10-9.6.13) cut at degree 15 in z^2/4; for z > 2, K_0
and K_1 are polynomials in 4/z - 1 for K_nu(z) e^z sqrt(z) (Chebyshev
fits to 60 digits, in powers).  I_0 has two more fixed tables: its
series to degree 21 for 2 < z <= 7.75, and beyond a polynomial in
15.5/z - 1 for I_0(z) e^-z sqrt(z) (a Chebyshev fit to 40 digits, in
powers).  Against 40-digit mpmath the largest relative errors are
3.13e-15 (K_0) and 2.74e-15 (K_1) on 3000 points of [1e-6, 700], and
4.80e-16 (I_0) on [0, 26] (3.98e-16 on [0, 700]).

Polynomials run by Horner's rule over blocks of _BLOCK elements, so
their temporaries stay in cache; a value does not depend on its block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .errors import (
    DomainError,
    SingularityError,
    SpectralParameterError,
    UnsupportedOrderError,
)
from .geometry import _BLOCK, _plane_norm

EULER_GAMMA = 0.5772156649015328606

# Distance below which two points are treated as coincident.
COINCIDENCE_TOL = 1e-14


@dataclass(frozen=True)
class SpectralParam:
    """Laplace-domain spectral parameter lambda > 0.

    The admissible floor lambda_Lambda of a boundary condition is
    enforced where the condition is known (`boundary_ops.assemble_M`).
    """

    lam: float

    def __post_init__(self) -> None:
        if not np.isfinite(self.lam):
            raise SpectralParameterError("spectral parameter must be finite")
        if self.lam <= 0.0:
            raise SpectralParameterError(f"need lambda > 0, got {self.lam}")

    @property
    def sqrt_lam(self) -> float:
        return float(np.sqrt(self.lam))


# ----------------------------------------------------------------------
# modified Bessel functions
# ----------------------------------------------------------------------

# Taylor degree in t = z^2/4 of the z <= 2 series: for t <= 1 the term of
# degree 16 is below half an ulp of every sum
_K_TERMS = 15

# Coefficients of t^k in A&S 9.6.10-9.6.13: 1/k!^2 (I_0), H_k/k!^2, 1/(k!(k+1)!)
# (I_1), (psi(k+1) + psi(k+2))/(2 k!(k+1)!); ratios of exact integers (f = k!,
# h = k! H_k), so each rational is correctly rounded.
_f = [math.factorial(k) for k in range(_K_TERMS + 2)]
_h = [sum(_f[k] // j for j in range(1, k + 1)) for k in range(_K_TERMS + 2)]
_I0_SERIES = [1 / _f[k] ** 2 for k in range(_K_TERMS + 1)]
_K0_SERIES = [_h[k] / _f[k] ** 3 for k in range(_K_TERMS + 1)]
_I1_SERIES = [1 / (_f[k] * _f[k + 1]) for k in range(_K_TERMS + 1)]
_K1_SERIES = [((k + 1) * _h[k] + _h[k + 1]) / (2 * _f[k] * _f[k + 1] ** 2) - EULER_GAMMA * c
              for k, c in enumerate(_I1_SERIES)]
del _f, _h

# K_nu(z) e^z sqrt(z), z > 2, in powers of x = 4/z - 1: Chebyshev fits to 60-digit
# mpmath made offline, converted to powers (tests/test_kernels.py re-derives them).
_K0_LARGE = [
    1.2185953385133943, -0.03107146182490037, 0.0030328918097668176,
    -0.0004797690565923342, 9.956056259639311e-05, -2.473520085829413e-05,
    7.002045881081459e-06, -2.191256730616655e-06, 7.442229396612832e-07,
    -2.6833548793586925e-07, 9.663524550611008e-08, -4.351367173829044e-08,
    3.46897195413476e-08, -2.4005519504577913e-09, -2.8238861452099754e-08,
    -8.595041277737397e-09, 3.773881041485331e-08, 5.520237407282642e-09,
    -2.6848916288303298e-08, -2.752210054060687e-09, 1.1198647806177972e-08,
    4.656612873077393e-10, -1.9638758638630743e-09,
]
_K1_LARGE = [
    1.3631518903713458, 0.10334973775386082, -0.005566729880586567,
    0.0007357241546890325, -0.00013959020462863393, 3.284387717701921e-05,
    -8.961399882176247e-06, 2.729884704916438e-06, -9.053381083266804e-07,
    3.23989078271117e-07, -1.2798066652818388e-07, 4.476645373237578e-08,
    -3.3035714453865698e-09, 1.6723076797738348e-08, -3.4223376133013517e-08,
    -9.563059986407019e-09, 3.499609074028938e-08, 1.0048888330145375e-08,
    -2.660406449728686e-08, -4.530707171753696e-09, 1.1031617127034978e-08,
    9.996533069921577e-10, -2.044860435568768e-09,
]

# I_0 for 2 < z <= 7.75 (t = z^2/4 <= 15.02): its series to degree 21, whose
# next term is below 1e-18 of every sum
_I0_MID = [1 / math.factorial(k) ** 2 for k in range(22)]

# I_0(z) e^-z sqrt(z), z > 7.75, in powers of x = 15.5/z - 1: a Chebyshev fit
# to 40-digit mpmath, in powers (tests/data/regenerate.py rebuilds it)
_I0_LARGE = [
    0.4022850564674586, 0.003478064623595508, 0.0001463049837014244,
    1.2470619505054964e-05, 1.7408596197355641e-06, 3.6969868816518073e-07,
    1.1886401965760468e-07, 5.637412204159785e-08, 3.0127981542335206e-08,
    6.068239172980919e-09, -1.6366426575350262e-08, -2.0887216489444128e-08,
    -1.7374451446512572e-09, 1.5436934109183205e-08, 6.372268793132446e-09,
    -9.505248467556929e-09, -5.147315885877321e-09, 5.221435870245512e-09,
    2.6071598626279645e-09, -2.276303290325059e-09, -8.049346343639875e-10,
    6.553743434252993e-10, 1.1472113147265513e-10, -8.975019912316443e-11,
]


def _by_blocks(fn, z, *aligned) -> np.ndarray:
    """fn over consecutive _BLOCK-element runs of z and of arrays aligned
    with it; the result has z's shape."""
    z = np.asarray(z, dtype=float)
    runs = [a.reshape(-1) for a in (z,) + aligned]
    out = np.empty(runs[0].shape)
    for lo in range(0, out.size, _BLOCK):
        out[lo:lo + _BLOCK] = fn(*(a[lo:lo + _BLOCK] for a in runs))
    return out.reshape(z.shape)


def _by_branch(small, large, z: np.ndarray, *aligned, at: float = 2.0) -> np.ndarray:
    """small(z, *aligned) at z <= at, large(z) elsewhere; one block, split only if mixed."""
    below = z <= at
    lo = np.flatnonzero(below)
    if lo.size in (0, z.size):
        return small(z, *aligned) if lo.size else large(z)
    hi = np.flatnonzero(~below)
    out = np.empty_like(z)
    out[lo] = small(z.take(lo), *(a.take(lo) for a in aligned))
    out[hi] = large(z.take(hi))
    return out


def _horner(x: np.ndarray, coeffs) -> np.ndarray:
    """sum_k coeffs[k] x^k, in place, two passes a term."""
    p = coeffs[-1] * x
    for c in coeffs[-2:0:-1]:
        p += c
        p *= x
    p += coeffs[0]
    return p


def _i0_small(z: np.ndarray) -> np.ndarray:
    return _horner(0.25 * z * z, _I0_SERIES)


def _i0_mid(z: np.ndarray) -> np.ndarray:
    return _horner(0.25 * z * z, _I0_MID)


def _i0_far(z: np.ndarray) -> np.ndarray:
    return _horner(15.5 / z - 1.0, _I0_LARGE) * np.exp(z) / np.sqrt(z)


def _bessel_i0(z: np.ndarray) -> np.ndarray:
    """I_0 of an array of any shape, block by block: the z <= 2 series, the
    longer series to z = 7.75, and the large-argument table beyond."""
    large = partial(_by_branch, _i0_mid, _i0_far, at=7.75)
    return _by_blocks(partial(_by_branch, _i0_small, large), z)


def _k0_small(z: np.ndarray, i0: np.ndarray | None = None) -> np.ndarray:
    # K_0 = K0_SERIES(t) - (log(z/2) + gamma) I_0
    t = 0.25 * z * z
    i0 = _horner(t, _I0_SERIES) if i0 is None else i0
    return _horner(t, _K0_SERIES) - (np.log(0.5 * z) + EULER_GAMMA) * i0


def _k1_small(z: np.ndarray) -> np.ndarray:
    # K_1 = 1/z + (z/2) (log(z/2) I1_SERIES(t) - K1_SERIES(t))
    half = 0.5 * z
    t = half * half
    return (_horner(t, _I1_SERIES) * np.log(half) - _horner(t, _K1_SERIES)) * half + 1.0 / z


def _k_large(table, z: np.ndarray) -> np.ndarray:
    return _horner(4.0 / z - 1.0, table) * np.exp(-z) / np.sqrt(z)


def _k01(order: int, z: np.ndarray, i0: np.ndarray | None = None) -> np.ndarray:
    """K_0 or K_1 at positive z; ``i0`` (I_0 at z) spares K_0 its own I_0 polynomial."""
    small = _k1_small if order else _k0_small
    large = partial(_k_large, _K1_LARGE if order else _K0_LARGE)
    aligned = () if i0 is None else (i0,)
    return _by_blocks(partial(_by_branch, small, large), z, *aligned)


def bessel_k(order: int, z):
    """Modified Bessel function of the second kind K_order(z).

    Supported orders: 0 and 1.  Vectorized in ``z``; all entries must be
    positive.

    Parameters
    ----------
    order : int
        0 or 1.
    z : float or array_like
        Positive argument(s).

    Returns
    -------
    float or ndarray
        K_order evaluated entrywise (positive, decreasing in z).
    """
    z_arr = np.asarray(z, dtype=float)
    scalar = z_arr.ndim == 0
    z_flat = np.atleast_1d(z_arr).ravel()
    if z_flat.size and (np.any(z_flat <= 0.0) or not np.all(np.isfinite(z_flat))):
        raise DomainError("bessel_k requires z > 0")
    if order not in (0, 1):
        raise UnsupportedOrderError(f"order {order} not in {{0, 1}}")
    out = _k01(int(order), z_flat)
    return float(out[0]) if scalar else out.reshape(z_arr.shape)


# ----------------------------------------------------------------------
# fundamental solutions
# ----------------------------------------------------------------------

def _radial_g(sqrt_lam: float, r: np.ndarray) -> np.ndarray:
    return bessel_k(0, sqrt_lam * r) / (2.0 * np.pi)


def _radial_dg(sqrt_lam: float, r: np.ndarray) -> np.ndarray:
    """Derivative of the radial profile g(r)."""
    return -sqrt_lam * bessel_k(1, sqrt_lam * r) / (2.0 * np.pi)


@lru_cache(maxsize=None)
def _gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre rule on [-1, 1], built once per order, read-only."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _gl_panels(t0: float, t1: float, max_width: float, order: int):
    """Composite Gauss-Legendre nodes/weights on [t0, t1], t1 > t0, in
    equal panels at most max_width wide; max_width = t1 - t0 gives one."""
    n_panels = max(1, int(math.ceil((t1 - t0) / max_width)))
    edges = np.linspace(t0, t1, n_panels + 1)
    gn, gw = _gauss_legendre(order)
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    nodes = (mid + half * gn[None, :]).ravel()
    weights = (half * gw[None, :]).ravel()
    return nodes, weights


def fundamental_solution(lam: SpectralParam, x, y):
    """Free-space kernel g_lambda(x, y) of (-Delta + lambda).

    Broadcasts over leading axes of x and y (trailing axis = coordinates).
    Raises SingularityError on coincident points.  The library samples g
    through `boundary_ops._layer_matrix`; this stays as its reference.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if x.shape[-1] != 2 or y.shape[-1] != 2:
        raise DomainError("points must have trailing dimension 2")
    # the coordinate planes of y - x
    r = _plane_norm(*(np.asarray(y[..., k] - x[..., k]) for k in (0, 1)))
    r_flat = np.atleast_1d(r).ravel()
    if np.any(r_flat < COINCIDENCE_TOL):
        raise SingularityError("fundamental_solution at coincident points")
    out = _radial_g(lam.sqrt_lam, r_flat)
    return float(out[0]) if np.ndim(r) == 0 else out.reshape(r.shape)
