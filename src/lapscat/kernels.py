"""Fundamental solution of (-Delta + lambda) in the plane and the
modified Bessel functions it needs.

The radial profile of the free-space kernel is

    g(r) = K_0(sqrt(lambda) r) / (2 pi)

with K_0 the modified Bessel function of the second kind; its
derivative g'(r), from which `boundary_ops` builds the double-layer
kernel, brings in K_1.  Everything here is self-contained: K_0/K_1
are evaluated from their power series for z <= 2 (15 terms) and from
Chebyshev expansions of the scaled functions K_nu(z) e^z sqrt(z) for
z > 2 (coefficients generated offline against a 60-digit reference);
I_0/I_1 from their power series, with the term count the largest
argument of a block needs.  Against 40-digit mpmath the largest
relative errors are 3.65e-15 (K_0) and 2.74e-15 (K_1) on 3000 points
of [1e-6, 700], and 1.92e-15 (I_0) on [0, 26].

All evaluators are vectorized over numpy arrays and run in blocks of
_BLOCK elements with in-place ufuncs, so the temporaries of a series or
Clenshaw sum stay in cache; a value does not depend on its block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    SingularityError,
    SpectralParameterError,
    UnsupportedOrderError,
)
from .geometry import _plane_norm

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

# Chebyshev coefficients of K_nu(z) e^z sqrt(z) in the variable
# x = (8/z - 2)/2 for z in (2, inf).  Generated offline (mpmath, 60 digits).
_K0_LARGE = np.array([
    1.2201515410329777, -0.03144810131196437, 0.0015698838857299497,
    -0.0001284954958162349, 1.3949813718866258e-05, -1.83175552268351e-06,
    2.766813632696905e-07, -4.660489883867097e-08, 8.574033618357213e-09,
    -1.6975340746598802e-09, 3.577391716191869e-10, -7.957463673498612e-11,
    1.855940522039359e-11, -4.5150067259792985e-12, 1.1393205219835931e-12,
    -2.973177259946169e-13, 8.077596562642335e-14, -2.1987242944206904e-14,
    6.033820786006286e-15, -1.1729747607996219e-15, 7.578478907223895e-16,
    4.440892098500626e-16, -9.364489859881755e-16,
])
_K1_LARGE = np.array([
    1.3603130952422213, 0.10392373657681737, -0.0028578168596228542,
    0.00019521551847141052, -1.936197974172771e-05, 2.4064849478168937e-06,
    -3.5019606084550564e-07, 5.741084133696315e-08, -1.0345762932341468e-08,
    2.015050213644975e-09, -4.1903609085040995e-10, 9.218335273863471e-11,
    -2.1299715614452946e-11, 5.1392127268765915e-12, -1.2902818909928417e-12,
    3.354997439284647e-13, -8.930054763289302e-14, 2.5153792092703003e-14,
    -7.390223698700498e-15, 2.736941108532451e-15, -4.102998134484274e-16,
    9.533436841889932e-16, -9.750654390186157e-16,
])


# elements per block of the Bessel passes: a block's temporaries stay in
# cache across the ~60 elementwise passes of a series or Chebyshev sum
_BLOCK = 32768

# small-z K series terms: for t = z^2/4 <= 1, term 16 on is below half an
# ulp of the partial sum
_K_TERMS = 15


def _by_blocks(fn, z, *aligned) -> np.ndarray:
    """fn over consecutive _BLOCK-element runs of z and of arrays aligned
    with it; the result has z's shape."""
    z = np.asarray(z, dtype=float)
    runs = [a.reshape(-1) for a in (z,) + aligned]
    out = np.empty(runs[0].shape)
    for lo in range(0, out.size, _BLOCK):
        out[lo:lo + _BLOCK] = fn(*(a[lo:lo + _BLOCK] for a in runs))
    return out.reshape(z.shape)


def _i_series(z: np.ndarray, order: int) -> np.ndarray:
    """I_0 or I_1 of one block by the (all-positive, cancellation-free)
    power series.  Terms run until the largest t needs no more; later
    terms fall below 1e-17 of every element's sum and leave it as is."""
    t = 0.25 * z * z
    top = int(np.argmax(t))
    term = np.ones_like(t)
    total = np.ones_like(t)
    k = 0
    while True:
        k += 1
        term *= t
        term /= k * (k + order)
        total += term
        if term[top] <= 1e-17 * total[top] or k > 400:
            return total * (0.5 * z) if order else total


def _bessel_i0(z: np.ndarray) -> np.ndarray:
    """I_0 of an array of any shape, block by block."""
    return _by_blocks(lambda b: _i_series(b, 0), z)


def _k0_small(z: np.ndarray, i0: np.ndarray) -> np.ndarray:
    # K_0 = -(log(z/2)+gamma) I_0 + sum_{k>=1} H_k (z^2/4)^k / (k!)^2, i0 = I_0(z)
    t = 0.25 * z * z
    term = np.ones_like(t)
    harmonic = 0.0
    tail = np.zeros_like(t)
    prod = np.empty_like(t)
    for k in range(1, _K_TERMS + 1):
        term *= t
        term /= k * k
        harmonic += 1.0 / k
        tail += np.multiply(term, harmonic, out=prod)
    return -(np.log(0.5 * z) + EULER_GAMMA) * i0 + tail


def _k1_small(z: np.ndarray) -> np.ndarray:
    # K_1 = 1/z + log(z/2) I_1 - (z/4) sum_k (psi(k+1)+psi(k+2)) t^k / (k!(k+1)!)
    t = 0.25 * z * z
    term = np.ones_like(t)
    psi_sum = 1.0 - 2.0 * EULER_GAMMA
    tail = psi_sum * term
    prod = np.empty_like(t)
    for k in range(1, _K_TERMS + 1):
        term *= t
        term /= k * (k + 1)
        psi_sum += 1.0 / k + 1.0 / (k + 1.0)
        tail += np.multiply(term, psi_sum, out=prod)
    return 1.0 / z + np.log(0.5 * z) * _i_series(z, 1) - 0.25 * z * tail


def _k_large(z: np.ndarray, table: np.ndarray) -> np.ndarray:
    # Clenshaw sum of K_nu(z) e^z sqrt(z), in place over three buffers
    x = (8.0 / z - 2.0) * 0.5
    x2 = 2.0 * x
    b0, b1, b2 = np.empty_like(z), np.zeros_like(z), np.zeros_like(z)
    for c in table[:0:-1]:
        np.multiply(x2, b1, out=b0)
        b0 -= b2
        b0 += c
        b0, b1, b2 = b2, b0, b1
    return (x * b1 - b2 + table[0]) * np.exp(-z) / np.sqrt(z)


def _k01_block(order: int, z: np.ndarray, i0: np.ndarray | None = None) -> np.ndarray:
    out = np.empty_like(z)
    small = z <= 2.0
    if np.any(small):
        zs = z[small]
        if order == 1:
            out[small] = _k1_small(zs)
        else:
            out[small] = _k0_small(zs, _bessel_i0(zs) if i0 is None else i0[small])
    if not np.all(small):
        out[~small] = _k_large(z[~small], _K0_LARGE if order == 0 else _K1_LARGE)
    return out


def _k01(order: int, z: np.ndarray, i0: np.ndarray | None = None) -> np.ndarray:
    """K_0 or K_1 at positive z; ``i0`` (I_0 at z) spares K_0 its own I_0 series."""
    aligned = () if i0 is None else (i0,)
    return _by_blocks(lambda b, *i: _k01_block(order, b, *i), z, *aligned)


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

def _pair_planes(x, y):
    """Broadcast two planar point sets; return the coordinate planes of y - x."""
    x_arr = np.asarray(x, dtype=float)
    y_arr = np.asarray(y, dtype=float)
    if x_arr.shape[-1] != 2 or y_arr.shape[-1] != 2:
        raise DomainError("points must have trailing dimension 2")
    return tuple(np.asarray(y_arr[..., k] - x_arr[..., k]) for k in (0, 1))


def _radial_g(sqrt_lam: float, r: np.ndarray) -> np.ndarray:
    return bessel_k(0, sqrt_lam * r) / (2.0 * np.pi)


def _radial_dg(sqrt_lam: float, r: np.ndarray) -> np.ndarray:
    """Derivative of the radial profile g(r)."""
    return -sqrt_lam * bessel_k(1, sqrt_lam * r) / (2.0 * np.pi)


def fundamental_solution(lam: SpectralParam, x, y):
    """Free-space kernel g_lambda(x, y) of (-Delta + lambda).

    Broadcasts over leading axes of x and y (trailing axis = coordinates).
    Raises SingularityError on coincident points.
    """
    r = _plane_norm(*_pair_planes(x, y))
    r_flat = np.atleast_1d(r).ravel()
    if np.any(r_flat < COINCIDENCE_TOL):
        raise SingularityError("fundamental_solution at coincident points")
    out = _radial_g(lam.sqrt_lam, r_flat)
    return float(out[0]) if np.ndim(r) == 0 else out.reshape(r.shape)
