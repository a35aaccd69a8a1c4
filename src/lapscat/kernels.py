"""Fundamental solution of (-Delta + lambda) in the plane and the
modified Bessel functions it needs.

The radial profile of the free-space kernel is

    g(r) = K_0(sqrt(lambda) r) / (2 pi)

with K_0 the modified Bessel function of the second kind; its
derivative brings in K_1.  Everything here is self-contained: K_0/K_1
are evaluated from their power series for z <= 2 and from Chebyshev
expansions of the scaled functions K_nu(z) e^z sqrt(z) for z > 2
(coefficients generated offline against a 60-digit reference; max
relative error ~ 4e-15 on (0, 700]).

All evaluators are vectorized over numpy arrays.
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

EULER_GAMMA = 0.5772156649015328606

# Distance below which two points are treated as coincident.
COINCIDENCE_TOL = 1e-14


@dataclass(frozen=True)
class SpectralParam:
    """Laplace-domain spectral parameter with its admissible floor.

    ``lam`` is the working parameter lambda; ``lower_bound`` is the
    lambda_Lambda of the boundary condition in force.  The resolvent
    formulas only make sense for lam > lower_bound >= 0.
    """

    lam: float
    lower_bound: float = 0.0

    def __post_init__(self) -> None:
        if not np.isfinite(self.lam) or not np.isfinite(self.lower_bound):
            raise SpectralParameterError("spectral parameters must be finite")
        if self.lower_bound < 0.0:
            raise SpectralParameterError(
                f"lower_bound must be >= 0, got {self.lower_bound}"
            )
        if self.lam <= self.lower_bound:
            raise SpectralParameterError(
                f"need lambda > lower_bound, got {self.lam} <= {self.lower_bound}"
            )

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


def _clenshaw(x: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    b1 = np.zeros_like(x)
    b2 = np.zeros_like(x)
    for c in coeffs[:0:-1]:
        b1, b2 = 2.0 * x * b1 - b2 + c, b1
    return x * b1 - b2 + coeffs[0]


def _bessel_i0(z: np.ndarray) -> np.ndarray:
    """I_0 by its (all-positive, cancellation-free) power series."""
    t = 0.25 * z * z
    term = np.ones_like(t)
    total = np.ones_like(t)
    k = 0
    while True:
        k += 1
        term = term * t / (k * k)
        total += term
        if np.all(term <= 1e-17 * total) or k > 400:
            return total


def _bessel_i1(z: np.ndarray) -> np.ndarray:
    t = 0.25 * z * z
    term = np.ones_like(t)
    total = np.ones_like(t)
    k = 0
    while True:
        k += 1
        term = term * t / (k * (k + 1.0))
        total += term
        if np.all(term <= 1e-17 * total) or k > 400:
            return 0.5 * z * total


def _k0_small(z: np.ndarray, i0: np.ndarray) -> np.ndarray:
    # K_0 = -(log(z/2)+gamma) I_0 + sum_{k>=1} H_k (z^2/4)^k / (k!)^2, i0 = I_0(z)
    t = 0.25 * z * z
    term = np.ones_like(t)
    harmonic = 0.0
    tail = np.zeros_like(t)
    for k in range(1, 24):
        term = term * t / (k * k)
        harmonic += 1.0 / k
        tail += harmonic * term
    return -(np.log(0.5 * z) + EULER_GAMMA) * i0 + tail


def _k1_small(z: np.ndarray) -> np.ndarray:
    # K_1 = 1/z + log(z/2) I_1 - (z/4) sum_k (psi(k+1)+psi(k+2)) t^k / (k!(k+1)!)
    t = 0.25 * z * z
    term = np.ones_like(t)
    psi_sum = 1.0 - 2.0 * EULER_GAMMA
    tail = psi_sum * term
    for k in range(1, 24):
        term = term * t / (k * (k + 1.0))
        psi_sum += 1.0 / k + 1.0 / (k + 1.0)
        tail += psi_sum * term
    return 1.0 / z + np.log(0.5 * z) * _bessel_i1(z) - 0.25 * z * tail


def _k01(order: int, z: np.ndarray, i0: np.ndarray | None = None) -> np.ndarray:
    """K_0 or K_1 at positive z; ``i0`` (I_0 at z) spares K_0 its own I_0 series."""
    table = _K0_LARGE if order == 0 else _K1_LARGE
    out = np.empty_like(z)
    small = z <= 2.0
    if np.any(small):
        zs = z[small]
        if order == 1:
            out[small] = _k1_small(zs)
        else:
            out[small] = _k0_small(zs, _bessel_i0(zs) if i0 is None else i0[small])
    if not np.all(small):
        zl = z[~small]
        x = (8.0 / zl - 2.0) * 0.5
        out[~small] = _clenshaw(x, table) * np.exp(-zl) / np.sqrt(zl)
    return out


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

def _pair_distances(x, y):
    """Broadcast two planar point sets; return (diff, r)."""
    x_arr = np.asarray(x, dtype=float)
    y_arr = np.asarray(y, dtype=float)
    if x_arr.shape[-1] != 2 or y_arr.shape[-1] != 2:
        raise DomainError("points must have trailing dimension 2")
    diff = y_arr - x_arr  # broadcast, shape (..., 2)
    r = np.linalg.norm(diff, axis=-1)
    return diff, r


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
    _, r = _pair_distances(x, y)
    r_flat = np.atleast_1d(r).ravel()
    if np.any(r_flat < COINCIDENCE_TOL):
        raise SingularityError("fundamental_solution at coincident points")
    out = _radial_g(lam.sqrt_lam, r_flat)
    return float(out[0]) if np.ndim(r) == 0 else out.reshape(r.shape)


def fundamental_solution_gradient(lam: SpectralParam, x, y):
    """Gradient of g_lambda(x, y) with respect to the second argument y.

    Equals g'(r) (y - x)/r; antisymmetric under swapping x and y.
    """
    diff, r = _pair_distances(x, y)
    diff2 = diff.reshape(-1, 2)
    r_flat = np.atleast_1d(r).ravel()
    if np.any(r_flat < COINCIDENCE_TOL):
        raise SingularityError("gradient at coincident points")
    dg = _radial_dg(lam.sqrt_lam, r_flat)
    grad = (dg / r_flat)[:, None] * diff2
    return grad.reshape(diff.shape)
