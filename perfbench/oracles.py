"""Reference values computed apart from lapscat.

Circle closed forms come from ``scipy.special``; the kite containment and
the scoring margin come from a fine polygon of the analytic kite.  None of
this imports lapscat, so a fault in the package cannot cancel out of a
check.

Circle of radius R, probe ring of radius rho, s = sqrt(lambda), one
Fourier mode m (m >= 1 counted twice):

    M_D eigenvalue   -R I_m(sR) K_m(sR)
    F_D eigenvalue   -rho I_m(sR) K_m(s rho)^2 / K_m(sR)
    F_N eigenvalue   -rho I'_m(sR) K_m(s rho)^2 / K'_m(sR)

M_theta = theta - gamma1 DL has mode-0 eigenvalue
theta + lambda R I_1(sR) K_1(sR), so for theta < 0 it turns definite
where that expression crosses zero.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import optimize, special

# ----------------------------------------------------------------------
# circle spectra
# ----------------------------------------------------------------------


def _with_multiplicity(mode_value, count: int) -> np.ndarray:
    """The `count` values of largest magnitude, mode 0 once, m >= 1 twice."""
    vals = []
    for m in range(count + 4):
        v = float(mode_value(m))
        vals.extend([v] if m == 0 else [v, v])
    vals = np.array(vals)
    order = np.argsort(-np.abs(vals), kind="stable")
    return vals[order][:count]


def circle_md_eigenvalues(lam: float, radius: float, count: int) -> np.ndarray:
    """Leading eigenvalues of M_D = -gamma0 SL on a circle."""
    x = math.sqrt(lam) * radius
    return _with_multiplicity(
        lambda m: -radius * special.iv(m, x) * special.kv(m, x), count
    )


def circle_fd_eigenvalues(lam: float, radius: float, rho: float, count: int) -> np.ndarray:
    """Leading eigenvalues of the Dirichlet data operator, ring probe rho."""
    s = math.sqrt(lam)
    return _with_multiplicity(
        lambda m: -rho * special.iv(m, s * radius) * special.kv(m, s * rho) ** 2
        / special.kv(m, s * radius),
        count,
    )


def circle_fn_eigenvalues(lam: float, radius: float, rho: float, count: int) -> np.ndarray:
    """Leading eigenvalues of the Neumann data operator, ring probe rho."""
    s = math.sqrt(lam)
    return _with_multiplicity(
        lambda m: -rho * special.ivp(m, s * radius) * special.kv(m, s * rho) ** 2
        / special.kvp(m, s * radius),
        count,
    )


def theta_bound_root(theta: float, radius: float = 1.0) -> float:
    """The lambda at which M_theta on a circle turns definite (theta < 0)."""
    if theta >= 0.0:
        raise ValueError("M_theta is definite for every lambda when theta >= 0")

    def mode0(lam):
        x = math.sqrt(lam) * radius
        return theta + lam * radius * special.iv(1, x) * special.kv(1, x)

    hi = 1.0
    while mode0(hi) <= 0.0:
        hi *= 2.0
    return float(optimize.brentq(mode0, 1e-12, hi, xtol=1e-14, rtol=1e-14))


def max_relative_error(got, want) -> float:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    return float(np.max(np.abs(got - want) / np.abs(want)))


# ----------------------------------------------------------------------
# the analytic kite as a fine polygon
# ----------------------------------------------------------------------

KITE_VERTICES = 4096
_CHUNK = 256


def kite_point(t):
    t = np.asarray(t, dtype=float)
    return np.stack(
        [np.cos(t) + 0.65 * np.cos(2.0 * t) - 0.65, 1.5 * np.sin(t)], axis=-1
    )


def kite_polygon(n: int = KITE_VERTICES) -> np.ndarray:
    return kite_point(2.0 * math.pi * np.arange(n) / n)


def polygon_contains(poly: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Crossing-number containment of each point in a closed polygon."""
    a = poly
    b = np.roll(poly, -1, axis=0)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    out = np.empty(pts.shape[0], dtype=bool)
    for lo in range(0, pts.shape[0], _CHUNK):
        px = pts[lo:lo + _CHUNK, 0:1]
        py = pts[lo:lo + _CHUNK, 1:2]
        straddle = (a[None, :, 1] > py) != (b[None, :, 1] > py)
        with np.errstate(divide="ignore", invalid="ignore"):
            x_cross = a[None, :, 0] + (py - a[None, :, 1]) * (
                (b[None, :, 0] - a[None, :, 0]) / (b[None, :, 1] - a[None, :, 1])
            )
        out[lo:lo + _CHUNK] = np.count_nonzero(straddle & (px < x_cross), axis=1) % 2 == 1
    return out


def polygon_distance(poly: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Distance from each point to the polygon's edges."""
    a = poly
    d = np.roll(poly, -1, axis=0) - a
    dd = np.sum(d * d, axis=1)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    out = np.empty(pts.shape[0])
    for lo in range(0, pts.shape[0], _CHUNK):
        rel = pts[lo:lo + _CHUNK, None, :] - a[None, :, :]
        t = np.clip(np.einsum("pek,ek->pe", rel, d) / dd, 0.0, 1.0)
        gap = rel - t[:, :, None] * d[None, :, :]
        out[lo:lo + _CHUNK] = np.sqrt(np.min(np.sum(gap * gap, axis=2), axis=1))
    return out


def kite_jaccard(points, mask, margin: float, oracle_cache: dict | None = None) -> float:
    """Jaccard index of `mask` against the kite interior, scoring only
    points farther than `margin` from the kite."""
    points = np.asarray(points, dtype=float)
    key = (points.shape, points.tobytes(), margin)
    cached = None if oracle_cache is None else oracle_cache.get(key)
    if cached is None:
        poly = kite_polygon()
        cached = (polygon_contains(poly, points), polygon_distance(poly, points) > margin)
        if oracle_cache is not None:
            oracle_cache[key] = cached
    inside, scored = cached
    m, o = np.asarray(mask)[scored], inside[scored]
    union = np.count_nonzero(m | o)
    return 1.0 if union == 0 else np.count_nonzero(m & o) / union
