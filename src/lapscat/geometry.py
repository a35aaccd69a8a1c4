"""Parametrized boundaries, screens, probe regions and evaluation grids.

Curves are closed, smooth, counterclockwise, discretized at nodes
equispaced in the quadrature parameter tau in [0, 2pi).  An optional
grading map tau -> w(tau) clusters nodes around two parameter values
(screen endpoints) while keeping the node set equispaced in tau, which
is what the trigonometric quadrature rules downstream require.  The
grading is the two-piece sine profile

    w(p + s) = p + s - (beta L / 2pi) sin(2 pi s / L)     on each piece,

which maps each piece [p, p+L] onto itself with w' in [1-beta, 1+beta].

Quadrature weights are (2pi/n) |dq/dtau|; the discrete L2(Gamma) inner
product is sum_j w_j u_j v_j.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BoundaryAmbiguityError, GeometryError, ScreenError

TWO_PI = 2.0 * math.pi


def _lock(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr, dtype=float)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class BoundaryGeometry:
    """Discretized closed curve Gamma with quadrature data.

    nodes[j] = q(w(tau_j)), tangents[j] = dq/dtau (grading included),
    normals unit outward, weights[j] = (2pi/n) |dq/dtau|.  ``params``
    are the equispaced quadrature parameters tau_j, ``shape_params``
    the original shape parameter values w(tau_j).
    """

    nodes: np.ndarray        # (n, 2)
    tangents: np.ndarray     # (n, 2), dq/dtau, not normalized
    normals: np.ndarray      # (n, 2), unit outward
    weights: np.ndarray      # (n,)
    params: np.ndarray       # (n,) equispaced tau_j
    shape_params: np.ndarray  # (n,) w(tau_j) in the shape's own parameter
    shape: str = "custom"

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def jacobians(self) -> np.ndarray:
        return np.linalg.norm(self.tangents, axis=1)

    def perimeter(self) -> float:
        return float(np.sum(self.weights))

    def diameter(self) -> float:
        return float(np.max(_distances(self.nodes, self.nodes)))


@dataclass(frozen=True)
class ScreenGeometry:
    """Relatively open screen Sigma subset Gamma given by a parameter interval."""

    parent: BoundaryGeometry
    active_mask: np.ndarray   # (n,) bool
    endpoint_params: tuple[float, float]

    @property
    def active_indices(self) -> np.ndarray:
        return np.flatnonzero(self.active_mask)

    @property
    def n_active(self) -> int:
        return int(np.count_nonzero(self.active_mask))


@dataclass(frozen=True)
class ProbeRegion:
    """Weighted sample points defining the discrete L2(B) inner product."""

    points: np.ndarray   # (m, 2)
    weights: np.ndarray  # (m,)


@dataclass(frozen=True)
class EvaluationGrid:
    """Rectangular lattice of indicator sampling points."""

    points: np.ndarray   # (res*res, 2), row-major over (y, x)
    bounds: tuple[tuple[float, float], tuple[float, float]]
    resolution: int


# ----------------------------------------------------------------------
# shape catalogue
# ----------------------------------------------------------------------

# the parameters each shape takes
_SHAPE_PARAMS = {"circle": ("radius", "center"), "ellipse": ("a", "b", "center"),
                "kite": (), "peanut": ("scale",)}


def _shape_functions(shape: str, params: dict):
    """Return (position, derivative) callables t -> (n,2) arrays."""
    p = dict(params or {})
    if not isinstance(shape, str) or shape not in _SHAPE_PARAMS:
        raise GeometryError(f"unknown shape {shape!r}")
    unknown = set(p) - set(_SHAPE_PARAMS[shape])
    if unknown:
        raise GeometryError(f"unknown {shape} parameters: {sorted(unknown)}")
    if shape == "circle":
        radius = float(p.get("radius", 1.0))
        if radius <= 0:
            raise GeometryError("circle radius must be positive")
        shape, p = "ellipse", {**p, "a": radius, "b": radius}

    if shape == "ellipse":
        a = float(p.get("a", 2.0))
        b = float(p.get("b", 1.0))
        cx, cy = map(float, p.get("center", (0.0, 0.0)))
        if a <= 0 or b <= 0:
            raise GeometryError("ellipse semi-axes must be positive")

        def pos(t):
            return np.stack([cx + a * np.cos(t), cy + b * np.sin(t)], axis=-1)

        def der(t):
            return np.stack([-a * np.sin(t), b * np.cos(t)], axis=-1)

        return pos, der

    if shape == "kite":
        # standard non-convex scattering benchmark
        def pos(t):
            return np.stack(
                [np.cos(t) + 0.65 * np.cos(2.0 * t) - 0.65, 1.5 * np.sin(t)], axis=-1
            )

        def der(t):
            return np.stack(
                [-np.sin(t) - 1.3 * np.sin(2.0 * t), 1.5 * np.cos(t)], axis=-1
            )

        return pos, der

    if shape == "peanut":
        scale = float(p.get("scale", 1.0))
        if scale <= 0:
            raise GeometryError("peanut scale must be positive")

        def pos(t):
            r = 0.5 * scale * np.sqrt(3.0 * np.cos(t) ** 2 + 1.0)
            return np.stack([r * np.cos(t), r * np.sin(t)], axis=-1)

        def der(t):
            r2 = 3.0 * np.cos(t) ** 2 + 1.0
            r = 0.5 * scale * np.sqrt(r2)
            dr = -0.75 * scale * np.sin(2.0 * t) / np.sqrt(r2)
            return np.stack(
                [dr * np.cos(t) - r * np.sin(t), dr * np.sin(t) + r * np.cos(t)],
                axis=-1,
            )

        return pos, der


def _grading_map(cluster: tuple[float, float, float], tau: np.ndarray):
    """Two-point clustering reparametrization at tau; returns (w, w')."""
    a, b, beta = cluster
    a = float(a) % TWO_PI
    b = float(b) % TWO_PI
    if b <= a:
        b += TWO_PI
    if not 0.0 <= beta < 1.0:
        raise GeometryError("cluster strength beta must lie in [0, 1)")
    len1 = b - a
    len2 = TWO_PI - len1
    if len1 <= 0 or len2 <= 0:
        raise GeometryError("cluster endpoints must be distinct modulo 2 pi")
    # each point's piece [start, start + length] of the parameter shifted by a
    s = (tau - a) % TWO_PI
    first = s <= len1
    start = np.where(first, 0.0, len1)
    length = np.where(first, len1, len2)
    u = s - start
    phase = TWO_PI * u / length
    w = a + (start + u - (beta * length / TWO_PI) * np.sin(phase))
    return w % TWO_PI, 1.0 - beta * np.cos(phase)


def make_curve(
    shape: str,
    params: dict | None = None,
    n_nodes: int = 128,
    cluster: tuple[float, float, float] | None = None,
) -> BoundaryGeometry:
    """Discretize a built-in closed curve at n_nodes equispaced parameters.

    Parameters
    ----------
    shape : one of "circle", "ellipse", "kite", "peanut"
    params : shape parameters (radius, semi-axes, scale, center)
    n_nodes : even node count >= 8
    cluster : optional (a, b, beta) grading that clusters nodes at the
        shape parameters a and b (used for screen endpoints).
    """
    if n_nodes < 8 or n_nodes % 2 != 0:
        raise GeometryError("n_nodes must be even and >= 8")
    pos, der = _shape_functions(shape, params or {})
    tau = TWO_PI * np.arange(n_nodes) / n_nodes
    if cluster is not None:
        t, dw = _grading_map(cluster, tau)
    else:
        t = tau
        dw = np.ones_like(tau)

    nodes = pos(t)
    tangents = der(t) * dw[:, None]
    jac = np.linalg.norm(tangents, axis=1)
    if np.any(jac <= 0) or not np.all(np.isfinite(nodes)):
        raise GeometryError("degenerate parametrization (zero Jacobian)")
    normals = np.stack([tangents[:, 1], -tangents[:, 0]], axis=1) / jac[:, None]
    weights = (TWO_PI / n_nodes) * jac

    return BoundaryGeometry(
        nodes=_lock(nodes),
        tangents=_lock(tangents),
        normals=_lock(normals),
        weights=_lock(weights),
        params=_lock(tau),
        shape_params=_lock(t),
        shape=shape,
    )


def make_screen(parent: BoundaryGeometry, param_interval) -> ScreenGeometry:
    """Select the screen Sigma = { q(t) : t in [a, b) } on the parent curve.

    The interval is half-open so that, e.g., [0, pi] on an equispaced
    even discretization activates exactly half the nodes.  Sigma must be
    proper (neither empty nor all of Gamma) and carry >= 4 nodes.
    """
    a, b = float(param_interval[0]), float(param_interval[1])
    length = b - a
    if not (0.0 < length < TWO_PI - 1e-12):
        raise ScreenError(
            f"screen interval must be proper and nonempty, got length {length}"
        )
    rel = (parent.shape_params - a) % TWO_PI
    mask = rel < length - 1e-12 * max(1.0, length)
    # the left endpoint node (rel == 0) counts as active under half-open logic
    mask |= np.isclose(rel, 0.0, atol=1e-12) | np.isclose(rel, TWO_PI, atol=1e-12)
    if int(mask.sum()) < 4:
        raise ScreenError(f"screen carries only {int(mask.sum())} nodes, need >= 4")
    if mask.all():
        raise ScreenError("screen interval covers every node; Sigma must be proper")
    mask = np.ascontiguousarray(mask)
    mask.flags.writeable = False
    return ScreenGeometry(parent=parent, active_mask=mask, endpoint_params=(a, b))


def make_probe(center, radius: float, n_points: int, layout: str = "ring") -> ProbeRegion:
    """Build the measurement region B as weighted sample points."""
    if n_points < 8:
        raise GeometryError("probe needs at least 8 points")
    if not 0 < radius < math.inf:  # NaN too
        raise GeometryError(f"probe radius must be positive and finite, got {radius!r}")
    cx, cy = float(center[0]), float(center[1])
    if not np.isfinite([cx, cy]).all():
        raise GeometryError(f"probe center must be finite, got {(cx, cy)!r}")
    if layout == "ring":
        th = TWO_PI * np.arange(n_points) / n_points
        pts = np.stack([cx + radius * np.cos(th), cy + radius * np.sin(th)], axis=1)
        wts = np.full(n_points, TWO_PI * radius / n_points)
    elif layout == "disk_grid":
        per_axis = int(math.ceil(math.sqrt(n_points)))
        cell = 2.0 * radius / per_axis
        coords = -radius + cell * (np.arange(per_axis) + 0.5)
        gx, gy = np.meshgrid(coords, coords, indexing="xy")
        pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
        inside = np.linalg.norm(pts, axis=1) <= radius
        pts = pts[inside] + np.array([cx, cy])
        wts = np.full(pts.shape[0], cell * cell)
        if pts.shape[0] < 8:
            raise GeometryError("disk grid too coarse; fewer than 8 interior cells")
    else:
        raise GeometryError(f"unknown probe layout {layout!r}")
    return ProbeRegion(points=_lock(pts), weights=_lock(wts))


def make_grid(bounds, resolution: int) -> EvaluationGrid:
    """Rectangular evaluation lattice, row-major over (y, x)."""
    if resolution < 2:
        raise GeometryError("grid resolution must be >= 2")
    (x0, x1), (y0, y1) = bounds
    if not np.isfinite([x0, x1, y0, y1]).all():
        raise GeometryError(f"grid bounds must be finite, got {bounds!r}")
    if not (x1 > x0 and y1 > y0):
        raise GeometryError("grid bounds must be non-degenerate")
    xs = np.linspace(x0, x1, resolution)
    ys = np.linspace(y0, y1, resolution)
    gx, gy = np.meshgrid(xs, ys, indexing="xy")
    pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
    return EvaluationGrid(
        points=_lock(pts),
        bounds=((x0, x1), (y0, y1)),
        resolution=resolution,
    )


# ----------------------------------------------------------------------
# predicates
# ----------------------------------------------------------------------

# points per block of the (m, n) pair planes below: bounds their size
_ROW_BLOCK = 512


def _squared_norm(dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """dx^2 + dy^2 of two coordinate planes, in place in both."""
    dx *= dx
    dy *= dy
    dx += dy
    return dx


def _plane_norm(dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """sqrt(dx^2 + dy^2) of two coordinate planes, in place in both."""
    return np.sqrt(_squared_norm(dx, dy), out=dx)


def _distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(m, n) distances |a_i - b_j| of planar point sets, from the x and y
    planes rather than an (m, n, 2) difference."""
    return _plane_norm(a[:, 0, None] - b[:, 0], a[:, 1, None] - b[:, 1])


def _by_row_blocks(points, fn) -> np.ndarray:
    """fn over fixed-size row blocks of the points, one value per point."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    out = np.empty(pts.shape[0])
    for lo in range(0, pts.shape[0], _ROW_BLOCK):
        out[lo:lo + _ROW_BLOCK] = fn(pts[lo:lo + _ROW_BLOCK])
    return out


def winding_fraction(geom: BoundaryGeometry, points: np.ndarray) -> np.ndarray:
    """Winding number of the node polygon around each point (vectorized)."""
    nxt = np.roll(geom.nodes, -1, axis=0)

    def block(pts):
        # (m, n) planes of v = node - point and w = next node - point
        vx, vy = geom.nodes[:, 0] - pts[:, 0, None], geom.nodes[:, 1] - pts[:, 1, None]
        wx, wy = nxt[:, 0] - pts[:, 0, None], nxt[:, 1] - pts[:, 1, None]
        dot = vx * wx
        vx *= wy
        dot += np.multiply(vy, wy, out=wy)   # v . w
        vx -= np.multiply(vy, wx, out=vy)    # v x w
        return np.sum(np.arctan2(vx, dot, out=vx), axis=1) / TWO_PI

    return _by_row_blocks(points, block)


def contains(geom: BoundaryGeometry, x) -> bool:
    """Winding-number containment test for a single point."""
    x_arr = np.asarray(x, dtype=float)
    dist = np.min(np.linalg.norm(geom.nodes - x_arr[None, :], axis=1))
    if dist < 1e-9:
        raise BoundaryAmbiguityError("query point lies (numerically) on the boundary")
    frac = float(winding_fraction(geom, x_arr[None, :])[0])
    if 0.25 < abs(frac) < 0.75:
        raise BoundaryAmbiguityError(
            f"winding fraction {frac:.3f} ambiguous; point too close to the boundary"
        )
    return abs(frac) > 0.5


def distance_to_boundary(geom: BoundaryGeometry, points: np.ndarray) -> np.ndarray:
    """Distance to the node set (dense-node approximation of dist(x, Gamma))."""
    return _by_row_blocks(points, lambda pts: _distances(pts, geom.nodes).min(axis=1))


def _inside_and_distance(
    geom: BoundaryGeometry, points: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Containment in the node polygon and `distance_to_boundary`, per
    point, from one pass over each row block's coordinate planes.

    Containment is the even-odd rule (Hormann & Agathos 2001): in the
    coordinates v = node - point, the edge (v_j, v_j+1) crosses the ray
    from the point along +x when it goes up across y = 0 (v_j.y <= 0 <
    v_j+1.y) with v_j x v_j+1 > 0, or down with v_j x v_j+1 < 0; an odd
    count is inside.  For a simple polygon this is the winding rule's
    answer at every point off the polygon, without one arctan2 per edge.
    The distances are bit-identical to `distance_to_boundary`'s.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    ring = np.concatenate([geom.nodes, geom.nodes[:1]])  # closed node polygon
    inside = np.empty(pts.shape[0], dtype=bool)
    dist = np.empty(pts.shape[0])
    for lo in range(0, pts.shape[0], _ROW_BLOCK):
        blk = slice(lo, lo + _ROW_BLOCK)
        vx = ring[:, 0] - pts[blk, 0, None]
        vy = ring[:, 1] - pts[blk, 1, None]
        above = vy > 0.0
        # the few edges that straddle y = 0; the cross product only there
        row, j = np.nonzero(above[:, 1:] != above[:, :-1])
        cross = vx[row, j] * vy[row, j + 1] - vy[row, j] * vx[row, j + 1]
        hits = (cross > 0.0) == above[row, j + 1]
        inside[blk] = np.bincount(row[hits], minlength=vx.shape[0]) % 2 == 1
        # the min over the squares, then one sqrt per point: sqrt is monotone
        dist[blk] = np.sqrt(_squared_norm(vx, vy).min(axis=1))
    return inside, dist


def validate_separation(
    geom: BoundaryGeometry, probe: ProbeRegion, margin: float
) -> bool:
    """True iff every probe point keeps distance > margin from Gamma and
    none lies inside Omega."""
    if margin <= 0:
        raise GeometryError("separation margin must be positive")
    inside, dists = _inside_and_distance(geom, probe.points)
    return bool(np.min(dists) > margin and not np.any(inside))


def validate_grid_covers(geom: BoundaryGeometry, grid: EvaluationGrid) -> bool:
    """Grid bounding box must strictly contain the curve."""
    (x0, x1), (y0, y1) = grid.bounds
    n = geom.nodes
    return bool(
        n[:, 0].min() > x0 and n[:, 0].max() < x1
        and n[:, 1].min() > y0 and n[:, 1].max() < y1
    )
