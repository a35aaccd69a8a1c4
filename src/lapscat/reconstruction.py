"""Range-test reconstruction from the data operator's eigensystem.

A sampling point x is classified through the Picard series of its test
vector g_x (the fundamental solution centered at x, sampled on the
probe): the truncated sum S(x) = sum_k |<g_x, v_k>|^2 / |mu_k| stays
moderate when x lies inside the scatterer and blows up outside.  The
reported indicator is W = 1/S, so inside reads as large values.  Every
indicator here, for one test vector or a grid of them, comes from one
evaluation of S over rows of test fields (`_picard_sums`).  The
inf-criterion variant, the infimum of |<u, F u>| over the affine slice
<u, g> = 1 of a leading eigenspace, is a closed form: W itself (the
Lagrange value) when the retained eigenvalues are one-signed, else 0.

Open screens are probed with arc-integrated test vectors on a
hypothesized carrier curve; sweeping the arc along the curve separates
arcs on the screen from arcs on its complement.
"""

from __future__ import annotations

import math
import operator
import struct
from dataclasses import dataclass

import numpy as np

from .data_operator import DataOperator, _write_json, _write_lines
from .errors import (
    ConstraintError,
    DegenerateOperatorError,
    DomainError,
    SegmentationError,
)
from .geometry import (
    BoundaryGeometry,
    EvaluationGrid,
    ProbeRegion,
    _by_row_blocks,
    _inside_and_distance,
    _shape_functions,
)
from .kernels import SpectralParam, fundamental_solution

DEFAULT_TRUNCATION_FLOOR = 1e-8
DEFAULT_THRESHOLD_LEVEL = 0.2
SWEEP_MODES = ("picard", "inf", "both")
SEGMENT_RULES = ("fixed_threshold", "otsu")


@dataclass(frozen=True)
class TestVector:
    """Probe samples of a test field, in weighted probe coordinates."""

    __test__ = False  # not a pytest collection target

    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if not np.all(np.isfinite(v)):
            raise DomainError("test vector has non-finite entries")
        if np.linalg.norm(v) == 0.0:
            raise DomainError("test vector has zero norm")


@dataclass(frozen=True)
class TestArc:
    """Arc on a hypothesized carrier curve, for screen test vectors."""

    __test__ = False  # not a pytest collection target

    shape: str
    shape_params: dict | None
    interval: tuple[float, float]

    def __post_init__(self) -> None:
        a, b = self.interval
        if not b > a:
            raise DomainError("arc interval must have positive length")


@dataclass(frozen=True)
class IndicatorGrid:
    """Indicator values over an evaluation grid (finite by construction)."""

    grid: EvaluationGrid
    picard_values: np.ndarray
    inf_values: np.ndarray | None
    truncation_k: int

    def __post_init__(self) -> None:
        pv = np.asarray(self.picard_values, dtype=float)
        if np.any(pv < 0) or not np.all(np.isfinite(pv)):
            raise DomainError("picard values must be finite and non-negative")


@dataclass(frozen=True)
class SegmentationResult:
    mask: np.ndarray
    threshold: float
    rule: str
    jaccard: float | None = None
    accuracy: float | None = None
    n_scored: int | None = None


def _point_fields(probe: ProbeRegion, points: np.ndarray, lam: SpectralParam) -> np.ndarray:
    """Weighted probe samples of the point test fields centered at the
    rows of ``points``, one row each."""
    fields = fundamental_solution(lam, points[:, None, :], probe.points[None, :, :])
    fields *= np.sqrt(probe.weights)
    return fields


def make_test_vector(probe: ProbeRegion, x, lam: SpectralParam) -> TestVector:
    """Weighted probe samples of the point test field centered at x."""
    return TestVector(values=_point_fields(probe, np.asarray(x, dtype=float)[None, :], lam)[0])


def make_screen_test_vector(
    probe: ProbeRegion,
    arc: TestArc,
    lam: SpectralParam,
    n_quad: int = 256,
) -> TestVector:
    """Arc-integrated test vector: quadrature of the point field over the arc.

    Gauss-Legendre quadrature with n_quad nodes on the arc's parameter
    interval, pulled forward through the carrier curve.
    """
    # imported here so that the CLI's startup does not load time_domain
    from .time_domain import _gauss_legendre

    if n_quad < 2:
        raise DomainError("n_quad must be at least 2")
    pos, der = _shape_functions(arc.shape, arc.shape_params)
    a, b = arc.interval
    gl_nodes, gl_weights = _gauss_legendre(n_quad)
    t = 0.5 * (b - a) * gl_nodes + 0.5 * (b + a)
    w = 0.5 * (b - a) * gl_weights
    pts = pos(t)
    jac = np.linalg.norm(der(t), axis=1)
    vals = fundamental_solution(lam, pts[:, None, :], probe.points[None, :, :])
    integrated = (w * jac) @ vals
    weighted = np.sqrt(probe.weights) * integrated
    return TestVector(values=weighted)


def _retained(op: DataOperator, truncation_floor: float) -> int:
    if not 0.0 < truncation_floor < 1.0:
        raise DomainError("truncation_floor must lie in (0, 1)")
    mags = np.abs(op.eigenvalues)
    if mags.size == 0 or mags[0] == 0.0:
        raise DegenerateOperatorError("data operator has empty truncated spectrum")
    return int(np.count_nonzero(mags >= truncation_floor * mags[0]))


def _picard_sums(op: DataOperator, fields: np.ndarray, k: int) -> np.ndarray:
    """Truncated Picard sums sum_{j<k} <g, v_j>^2 / |mu_j|, one per row g
    of weighted test fields."""
    return ((fields @ op.eigenvectors[:, :k]) ** 2 / np.abs(op.eigenvalues[:k])).sum(axis=1)


def _reciprocals(sums: np.ndarray) -> np.ndarray:
    """Indicators 1/S; +inf where the test field misses the retained span."""
    with np.errstate(divide="ignore"):
        return np.where(sums > 0.0, 1.0 / sums, np.inf)


def picard_indicator(
    op: DataOperator,
    g: TestVector,
    truncation_floor: float = DEFAULT_TRUNCATION_FLOOR,
) -> float:
    """Reciprocal truncated Picard sum; +inf when g misses the retained span.

    Large values indicate that the test field is (numerically) in the
    range of the propagated operator, i.e. the source point is inside.
    """
    sums = _picard_sums(op, g.values[None, :], _retained(op, truncation_floor))
    return float(_reciprocals(sums)[0])


def _one_signed(mu: np.ndarray) -> bool:
    return bool(np.all(mu > 0) or np.all(mu < 0))


def inf_indicator(op: DataOperator, g: TestVector, subspace_k: int | None = None) -> float:
    """Infimum of |<u, F u>| over <u, g> = 1 in a leading eigenspace.

    In eigen-coordinates c of the first subspace_k eigenvectors the form
    is Q(c) = sum mu_k c_k^2 on the slice gamma.c = 1, gamma_k = <g, v_k>.
    One-signed mu give the Lagrange closed form 1 / sum gamma_k^2/|mu_k|,
    attained at c = mu^{-1} gamma / (gamma^T mu^{-1} gamma).  Mixed signs
    give 0: Q takes both signs on the (connected) slice, so it vanishes
    on it.
    """
    if subspace_k is None:
        subspace_k = _retained(op, DEFAULT_TRUNCATION_FLOOR)
    if not 1 <= subspace_k <= op.eigenvalues.size:
        raise DomainError(f"subspace_k {subspace_k} out of range")
    s = float(_picard_sums(op, g.values[None, :], subspace_k)[0])
    if s == 0.0 or not np.isfinite(s):
        raise ConstraintError("test vector orthogonal to the chosen subspace")
    if not _one_signed(op.eigenvalues[:subspace_k]):
        return 0.0
    return 1.0 / s


def sweep(
    op: DataOperator,
    probe: ProbeRegion,
    grid: EvaluationGrid,
    mode: str = "picard",
    truncation_floor: float = DEFAULT_TRUNCATION_FLOOR,
) -> IndicatorGrid:
    """Indicator values over all grid points, in fixed-size row blocks.

    Each block evaluates, projects and sums its own test vectors, so no
    intermediate grows with the grid.  Infinite Picard sentinels (test
    vector orthogonal to the retained span) then take the largest finite
    value on the whole grid.  The inf values on the retained block are the
    Picard values when it is one-signed and 0 otherwise (see `inf_indicator`).
    """
    if mode not in SWEEP_MODES:
        raise DomainError(f"unknown sweep mode {mode!r}")
    k = _retained(op, truncation_floor)
    sums = _by_row_blocks(
        grid.points, lambda pts: _picard_sums(op, _point_fields(probe, pts, op.lam), k)
    )
    picard = _reciprocals(sums)
    finite = np.isfinite(picard)
    if not np.all(finite):
        cap = float(picard[finite].max()) if np.any(finite) else 1.0
        picard = np.where(finite, picard, cap)

    inf_vals = None
    if mode in ("inf", "both"):
        inf_vals = picard.copy() if _one_signed(op.eigenvalues[:k]) else np.zeros_like(picard)

    return IndicatorGrid(
        grid=grid, picard_values=picard, inf_values=inf_vals, truncation_k=k
    )


def arc_sweep(
    op: DataOperator,
    probe: ProbeRegion,
    shape: str,
    params: dict | None,
    interval: tuple[float, float],
    arc_length: float,
    count: int,
    n_quad: int,
    truncation_floor: float = DEFAULT_TRUNCATION_FLOOR,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Picard indicator of `count` equal test arcs swept around a carrier.

    Arcs of parameter length arc_length are centered at equispaced
    parameters of [0, 2 pi); an arc is inside when it lies in the
    parameter interval (a, b) of the screen, taken mod 2 pi (a may be
    negative or b past 2 pi).  A sweep with no arc inside, or none
    outside, separates nothing and is refused.  The arcs' test fields
    are stacked and summed at once.  Returns (centers, indicators, inside).
    """
    if count < 1 or not 0.0 < arc_length < 2.0 * math.pi:
        raise DomainError("arc sweep needs count >= 1 and 0 < arc_length < 2 pi")
    a, b = interval
    centers = np.linspace(0.0, 2.0 * math.pi, count, endpoint=False)
    rel = (centers - 0.5 * arc_length - a + 1e-12) % (2.0 * math.pi)
    inside = rel + arc_length <= b - a + 2e-12
    if inside.all() or not inside.any():
        raise DomainError(f"arc sweep has {int(inside.sum())} of {count} arcs inside "
                          "the screen; it needs arcs both inside and outside")
    k = _retained(op, truncation_floor)
    fields = np.stack([
        make_screen_test_vector(
            probe, TestArc(shape, params, (c - 0.5 * arc_length, c + 0.5 * arc_length)),
            op.lam, n_quad=n_quad,
        ).values
        for c in centers
    ])
    return centers, _reciprocals(_picard_sums(op, fields, k)), inside


def _otsu_threshold(values: np.ndarray) -> float:
    """Otsu's between-class variance maximizer, on the log-indicator.

    Range-test indicators span many decades (the Picard sum diverges
    geometrically outside), so the bimodal structure lives on the log
    scale; the returned threshold is mapped back to indicator units.
    """
    vmax = float(values.max())
    logs = np.log10(np.maximum(values, vmax * 1e-15))
    lo, hi = float(logs.min()), float(logs.max())
    hist, edges = np.histogram(logs, bins=256, range=(lo, hi))
    centers = 0.5 * (edges[:-1] + edges[1:])
    total = hist.sum()
    w0 = np.cumsum(hist)
    w1 = total - w0
    m0 = np.cumsum(hist * centers)
    mtot = m0[-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        mu0 = m0 / w0
        mu1 = (mtot - m0) / w1
        between = w0 * w1 * (mu0 - mu1) ** 2
    between = np.where((w0 > 0) & (w1 > 0), between, -1.0)
    return float(10.0 ** centers[int(np.argmax(between))])


def segment(
    igrid: IndicatorGrid,
    geom: BoundaryGeometry | None = None,
    rule: str = "fixed_threshold",
    level: float = DEFAULT_THRESHOLD_LEVEL,
    margin_band: float | None = None,
) -> SegmentationResult:
    """Threshold the Picard indicator field; score against geometry if given.

    fixed_threshold uses level * max(values); otsu picks the histogram
    split.  Scoring (Jaccard index and classification accuracy against
    the containment oracle, crossing parity in the node polygon) excludes
    points within margin_band of the boundary (default 0.1 * diam); a band
    that is negative, and so would score points on the polygon, NaN or
    infinite is refused.  The oracle and the band test come from one
    blocked pass over the grid (`geometry._inside_and_distance`).
    """
    values = igrid.picard_values
    vmax, vmin = float(values.max()), float(values.min())
    if vmax == vmin:
        raise SegmentationError("constant indicator field cannot be segmented")
    if rule not in SEGMENT_RULES:
        raise DomainError(f"unknown segmentation rule {rule!r}")
    if rule == "fixed_threshold" and not 0.0 < level < 1.0:
        raise DomainError("threshold level must lie in (0,1)")
    threshold = level * vmax if rule == "fixed_threshold" else _otsu_threshold(values)
    mask = values >= threshold

    if geom is None:
        return SegmentationResult(mask=mask, threshold=threshold, rule=rule)

    if margin_band is None:
        margin_band = 0.1 * geom.diameter()
    if not 0.0 <= margin_band < math.inf:
        raise DomainError("margin band must be finite and non-negative")
    oracle, dist = _inside_and_distance(geom, igrid.grid.points)
    scored = dist > margin_band
    n_scored = int(np.count_nonzero(scored))
    if n_scored == 0:
        raise SegmentationError("margin band excludes every grid point")
    m, o = mask[scored], oracle[scored]
    inter = np.count_nonzero(m & o)
    union = np.count_nonzero(m | o)
    jaccard = 1.0 if union == 0 else inter / union
    accuracy = float(np.count_nonzero(m == o)) / n_scored
    return SegmentationResult(
        mask=mask, threshold=threshold, rule=rule,
        jaccard=float(jaccard), accuracy=accuracy, n_scored=n_scored,
    )


# ----------------------------------------------------------------------
# artifact export
# ----------------------------------------------------------------------

class _CommaReprs(dict):
    """repr(v) + "," of float64 values keyed by their bits, each made on
    first sight: -0.0 and 0.0 stay apart, and a grid's x and y columns
    hold only res distinct values each."""

    def __missing__(self, bits: int) -> str:
        text = self[bits] = repr(struct.unpack("d", struct.pack("Q", bits))[0]) + ","
        return text


def _float_items(values) -> memoryview:
    """A float column as a memoryview: iterating it makes one Python float
    at a time, where ``tolist`` would make them all at once."""
    return memoryview(np.asarray(values, dtype=float))


def write_indicator_csv(igrid: IndicatorGrid, path: str) -> None:
    """Per-point CSV: x, y, picard indicator, optional inf indicator.

    Every value is written as its repr; each distinct x and y coordinate
    is formatted once (`_CommaReprs`), whatever the points' layout.  The
    lines are made one at a time, so no per-point list is built.
    """
    pts = np.asarray(igrid.grid.points, dtype=float)
    xs, ys = (map(_CommaReprs().__getitem__, memoryview(pts[:, k].view(np.uint64)))
              for k in (0, 1))
    picard = map(repr, _float_items(igrid.picard_values))
    lines = map(operator.add, map(operator.add, xs, ys), picard)
    header = ("x", "y", "picard")
    if igrid.inf_values is not None:
        lines = map("{},{!r}".format, lines, _float_items(igrid.inf_values))
        header += ("inf",)
    _write_lines(path, lines, header)


# the PGM's gray levels, formatted once
_GRAY_LEVELS = [str(v) for v in range(256)]


def write_indicator_pgm(igrid: IndicatorGrid, path: str) -> None:
    """Plain-text PGM (P2) heatmap of the Picard values, top row = maximal y."""
    res = igrid.grid.resolution
    img = igrid.picard_values.reshape(res, res)  # rows indexed by y, columns by x
    vmin, vmax = float(img.min()), float(img.max())
    span = vmax - vmin
    if span == 0.0:
        levels = np.zeros_like(img, dtype=int)
    else:
        levels = np.rint(255.0 * (img - vmin) / span).astype(int)
    lines = ["P2", f"{res} {res}", "255"]
    for row in levels[::-1].tolist():
        lines.append(" ".join(map(_GRAY_LEVELS.__getitem__, row)))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_metrics_json(
    path: str,
    result: SegmentationResult,
    igrid: IndicatorGrid,
    op: DataOperator | None = None,
    extra: dict | None = None,
) -> None:
    """JSON metrics report (threshold, scores, truncation, spectrum)."""
    payload: dict = {
        "truncation_k": igrid.truncation_k,
        "indicator_max": float(np.max(igrid.picard_values)),
        "indicator_min": float(np.min(igrid.picard_values)),
        "threshold": result.threshold,
        "rule": result.rule,
        "jaccard": result.jaccard,
        "accuracy": result.accuracy,
        "n_scored": result.n_scored,
    }
    if op is not None:
        payload["eigenvalues"] = [float(v) for v in op.eigenvalues]
    if extra:
        payload.update(extra)
    _write_json(path, payload)
